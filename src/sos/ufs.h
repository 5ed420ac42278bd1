// Copyright (c) 2026 The SOS Authors. MIT License.
//
// UFS-style logical-unit view of an SOS device.
//
// The paper notes (§4.3) that the JEDEC UFS standard used by Android phones
// "already supports optional LUNs with varying reliability during power
// failures as well as dynamic device capacity" [75] -- i.e. SOS's two-class
// design maps onto an existing host interface. This module renders an
// SosDevice as a UFS-like unit descriptor table: one high-reliability LUN
// backed by the SYS pool and one degradable, dynamically-sized LUN backed by
// SPARE (+RESCUE), so host software written against UFS semantics can reason
// about an SOS device without new abstractions.

#ifndef SOS_SRC_SOS_UFS_H_
#define SOS_SRC_SOS_UFS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sos/sos_device.h"

namespace sos {

// Mirrors the spirit of the UFS unit descriptor fields the paper leans on.
struct UfsLunDescriptor {
  uint32_t lun_id = 0;
  std::string name;
  uint64_t capacity_bytes = 0;     // current (may shrink: dynamic capacity)
  uint64_t allocated_bytes = 0;    // valid data currently stored
  bool high_reliability = false;   // "enhanced" memory type in UFS terms
  bool dynamic_capacity = false;   // capacity may change over the LUN's life
  CellTech backing_mode = CellTech::kQlc;
  double mean_wear_pec = 0.0;
};

class UfsView {
 public:
  // `device` must outlive the view.
  explicit UfsView(const SosDevice* device) : device_(device) {}

  // LUN 0: SYS (enhanced reliability). LUN 1: SPARE+RESCUE (degradable,
  // dynamic capacity). Snapshot of the current state.
  std::vector<UfsLunDescriptor> Describe() const;

  // Renders the descriptor table the way `ufs-utils` would print it.
  std::string Render() const;

 private:
  const SosDevice* device_;
};

}  // namespace sos

#endif  // SOS_SRC_SOS_UFS_H_

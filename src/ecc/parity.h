// Copyright (c) 2026 The SOS Authors. MIT License.
//
// CRC32 integrity checking: the end-to-end check the host uses to notice
// silent corruption on the approximate partition.
//
// Block parity is not here. The SYS partition stores data "conservatively
// with additional redundancy (e.g., parity)" (paper §4.2), and the FTL's
// intra-block stripe is the one parity mechanism: Ftl::AppendPage XORs each
// data page into the open stripe and Ftl::WriteParityPage stores it, so a
// page whose ECC fails is rebuilt from the survivors.

#ifndef SOS_SRC_ECC_PARITY_H_
#define SOS_SRC_ECC_PARITY_H_

#include <cstdint>
#include <span>

namespace sos {

// Standard CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320).
uint32_t Crc32(std::span<const uint8_t> data);

}  // namespace sos

#endif  // SOS_SRC_ECC_PARITY_H_

// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/sos/ufs.h"

#include <cstdio>

#include "src/common/units.h"

namespace sos {

std::vector<UfsLunDescriptor> UfsView::Describe() const {
  const uint32_t page = device_->block_size();
  const PoolSnapshot sys = device_->SysSnapshot();
  const PoolSnapshot spare = device_->SpareSnapshot();
  const PoolSnapshot rescue = device_->RescueSnapshot();

  UfsLunDescriptor lun0;
  lun0.lun_id = 0;
  lun0.name = "sys (enhanced reliability)";
  lun0.capacity_bytes = sys.exported_pages * page;
  lun0.allocated_bytes = sys.valid_pages * page;
  lun0.high_reliability = true;
  lun0.dynamic_capacity = false;
  lun0.backing_mode = sys.mode;
  lun0.mean_wear_pec = sys.mean_pec;

  UfsLunDescriptor lun1;
  lun1.lun_id = 1;
  lun1.name = "spare (degradable, dynamic)";
  lun1.capacity_bytes = (spare.exported_pages + rescue.exported_pages) * page;
  lun1.allocated_bytes = (spare.valid_pages + rescue.valid_pages) * page;
  lun1.high_reliability = false;
  lun1.dynamic_capacity = true;  // retirement shrinks it ([74][75])
  lun1.backing_mode = spare.mode;
  lun1.mean_wear_pec = spare.mean_pec;

  return {lun0, lun1};
}

std::string UfsView::Render() const {
  std::string out;
  char line[256];
  for (const UfsLunDescriptor& lun : Describe()) {
    std::snprintf(line, sizeof(line),
                  "LUN %u  %-28s %10.2f MiB (%5.1f%% used)  %s  %s  mode=%s\n", lun.lun_id,
                  lun.name.c_str(), BytesToMiB(lun.capacity_bytes),
                  lun.capacity_bytes > 0
                      ? 100.0 * static_cast<double>(lun.allocated_bytes) /
                            static_cast<double>(lun.capacity_bytes)
                      : 0.0,
                  lun.high_reliability ? "RELIABLE " : "DEGRADABLE",
                  lun.dynamic_capacity ? "DYN-CAP" : "FIXED  ",
                  std::string(CellTechName(lun.backing_mode)).c_str());
    out += line;
  }
  return out;
}

}  // namespace sos

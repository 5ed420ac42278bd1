// Copyright (c) 2026 The SOS Authors. MIT License.

#include "perfbench/layers.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace sos::perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kConstruct:
      return "fleet.construct";
    case Layer::kRun:
      return "fleet.run";
    case Layer::kWorkload:
      return "host.workload";
    case Layer::kFs:
      return "host.fs";
    case Layer::kDevice:
      return "sos.device";
    case Layer::kScore:
      return "classify.score";
    case Layer::kTrain:
      return "classify.train";
    case Layer::kMigration:
      return "sos.migration";
    case Layer::kMonitor:
      return "sos.monitor";
    case Layer::kAutodelete:
      return "sos.autodelete";
    case Layer::kSample:
      return "sos.sample";
    case Layer::kBackgroundCollect:
      return "ftl.background_collect";
  }
  return "unknown";
}

void LayerProfile::Begin(Layer layer) {
  assert(depth_ < stack_.size());
  stack_[depth_++] = Frame{layer, NowNs(), 0};
}

void LayerProfile::End() {
  assert(depth_ > 0);
  const Frame frame = stack_[--depth_];
  const int64_t duration = NowNs() - frame.start_ns;
  Totals& totals = totals_[static_cast<size_t>(frame.layer)];
  totals.total_ns += duration;
  totals.self_ns += duration - frame.child_ns;
  ++totals.calls;
  if (depth_ > 0) {
    stack_[depth_ - 1].child_ns += duration;
  }
}

int64_t LayerProfile::SelfSum() const {
  int64_t sum = 0;
  for (const Totals& totals : totals_) {
    sum += totals.self_ns;
  }
  return sum;
}

Result<PlacementHandle> TimedBlockDevice::OpenPlacement(const PlacementSpec& spec) {
  Span span(profile_, Layer::kDevice);
  return inner_->OpenPlacement(spec);
}

Status TimedBlockDevice::ClosePlacement(PlacementHandle handle) {
  Span span(profile_, Layer::kDevice);
  return inner_->ClosePlacement(handle);
}

Result<PlacementSpec> TimedBlockDevice::DescribePlacement(PlacementHandle handle) const {
  Span span(profile_, Layer::kDevice);
  return inner_->DescribePlacement(handle);
}

Status TimedBlockDevice::Write(uint64_t lba, std::span<const uint8_t> data,
                               PlacementHandle handle) {
  Span span(profile_, Layer::kDevice);
  return inner_->Write(lba, data, handle);
}

Result<BlockReadResult> TimedBlockDevice::Read(uint64_t lba) {
  Span span(profile_, Layer::kDevice);
  return inner_->Read(lba);
}

Status TimedBlockDevice::Trim(uint64_t lba) {
  Span span(profile_, Layer::kDevice);
  return inner_->Trim(lba);
}

Status TimedBlockDevice::Reclassify(uint64_t lba, PlacementHandle handle) {
  Span span(profile_, Layer::kDevice);
  return inner_->Reclassify(lba, handle);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

// Bucket 0 holds [0, 1) us; bucket i >= 1 holds [2^((i-1)/64), 2^(i/64)).
void LatencyHistogram::Add(double us) {
  size_t bucket = 0;
  if (us >= 1.0) {
    bucket = std::min(kBuckets - 1, 1 + static_cast<size_t>(std::log2(us) * kPerOctave));
  }
  ++counts_[bucket];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
}

double LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0.0;
  }
  const double rank = std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(count_)));
  uint64_t before = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (static_cast<double>(before + counts_[i]) >= rank) {
      const double lo = i == 0 ? 0.0 : std::exp2(static_cast<double>(i - 1) / kPerOctave);
      const double hi = std::exp2(static_cast<double>(i) / kPerOctave);
      const double within = (rank - static_cast<double>(before)) / static_cast<double>(counts_[i]);
      return lo + (hi - lo) * within;
    }
    before += counts_[i];
  }
  return std::exp2(static_cast<double>(kBuckets) / kPerOctave);
}

void Digest::Add(uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (word >> (8 * i)) & 0xff;
    hash_ *= 0x100000001b3ull;
  }
}

}  // namespace sos::perfbench

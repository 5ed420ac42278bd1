// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/host/compression.h"

#include <algorithm>

namespace sos {

CompressionEstimate EstimateFile(const FileMeta& meta, double framing_overhead) {
  CompressionEstimate estimate;
  estimate.original_bytes = meta.size_bytes;
  const double entropy_fraction = std::clamp(meta.entropy_bits_per_byte / 8.0, 0.0, 1.0);
  const double compressed =
      static_cast<double>(meta.size_bytes) * entropy_fraction * (1.0 + framing_overhead);
  // Below ~3% gain an inline compressor stores the block raw.
  if (compressed >= static_cast<double>(meta.size_bytes) * 0.97) {
    estimate.compressed_bytes = meta.size_bytes;
  } else {
    estimate.compressed_bytes = static_cast<uint64_t>(compressed);
  }
  return estimate;
}

CorpusCompressionReport AnalyzeCorpus(std::span<const FileMeta> corpus,
                                      double framing_overhead) {
  CorpusCompressionReport report;
  for (const FileMeta& meta : corpus) {
    const CompressionEstimate file = EstimateFile(meta, framing_overhead);
    report.total.original_bytes += file.original_bytes;
    report.total.compressed_bytes += file.compressed_bytes;
    CompressionEstimate& type = report.by_type[static_cast<size_t>(meta.type)];
    type.original_bytes += file.original_bytes;
    type.compressed_bytes += file.compressed_bytes;
  }
  return report;
}

}  // namespace sos

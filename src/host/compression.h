// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Compression-potential analysis (paper §5, related work).
//
// The paper dismisses data-reduction methods for personal storage: media
// files (most personal bytes) are already entropy-coded, so transparent
// compression recovers little ([66][67][83-85]). This module quantifies that
// claim over a file population: per-file savings are modeled from content
// entropy (a byte stream of H bits/byte compresses to no less than H/8 of
// its size; real LZ-class compressors get close at a small framing cost),
// and a corpus-level report aggregates per type.
//
// A real bit-exact compressor is intentionally out of scope: the *analysis*
// only needs the entropy bound, which the synthetic corpus carries per file.

#ifndef SOS_SRC_HOST_COMPRESSION_H_
#define SOS_SRC_HOST_COMPRESSION_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/classify/file_meta.h"

namespace sos {

struct CompressionEstimate {
  uint64_t original_bytes = 0;
  uint64_t compressed_bytes = 0;
  double savings() const {
    return original_bytes > 0
               ? 1.0 - static_cast<double>(compressed_bytes) /
                           static_cast<double>(original_bytes)
               : 0.0;
  }
};

// Entropy-bound compression estimate for one file. `framing_overhead` models
// block headers/dictionaries (fraction of the compressed size); files whose
// entropy leaves less to gain than the framing costs are stored raw
// (savings 0), as real inline-compression FTLs do ([83]).
CompressionEstimate EstimateFile(const FileMeta& meta, double framing_overhead = 0.03);

// Corpus-level roll-up with a per-type breakdown.
struct CorpusCompressionReport {
  CompressionEstimate total;
  std::array<CompressionEstimate, kNumFileTypes> by_type{};
};

CorpusCompressionReport AnalyzeCorpus(std::span<const FileMeta> corpus,
                                      double framing_overhead = 0.03);

}  // namespace sos

#endif  // SOS_SRC_HOST_COMPRESSION_H_

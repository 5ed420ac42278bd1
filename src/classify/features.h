// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Feature extraction for the SOS classifiers.
//
// Turns a FileMeta into a fixed-length dense vector combining numeric
// attributes (log size, ages, access rates, entropy, significance signal),
// a one-hot file-type block, and a small hashed bag of path tokens (feature
// hashing keeps the vector fixed-size without a vocabulary).
//
// Extraction is split in two so a periodic scanner can cache what never
// changes. ExtractStaticFeatures covers the slots that depend only on a
// file's size and path, both fixed at creation; CompleteFeatures fills in
// the time- and access-dependent rest. ExtractFeatures is exactly their
// composition, bit for bit.
//
// The ground-truth fields of FileMeta are never read here.

#ifndef SOS_SRC_CLASSIFY_FEATURES_H_
#define SOS_SRC_CLASSIFY_FEATURES_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/classify/file_meta.h"

namespace sos {

inline constexpr size_t kNumericFeatures = 7;
inline constexpr size_t kPathHashBuckets = 16;
inline constexpr size_t kFeatureDim = kNumericFeatures + kNumFileTypes + kPathHashBuckets;

using FeatureVector = std::array<double, kFeatureDim>;

// The creation-time part of a file's features: log2(size + 1) and the
// per-bucket path-token counts. Counts are held as bytes to keep the record
// small; a path with more than 255 tokens in one bucket is out of contract
// (asserted).
struct StaticFeatures {
  double log_size = 0.0;
  std::array<uint8_t, kPathHashBuckets> path_buckets{};
};

StaticFeatures ExtractStaticFeatures(const FileMeta& meta);

// The full vector from a file's static part plus its current metadata;
// `now_us` anchors the age/recency features. Bitwise equal to
// ExtractFeatures(meta, now_us) when `features` came from `meta`.
FeatureVector CompleteFeatures(const StaticFeatures& features, const FileMeta& meta,
                               SimTimeUs now_us);

// Extracts features; `now_us` anchors the age/recency features.
FeatureVector ExtractFeatures(const FileMeta& meta, SimTimeUs now_us);

}  // namespace sos

#endif  // SOS_SRC_CLASSIFY_FEATURES_H_

// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/classify/features.h"

#include <cassert>
#include <cmath>
#include <string_view>

#include "src/common/rng.h"

namespace sos {
namespace {

double LogBytes(uint64_t bytes) { return std::log2(static_cast<double>(bytes) + 1.0); }

double AgeDays(SimTimeUs now, SimTimeUs then) {
  return now >= then ? UsToDays(now - then) : 0.0;
}

// FNV-1a over a path token.
uint64_t HashToken(std::string_view token) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : token) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

StaticFeatures ExtractStaticFeatures(const FileMeta& meta) {
  StaticFeatures s;
  s.log_size = LogBytes(meta.size_bytes);
  // Hashed path tokens ('/'-separated components, lowercase assumed).
  std::string_view path = meta.path;
  size_t start = 0;
  while (start < path.size()) {
    size_t end = path.find('/', start);
    if (end == std::string_view::npos) {
      end = path.size();
    }
    if (end > start) {
      const uint64_t h = HashToken(path.substr(start, end - start));
      uint8_t& count = s.path_buckets[h % kPathHashBuckets];
      assert(count < UINT8_MAX);
      ++count;
    }
    start = end + 1;
  }
  return s;
}

FeatureVector CompleteFeatures(const StaticFeatures& features, const FileMeta& meta,
                               SimTimeUs now_us) {
  FeatureVector f{};
  size_t i = 0;
  // Numeric block.
  f[i++] = features.log_size;
  f[i++] = std::log1p(AgeDays(now_us, meta.created_us)) / 3.0;
  f[i++] = std::log1p(AgeDays(now_us, meta.last_accessed_us)) / 3.0;
  // Reads per day of life; +1 day avoids the new-file singularity.
  const double life_days = AgeDays(now_us, meta.created_us) + 1.0;
  f[i++] = std::log1p(static_cast<double>(meta.read_count) / life_days);
  f[i++] = std::log1p(static_cast<double>(meta.write_count) / life_days);
  f[i++] = meta.entropy_bits_per_byte / 8.0;
  f[i++] = meta.personal_signal;

  // One-hot file type.
  f[kNumericFeatures + static_cast<size_t>(meta.type)] = 1.0;

  // Path-token counts (small integers, so exact as doubles).
  const size_t base = kNumericFeatures + kNumFileTypes;
  for (size_t b = 0; b < kPathHashBuckets; ++b) {
    f[base + b] = static_cast<double>(features.path_buckets[b]);
  }
  return f;
}

FeatureVector ExtractFeatures(const FileMeta& meta, SimTimeUs now_us) {
  return CompleteFeatures(ExtractStaticFeatures(meta), meta, now_us);
}

}  // namespace sos

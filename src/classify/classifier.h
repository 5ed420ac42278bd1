// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Classifier interfaces and the rule-based baseline.
//
// SOS needs two predictions per file (paper §4.4-4.5):
//   - priority: SYS (critical) vs SPARE (expendable) placement,
//   - deletion: will the user delete this file soon (the auto-delete
//     fallback's ranking signal).
// Both are binary classifiers over the same features; BinaryClassifier is
// the shared abstraction. The paper stresses "erring on the side of
// caution": the decision threshold is explicit so SOS can trade recall on
// EXPENDABLE against the risk of degrading something precious.
//
// RuleBasedClassifier is the strawman the paper dismisses ("straightforwardly
// classifying files of certain types as non-critical according to type is
// insufficient"): pure file-type rules, no content signal. It serves as the
// baseline in the E8 benchmark.

#ifndef SOS_SRC_CLASSIFY_CLASSIFIER_H_
#define SOS_SRC_CLASSIFY_CLASSIFIER_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "src/classify/features.h"
#include "src/classify/file_meta.h"
#include "src/host/placement.h"

namespace sos {

// A file's score at one instant plus an enclosure of its score over a time
// window during which the file's metadata does not change.
struct ScoreSpan {
  double at_t0 = 0.0;  // exactly ScoreCached(meta, features, t0)
  // lo <= ScoreCached(meta, features, t) <= hi for every t in [t0, t1].
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
};

// A binary classifier over FileMeta. Scores near 1 mean "positive class".
// For priority models the positive class is EXPENDABLE (safe-to-degrade);
// for deletion models it is WILL-DELETE.
class BinaryClassifier {
 public:
  virtual ~BinaryClassifier() = default;

  // P(positive) in [0, 1].
  virtual double Score(const FileMeta& meta, SimTimeUs now_us) const = 0;

  // Score() for a caller that already holds the file's static features
  // (ExtractStaticFeatures(meta), cached by the file system at creation).
  // Must return exactly Score(meta, now_us); the default simply forwards, so
  // a decorator that overrides only Score keeps working. A distinct name,
  // not an overload, so such an override cannot hide it.
  virtual double ScoreCached(const FileMeta& meta, const StaticFeatures& /*features*/,
                             SimTimeUs now_us) const {
    return Score(meta, now_us);
  }

  // ScoreCached at `t0` plus a guaranteed enclosure of ScoreCached(meta,
  // features, t) for every t in [t0, t1], valid while `meta` stays as it is.
  // The default encloses nothing (infinite bounds), so a model or decorator
  // that does not override it keeps being scored exactly on every call.
  virtual ScoreSpan ScoreSpanCached(const FileMeta& meta, const StaticFeatures& features,
                                    SimTimeUs t0, SimTimeUs /*t1*/) const {
    ScoreSpan span;
    span.at_t0 = ScoreCached(meta, features, t0);
    return span;
  }

  // Identifies the parameters behind ScoreSpanCached's bounds: a caller
  // holding bounds must drop them once this changes (a retrain assigned in
  // place). Models whose spans enclose nothing need not override it.
  virtual uint64_t Fingerprint() const { return 0; }

  // Hard decision at `threshold` (default 0.5). Higher thresholds are more
  // conservative about declaring a file expendable/deletable.
  bool Predict(const FileMeta& meta, SimTimeUs now_us, double threshold = 0.5) const {
    return Score(meta, now_us) >= threshold;
  }
};

// File-type-only baseline: media/cache/download are expendable, everything
// else critical. Ignores the personal-significance signal entirely.
class RuleBasedClassifier final : public BinaryClassifier {
 public:
  double Score(const FileMeta& meta, SimTimeUs now_us) const override;
};

// Maps file metadata onto the placement API's lifetime declaration. An
// explicit expected_lifetime_us wins (TTL'd cache objects); otherwise a
// coarse per-type heuristic (caches churn in days, app state in weeks,
// media and system data live for years). Deliberately simple -- the point
// of the directive API is that even crude host knowledge beats none.
inline LifetimeHint LifetimeHintFor(const FileMeta& meta) {
  if (meta.expected_lifetime_us > 0) {
    if (meta.expected_lifetime_us <= 7 * kUsPerDay) {
      return LifetimeHint::kShort;
    }
    if (meta.expected_lifetime_us <= 90 * kUsPerDay) {
      return LifetimeHint::kMedium;
    }
    return LifetimeHint::kLong;
  }
  switch (meta.type) {
    case FileType::kCache:
      return LifetimeHint::kShort;
    case FileType::kAppData:
    case FileType::kDownload:
      return LifetimeHint::kMedium;
    default:
      return LifetimeHint::kLong;
  }
}

// Label accessors shared by trainers/evaluators.
inline bool ExpendableLabel(const FileMeta& meta) {
  return meta.true_priority == Priority::kExpendable;
}
inline bool DeletionLabel(const FileMeta& meta) { return meta.will_be_deleted; }

using LabelFn = bool (*)(const FileMeta&);

// View of a corpus as non-owning pointers, the form trainers and evaluators
// consume (so train/test splits avoid copying FileMeta).
std::vector<const FileMeta*> AsPointers(const std::vector<FileMeta>& corpus);

}  // namespace sos

#endif  // SOS_SRC_CLASSIFY_CLASSIFIER_H_

// Copyright (c) 2026 The SOS Authors. MIT License.
//
// A classifier decorator that forces exact scoring. It overrides only Score,
// as a timing decorator would: the daemons' ScoreCached and ScoreSpanCached
// calls reach it through BinaryClassifier's forwarding defaults, and its
// spans enclose nothing, so a daemon driven through it scores every file on
// every scan. A test oracle for certified score windows: a run through the
// bare model must make the same decisions.

#ifndef SOS_TESTS_ORACLE_EXACT_SCORING_H_
#define SOS_TESTS_ORACLE_EXACT_SCORING_H_

#include <cstdint>

#include "src/classify/classifier.h"

namespace sos {

class ExactScoring final : public BinaryClassifier {
 public:
  explicit ExactScoring(const BinaryClassifier* inner) : inner_(inner) {}

  double Score(const FileMeta& meta, SimTimeUs now_us) const override {
    ++calls_;
    return inner_->Score(meta, now_us);
  }

  // Exact scores served so far.
  uint64_t calls() const { return calls_; }

 private:
  const BinaryClassifier* inner_;
  mutable uint64_t calls_ = 0;
};

}  // namespace sos

#endif  // SOS_TESTS_ORACLE_EXACT_SCORING_H_

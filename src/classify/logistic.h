// Copyright (c) 2026 The SOS Authors. MIT License.
//
// L2-regularized logistic regression trained with mini-batch SGD.
//
// The discriminative counterpart to the Naive Bayes model: typically a point
// or two more accurate on the synthetic corpus and the default classifier
// wired into SosDevice. Features are standardized with training-set
// statistics baked into the model.
//
// ScoreSpanCached bounds a file's score over a time window (see DESIGN.md
// §11): between accesses every feature is constant or monotone in time,
// so each weighted term is extreme at the window's endpoints.

#ifndef SOS_SRC_CLASSIFY_LOGISTIC_H_
#define SOS_SRC_CLASSIFY_LOGISTIC_H_

#include <array>
#include <vector>

#include "src/classify/classifier.h"

namespace sos {

class LogisticClassifier final : public BinaryClassifier {
 public:
  static LogisticClassifier Train(const std::vector<const FileMeta*>& corpus, LabelFn label_fn,
                                  SimTimeUs now_us);

  double Score(const FileMeta& meta, SimTimeUs now_us) const override;
  double ScoreCached(const FileMeta& meta, const StaticFeatures& features,
                     SimTimeUs now_us) const override;
  ScoreSpan ScoreSpanCached(const FileMeta& meta, const StaticFeatures& features, SimTimeUs t0,
                            SimTimeUs t1) const override;
  // A hash of every trained parameter, fixed at Train.
  uint64_t Fingerprint() const override { return fingerprint_; }

  const std::array<double, kFeatureDim>& weights() const { return w_; }
  double bias() const { return b_; }

 private:
  LogisticClassifier() = default;

  std::array<double, kFeatureDim> Standardize(const FeatureVector& f) const;
  // Feature j's weighted, standardized contribution to the logit.
  double Term(const FeatureVector& f, size_t j) const {
    return w_[j] * ((f[j] - feat_mean_[j]) / feat_std_[j]);
  }
  // The one scoring kernel behind Score and ScoreCached.
  double ScoreVector(const FeatureVector& f) const;

  std::array<double, kFeatureDim> w_{};
  double b_ = 0.0;
  std::array<double, kFeatureDim> feat_mean_{};
  std::array<double, kFeatureDim> feat_std_{};
  uint64_t fingerprint_ = 0;
};

}  // namespace sos

#endif  // SOS_SRC_CLASSIFY_LOGISTIC_H_

// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Gaussian Naive Bayes over the dense feature vector.
//
// Per class c and feature j the trainer fits a Gaussian N(mu_cj, sigma_cj^2)
// (variances floored for numerical stability); scoring combines per-feature
// log-likelihoods with the class prior and squashes the log-odds into a
// probability. Simple, fast to train, and a classic strong baseline on
// tabular metadata -- a plausible stand-in for the "machine-learning based
// classifier" the paper's background daemon runs on-device (§4.4).

#ifndef SOS_SRC_CLASSIFY_NAIVE_BAYES_H_
#define SOS_SRC_CLASSIFY_NAIVE_BAYES_H_

#include <array>
#include <vector>

#include "src/classify/classifier.h"

namespace sos {

class NaiveBayesClassifier final : public BinaryClassifier {
 public:
  // Trains on `corpus` with labels from `label_fn` (positive = true).
  // `now_us` anchors the time-derived features.
  static NaiveBayesClassifier Train(const std::vector<const FileMeta*>& corpus, LabelFn label_fn,
                                    SimTimeUs now_us);

  double Score(const FileMeta& meta, SimTimeUs now_us) const override;

 private:
  NaiveBayesClassifier() = default;

  struct ClassStats {
    std::array<double, kFeatureDim> mean{};
    std::array<double, kFeatureDim> var{};
    double log_prior = 0.0;
  };

  double LogLikelihood(const ClassStats& cls, const FeatureVector& f) const;

  ClassStats positive_;
  ClassStats negative_;
};

}  // namespace sos

#endif  // SOS_SRC_CLASSIFY_NAIVE_BAYES_H_

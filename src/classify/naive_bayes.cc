// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/classify/naive_bayes.h"

#include <algorithm>
#include <cmath>

namespace sos {
namespace {

constexpr double kVarianceFloor = 1e-4;

}  // namespace

NaiveBayesClassifier NaiveBayesClassifier::Train(const std::vector<const FileMeta*>& corpus,
                                                 LabelFn label_fn, SimTimeUs now_us) {
  NaiveBayesClassifier model;
  // First pass: means and counts.
  uint64_t n_pos = 0;
  uint64_t n_neg = 0;
  std::vector<FeatureVector> features;
  features.reserve(corpus.size());
  for (const FileMeta* meta : corpus) {
    features.push_back(ExtractFeatures(*meta, now_us));
    const bool positive = label_fn(*meta);
    ClassStats& cls = positive ? model.positive_ : model.negative_;
    uint64_t& n = positive ? n_pos : n_neg;
    ++n;
    for (size_t j = 0; j < kFeatureDim; ++j) {
      cls.mean[j] += features.back()[j];
    }
  }
  const double np = std::max<double>(1.0, static_cast<double>(n_pos));
  const double nn = std::max<double>(1.0, static_cast<double>(n_neg));
  for (size_t j = 0; j < kFeatureDim; ++j) {
    model.positive_.mean[j] /= np;
    model.negative_.mean[j] /= nn;
  }
  // Second pass: variances.
  size_t idx = 0;
  for (const FileMeta* meta : corpus) {
    const bool positive = label_fn(*meta);
    ClassStats& cls = positive ? model.positive_ : model.negative_;
    const FeatureVector& f = features[idx++];
    for (size_t j = 0; j < kFeatureDim; ++j) {
      const double d = f[j] - cls.mean[j];
      cls.var[j] += d * d;
    }
  }
  for (size_t j = 0; j < kFeatureDim; ++j) {
    model.positive_.var[j] = std::max(model.positive_.var[j] / np, kVarianceFloor);
    model.negative_.var[j] = std::max(model.negative_.var[j] / nn, kVarianceFloor);
  }
  // Laplace-smoothed priors.
  const double total = static_cast<double>(n_pos + n_neg) + 2.0;
  model.positive_.log_prior = std::log((static_cast<double>(n_pos) + 1.0) / total);
  model.negative_.log_prior = std::log((static_cast<double>(n_neg) + 1.0) / total);
  return model;
}

double NaiveBayesClassifier::LogLikelihood(const ClassStats& cls, const FeatureVector& f) const {
  double ll = cls.log_prior;
  for (size_t j = 0; j < kFeatureDim; ++j) {
    const double d = f[j] - cls.mean[j];
    ll += -0.5 * (std::log(2.0 * M_PI * cls.var[j]) + d * d / cls.var[j]);
  }
  return ll;
}

double NaiveBayesClassifier::Score(const FileMeta& meta, SimTimeUs now_us) const {
  const FeatureVector f = ExtractFeatures(meta, now_us);
  const double log_odds = LogLikelihood(positive_, f) - LogLikelihood(negative_, f);
  // Squash with a clamp: extreme log-odds saturate.
  if (log_odds > 30.0) {
    return 1.0;
  }
  if (log_odds < -30.0) {
    return 0.0;
  }
  return 1.0 / (1.0 + std::exp(-log_odds));
}

}  // namespace sos

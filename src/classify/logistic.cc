// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/classify/logistic.h"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <numeric>

#include "src/common/rng.h"

namespace sos {
namespace {

double Sigmoid(double z) {
  if (z > 30.0) {
    return 1.0;
  }
  if (z < -30.0) {
    return 0.0;
  }
  return 1.0 / (1.0 + std::exp(-z));
}

// Widening of a span's logit bounds, as a multiple of DBL_EPSILON times the
// span's `scale` (|b| + sum_j |w_j| (|f_j| + |mu_j|) / sigma_j). Every
// computed feature is within a few ulps of its exact, monotone value
// (UsToDays, log1p and the rate division each round once or twice);
// standardizing and weighting a term rounds three more times, and summing
// kFeatureDim terms adds at most kFeatureDim roundings of `scale`. Both the
// sampled score and the endpoint sums carry these errors; the margin is about
// three times their total.
constexpr double kSpanMarginEps = 4.0 * static_cast<double>(kFeatureDim + 16) * DBL_EPSILON;
// Relative widening of the sigmoid at the bounds: exp, the add and the
// division each round by at most an ulp, and the exact sigmoid is monotone.
constexpr double kSigmoidSlack = 8.0 * DBL_EPSILON;

// SGD training schedule.
constexpr int kEpochs = 30;
constexpr double kLearningRate = 0.15;
constexpr double kL2 = 1e-4;
constexpr uint64_t kShuffleSeed = 7;  // shuffling

}  // namespace

std::array<double, kFeatureDim> LogisticClassifier::Standardize(const FeatureVector& f) const {
  std::array<double, kFeatureDim> out{};
  for (size_t j = 0; j < kFeatureDim; ++j) {
    out[j] = (f[j] - feat_mean_[j]) / feat_std_[j];
  }
  return out;
}

LogisticClassifier LogisticClassifier::Train(const std::vector<const FileMeta*>& corpus, LabelFn label_fn,
                                             SimTimeUs now_us) {
  LogisticClassifier model;

  std::vector<FeatureVector> features;
  std::vector<double> labels;
  features.reserve(corpus.size());
  labels.reserve(corpus.size());
  for (const FileMeta* meta : corpus) {
    features.push_back(ExtractFeatures(*meta, now_us));
    labels.push_back(label_fn(*meta) ? 1.0 : 0.0);
  }

  // Standardization statistics.
  const double n = std::max<double>(1.0, static_cast<double>(features.size()));
  for (const auto& f : features) {
    for (size_t j = 0; j < kFeatureDim; ++j) {
      model.feat_mean_[j] += f[j];
    }
  }
  for (size_t j = 0; j < kFeatureDim; ++j) {
    model.feat_mean_[j] /= n;
  }
  for (const auto& f : features) {
    for (size_t j = 0; j < kFeatureDim; ++j) {
      const double d = f[j] - model.feat_mean_[j];
      model.feat_std_[j] += d * d;
    }
  }
  for (size_t j = 0; j < kFeatureDim; ++j) {
    model.feat_std_[j] = std::max(std::sqrt(model.feat_std_[j] / n), 1e-6);
  }

  // SGD with per-epoch shuffling and 1/sqrt(epoch) learning-rate decay.
  std::vector<size_t> order(features.size());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(DeriveSeed({kShuffleSeed, 0x6c6f67697374ull /* "logist" */}));
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    rng.Shuffle(order);
    const double lr = kLearningRate / std::sqrt(static_cast<double>(epoch) + 1.0);
    for (size_t idx : order) {
      const auto x = model.Standardize(features[idx]);
      double z = model.b_;
      for (size_t j = 0; j < kFeatureDim; ++j) {
        z += model.w_[j] * x[j];
      }
      const double err = Sigmoid(z) - labels[idx];
      for (size_t j = 0; j < kFeatureDim; ++j) {
        model.w_[j] -= lr * (err * x[j] + kL2 * model.w_[j]);
      }
      model.b_ -= lr * err;
    }
  }
  uint64_t fingerprint =
      DeriveSeed({0x66696e6765ull /* "finge" */, std::bit_cast<uint64_t>(model.b_)});
  for (size_t j = 0; j < kFeatureDim; ++j) {
    fingerprint = DeriveSeed({fingerprint, std::bit_cast<uint64_t>(model.w_[j]),
                              std::bit_cast<uint64_t>(model.feat_mean_[j]),
                              std::bit_cast<uint64_t>(model.feat_std_[j])});
  }
  model.fingerprint_ = fingerprint;
  return model;
}

double LogisticClassifier::ScoreVector(const FeatureVector& f) const {
  double z = b_;
  for (size_t j = 0; j < kFeatureDim; ++j) {
    z += Term(f, j);
  }
  return Sigmoid(z);
}

double LogisticClassifier::Score(const FileMeta& meta, SimTimeUs now_us) const {
  return ScoreVector(ExtractFeatures(meta, now_us));
}

double LogisticClassifier::ScoreCached(const FileMeta& meta, const StaticFeatures& features,
                                       SimTimeUs now_us) const {
  return ScoreVector(CompleteFeatures(features, meta, now_us));
}

ScoreSpan LogisticClassifier::ScoreSpanCached(const FileMeta& meta, const StaticFeatures& features,
                                              SimTimeUs t0, SimTimeUs t1) const {
  const FeatureVector f0 = CompleteFeatures(features, meta, t0);
  const FeatureVector f1 = CompleteFeatures(features, meta, t1);
  // With the metadata fixed, log age and log recency (features 1-2) only grow
  // with t, the read and write rates (3-4) only shrink, and every other
  // feature is constant. Each term is therefore monotone in t and extreme at
  // an endpoint; z0 sums the t0 terms in ScoreVector's order, bit for bit.
  double z0 = b_;
  double z_lo = b_;
  double z_hi = b_;
  double scale = std::fabs(b_);
  for (size_t j = 0; j < kFeatureDim; ++j) {
    const double x0 = Term(f0, j);
    const double x1 = Term(f1, j);
    z0 += x0;
    z_lo += std::min(x0, x1);
    z_hi += std::max(x0, x1);
    scale += std::fabs(w_[j]) *
             (std::max(std::fabs(f0[j]), std::fabs(f1[j])) + std::fabs(feat_mean_[j])) /
             feat_std_[j];
  }
  const double margin = kSpanMarginEps * scale;
  ScoreSpan span;
  span.at_t0 = Sigmoid(z0);
  span.lo = Sigmoid(z_lo - margin) * (1.0 - kSigmoidSlack);
  span.hi = Sigmoid(z_hi + margin) * (1.0 + kSigmoidSlack);
  return span;
}

}  // namespace sos

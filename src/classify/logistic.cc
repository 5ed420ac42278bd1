// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/classify/logistic.h"

#include <algorithm>
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

}  // namespace

std::array<double, kFeatureDim> LogisticClassifier::Standardize(const FeatureVector& f) const {
  std::array<double, kFeatureDim> out{};
  for (size_t j = 0; j < kFeatureDim; ++j) {
    out[j] = (f[j] - feat_mean_[j]) / feat_std_[j];
  }
  return out;
}

LogisticClassifier LogisticClassifier::Train(const std::vector<const FileMeta*>& corpus, LabelFn label_fn,
                                             SimTimeUs now_us, const LogisticConfig& config) {
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
  Rng rng(DeriveSeed({config.seed, 0x6c6f67697374ull /* "logist" */}));
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng.Shuffle(order);
    const double lr = config.learning_rate / std::sqrt(static_cast<double>(epoch) + 1.0);
    for (size_t idx : order) {
      const auto x = model.Standardize(features[idx]);
      double z = model.b_;
      for (size_t j = 0; j < kFeatureDim; ++j) {
        z += model.w_[j] * x[j];
      }
      const double err = Sigmoid(z) - labels[idx];
      for (size_t j = 0; j < kFeatureDim; ++j) {
        model.w_[j] -= lr * (err * x[j] + config.l2 * model.w_[j]);
      }
      model.b_ -= lr * err;
    }
  }
  return model;
}

double LogisticClassifier::ScoreVector(const FeatureVector& f) const {
  const auto x = Standardize(f);
  double z = b_;
  for (size_t j = 0; j < kFeatureDim; ++j) {
    z += w_[j] * x[j];
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

}  // namespace sos

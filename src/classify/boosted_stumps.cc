// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/classify/boosted_stumps.h"

#include <algorithm>
#include <cmath>

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

constexpr int kRounds = 60;  // number of stumps
constexpr double kLearningRate = 0.3;
constexpr int kCandidateThresholds = 16;  // quantile cuts evaluated per feature

}  // namespace

BoostedStumpsClassifier BoostedStumpsClassifier::Train(
    const std::vector<const FileMeta*>& corpus, LabelFn label_fn, SimTimeUs now_us) {
  BoostedStumpsClassifier model;
  const size_t n = corpus.size();
  if (n == 0) {
    return model;
  }

  std::vector<FeatureVector> features;
  std::vector<double> labels;
  features.reserve(n);
  labels.reserve(n);
  double positives = 0.0;
  for (const FileMeta* meta : corpus) {
    features.push_back(ExtractFeatures(*meta, now_us));
    labels.push_back(label_fn(*meta) ? 1.0 : 0.0);
    positives += labels.back();
  }
  // Initialize the margin at the prior log-odds.
  const double prior = std::clamp(positives / static_cast<double>(n), 1e-3, 1.0 - 1e-3);
  model.bias_ = std::log(prior / (1.0 - prior));

  // Candidate thresholds per feature: evenly spaced quantiles of the
  // training distribution (computed once).
  std::vector<std::vector<double>> cuts(kFeatureDim);
  {
    std::vector<double> column(n);
    for (size_t j = 0; j < kFeatureDim; ++j) {
      for (size_t i = 0; i < n; ++i) {
        column[i] = features[i][j];
      }
      std::sort(column.begin(), column.end());
      if (column.front() == column.back()) {
        continue;  // constant feature: no usable cut
      }
      for (int q = 1; q <= kCandidateThresholds; ++q) {
        const size_t idx =
            std::min(n - 1, n * static_cast<size_t>(q) /
                                (static_cast<size_t>(kCandidateThresholds) + 1));
        const double cut = column[idx];
        if (cuts[j].empty() || cuts[j].back() != cut) {
          cuts[j].push_back(cut);
        }
      }
    }
  }

  std::vector<double> margin(n, model.bias_);
  for (int round = 0; round < kRounds; ++round) {
    // Logistic-loss gradients and curvature (Newton boosting).
    std::vector<double> grad(n);
    std::vector<double> hess(n);
    for (size_t i = 0; i < n; ++i) {
      const double p = Sigmoid(margin[i]);
      grad[i] = labels[i] - p;
      hess[i] = std::max(p * (1.0 - p), 1e-6);
    }

    // Find the stump (feature, threshold) with the best gain.
    Stump best;
    double best_gain = -1.0;
    for (size_t j = 0; j < kFeatureDim; ++j) {
      for (double cut : cuts[j]) {
        double g_left = 0.0;
        double h_left = 0.0;
        double g_right = 0.0;
        double h_right = 0.0;
        for (size_t i = 0; i < n; ++i) {
          if (features[i][j] < cut) {
            g_left += grad[i];
            h_left += hess[i];
          } else {
            g_right += grad[i];
            h_right += hess[i];
          }
        }
        if (h_left < 1e-9 || h_right < 1e-9) {
          continue;
        }
        const double gain = g_left * g_left / h_left + g_right * g_right / h_right;
        if (gain > best_gain) {
          best_gain = gain;
          best.feature = j;
          best.threshold = cut;
          best.left_value = kLearningRate * g_left / h_left;
          best.right_value = kLearningRate * g_right / h_right;
        }
      }
    }
    if (best_gain <= 0.0) {
      break;
    }
    for (size_t i = 0; i < n; ++i) {
      margin[i] += features[i][best.feature] < best.threshold ? best.left_value
                                                              : best.right_value;
    }
    model.stumps_.push_back(best);
  }
  return model;
}

double BoostedStumpsClassifier::Margin(const FeatureVector& f) const {
  double margin = bias_;
  for (const Stump& stump : stumps_) {
    margin += f[stump.feature] < stump.threshold ? stump.left_value : stump.right_value;
  }
  return margin;
}

double BoostedStumpsClassifier::Score(const FileMeta& meta, SimTimeUs now_us) const {
  return Sigmoid(Margin(ExtractFeatures(meta, now_us)));
}

}  // namespace sos

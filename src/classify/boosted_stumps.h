// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Gradient-boosted decision stumps.
//
// The third learned model in the E8 comparison: an ensemble of depth-1
// regression trees fit to the logistic loss gradient (LogitBoost-style).
// Stumps capture threshold structure the linear model cannot (e.g. "personal
// signal above 0.4" or "size above 1 MiB"), which is how human curation
// rules actually look -- and they remain cheap enough for an on-device
// nightly daemon (§4.4).

#ifndef SOS_SRC_CLASSIFY_BOOSTED_STUMPS_H_
#define SOS_SRC_CLASSIFY_BOOSTED_STUMPS_H_

#include <vector>

#include "src/classify/classifier.h"

namespace sos {

class BoostedStumpsClassifier final : public BinaryClassifier {
 public:
  static BoostedStumpsClassifier Train(const std::vector<const FileMeta*>& corpus,
                                       LabelFn label_fn, SimTimeUs now_us);

  double Score(const FileMeta& meta, SimTimeUs now_us) const override;

  size_t num_stumps() const { return stumps_.size(); }

 private:
  BoostedStumpsClassifier() = default;

  struct Stump {
    size_t feature = 0;
    double threshold = 0.0;
    double left_value = 0.0;   // added to the margin when f < threshold
    double right_value = 0.0;  // added when f >= threshold
  };

  double Margin(const FeatureVector& f) const;

  double bias_ = 0.0;
  std::vector<Stump> stumps_;
};

}  // namespace sos

#endif  // SOS_SRC_CLASSIFY_BOOSTED_STUMPS_H_

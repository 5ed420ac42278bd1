// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Tests for the classification stack: features, synthetic corpus
// distributions, both learned models vs the rule baseline, the evaluation
// machinery, and the paper's ~79% auto-delete accuracy anchor.

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/classify/classifier.h"
#include "src/classify/corpus.h"
#include "src/classify/eval.h"
#include "src/classify/features.h"
#include "src/classify/boosted_stumps.h"
#include "src/classify/logistic.h"
#include "src/classify/naive_bayes.h"
#include "src/common/rng.h"
#include "src/common/units.h"

namespace sos {
namespace {

CorpusConfig TestCorpusConfig() {
  CorpusConfig config;
  config.num_files = 6000;
  config.seed = 77;
  return config;
}

// --- Features --------------------------------------------------------------

TEST(FeaturesTest, DimensionsAndOneHot) {
  FileMeta meta;
  meta.type = FileType::kPhoto;
  meta.path = "dcim/camera/img_1.jpg";
  meta.size_bytes = kKiB;
  const FeatureVector f = ExtractFeatures(meta, kUsPerYear);
  EXPECT_EQ(f.size(), kFeatureDim);
  // Exactly one type slot is hot.
  int hot = 0;
  for (size_t i = kNumericFeatures; i < kNumericFeatures + kNumFileTypes; ++i) {
    hot += f[i] > 0.0 ? 1 : 0;
  }
  EXPECT_EQ(hot, 1);
  EXPECT_GT(f[kNumericFeatures + static_cast<size_t>(FileType::kPhoto)], 0.0);
}

TEST(FeaturesTest, PathTokensHashDeterministically) {
  FileMeta a;
  a.path = "dcim/camera/img.jpg";
  FileMeta b = a;
  const FeatureVector fa = ExtractFeatures(a, 0);
  const FeatureVector fb = ExtractFeatures(b, 0);
  EXPECT_EQ(fa, fb);
}

TEST(FeaturesTest, AgeFeatureGrowsWithTime) {
  FileMeta meta;
  meta.created_us = 0;
  const FeatureVector young = ExtractFeatures(meta, kUsPerDay);
  const FeatureVector old = ExtractFeatures(meta, 100 * kUsPerDay);
  EXPECT_GT(old[1], young[1]);  // log_age is feature index 1
}

// The pre-split single-pass extractor, kept verbatim as the oracle the
// static/complete split must reproduce bit for bit.
double AgeDays(SimTimeUs now, SimTimeUs then) {
  return now >= then ? UsToDays(now - then) : 0.0;
}

FeatureVector ReferenceExtractFeatures(const FileMeta& meta, SimTimeUs now_us) {
  FeatureVector f{};
  size_t i = 0;
  f[i++] = std::log2(static_cast<double>(meta.size_bytes) + 1.0);
  f[i++] = std::log1p(AgeDays(now_us, meta.created_us)) / 3.0;
  f[i++] = std::log1p(AgeDays(now_us, meta.last_accessed_us)) / 3.0;
  const double life_days = AgeDays(now_us, meta.created_us) + 1.0;
  f[i++] = std::log1p(static_cast<double>(meta.read_count) / life_days);
  f[i++] = std::log1p(static_cast<double>(meta.write_count) / life_days);
  f[i++] = meta.entropy_bits_per_byte / 8.0;
  f[i++] = meta.personal_signal;
  f[kNumericFeatures + static_cast<size_t>(meta.type)] = 1.0;
  const size_t base = kNumericFeatures + kNumFileTypes;
  std::string_view path = meta.path;
  size_t start = 0;
  while (start < path.size()) {
    size_t end = path.find('/', start);
    if (end == std::string_view::npos) {
      end = path.size();
    }
    if (end > start) {
      uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
      for (char c : path.substr(start, end - start)) {
        h ^= static_cast<uint8_t>(c);
        h *= 0x100000001b3ull;
      }
      f[base + h % kPathHashBuckets] += 1.0;
    }
    start = end + 1;
  }
  return f;
}

TEST(FeaturesTest, CachedStaticFeaturesAreBitwiseTheSinglePassExtraction) {
  CorpusConfig config = TestCorpusConfig();
  config.num_files = 1500;
  const auto corpus = GenerateCorpus(config);
  const LogisticClassifier model =
      LogisticClassifier::Train(AsPointers(corpus), &ExpendableLabel, config.device_age_us);
  for (SimTimeUs now : {SimTimeUs{0}, kUsPerDay, config.device_age_us / 2, config.device_age_us,
                        5 * kUsPerYear}) {
    SCOPED_TRACE("now " + std::to_string(now));
    for (const FileMeta& meta : corpus) {
      const StaticFeatures cached = ExtractStaticFeatures(meta);
      const FeatureVector completed = CompleteFeatures(cached, meta, now);
      const FeatureVector extracted = ExtractFeatures(meta, now);
      const FeatureVector reference = ReferenceExtractFeatures(meta, now);
      ASSERT_EQ(std::memcmp(completed.data(), reference.data(), sizeof(reference)), 0)
          << meta.path;
      ASSERT_EQ(std::memcmp(extracted.data(), reference.data(), sizeof(reference)), 0)
          << meta.path;
      const double score = model.Score(meta, now);
      const double score_cached = model.ScoreCached(meta, cached, now);
      ASSERT_EQ(std::memcmp(&score, &score_cached, sizeof(score)), 0) << meta.path;
    }
  }
}

// ScoreSpanCached's contract: at_t0 is ScoreCached(t0) bit for bit, and
// [lo, hi] encloses ScoreCached(t) at every t of the window, endpoints
// included. Windows start anywhere from before a file's creation (where its
// age feature is pinned at zero) to well past the corpus, and span 1-128 days.
TEST(ScoreSpanTest, EnclosesEveryScoreInTheWindow) {
  CorpusConfig config = TestCorpusConfig();
  config.num_files = 2400;
  std::vector<FileMeta> corpus = GenerateCorpus(config);
  const auto pointers = AsPointers(corpus);
  // A training set without writes floors the write-rate feature's sigma at
  // 1e-6; a written file's standardized rate is then in the millions, and
  // the bounds must stay sound.
  std::vector<FileMeta> unwritten = corpus;
  for (FileMeta& meta : unwritten) {
    meta.write_count = 0;
  }
  const std::vector<std::pair<std::string, LogisticClassifier>> models = {
      {"expendable", LogisticClassifier::Train(pointers, &ExpendableLabel, config.device_age_us)},
      {"deletion", LogisticClassifier::Train(pointers, &DeletionLabel, config.device_age_us)},
      {"sigma-floored",
       LogisticClassifier::Train(AsPointers(unwritten), &ExpendableLabel, config.device_age_us)},
  };
  Rng rng(DeriveSeed({0x7370616eull}));
  constexpr int kSamples = 16;
  for (const auto& [name, model] : models) {
    SCOPED_TRACE(name);
    uint64_t certified = 0;
    for (const FileMeta& meta : corpus) {
      const StaticFeatures features = ExtractStaticFeatures(meta);
      const SimTimeUs t0 = rng.NextBounded(config.device_age_us + kUsPerYear);
      const SimTimeUs t1 = t0 + kUsPerDay + rng.NextBounded(127 * kUsPerDay);
      const ScoreSpan span = model.ScoreSpanCached(meta, features, t0, t1);
      const double exact_t0 = model.ScoreCached(meta, features, t0);
      ASSERT_EQ(std::memcmp(&span.at_t0, &exact_t0, sizeof(exact_t0)), 0) << meta.path;
      ASSERT_LE(span.lo, span.hi);
      for (int k = 0; k < kSamples; ++k) {
        const SimTimeUs t = k == 0 ? t0 : k == 1 ? t1 : t0 + rng.NextBounded(t1 - t0 + 1);
        const double score = model.ScoreCached(meta, features, t);
        ASSERT_GE(score, span.lo) << meta.path << " t=" << t;
        ASSERT_LE(score, span.hi) << meta.path << " t=" << t;
      }
      // The migration daemon's thresholds, both outside the enclosure.
      for (const double threshold : {0.2, 0.6}) {
        certified += (span.hi < threshold || span.lo > threshold) ? 1 : 0;
      }
    }
    // The bounds are informative, not merely safe.
    EXPECT_GT(certified, corpus.size());
  }
}

TEST(ScoreSpanTest, DefaultSpanEnclosesNothing) {
  FileMeta meta;
  meta.type = FileType::kCache;
  meta.path = "cache/a.tmp";
  const RuleBasedClassifier rules;
  const ScoreSpan span =
      rules.ScoreSpanCached(meta, ExtractStaticFeatures(meta), kUsPerDay, 9 * kUsPerDay);
  EXPECT_EQ(span.at_t0, rules.Score(meta, kUsPerDay));
  EXPECT_EQ(span.lo, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(span.hi, std::numeric_limits<double>::infinity());
  EXPECT_EQ(rules.Fingerprint(), 0u);
}

TEST(ScoreSpanTest, FingerprintTracksTrainedParameters) {
  const auto corpus = GenerateCorpus(TestCorpusConfig());
  const auto pointers = AsPointers(corpus);
  const LogisticClassifier a = LogisticClassifier::Train(pointers, &ExpendableLabel, kUsPerYear);
  const LogisticClassifier b = LogisticClassifier::Train(pointers, &ExpendableLabel, kUsPerYear);
  const LogisticClassifier c =
      LogisticClassifier::Train(pointers, &ExpendableLabel, 2 * kUsPerYear);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  EXPECT_NE(a.Fingerprint(), c.Fingerprint());
  LogisticClassifier assigned = a;
  assigned = c;  // a retrain assigned in place carries its fingerprint
  EXPECT_EQ(assigned.Fingerprint(), c.Fingerprint());
}

// --- Corpus ----------------------------------------------------------------

TEST(CorpusTest, DeterministicForSeed) {
  const auto a = GenerateCorpus(TestCorpusConfig());
  const auto b = GenerateCorpus(TestCorpusConfig());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); i += 500) {
    EXPECT_EQ(a[i].path, b[i].path);
    EXPECT_EQ(a[i].size_bytes, b[i].size_bytes);
    EXPECT_EQ(a[i].true_priority, b[i].true_priority);
  }
}

TEST(CorpusTest, MediaDominatesBytes) {
  // Paper §4.2 / [66-68]: media files comprise over half of mobile data.
  const auto corpus = GenerateCorpus(TestCorpusConfig());
  const CorpusStats stats = ComputeCorpusStats(corpus);
  EXPECT_GT(static_cast<double>(stats.media_bytes) / static_cast<double>(stats.total_bytes),
            0.5);
}

TEST(CorpusTest, MostBytesAreExpendable) {
  // The premise that makes SOS worthwhile: most capacity can degrade.
  const auto corpus = GenerateCorpus(TestCorpusConfig());
  const CorpusStats stats = ComputeCorpusStats(corpus);
  EXPECT_GT(static_cast<double>(stats.expendable_bytes) /
                static_cast<double>(stats.total_bytes),
            0.5);
}

TEST(CorpusTest, SystemFilesAreCritical) {
  const auto corpus = GenerateCorpus(TestCorpusConfig());
  uint64_t system_total = 0;
  uint64_t system_critical = 0;
  for (const auto& meta : corpus) {
    if (meta.type == FileType::kSystem) {
      ++system_total;
      system_critical += meta.true_priority == Priority::kCritical ? 1 : 0;
    }
  }
  ASSERT_GT(system_total, 0u);
  // Only label noise can make a system file expendable.
  EXPECT_GT(static_cast<double>(system_critical) / static_cast<double>(system_total), 0.85);
}

TEST(CorpusTest, SynthesizeFileHonorsType) {
  Rng rng(3);
  const FileMeta meta = SynthesizeFile(FileType::kVideo, kUsPerDay, 0.0, rng);
  EXPECT_EQ(meta.type, FileType::kVideo);
  EXPECT_EQ(meta.created_us, kUsPerDay);
  EXPECT_GT(meta.size_bytes, 512u);
  EXPECT_NE(meta.path.find(".mp4"), std::string::npos);
}

TEST(CorpusTest, TypeMixRoughlyMatchesProfile) {
  Rng rng(4);
  std::array<int, kNumFileTypes> counts{};
  for (int i = 0; i < 20000; ++i) {
    ++counts[static_cast<size_t>(SampleFileType(rng))];
  }
  // Photos ~32% of file count.
  EXPECT_NEAR(counts[static_cast<size_t>(FileType::kPhoto)] / 20000.0, 0.32, 0.03);
  EXPECT_NEAR(counts[static_cast<size_t>(FileType::kAppData)] / 20000.0, 0.20, 0.03);
}

// --- Metrics ---------------------------------------------------------------

TEST(MetricsTest, ConfusionMath) {
  ConfusionMatrix cm;
  cm.true_positive = 40;
  cm.false_positive = 10;
  cm.true_negative = 45;
  cm.false_negative = 5;
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.85);
  EXPECT_DOUBLE_EQ(cm.precision(), 0.8);
  EXPECT_NEAR(cm.recall(), 40.0 / 45.0, 1e-12);
  EXPECT_DOUBLE_EQ(cm.false_discovery_rate(), 0.2);
  EXPECT_GT(cm.f1(), 0.8);
}

TEST(MetricsTest, EmptyMatrixIsZero) {
  ConfusionMatrix cm;
  EXPECT_EQ(cm.accuracy(), 0.0);
  EXPECT_EQ(cm.precision(), 0.0);
  EXPECT_EQ(cm.recall(), 0.0);
  EXPECT_EQ(cm.f1(), 0.0);
}

TEST(MetricsTest, SplitIsDisjointAndComplete) {
  const auto corpus = GenerateCorpus(TestCorpusConfig());
  const CorpusSplit split = SplitCorpus(corpus, 5);
  EXPECT_EQ(split.train.size() + split.test.size(), corpus.size());
  EXPECT_NEAR(static_cast<double>(split.test.size()) / static_cast<double>(corpus.size()),
              0.2, 0.01);
}

// --- Models ----------------------------------------------------------------

struct TrainedModels {
  std::vector<FileMeta> corpus;
  CorpusSplit split;
  SimTimeUs now;
  NaiveBayesClassifier nb;
  LogisticClassifier logistic;
  RuleBasedClassifier rules;

  static TrainedModels Make() {
    const CorpusConfig config = TestCorpusConfig();
    std::vector<FileMeta> corpus = GenerateCorpus(config);
    CorpusSplit split = SplitCorpus(corpus, 5);
    const SimTimeUs now = config.device_age_us;
    NaiveBayesClassifier nb = NaiveBayesClassifier::Train(split.train, &ExpendableLabel, now);
    LogisticClassifier logistic =
        LogisticClassifier::Train(split.train, &ExpendableLabel, now);
    return TrainedModels{std::move(corpus), std::move(split), now, std::move(nb),
                         std::move(logistic), RuleBasedClassifier{}};
  }
};

TEST(ModelsTest, LearnedModelsBeatChance) {
  const auto m = TrainedModels::Make();
  const double nb_acc =
      EvaluateClassifier(m.nb, m.split.test, &ExpendableLabel, m.now).accuracy();
  const double lr_acc =
      EvaluateClassifier(m.logistic, m.split.test, &ExpendableLabel, m.now).accuracy();
  EXPECT_GT(nb_acc, 0.75);
  EXPECT_GT(lr_acc, 0.75);
}

TEST(ModelsTest, LearnedModelsBeatTypeRules) {
  // Paper §4.2: type-only classification is insufficient; the learned models
  // must beat it because they see the personal-significance signal.
  const auto m = TrainedModels::Make();
  const double rule_acc =
      EvaluateClassifier(m.rules, m.split.test, &ExpendableLabel, m.now).accuracy();
  const double lr_acc =
      EvaluateClassifier(m.logistic, m.split.test, &ExpendableLabel, m.now).accuracy();
  EXPECT_GT(lr_acc, rule_acc);
}

TEST(ModelsTest, ScoresAreProbabilities) {
  const auto m = TrainedModels::Make();
  for (size_t i = 0; i < m.split.test.size(); i += 7) {
    const double nb = m.nb.Score(*m.split.test[i], m.now);
    const double lr = m.logistic.Score(*m.split.test[i], m.now);
    EXPECT_GE(nb, 0.0);
    EXPECT_LE(nb, 1.0);
    EXPECT_GE(lr, 0.0);
    EXPECT_LE(lr, 1.0);
  }
}

TEST(ModelsTest, HigherThresholdIsMoreConservative) {
  // Raising the demotion threshold must not increase the number of files
  // declared expendable (monotone predictions).
  const auto m = TrainedModels::Make();
  uint64_t prev_positives = ~0ull;
  for (const auto& point :
       SweepThreshold(m.logistic, m.split.test, &ExpendableLabel, m.now, 9)) {
    const uint64_t positives = point.matrix.true_positive + point.matrix.false_positive;
    EXPECT_LE(positives, prev_positives);
    prev_positives = positives;
  }
}

TEST(ModelsTest, DeletionPredictorNearPaperAccuracy) {
  // Paper §4.3/[68]: deletion prediction at ~79% accuracy. The synthetic
  // corpus noise level is tuned so a learned model lands in that band
  // rather than at an unrealistic 99%.
  const auto m = TrainedModels::Make();
  const LogisticClassifier deleter =
      LogisticClassifier::Train(m.split.train, &DeletionLabel, m.now);
  const double acc =
      EvaluateClassifier(deleter, m.split.test, &DeletionLabel, m.now).accuracy();
  EXPECT_GT(acc, 0.70);
  EXPECT_LT(acc, 0.97);
}

TEST(ModelsTest, PersonalSignalProtectsPreciousMedia) {
  // Two identical photos, one with a strong personal signal: the model must
  // score the precious one as less expendable.
  const auto m = TrainedModels::Make();
  Rng rng(5);
  FileMeta plain = SynthesizeFile(FileType::kPhoto, kUsPerDay, 0.0, rng);
  FileMeta precious = plain;
  plain.personal_signal = 0.02;
  precious.personal_signal = 0.98;
  EXPECT_LT(m.logistic.Score(precious, m.now), m.logistic.Score(plain, m.now));
}

TEST(ModelsTest, TrainingIsDeterministic) {
  const auto corpus = GenerateCorpus(TestCorpusConfig());
  const auto pointers = AsPointers(corpus);
  const LogisticClassifier a = LogisticClassifier::Train(pointers, &ExpendableLabel, kUsPerYear);
  const LogisticClassifier b = LogisticClassifier::Train(pointers, &ExpendableLabel, kUsPerYear);
  EXPECT_EQ(a.weights(), b.weights());
  EXPECT_EQ(a.bias(), b.bias());
}

TEST(ModelsTest, BoostedStumpsCompetitive) {
  const auto m = TrainedModels::Make();
  const BoostedStumpsClassifier stumps =
      BoostedStumpsClassifier::Train(m.split.train, &ExpendableLabel, m.now);
  EXPECT_GT(stumps.num_stumps(), 10u);
  const double acc =
      EvaluateClassifier(stumps, m.split.test, &ExpendableLabel, m.now).accuracy();
  const double lr_acc =
      EvaluateClassifier(m.logistic, m.split.test, &ExpendableLabel, m.now).accuracy();
  // Within two points of the logistic model (usually ahead: it captures
  // threshold structure).
  EXPECT_GT(acc, lr_acc - 0.02);
  EXPECT_GT(acc, 0.75);
}

TEST(ModelsTest, BoostedStumpsScoresAreProbabilities) {
  const auto m = TrainedModels::Make();
  const BoostedStumpsClassifier stumps =
      BoostedStumpsClassifier::Train(m.split.train, &ExpendableLabel, m.now);
  for (size_t i = 0; i < m.split.test.size(); i += 13) {
    const double score = stumps.Score(*m.split.test[i], m.now);
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, 1.0);
  }
}

TEST(ModelsTest, BoostedStumpsDeterministic) {
  const auto m = TrainedModels::Make();
  const BoostedStumpsClassifier a =
      BoostedStumpsClassifier::Train(m.split.train, &ExpendableLabel, m.now);
  const BoostedStumpsClassifier b =
      BoostedStumpsClassifier::Train(m.split.train, &ExpendableLabel, m.now);
  for (size_t i = 0; i < m.split.test.size(); i += 29) {
    EXPECT_DOUBLE_EQ(a.Score(*m.split.test[i], m.now), b.Score(*m.split.test[i], m.now));
  }
}

TEST(ModelsTest, BoostedStumpsEmptyCorpus) {
  const BoostedStumpsClassifier empty = BoostedStumpsClassifier::Train({}, &ExpendableLabel, 0);
  EXPECT_EQ(empty.num_stumps(), 0u);
  FileMeta meta;
  EXPECT_GE(empty.Score(meta, 0), 0.0);
}

}  // namespace
}  // namespace sos

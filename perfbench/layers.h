// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Wall-clock layer accounting for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own files only: around the calls
// the benchmark makes into a layer, and inside two decorators that sit on
// public interfaces of src/ (BlockDevice, BinaryClassifier). Nothing in src/
// is instrumented. Each span adds its duration to its layer's total and,
// minus the time its child spans covered, to the layer's self time, so the
// self times of all layers partition the traced wall time.

#ifndef SOS_PERFBENCH_LAYERS_H_
#define SOS_PERFBENCH_LAYERS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/classify/classifier.h"
#include "src/host/block_device.h"

namespace sos::perfbench {

// Monotonic wall clock in nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToS(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// The layers a traced lifetime run is split into. Names follow src/ modules.
enum class Layer : uint8_t {
  kConstruct,         // fleet: building one device's stack (self: device, corpus, glue)
  kRun,               // fleet: the day loop's own glue (event dispatch, ref map)
  kWorkload,          // host: WorkloadGenerator::Day
  kFs,                // host: ExtentFileSystem calls on the event path
  kDevice,            // sos: BlockDevice calls (SosDevice/BaselineDevice and below)
  kScore,             // classify: BinaryClassifier::Score
  kTrain,             // classify: LogisticClassifier::Train
  kMigration,         // sos: MigrationDaemon::RunOnce
  kMonitor,           // sos: DegradationMonitor::RunOnce
  kAutodelete,        // sos: AutoDeleteManager::RunOnce
  kSample,            // sos: periodic DaySample (spare-quality scan)
  kBackgroundCollect, // ftl: Ftl::BackgroundCollect
};

inline constexpr size_t kNumLayers = 12;

// Metric stem of each layer ("host.fs" -> host.fs.share, ...).
const char* LayerName(Layer layer);

class LayerProfile {
 public:
  struct Totals {
    int64_t total_ns = 0;  // wall time inside the layer's spans
    int64_t self_ns = 0;   // total minus nested spans of other layers
    uint64_t calls = 0;
  };

  void Begin(Layer layer);
  void End();

  const Totals& of(Layer layer) const { return totals_[static_cast<size_t>(layer)]; }
  int64_t SelfSum() const;

 private:
  struct Frame {
    Layer layer;
    int64_t start_ns;
    int64_t child_ns;
  };

  std::array<Totals, kNumLayers> totals_{};
  std::array<Frame, 16> stack_{};
  size_t depth_ = 0;
};

// RAII span; a null profile records nothing.
class Span {
 public:
  Span(LayerProfile* profile, Layer layer) : profile_(profile) {
    if (profile_ != nullptr) {
      profile_->Begin(layer);
    }
  }
  ~Span() {
    if (profile_ != nullptr) {
      profile_->End();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LayerProfile* profile_;
};

// Times every data-path and placement call into a wrapped device. Covers the
// FTL, NAND, RBER and ECC work beneath it; geometry queries pass through
// untimed.
class TimedBlockDevice final : public BlockDevice {
 public:
  TimedBlockDevice(BlockDevice* inner, LayerProfile* profile) : inner_(inner), profile_(profile) {}

  uint32_t block_size() const override { return inner_->block_size(); }
  uint64_t capacity_blocks() const override { return inner_->capacity_blocks(); }
  [[nodiscard]] Result<PlacementHandle> OpenPlacement(const PlacementSpec& spec) override;
  [[nodiscard]] Status ClosePlacement(PlacementHandle handle) override;
  [[nodiscard]] Result<PlacementSpec> DescribePlacement(PlacementHandle handle) const override;
  [[nodiscard]] Status Write(uint64_t lba, std::span<const uint8_t> data,
                             PlacementHandle handle) override;
  [[nodiscard]] Result<BlockReadResult> Read(uint64_t lba) override;
  [[nodiscard]] Status Trim(uint64_t lba) override;
  [[nodiscard]] Status Reclassify(uint64_t lba, PlacementHandle handle) override;
  void SetCapacityListener(CapacityListener listener) override {
    inner_->SetCapacityListener(std::move(listener));
  }

 private:
  BlockDevice* inner_;
  LayerProfile* profile_;
};

// Times each Score call of a wrapped model. The model pointer is read on
// every call, so a retrained model assigned in place is picked up.
class TimedClassifier final : public BinaryClassifier {
 public:
  TimedClassifier(const BinaryClassifier* inner, LayerProfile* profile)
      : inner_(inner), profile_(profile) {}

  double Score(const FileMeta& meta, SimTimeUs now_us) const override {
    Span span(profile_, Layer::kScore);
    return inner_->Score(meta, now_us);
  }

 private:
  const BinaryClassifier* inner_;
  LayerProfile* profile_;
};

// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 if empty.
double Percentile(std::vector<double> values, double p);

// Latency histogram in fixed memory, so a run's footprint does not grow
// with its request count: 64 log-spaced buckets per octave above 1 us
// (about 1% wide); a percentile interpolates within its bucket.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets, 0) {}

  void Add(double us);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  // p in [0, 100]; 0 if empty.
  double Percentile(double p) const;

 private:
  static constexpr double kPerOctave = 64.0;
  static constexpr size_t kBuckets = 64 * 34;  // up to 2^34 us

  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
};

// FNV-1a over 64-bit words: the sim_digest of simulated outcomes.
class Digest {
 public:
  void Add(uint64_t word);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace sos::perfbench

#endif  // SOS_PERFBENCH_LAYERS_H_

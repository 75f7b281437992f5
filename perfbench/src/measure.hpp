// Measurement plumbing shared by the workloads: the clock, sample sets and
// their quantiles, the metric table a run reports, the in-memory span
// recorder of traced runs, and a reader for the obs::snapshot_json documents
// the programs export (daemon /metrics.json, selin_check --metrics -).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A set of measured values.  Quantiles interpolate between closest ranks
/// (the "linear" method), so they move with every sample.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

 private:
  std::vector<double> v_;
};

struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  ///< observations behind the value (0 = derived)
};

/// What one run reports: every metric it measured, and the correctness tally.
struct Report {
  std::map<std::string, Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few, for the log

  void set(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0) {
    metrics[name] = Metric{value, unit, samples};
  }
  void fail(const std::string& why);
};

/// In-memory span recorder of traced runs.  A span is (layer, start, end,
/// parent, id), where id names the session, history or op it belongs to.
/// Self time per layer (a span's duration minus the part its child spans
/// cover) is accumulated as spans end, so it counts every span, also those
/// past kStoredSpans; the stored spans are written out as JSONL at the end.
class Tracer {
 public:
  static constexpr uint32_t kNone = 0xffffffffu;

  /// Spans stored for the JSONL dump; layer times count every span.
  static constexpr size_t kStoredSpans = 100000;

  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  /// Opens a span; returns a handle for end() (kNone when tracing is off).
  uint32_t begin(std::string_view layer, uint64_t id,
                 uint32_t parent = kNone);
  void end(uint32_t span);

  struct LayerTime {
    int64_t total_ns = 0;
    int64_t child_ns = 0;
    uint64_t spans = 0;
    int64_t self_ns() const { return total_ns - child_ns; }
  };
  const std::map<std::string, LayerTime>& layers() const { return totals_; }
  int64_t self_ns(const std::string& layer) const;
  uint64_t dropped() const { return dropped_; }

  /// Moves `other`'s finished spans and layer times into this tracer (the
  /// per-thread tracers of a multi-threaded run merge at the end).
  void absorb(const Tracer& other);

  /// One JSON object per stored span.  False when the file cannot be
  /// written.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Open {
    uint32_t layer;
    uint32_t parent;
    uint32_t stored;  // index into spans_, or kNone past kStoredSpans
    uint64_t id;
    int64_t start;
    int64_t child_ns;
  };
  struct Span {
    uint32_t layer;
    uint32_t parent;  // index into spans_, or kNone
    uint64_t id;
    int64_t start, end;
  };

  uint32_t layer_index(std::string_view layer);

  bool on_;
  std::vector<std::string> names_;
  std::vector<Open> open_;  // slot table; handles index into it
  std::vector<uint32_t> free_;
  std::vector<Span> spans_;
  std::map<std::string, LayerTime> totals_;
  uint64_t dropped_ = 0;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, std::string_view layer, uint64_t id,
        uint32_t parent = Tracer::kNone)
      : t_(t), h_(t.on() ? t.begin(layer, id, parent) : Tracer::kNone) {}
  ~Scope() {
    if (h_ != Tracer::kNone) t_.end(h_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  uint32_t handle() const { return h_; }

 private:
  Tracer& t_;
  uint32_t h_;
};

// ---- obs::snapshot_json reader --------------------------------------------

/// The instruments of one snapshot document, merged across label sets:
/// counters and gauges summed, histograms merged bucket by bucket.
struct HistogramData {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  std::map<uint64_t, uint64_t> buckets;  // inclusive upper bound -> count
  /// q-quantile, interpolated linearly inside the log2 bucket that holds
  /// it (bucket b spans [2^(b-1), 2^b - 1]); 0 when empty.
  double quantile(double q) const;
  double mean() const { return count == 0 ? 0.0 : double(sum) / double(count); }
};

struct SnapshotData {
  std::map<std::string, double> scalars;  // counters + gauges, summed
  std::map<std::string, double> maxima;   // counters + gauges, largest
  std::map<std::string, HistogramData> histograms;
  double scalar(const std::string& name) const;
  const HistogramData& histogram(const std::string& name) const;
};

/// Parses an obs::snapshot_json document.  False on malformed input.
bool parse_snapshot(std::string_view json, SnapshotData& out);

/// Value of `"key":<number>` at the top level of a flat JSON object (the
/// daemon's /stats totals); -1 when absent.
double json_number(std::string_view json, std::string_view key);

}  // namespace perfbench

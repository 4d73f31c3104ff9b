// Shared pieces of the ActiveRMT benchmark: the result record every
// workload fills in, order statistics, the result digest, the host block,
// and the span tracer that the traced run uses to charge each layer its
// own host time.
//
// Spans are recorded only from the benchmark's own files, around public
// entry points of the program (node on_frame overrides, the load generator's calls into
// services, Simulator::run, Controller calls). With tracing off every span
// guard is a single null-pointer test.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace perfbench {

using artmt::SimTime;
using artmt::u32;
using artmt::u64;
using artmt::u8;

inline u64 host_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

// CPU time of the whole process (every thread, live or exited).
u64 cpu_ns();

// Nearest-rank percentile (p in [0, 1]); 0 for an empty sample. Used for
// virtual-time samples, which repeat exactly.
double percentile(std::vector<double> values, double p);
// Percentile of host-time samples: the mean of the order statistics within
// min(5, 50 * (1 - p)) percentage points of p. Timer readings are whole
// nanoseconds and cluster on a few values; the band mean keeps a reading
// from snapping to the same integer on every run.
double host_percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

// One named number with its unit; `samples` is the count behind a
// percentile or median (0 when the value is a plain ratio or count).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  u64 samples = 0;
};

// What one workload run reports. `attempted`/`failed` count the workload's
// operations (GETs for kv, churn events for churn).
struct Outcome {
  bool correct = true;
  std::vector<std::string> errors;
  u64 attempted = 0;
  u64 failed = 0;
  u64 digest = 0;
  std::vector<Metric> end_to_end;  // every number the workload defines
  std::vector<Metric> layers;      // traced run only

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      errors.push_back(what);
    }
  }
  void e2e(std::string name, double value, std::string unit, u64 n = 0) {
    end_to_end.push_back({std::move(name), value, std::move(unit), n});
  }
  void layer(std::string name, double value, std::string unit, u64 n = 0) {
    layers.push_back({std::move(name), value, std::move(unit), n});
  }
};

// FNV-1a over 64-bit words: the result digest.
class Digest {
 public:
  void add(u64 word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] u64 value() const { return hash_; }

 private:
  u64 hash_ = 0xcbf29ce484222325ull;
};

// Parameters every workload receives from the command line.
struct RunParams {
  u64 seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string span_dump;  // traced run: where to write the span dump
};

// Fixed-work CPU probe: ns for a fixed integer-mixing loop. Taken before
// and after each workload so a run on a loaded host can be recognized.
double capacity_probe_ms();

// Peak resident set of the process so far, in MB.
double peak_rss_mb();

// --- span tracer ----------------------------------------------------------

// Log-bucketed duration histogram (1/32 relative resolution).
class DurationHist {
 public:
  void add(u64 ns);
  void merge(const DurationHist& other);
  [[nodiscard]] double percentile(double p) const;

 private:
  static u32 bucket_of(u64 ns);
  static double value_of(u32 bucket);  // bucket midpoint
  static double width_of(u32 bucket);
  std::vector<u64> buckets_ = std::vector<u64>(64 * 32, 0);
  u64 count_ = 0;
};

struct SpanRecord {
  const char* name = nullptr;
  u64 start_ns = 0;
  u64 end_ns = 0;
  u64 id = 0;      // thread-local sequence number, 1-based
  u64 parent = 0;  // 0 = root on this thread
  u64 request = 0;
  u32 thread = 0;
};

// Per-name totals: every span counts here even when the record itself is
// not kept (the dump is capped; the statistics are not).
struct SpanStats {
  std::string name;
  DurationHist duration;
  u64 count = 0;
  u64 self_ns = 0;  // duration minus time covered by child spans
};

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Merged per-name statistics over every thread.
  [[nodiscard]] std::vector<SpanStats> stats() const;
  [[nodiscard]] const SpanStats* find(const std::vector<SpanStats>& all,
                                      const std::string& name) const;
  // Writes every kept span as one JSON object per line.
  bool dump(const std::string& path) const;

  struct ThreadBuf;
  ThreadBuf& local();

 private:
  friend class Span;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
  std::atomic<u64> kept_{0};  // spans offered to the dump so far
};

// The tracer of the traced run; null while untraced. Set on the main
// thread before the run starts (worker threads are created later).
extern Tracer* g_tracer;

// RAII span around one call into a layer.
class Span {
 public:
  explicit Span(const char* name, u64 request = 0) {
    if (g_tracer != nullptr) open(name, request);
  }
  ~Span() {
    if (buf_ != nullptr) close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void open(const char* name, u64 request);
  void close();
  Tracer* tracer_ = nullptr;
  Tracer::ThreadBuf* buf_ = nullptr;
};

// Workload entry points.
Outcome run_kv(const RunParams& params, bool sharded);
Outcome run_churn(const RunParams& params);

}  // namespace perfbench

#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>

#include <sys/resource.h>
#include <time.h>

namespace perfbench {

Tracer* g_tracer = nullptr;

u64 cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<u64>(ts.tv_sec) * 1'000'000'000ull + static_cast<u64>(ts.tv_nsec);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double host_percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double band = std::min(0.05, (1.0 - p) / 2);
  auto lo = static_cast<std::size_t>(std::max(0.0, std::floor((p - band) * n)));
  auto hi = static_cast<std::size_t>(std::min(n, std::ceil((p + band) * n)));
  lo = std::min(lo, values.size() - 1);
  hi = std::max(hi, lo + 1);
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double capacity_probe_ms() {
  // A dependent multiply-xorshift chain: pure ALU work with no memory
  // traffic, so it reads the share of a core the process actually gets.
  volatile u64 sink = 0;
  const u64 start = host_ns();
  u64 x = 0x9e3779b97f4a7c15ull;
  for (u32 i = 0; i < 20'000'000; ++i) {
    x ^= x >> 31;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= i;
  }
  sink = x;
  (void)sink;
  return static_cast<double>(host_ns() - start) / 1e6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB -> MB
}

// --- DurationHist ----------------------------------------------------------

u32 DurationHist::bucket_of(u64 ns) {
  if (ns < 32) return static_cast<u32>(ns);
  const int e = 63 - __builtin_clzll(ns);  // >= 5
  const u32 mant = static_cast<u32>((ns >> (e - 5)) & 31);
  return static_cast<u32>(e - 4) * 32 + mant;
}

double DurationHist::width_of(u32 bucket) {
  if (bucket < 32) return 1.0;
  return std::ldexp(1.0, static_cast<int>(bucket / 32) - 1);
}

double DurationHist::value_of(u32 bucket) {
  if (bucket < 32) return bucket;
  const int e = static_cast<int>(bucket / 32) + 4;
  const double mant = 32.0 + static_cast<double>(bucket % 32) + 0.5;
  return std::ldexp(mant, e - 5);
}

void DurationHist::add(u64 ns) {
  ++buckets_[bucket_of(ns)];
  ++count_;
}

void DurationHist::merge(const DurationHist& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double DurationHist::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double rank = std::max(1.0, p * static_cast<double>(count_));
  u64 seen = 0;
  for (u32 i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    if (static_cast<double>(seen + buckets_[i]) >= rank) {
      // Linear interpolation across the bucket's width by rank.
      const double lo = value_of(i) - width_of(i) / 2;
      const double frac = (rank - static_cast<double>(seen)) /
                          static_cast<double>(buckets_[i]);
      return lo + frac * width_of(i);
    }
    seen += buckets_[i];
  }
  return value_of(static_cast<u32>(buckets_.size() - 1));
}

// --- Tracer ----------------------------------------------------------------

namespace {
// Span records kept for the dump, over all threads; the statistics keep
// counting past the cap.
constexpr u64 kKeptSpans = 200'000;
}  // namespace

struct Tracer::ThreadBuf {
  struct Open {
    const char* name;
    u64 start;
    u64 child_ns;
    u64 id;
    u64 request;
  };
  u32 thread = 0;
  u64 next_id = 1;
  std::vector<Open> stack;
  std::vector<SpanRecord> kept;
  std::map<const char*, SpanStats> stats;  // keyed by the literal
};

namespace {
thread_local Tracer::ThreadBuf* tls_buf = nullptr;
thread_local const Tracer* tls_owner = nullptr;
}  // namespace

Tracer::Tracer() = default;

Tracer::~Tracer() {
  // A thread that outlives this tracer must not reuse its buffer.
  tls_buf = nullptr;
  tls_owner = nullptr;
}

Tracer::ThreadBuf& Tracer::local() {
  if (tls_owner != this || tls_buf == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    bufs_.push_back(std::make_unique<ThreadBuf>());
    bufs_.back()->thread = static_cast<u32>(bufs_.size() - 1);
    tls_buf = bufs_.back().get();
    tls_owner = this;
  }
  return *tls_buf;
}

void Span::open(const char* name, u64 request) {
  tracer_ = g_tracer;
  buf_ = &tracer_->local();
  buf_->stack.push_back({name, host_ns(), 0, buf_->next_id++, request});
}

void Span::close() {
  const u64 end = host_ns();
  const Tracer::ThreadBuf::Open top = buf_->stack.back();
  buf_->stack.pop_back();
  const u64 dur = end - top.start;
  u64 parent = 0;
  if (!buf_->stack.empty()) {
    buf_->stack.back().child_ns += dur;
    parent = buf_->stack.back().id;
  }
  SpanStats& st = buf_->stats[top.name];
  if (st.name.empty()) st.name = top.name;
  st.duration.add(dur);
  ++st.count;
  st.self_ns += dur > top.child_ns ? dur - top.child_ns : 0;
  if (tracer_->kept_.fetch_add(1, std::memory_order_relaxed) < kKeptSpans) {
    buf_->kept.push_back(
        {top.name, top.start, end, top.id, parent, top.request, buf_->thread});
  }
}

std::vector<SpanStats> Tracer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, SpanStats> merged;
  for (const auto& buf : bufs_) {
    for (const auto& [key, st] : buf->stats) {
      SpanStats& out = merged[st.name];
      out.name = st.name;
      out.duration.merge(st.duration);
      out.count += st.count;
      out.self_ns += st.self_ns;
    }
  }
  std::vector<SpanStats> all;
  for (auto& [name, st] : merged) all.push_back(std::move(st));
  return all;
}

const SpanStats* Tracer::find(const std::vector<SpanStats>& all,
                              const std::string& name) const {
  for (const auto& st : all) {
    if (st.name == name) return &st;
  }
  return nullptr;
}

bool Tracer::dump(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : bufs_) {
    for (const SpanRecord& s : buf->kept) {
      out << "{\"name\":\"" << s.name << "\",\"thread\":" << s.thread
          << ",\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << ",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench

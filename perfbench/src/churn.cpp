// churn: the control path with no network. A controller::Controller over a
// scaled pipeline (20 stages x 2048 blocks) receives workload::PoissonChurn
// arrivals and departures of a small-footprint mix -- an elastic
// cache-like kind, a pinned heavy-hitter-like kind and a pinned
// load-balancer-like kind. The pipeline is first filled to a few thousand
// residents (set-up); the measured window keeps the offered load above
// capacity, so utilization stays high and some arrivals are rejected. The
// benchmark plays every client: it finishes each extraction handshake
// through Controller::extraction_complete / apply_pending.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "alloc/allocator.hpp"
#include "bench.hpp"
#include "controller/controller.hpp"
#include "rmt/pipeline.hpp"
#include "runtime/runtime.hpp"
#include "workload/churn.hpp"

namespace perfbench {
namespace {

using namespace artmt;

constexpr u32 kBlocksPerStage = 2048;
constexpr u32 kTargetResidents = 1200;
// Offered residency (arrival rate x mean lifetime), a little above what
// the pipeline holds at this mix's minimum demands.
constexpr double kOfferedResidents = 1800.0;
// Window churn events per second of --seconds, chosen so a run takes about
// --seconds of host time on a 4-core x86 host.
constexpr double kEventsPerHostSecond = 8000.0;
constexpr u32 kSlices = 36;
constexpr u32 kSetupReps = 3;

alloc::AllocationRequest request_for(workload::AppKind kind) {
  alloc::AllocationRequest r;
  // Short programs: each access can slide over most of the 20 stages, and
  // together the kinds reach every stage.
  r.program_length = 4;
  switch (kind) {
    case workload::AppKind::kCache:  // elastic: min 8, cap 128 per stage
      r.accesses = {alloc::AccessDemand{1, 8, -1}};
      r.elastic = true;
      r.elastic_cap_blocks = 128;
      break;
    case workload::AppKind::kHeavyHitter:  // two pinned 32-block rows
      r.accesses = {alloc::AccessDemand{0, 32, -1},
                    alloc::AccessDemand{2, 32, -1}};
      break;
    case workload::AppKind::kLoadBalancer:  // one pinned 16-block pool
      r.accesses = {alloc::AccessDemand{3, 16, -1}};
      break;
  }
  return r;
}

rmt::PipelineConfig pipeline_config() {
  rmt::PipelineConfig cfg;
  cfg.words_per_stage = kBlocksPerStage * cfg.block_words;
  return cfg;
}

workload::ChurnConfig churn_config(u64 seed) {
  workload::ChurnConfig c;
  c.arrival_rate = 1.0;
  c.mean_lifetime = kOfferedResidents;
  c.kind_weights = {0.3, 0.3, 0.4};
  c.seed = seed;
  return c;
}

// One pass of the control plane over an event stream.
class ControlPlane {
 public:
  ControlPlane()
      : pipeline_(pipeline_config()), runtime_(pipeline_), ctrl_(pipeline_, runtime_) {
    ctrl_.set_compute_model(alloc::ComputeModel::deterministic());
  }

  void apply(const workload::ChurnEvent& event, u64 index, bool measured) {
    if (event.type == workload::ChurnEvent::Type::kArrival) {
      controller::AdmissionResult result;
      {
        Span span("controller.admit", index);
        result = ctrl_.admit(request_for(event.kind));
      }
      bool completed = true;
      if (result.pending) {
        Span span("controller.handshake", index);
        for (const Fid fid : result.disturbed) ctrl_.extraction_complete(fid);
        if (ctrl_.pending_ready()) {
          ctrl_.apply_pending();
        } else {
          ctrl_.force_finalize();
          completed = false;
        }
      }
      if (result.admitted) fids_.emplace(event.service, result.fid);
      digest_.add(index);
      digest_.add(result.admitted ? result.fid : 0);
      digest_.add(static_cast<u64>(result.provisioning_time()));
      digest_.add(result.disturbed.size());
      if (!measured) return;
      ++arrivals_;
      if (!completed) ++forced_;
      if (result.admitted) {
        grant_ms_.push_back(static_cast<double>(result.provisioning_time()) / 1e6);
      } else {
        ++rejected_;
      }
    } else {
      const auto it = fids_.find(event.service);
      if (it != fids_.end()) {  // a rejected service departs as a no-op
        controller::ReleaseResult release;
        {
          Span span("controller.release", index);
          release = ctrl_.release(it->second);
        }
        digest_.add(index);
        digest_.add(release.disturbed.size());
        fids_.erase(it);
      }
    }
    if (measured) utilization_.push_back(ctrl_.allocator().utilization());
  }

  // Allocator regions vs installed range entries, and per-stage capacity.
  void check(Outcome& out) const {
    const alloc::Allocator& a = ctrl_.allocator();
    const u32 block_words = pipeline_.config().block_words;
    u64 mismatches = 0;
    for (const Fid fid : ctrl_.resident_fids()) {
      const auto regions = ctrl_.regions_of(fid);
      for (u32 s = 0; s < pipeline_.stage_count(); ++s) {
        const rmt::FidEntry* entry = pipeline_.stage(s).lookup(fid);
        const auto it = regions.find(s);
        if (it == regions.end()) {
          if (entry != nullptr) ++mismatches;
        } else if (entry == nullptr ||
                   entry->start_word != it->second.begin * block_words ||
                   entry->limit_word != it->second.end * block_words) {
          ++mismatches;
        }
      }
    }
    out.check(mismatches == 0, std::to_string(mismatches) +
                                   " (fid, stage) range entries differ from "
                                   "the allocator's regions");
    for (u32 s = 0; s < a.geometry().logical_stages; ++s) {
      out.check(a.stage(s).allocated_blocks() <= a.stage(s).capacity(),
                "stage " + std::to_string(s) + " over capacity");
    }
    out.check(fids_.size() == a.resident_count(),
              "benchmark and allocator disagree on the resident count");
  }

  controller::Controller& ctrl() { return ctrl_; }
  [[nodiscard]] u64 residents() const { return fids_.size(); }
  [[nodiscard]] u64 digest() const { return digest_.value(); }

  u64 arrivals_ = 0;
  u64 rejected_ = 0;
  u64 forced_ = 0;
  std::vector<double> grant_ms_;
  std::vector<double> utilization_;

 private:
  rmt::Pipeline pipeline_;
  runtime::ActiveRuntime runtime_;
  controller::Controller ctrl_;
  std::unordered_map<u64, Fid> fids_;
  Digest digest_;
};

struct Streams {
  std::vector<workload::ChurnEvent> fill;
  std::vector<workload::ChurnEvent> window;
};

Streams make_streams(u64 seed, std::size_t window_events) {
  Streams s;
  workload::PoissonChurn gen(churn_config(seed));
  while (gen.resident() < kTargetResidents) s.fill.push_back(gen.next());
  for (std::size_t i = 0; i < window_events; ++i) s.window.push_back(gen.next());
  return s;
}

// Replays the same stream on a standalone allocator, timing each call.
void replay_allocator(const Streams& streams, Outcome& out) {
  alloc::Allocator a(alloc::StageGeometry{20, 10}, kBlocksPerStage);
  a.set_compute_model(alloc::ComputeModel::deterministic());
  std::unordered_map<u64, alloc::AppId> ids;
  std::vector<double> alloc_ns;
  std::vector<double> dealloc_ns;
  u64 allocs = 0, pruned = 0, mutants = 0;
  const auto apply = [&](const workload::ChurnEvent& event, bool timed) {
    if (event.type == workload::ChurnEvent::Type::kArrival) {
      const alloc::AllocationRequest req = request_for(event.kind);
      const u64 t0 = host_ns();
      const alloc::AllocationOutcome o = a.allocate(req);
      const u64 dt = host_ns() - t0;
      if (o.success) ids.emplace(event.service, o.app);
      if (!timed) return;
      alloc_ns.push_back(static_cast<double>(dt));
      ++allocs;
      mutants += o.mutants_considered;
      if (!o.success && o.mutants_considered == 0) ++pruned;
    } else {
      const auto it = ids.find(event.service);
      if (it == ids.end()) return;
      const u64 t0 = host_ns();
      a.deallocate(it->second);
      const u64 dt = host_ns() - t0;
      ids.erase(it);
      if (timed) dealloc_ns.push_back(static_cast<double>(dt));
    }
  };
  for (const auto& e : streams.fill) apply(e, false);
  for (const auto& e : streams.window) apply(e, true);
  const double n = static_cast<double>(std::max<u64>(1, allocs));
  out.layer("alloc.allocate_ns_p50", host_percentile(alloc_ns, 0.50), "ns", alloc_ns.size());
  out.layer("alloc.allocate_ns_p99", host_percentile(alloc_ns, 0.99), "ns", alloc_ns.size());
  out.layer("alloc.deallocate_ns_p50", host_percentile(dealloc_ns, 0.50), "ns",
            dealloc_ns.size());
  out.layer("alloc.mutants_per_alloc", static_cast<double>(mutants) / n, "count", allocs);
  out.layer("alloc.pruned_frac", static_cast<double>(pruned) / n, "ratio", allocs);
}

struct Measured {
  std::unique_ptr<ControlPlane> plane;
  std::vector<double> slice_rate;
  std::vector<double> slice_cpu_rate;
  controller::ControllerStats before;
};

// Fills (set-up, median of kSetupReps) and then runs the timed window.
Measured run_once(const Streams& streams, u32 setup_reps, double* setup_s) {
  Measured m;
  std::vector<double> setups;
  for (u32 r = 0; r < setup_reps; ++r) {
    m.plane.reset();
    const u64 start = cpu_ns();
    m.plane = std::make_unique<ControlPlane>();
    for (std::size_t i = 0; i < streams.fill.size(); ++i) {
      m.plane->apply(streams.fill[i], i, false);
    }
    setups.push_back(static_cast<double>(cpu_ns() - start) / 1e9);
  }
  *setup_s = median(setups);
  m.before = m.plane->ctrl().stats();
  const std::size_t n = streams.window.size();
  const std::size_t base = streams.fill.size();
  for (u32 k = 0; k < kSlices; ++k) {
    const std::size_t b = n * k / kSlices;
    const std::size_t e = n * (k + 1) / kSlices;
    const u64 start = host_ns();
    const u64 cpu_start = cpu_ns();
    for (std::size_t i = b; i < e; ++i) m.plane->apply(streams.window[i], base + i, true);
    const double wall = static_cast<double>(host_ns() - start) / 1e9;
    const double cpu = static_cast<double>(cpu_ns() - cpu_start) / 1e9;
    m.slice_rate.push_back(static_cast<double>(e - b) / wall);
    m.slice_cpu_rate.push_back(static_cast<double>(e - b) / cpu);
  }
  return m;
}

}  // namespace

Outcome run_churn(const RunParams& params) {
  const auto window =
      static_cast<std::size_t>(std::max(120.0, params.seconds * kEventsPerHostSecond));
  const Streams streams = make_streams(params.seed, window);
  Outcome out;
  double setup_s = 0.0;
  Measured m = run_once(streams, kSetupReps, &setup_s);
  ControlPlane& plane = *m.plane;
  plane.check(out);

  const double ops_cpu = median(m.slice_cpu_rate);
  out.attempted = streams.window.size();
  out.failed = plane.forced_;
  out.digest = plane.digest();
  const double arrivals = static_cast<double>(std::max<u64>(1, plane.arrivals_));
  out.e2e("setup_s", setup_s, "s", kSetupReps);
  out.e2e("ctrl_ops_per_s", median(m.slice_rate), "1/s", m.slice_rate.size());
  out.e2e("ops_per_cpu_s", ops_cpu, "1/s", m.slice_cpu_rate.size());
  out.e2e("fail_frac", static_cast<double>(plane.forced_) / out.attempted, "ratio",
          out.attempted);
  out.e2e("grant_ms_p50", percentile(plane.grant_ms_, 0.50), "ms", plane.grant_ms_.size());
  out.e2e("grant_ms_p99", percentile(plane.grant_ms_, 0.99), "ms", plane.grant_ms_.size());
  out.e2e("reject_frac", static_cast<double>(plane.rejected_) / arrivals, "ratio",
          plane.arrivals_);
  out.e2e("utilization", mean(plane.utilization_), "ratio", plane.utilization_.size());
  std::printf("churn: %zu fill events, %zu window events, %llu residents at the end\n",
              streams.fill.size(), streams.window.size(),
              static_cast<unsigned long long>(plane.residents()));
  if (!params.traced) return out;

  // Traced run: the same streams with spans on; it must decide exactly as
  // the untraced run did.
  Tracer tracer;
  g_tracer = &tracer;
  double traced_setup = 0.0;
  Measured t = run_once(streams, 1, &traced_setup);
  g_tracer = nullptr;
  out.check(t.plane->digest() == out.digest, "traced run diverged from the untraced run");

  const auto spans = tracer.stats();
  const auto pct = [&](const char* name, double p) {
    const SpanStats* st = tracer.find(spans, name);
    return st == nullptr ? 0.0 : st->duration.percentile(p);
  };
  const auto count_of = [&](const char* name) -> u64 {
    const SpanStats* st = tracer.find(spans, name);
    return st == nullptr ? 0 : st->count;
  };
  out.layer("controller.admit_ns_p50", pct("controller.admit", 0.50), "ns",
            count_of("controller.admit"));
  out.layer("controller.admit_ns_p99", pct("controller.admit", 0.99), "ns",
            count_of("controller.admit"));
  out.layer("controller.release_ns_p50", pct("controller.release", 0.50), "ns",
            count_of("controller.release"));
  out.layer("controller.handshake_ns_p50", pct("controller.handshake", 0.50), "ns",
            count_of("controller.handshake"));
  const controller::ControllerStats& a = t.before;
  const controller::ControllerStats& b = t.plane->ctrl().stats();
  const u64 admits = b.admissions - a.admissions;
  const double n = static_cast<double>(std::max<u64>(1, admits));
  out.layer("controller.table_entries_per_admit",
            static_cast<double>(b.table_entry_updates - a.table_entry_updates) / n,
            "count", admits);
  out.layer("controller.disturbed_per_admit",
            static_cast<double>(b.reallocations - a.reallocations) / n, "count", admits);
  out.layer("controller.snapshot_blocks_per_admit",
            static_cast<double>(b.blocks_snapshotted - a.blocks_snapshotted) / n,
            "count", admits);
  replay_allocator(streams, out);
  const double traced = median(t.slice_cpu_rate);
  out.layer("trace.overhead_frac",
            ops_cpu == 0.0 ? 0.0 : (ops_cpu - traced) / ops_cpu, "ratio");
  for (const auto& st : spans) {
    std::printf("span %-28s count %10llu  p50 %8.0f ns  self %9.3f ms\n",
                st.name.c_str(), static_cast<unsigned long long>(st.count),
                st.duration.percentile(0.5), static_cast<double>(st.self_ns) / 1e6);
  }
  if (!params.span_dump.empty()) {
    out.check(tracer.dump(params.span_dump), "cannot write " + params.span_dump);
  }
  return out;
}

}  // namespace perfbench

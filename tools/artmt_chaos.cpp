// artmt_chaos -- the fault-injection soak: runs the end-to-end scenario
// (in-network cache + heavy-hitter monitor + Cheetah load balancer on one
// switch) twice per shard count -- once fault-free, once under a chaos
// plan (uniform loss, two scripted link flaps, a switch brownout that
// wipes register state) -- and asserts that the reliability layer
// converges both to the SAME application-state digest, deterministically
// at shard counts 1, 2 and 4.
//
// What the digest covers -- and what it deliberately does not. The digest
// is the reliability-protected converged state: the cache's bucket words
// after the final (tracker-acknowledged) re-population, the load
// balancer's pool-size and pool words, the number of opened flows, and
// the completion of heavy-hitter extraction. It excludes state that loss
// legitimately perturbs: CMS counters and key tables (observe capsules
// are fire-and-forget by design; the sketch is approximate even without
// faults), the LB's round-robin counter, and flow cookie values (they
// encode which server the round-robin landed on). Those are statistical;
// the digest checks exactly the state the paper's idempotent capsule
// protocols promise to deliver.
//
// Timeline: a clean setup window (admissions and the first populate see
// no faults -- allocation requests carry no retransmission), then a fault
// window overlapping the data-plane workload (uniform loss from its start
// onward, flaps and the brownout bounded inside it), then a recovery
// phase that re-populates, re-configures, re-opens flows and extracts --
// still under the uniform loss, which is the point: the
// ReliabilityTracker schedules must converge through it.
//
// Usage:
//   artmt_chaos [--topology single|leaf-spine] [--requests N] [--seed S]
//               [--loss P] [--hot H] [--shards a,b,c] [--trace FILE]
//               [--snapshot FILE] [--flight-dir DIR]
//     --topology T    single (default): everything on one switch.
//                     leaf-spine: the same services placed by the fabric's
//                     global controller across a 2-leaf/1-spine fabric;
//                     the flaps and the brownout move to the client's leaf
//                     and backend links, and the digest reads each
//                     service's registers from whichever leaf owns it.
//     --requests N    data-plane requests per service (default 2000)
//     --seed S        fault-plan seed (default 1); workload seed is fixed
//     --loss P        uniform loss probability (default 0.01)
//     --hot H         cache hot-set size (default 50)
//     --shards a,b,c  shard counts to gate (default 1,2,4; 0 = serial)
//     --trace FILE    also run the serial engine with a trace sink and
//                     write every injected-fault/telemetry event there
//     --snapshot FILE write the last faulty run's merged metrics snapshot
//                     (faults.* and reliability.* included) as JSON
//     --flight-dir DIR arm the fault flight recorder: every run records
//                     span events into per-shard rings; the brownout
//                     up-edge dumps the wiped switch's final events to
//                     DIR, and a digest mismatch or gate failure dumps
//                     the offending run's merged rings
//
// stdout: one JSON summary object (digests, injected counts, retransmit /
// recovered / give-up totals, verdict). Exit 0 iff every faulty digest
// equals the fault-free digest and they agree across shard counts.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/cache_service.hpp"
#include "apps/hh_service.hpp"
#include "apps/lb_service.hpp"
#include "apps/server_node.hpp"
#include "client/client_node.hpp"
#include "controller/switch_node.hpp"
#include "fabric/topology.hpp"
#include "faults/injector.hpp"
#include "netsim/sharded.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "telemetry/trace.hpp"
#include "workload/zipf.hpp"

using namespace artmt;

namespace {

constexpr packet::MacAddr kSwitchMac = 0x0000aa;
constexpr packet::MacAddr kServerMac = 0x0000bb;
constexpr packet::MacAddr kBackend1Mac = 0xdd01;
constexpr packet::MacAddr kBackend2Mac = 0xdd02;
constexpr packet::MacAddr kClientMac = 0x000100;
constexpr u32 kFlows = 8;

// FNV-1a over 64-bit words (order-sensitive).
struct Digest {
  u64 h = 1469598103934665603ull;
  void mix(u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

struct ChaosConfig {
  u32 requests = 2000;
  u32 hot = 50;
  u64 fault_seed = 1;
  double loss = 0.01;
  bool leaf_spine = false;  // --topology leaf-spine
};

struct RunResult {
  bool converged = false;  // every completion flag reached
  u64 digest = 0;
  SimTime end_time = 0;
  std::array<u64, faults::kFaultKindCount> injected{};
  u64 injected_total = 0;
  u64 retransmits = 0;
  u64 recovered = 0;
  u64 give_ups = 0;
  std::string snapshot;  // merged metrics JSON
};

// The chaos plan the acceptance scenario prescribes: uniform loss from
// the fault window's start onward, two link flaps, one switch brownout.
faults::FaultPlan chaos_plan(const ChaosConfig& config, SimTime window_start,
                             SimTime window) {
  faults::FaultPlan plan;
  plan.seed = config.fault_seed;

  faults::LinkFaults loss;
  loss.drop = config.loss;
  loss.from = window_start;  // setup (no-retry control plane) stays clean
  plan.link_faults.push_back(loss);

  // In leaf-spine mode the same three scripted faults land on fabric node
  // names: the client hangs off leaf0 (which also takes the brownout),
  // and the dual-homed backend1 loses every link at once (wildcard peer)
  // so the flap bites no matter which leaf the LB was placed on.
  faults::LinkFlap flap1;
  flap1.node_a = "client";
  flap1.node_b = config.leaf_spine ? "leaf0" : "switch";
  flap1.down_at = window_start + window / 5;
  flap1.up_at = flap1.down_at + window / 20;
  plan.flaps.push_back(flap1);

  faults::LinkFlap flap2;
  flap2.node_a = "backend1";
  flap2.node_b = config.leaf_spine ? "" : "switch";
  flap2.down_at = window_start + window / 2;
  flap2.up_at = flap2.down_at + window / 20;
  plan.flaps.push_back(flap2);

  faults::Brownout brownout;
  brownout.node = config.leaf_spine ? "leaf0" : "switch";
  brownout.at = window_start + (window * 7) / 10;
  brownout.duration = window / 16;
  plan.brownouts.push_back(brownout);
  return plan;
}

// Runs the scenario once. `shards` == 0 selects the serial engine (used
// for --trace); otherwise the sharded engine with that worker count.
// `plan` == nullptr runs fault-free.
RunResult run_scenario(u32 shards, const faults::FaultPlan* plan,
                       const ChaosConfig& config,
                       telemetry::TraceSink* sink) {
  netsim::Network net(shards);
  if (sink != nullptr) {
    sink->set_clock([&net] { return net.now(); });
    telemetry::set_trace_sink(sink);
  }

  // Timeline (see header): setup, then a workload window the fault plan
  // overlaps, then recovery.
  const SimTime workload_start = 300 * kMillisecond;
  const SimTime window = SimTime{config.requests} * 100 * kMicrosecond;
  const SimTime recovery_at = workload_start + window + 100 * kMillisecond;

  controller::SwitchNode::Config cfg;
  cfg.costs.table_entry_update = 100 * kMicrosecond;
  cfg.costs.snapshot_per_block = 1 * kMicrosecond;
  cfg.costs.clear_per_block = 1 * kMicrosecond;
  cfg.compute_model = alloc::ComputeModel::deterministic();

  std::shared_ptr<controller::SwitchNode> sw;          // single mode
  std::unique_ptr<fabric::Topology> topo;              // leaf-spine mode
  packet::MacAddr control_target = kSwitchMac;
  if (config.leaf_spine) {
    fabric::TopologyConfig tcfg;
    tcfg.leaves = 2;
    tcfg.spines = 1;
    tcfg.switch_config = cfg;  // per-switch registries: leaves span shards
    tcfg.controller.epoch = 2 * kMillisecond;
    // The leaf0 brownout silences its health acks for its whole duration.
    // This soak gates digest convergence, not re-placement (bench_fabric
    // owns that), so the death threshold must outlast the brownout.
    tcfg.controller.miss_threshold =
        static_cast<u32>((window / 16) / tcfg.controller.epoch) + 4;
    topo = std::make_unique<fabric::Topology>(net, tcfg);
    control_target = topo->controller_mac();
  } else {
    cfg.metrics = &net.metrics(0);
    sw = std::make_shared<controller::SwitchNode>("switch", cfg);
    net.attach(sw);
  }
  auto server = std::make_shared<apps::ServerNode>("server", kServerMac);
  auto backend1 = std::make_shared<apps::ServerNode>("backend1", kBackend1Mac);
  auto backend2 = std::make_shared<apps::ServerNode>("backend2", kBackend2Mac);
  auto client = std::make_shared<client::ClientNode>("client", kClientMac,
                                                     control_target);
  net.attach(server);
  net.attach(backend1);
  net.attach(backend2);
  net.attach(client);
  if (topo) {
    // Client on leaf0, server on leaf1 (service traffic crosses the
    // spine). The backends are dual-homed at matching port numbers --
    // host ports 2 and 3 on BOTH leaves -- so the LB's VIP pool of
    // egress ports is valid on whichever leaf the controller places it.
    topo->attach_host(*client, 0, 0, kClientMac);      // leaf0 port 1
    topo->attach_host(*backend1, 0, 0, kBackend1Mac);  // leaf0 port 2
    topo->attach_host(*backend2, 0, 0, kBackend2Mac);  // leaf0 port 3
    topo->attach_host(*server, 0, 1, kServerMac);      // leaf1 port 1
    topo->attach_host(*backend1, 1, 1, kBackend1Mac);  // leaf1 port 2
    topo->attach_host(*backend2, 1, 1, kBackend2Mac);  // leaf1 port 3
  } else {
    net.connect(*sw, 0, *server, 0);
    net.connect(*sw, 8, *backend1, 0);
    net.connect(*sw, 9, *backend2, 0);
    net.connect(*sw, 1, *client, 0);
    sw->bind(kServerMac, 0);
    sw->bind(kBackend1Mac, 8);
    sw->bind(kBackend2Mac, 9);
    sw->bind(kClientMac, 1);
    net.pin(*sw, 0);
  }

  std::unique_ptr<faults::FaultInjector> injector;
  if (plan != nullptr) {
    injector = std::make_unique<faults::FaultInjector>(*plan, net.shards());
    net.set_transmit_hook(injector.get());
    // The up-edge of a brownout is a power cycle: SRAM is gone. Table and
    // allocator state live on the controller and persist.
    controller::SwitchNode* wiped = topo ? &topo->leaf(0) : sw.get();
    for (const faults::Brownout& brownout : plan->brownouts) {
      net.schedule_on(*wiped, brownout.up_at(),
                      [wiped] { wiped->wipe_registers(); });
    }
  }

  workload::ZipfGenerator zipf(5'000, 1.2);
  Rng rng(42);
  auto key_of = [](u32 rank) {
    return workload::ZipfGenerator::key_for_rank(rank);
  };
  for (u32 rank = 0; rank < zipf.universe(); ++rank) {
    server->put(key_of(rank), rank + 1);
  }

  auto cache = std::make_shared<apps::CacheService>("cache", kServerMac);
  auto monitor =
      std::make_shared<apps::FrequentItemService>("monitor", kServerMac);
  auto lb = std::make_shared<apps::CheetahLbService>("lb");
  client->register_service(cache);
  client->register_service(monitor);
  client->register_service(lb);
  client->on_passive = [&](netsim::Frame& frame) {
    const auto msg = apps::KvMessage::parse(std::span<const u8>(frame).subspan(
        packet::EthernetHeader::kWireSize));
    if (!msg) return;
    cache->handle_server_reply(*msg);
    lb->handle_cookie_reply(*msg);
  };

  // Hot set with pairwise-distinct buckets: the digest compares the
  // last-written value per bucket, and retransmission legally reorders
  // writes to different requests -- distinct buckets make the converged
  // contents order-independent.
  std::vector<std::pair<u64, u32>> hot;
  bool lb_configured = false;
  bool cache_populated = false;
  bool extraction_done = false;
  std::size_t extracted_items = 0;

  cache->on_ready = [&] {
    std::map<u32, bool> used;
    for (u32 rank = 0; hot.size() < config.hot && rank < zipf.universe();
         ++rank) {
      const u32 bucket = cache->bucket_for(key_of(rank));
      if (used[bucket]) continue;
      used[bucket] = true;
      hot.emplace_back(key_of(rank), rank + 1);
    }
    cache->populate(hot);
  };
  // VIP pool: the backends' switch egress ports ({2, 3} on either leaf in
  // fabric mode thanks to the dual-homing above).
  const std::vector<u32> lb_pool =
      topo ? std::vector<u32>{2, 3} : std::vector<u32>{8, 9};
  lb->on_ready = [&] { lb->configure(lb_pool); };

  std::function<void(u32)> get_next = [&](u32 remaining) {
    if (remaining == 0) return;
    cache->get(key_of(zipf.next_rank(rng)));
    net.simulator().schedule_after(
        100 * kMicrosecond, [&get_next, remaining] { get_next(remaining - 1); });
  };
  std::function<void(u32)> observe_next = [&](u32 remaining) {
    if (remaining == 0) return;
    monitor->observe(key_of(zipf.next_rank(rng)));
    net.simulator().schedule_after(
        50 * kMicrosecond,
        [&observe_next, remaining] { observe_next(remaining - 1); });
  };

  // Recovery: client-driven restoration of every piece of protected
  // state, all of it riding on the reliability trackers (or, for flows,
  // an idempotent re-open loop), all of it under the residual loss.
  u32 flow_rounds = 0;
  bool flows_reopened = false;
  std::function<void()> ensure_flows = [&] {
    if (++flow_rounds >= 200) return;  // chaos budget exhausted; digest gates
    if (!lb->configured()) {           // pool writes still in flight
      net.simulator().schedule_after(50 * kMillisecond, ensure_flows);
      return;
    }
    const bool first = !flows_reopened;
    flows_reopened = true;
    if (!first && lb->cookies().size() >= kFlows) return;
    for (u32 flow = 1; flow <= kFlows; ++flow) {
      if (first || !lb->cookies().contains(flow)) lb->open_flow(flow);
    }
    net.simulator().schedule_after(50 * kMillisecond, ensure_flows);
  };
  auto recover = [&] {
    cache->populate(hot, [&] { cache_populated = true; });
    lb->configure(lb_pool, [&] { lb_configured = true; });
    ensure_flows();
    monitor->extract(
        [&](std::vector<std::pair<u64, u32>> items) {
          extraction_done = true;
          extracted_items = items.size();
        },
        /*min_count=*/10);
  };

  auto kickoff = [&] {
    get_next(config.requests);
    observe_next(config.requests);
    // Flows opened across the workload window sit in the fault path; the
    // recovery pass re-opens every one of them.
    for (u32 flow = 1; flow <= kFlows; ++flow) {
      net.simulator().schedule_after(flow * (window / (kFlows + 1)), [&lb,
                                                                      flow] {
        if (lb->configured()) lb->open_flow(flow);
      });
    }
    // A mid-window write-back refresh: these tracked capsules straddle
    // the flaps and the brownout, which is where retransmission earns
    // its keep.
    net.simulator().schedule_after((window * 13) / 20, [&] {
      if (cache->operational()) cache->populate(hot);
    });
  };

  cache->request_allocation();
  // Fabric mode: run the controller's health epochs across the fault
  // window and the recovery tail, then let the event queue drain.
  if (topo) topo->start(1 * kMillisecond, recovery_at + 500 * kMillisecond);
  net.schedule_on(*client, 50 * kMillisecond,
                  [&] { monitor->request_allocation(); });
  net.schedule_on(*client, 100 * kMillisecond,
                  [&] { lb->request_allocation(); });
  net.schedule_on(*client, workload_start, kickoff);
  net.schedule_on(*client, recovery_at, recover);
  net.run();

  // --- digest the converged, reliability-protected state ---
  RunResult out;
  out.end_time = net.now();
  out.converged = cache_populated && lb_configured && extraction_done &&
                  lb->cookies().size() >= kFlows &&
                  cache->populate_reliability().outstanding() == 0;

  // In fabric mode each service's registers live on whichever leaf the
  // global controller placed it; in single mode everything is on `sw`.
  auto pipeline_of = [&](Fid fid) -> rmt::Pipeline& {
    if (!topo) return sw->pipeline();
    const packet::MacAddr owner = topo->controller().owner_of(fid);
    for (u32 i = 0; i < topo->leaves(); ++i) {
      if (topo->leaf_mac(i) == owner) return topo->leaf(i).pipeline();
    }
    return topo->leaf(0).pipeline();  // unplaced: `converged` gates anyway
  };
  auto word_at = [&](Fid fid, u32 stage, u32 address) {
    rmt::Pipeline& pipe = pipeline_of(fid);
    const u32 logical = pipe.config().logical_stages;
    return pipe.stage(stage % logical).memory().read(address);
  };
  Digest digest;
  // Cache buckets: key halves + value, one word per access per bucket.
  for (const auto& [key, value] : hot) {
    const u32 bucket = cache->bucket_for(key);
    digest.mix(key);
    digest.mix(value);
    for (u32 access = 0; access < 3; ++access) {
      digest.mix(word_at(cache->fid(), (*cache->mutant())[access],
                         cache->synthesized()->access_base[access] + bucket));
    }
  }
  // LB pool-size word and pool words (accesses 0 and 2; the round-robin
  // counter at access 1 is runtime state, not configured state).
  digest.mix(word_at(lb->fid(), (*lb->mutant())[0],
                     lb->synthesized()->access_base[0]));
  for (u32 i = 0; i < 2; ++i) {
    digest.mix(word_at(lb->fid(), (*lb->mutant())[2],
                       lb->synthesized()->access_base[2] + i));
  }
  digest.mix(lb->cookies().size());
  digest.mix(extraction_done ? 1 : 0);
  digest.mix(out.converged ? 1 : 0);
  out.digest = digest.h;

  // --- merge telemetry: engine + faults.* + reliability.* ---
  telemetry::MetricsRegistry registry;
  net.merge_metrics_into(registry);
  if (const netsim::ShardedSimulator* ssim = net.sharded()) {
    ssim->export_shard_stats(registry);
  }
  if (injector) {
    injector->export_metrics(registry);
    out.injected_total = injector->injected_total();
    for (u32 k = 0; k < faults::kFaultKindCount; ++k) {
      out.injected[k] = injector->injected(static_cast<faults::FaultKind>(k));
    }
  }
  const std::pair<const client::ReliabilityTracker*, i32> trackers[] = {
      {&cache->populate_reliability(), static_cast<i32>(cache->fid())},
      {&monitor->extract_reliability(), static_cast<i32>(monitor->fid())},
      {&lb->configure_reliability(), static_cast<i32>(lb->fid())},
      {&cache->handshake_reliability(), static_cast<i32>(cache->fid())},
      {&monitor->handshake_reliability(), static_cast<i32>(monitor->fid())},
      {&lb->handshake_reliability(), static_cast<i32>(lb->fid())}};
  for (const auto& [tracker, fid] : trackers) {
    tracker->export_metrics(registry, fid);
    out.retransmits += tracker->stats().retransmits;
    out.recovered += tracker->stats().recovered;
    out.give_ups += tracker->stats().give_ups;
  }
  std::ostringstream os;
  registry.snapshot_json(os);
  out.snapshot = os.str();

  if (sink != nullptr) telemetry::set_trace_sink(nullptr);
  return out;
}

void print_injected(std::ostream& os, const RunResult& run) {
  os << "{";
  bool first = true;
  for (u32 k = 0; k < faults::kFaultKindCount; ++k) {
    if (run.injected[k] == 0) continue;
    if (!first) os << ", ";
    first = false;
    os << "\"" << faults::fault_kind_name(static_cast<faults::FaultKind>(k))
       << "\": " << run.injected[k];
  }
  os << "}";
}

}  // namespace

int main(int argc, char** argv) {
  ChaosConfig config;
  std::vector<u32> shard_counts = {1, 2, 4};
  const char* trace_path = nullptr;
  const char* snapshot_path = nullptr;
  const char* flight_dir = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--topology") == 0 && i + 1 < argc) {
      const std::string value = argv[++i];
      if (value == "single") {
        config.leaf_spine = false;
      } else if (value == "leaf-spine") {
        config.leaf_spine = true;
      } else {
        std::fprintf(stderr,
                     "artmt_chaos: --topology must be single or leaf-spine\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      config.requests = static_cast<u32>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      config.fault_seed = std::stoull(argv[++i]);
    } else if (std::strcmp(argv[i], "--loss") == 0 && i + 1 < argc) {
      config.loss = std::stod(argv[++i]);
    } else if (std::strcmp(argv[i], "--hot") == 0 && i + 1 < argc) {
      config.hot = static_cast<u32>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shard_counts.clear();
      std::stringstream list(argv[++i]);
      std::string item;
      while (std::getline(list, item, ',')) {
        shard_counts.push_back(static_cast<u32>(std::stoul(item)));
      }
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--snapshot") == 0 && i + 1 < argc) {
      snapshot_path = argv[++i];
    } else if (std::strcmp(argv[i], "--flight-dir") == 0 && i + 1 < argc) {
      flight_dir = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: artmt_chaos [--topology single|leaf-spine] "
                   "[--requests N] [--seed S] [--loss P] "
                   "[--hot H] [--shards a,b,c] [--trace FILE] "
                   "[--snapshot FILE] [--flight-dir DIR]\n");
      return 2;
    }
  }
  if (config.requests < 100) {
    std::fprintf(stderr, "artmt_chaos: --requests must be >= 100\n");
    return 2;
  }

  const SimTime workload_start = 300 * kMillisecond;
  const SimTime window = SimTime{config.requests} * 100 * kMicrosecond;
  const faults::FaultPlan plan =
      chaos_plan(config, workload_start + window / 10, window);

  // Flight recorder: one ring per worker lane, shared across every run in
  // the gate (cleared between runs). The brownout up-edge dumps from
  // inside wipe_registers; mismatches and gate failures dump from here.
  std::unique_ptr<telemetry::FlightRecorder> recorder;
  if (flight_dir != nullptr) {
    u32 lanes = 1;  // the serial engine (0) is one lane
    for (const u32 shards : shard_counts) lanes = std::max(lanes, shards);
    recorder = std::make_unique<telemetry::FlightRecorder>(4096, lanes);
    recorder->set_dump_dir(flight_dir);
    telemetry::set_flight_recorder(recorder.get());
  }

  // Fault-free reference (first shard count in the gate list).
  const u32 reference_shards = shard_counts.empty() ? 1 : shard_counts[0];
  const RunResult clean =
      run_scenario(reference_shards, nullptr, config, nullptr);
  std::fprintf(stderr,
               "clean run (shards=%u): digest 0x%016llx, done at t=%.3fs%s\n",
               reference_shards,
               static_cast<unsigned long long>(clean.digest),
               clean.end_time / 1e9, clean.converged ? "" : " [NOT CONVERGED]");

  bool ok = clean.converged;
  std::vector<std::pair<u32, RunResult>> runs;
  for (const u32 shards : shard_counts) {
    if (recorder) recorder->clear();
    RunResult run = run_scenario(shards, &plan, config, nullptr);
    const bool match = run.converged && run.digest == clean.digest;
    if (!match && recorder) {
      const std::string dump = recorder->dump_all("digest_mismatch");
      if (!dump.empty()) {
        std::fprintf(stderr, "flight recorder dump: %s\n", dump.c_str());
      }
    }
    ok = ok && match;
    std::fprintf(
        stderr,
        "chaos run (shards=%u, seed=%llu, loss=%.3f): digest 0x%016llx "
        "[%s], %llu faults injected, %llu retransmits, %llu recovered, "
        "%llu give-ups, done at t=%.3fs\n",
        shards, static_cast<unsigned long long>(config.fault_seed),
        config.loss, static_cast<unsigned long long>(run.digest),
        match ? "match" : "MISMATCH",
        static_cast<unsigned long long>(run.injected_total),
        static_cast<unsigned long long>(run.retransmits),
        static_cast<unsigned long long>(run.recovered),
        static_cast<unsigned long long>(run.give_ups), run.end_time / 1e9);
    runs.emplace_back(shards, std::move(run));
  }
  // Cross-shard-count determinism: identical digests AND identical
  // injected-fault counts.
  for (std::size_t i = 1; i < runs.size(); ++i) {
    if (runs[i].second.digest != runs[0].second.digest ||
        runs[i].second.injected != runs[0].second.injected) {
      std::fprintf(stderr,
                   "determinism violation: shards=%u and shards=%u disagree\n",
                   runs[0].first, runs[i].first);
      ok = false;
    }
  }

  if (trace_path != nullptr) {
    std::ofstream trace_file(trace_path);
    if (!trace_file) {
      std::fprintf(stderr, "artmt_chaos: cannot open %s\n", trace_path);
      return 1;
    }
    telemetry::TraceSink sink(trace_file);
    if (recorder) recorder->clear();
    const RunResult serial = run_scenario(0, &plan, config, &sink);
    std::fprintf(stderr,
                 "serial trace run: digest 0x%016llx [%s], %llu events -> "
                 "%s\n",
                 static_cast<unsigned long long>(serial.digest),
                 serial.digest == clean.digest ? "match" : "MISMATCH",
                 static_cast<unsigned long long>(sink.emitted()), trace_path);
    ok = ok && serial.digest == clean.digest;
  }

  if (snapshot_path != nullptr && !runs.empty()) {
    std::ofstream snapshot_file(snapshot_path);
    if (!snapshot_file) {
      std::fprintf(stderr, "artmt_chaos: cannot open %s\n", snapshot_path);
      return 1;
    }
    snapshot_file << runs.back().second.snapshot;
  }

  // Machine-readable summary.
  std::cout << "{\n  \"topology\": \""
            << (config.leaf_spine ? "leaf-spine" : "single")
            << "\",\n  \"seed\": " << config.fault_seed
            << ",\n  \"loss\": " << config.loss
            << ",\n  \"requests\": " << config.requests
            << ",\n  \"clean_digest\": \"0x" << std::hex << clean.digest
            << std::dec << "\",\n  \"runs\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& [shards, run] = runs[i];
    std::cout << (i == 0 ? "" : ",") << "\n    {\"shards\": " << shards
              << ", \"digest\": \"0x" << std::hex << run.digest << std::dec
              << "\", \"converged\": " << (run.converged ? "true" : "false")
              << ", \"injected_total\": " << run.injected_total
              << ", \"injected\": ";
    print_injected(std::cout, run);
    std::cout << ", \"retransmits\": " << run.retransmits
              << ", \"recovered\": " << run.recovered
              << ", \"give_ups\": " << run.give_ups << "}";
  }
  std::cout << "\n  ],\n  \"match\": " << (ok ? "true" : "false") << "\n}\n";
  if (recorder) {
    if (!ok) {
      const std::string dump = recorder->dump_all("gate_failure");
      if (!dump.empty()) {
        std::fprintf(stderr, "flight recorder dump: %s\n", dump.c_str());
      }
    }
    std::fprintf(stderr, "flight recorder: %llu dump(s) in %s\n",
                 static_cast<unsigned long long>(recorder->dumps_written()),
                 flight_dir);
    telemetry::set_flight_recorder(nullptr);
  }
  return ok ? 0 : 1;
}

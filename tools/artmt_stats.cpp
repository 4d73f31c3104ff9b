// artmt_stats -- run the end-to-end testbed scenario (an in-network cache
// plus a heavy-hitter monitor sharing one switch) with every component
// wired into its engine shard's telemetry registry, then dump the merged
// metrics snapshot as JSON: per-FID packet counters, admission/rejection
// totals, cache hit ratios, latency histograms -- the paper's evaluation
// quantities without recompiling a single printf.
//
// Usage:
//   artmt_stats [--requests N] [--trace FILE] [--shards N]
//               [--loss P] [--fault-seed S] [--alloc]
//     --requests N   data-plane requests per service (default 2000)
//     --trace FILE   also write TraceSink JSON-lines (simulated
//                    timestamps) for every control-plane/netsim event
//     --shards N     run on the sharded multi-worker engine with N
//                    shards (switch pinned to shard 0, fleets spread
//                    over the rest). Both engines use the modeled
//                    allocator compute cost, so the snapshot is
//                    byte-identical across repeated runs, and for any N
//                    and the serial engine apart from the sharding.*
//                    lines. Incompatible with --trace: the trace sink is
//                    process-global and worker threads would interleave
//                    its lines.
//     --loss P       attach a FaultInjector with uniform loss P on every
//                    link; faults.* counters land in the snapshot and
//                    the reliability.* retransmit schedules absorb the
//                    loss (artmt_chaos runs the full scripted matrix)
//     --fault-seed S seed for the loss plan's substreams (default 1)
//     --alloc        instead of the metrics snapshot, dump the switch
//                    allocator's state after the scenario: scheme, search
//                    mode, resident count, and per-stage utilization +
//                    fragmentation (largest free run / total free blocks)
//     --heatmap      instead of the snapshot, print the per-(stage, FID)
//                    memory-access heatmap the runtime recorded (reads /
//                    writes / collisions per cell) plus the decaying
//                    hotness ranking the migration engine consumes
//     --migration    run with the background migration & defragmentation
//                    engine enabled and dump its report instead of the
//                    snapshot: tick/plan/execute counters, remap-queue
//                    stats, the controller's per-kind migration totals,
//                    and the live hotness table with cold streaks
//     --spans FILE   no scenario: load a span dump (artmt_spans format /
//                    --span-dump output) and print the per-FID
//                    p50/p90/p99 phase latency breakdown
//     --span-dump F  record causal spans during the scenario and write
//                    the canonical sorted dump to F (byte-identical for
//                    any engine and shard count)
//     --fabric       no single-switch scenario: run the multi-switch
//                    fabric story instead -- four cache tenants placed by
//                    the federated global controller across a 4-leaf /
//                    2-spine fabric, leaf0 killed mid-run so the
//                    failure-driven re-placement path executes -- and
//                    dump the controller's FabricReport (placements,
//                    evacuations, downtime percentiles, state loss) plus
//                    the fabric.* metrics snapshot as JSON. Honors
//                    --shards (default 1); the outcome is byte-identical
//                    for any shard count.
//
// The snapshot goes to stdout; a human summary goes to stderr.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/cache_service.hpp"
#include "apps/hh_service.hpp"
#include "apps/server_node.hpp"
#include "client/client_node.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "controller/switch_node.hpp"
#include "fabric/topology.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "netsim/sharded.hpp"
#include "telemetry/heatmap.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "telemetry/span_analysis.hpp"
#include "telemetry/trace.hpp"
#include "workload/zipf.hpp"

using namespace artmt;

namespace {

// --alloc: the allocator's live state as JSON. Fragmentation per stage is
// largest free run / total free blocks (1.0 = perfectly contiguous free
// space; approaches 0 as holes shred it).
void print_alloc_report(const alloc::Allocator& a) {
  std::printf("{\n");
  std::printf("  \"scheme\": \"%s\",\n", alloc::scheme_name(a.scheme()));
  std::printf("  \"search_mode\": \"%s\",\n",
              alloc::search_mode_name(a.search_mode()));
  std::printf("  \"resident_apps\": %u,\n", a.resident_count());
  std::printf("  \"utilization\": %.4f,\n", a.utilization());
  std::printf("  \"stages\": [\n");
  const u32 stages = a.geometry().logical_stages;
  for (u32 s = 0; s < stages; ++s) {
    const alloc::StageState& st = a.stage(s);
    const u32 free = st.free_blocks();
    const double frag =
        free == 0 ? 1.0
                  : static_cast<double>(st.largest_free_run()) /
                        static_cast<double>(free);
    std::printf(
        "    {\"stage\": %u, \"capacity\": %u, \"allocated\": %u, "
        "\"free\": %u, \"fungible\": %u, \"largest_free_run\": %u, "
        "\"fragmentation\": %.4f, \"elastic_members\": %u, "
        "\"inelastic_members\": %u}%s\n",
        s, st.capacity(), st.allocated_blocks(), free, st.fungible_blocks(),
        st.largest_free_run(), frag, st.elastic_member_count(),
        st.inelastic_member_count(), s + 1 == stages ? "" : ",");
  }
  std::printf("  ]\n}\n");
}

// --heatmap: the per-(stage, FID) access table plus the hotness ranking.
void print_heatmap_report(const telemetry::StageHeatmap& heatmap) {
  std::printf("%-6s", "fid");
  for (u32 s = 0; s < heatmap.stages(); ++s) std::printf("  s%-2u r/w/c       ", s);
  std::printf("  total\n");
  telemetry::HotnessTable hotness;
  hotness.observe(heatmap);
  for (const i32 fid : heatmap.fids()) {
    std::printf("%-6d", fid);
    for (u32 s = 0; s < heatmap.stages(); ++s) {
      const auto* cell = heatmap.find(s, fid);
      if (cell == nullptr || (cell->reads | cell->writes | cell->collisions) == 0) {
        std::printf("  %-15s", "-");
      } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%llu/%llu/%llu",
                      static_cast<unsigned long long>(cell->reads),
                      static_cast<unsigned long long>(cell->writes),
                      static_cast<unsigned long long>(cell->collisions));
        std::printf("  %-15s", buf);
      }
    }
    std::printf("  %llu\n",
                static_cast<unsigned long long>(heatmap.total_accesses(fid)));
  }
  std::printf("\nhotness (decaying access score, hottest first):\n");
  for (const auto& [fid, score] : hotness.ranked()) {
    std::printf("  fid %-5d score %llu\n", fid,
                static_cast<unsigned long long>(score));
  }
}

// --migration: the background engine's full observability surface.
void print_migration_report(controller::SwitchNode& sw) {
  const auto engine = sw.migration_stats();
  const controller::ControllerStats& ctrl = sw.controller().stats();
  std::printf("{\n");
  std::printf(
      "  \"engine\": {\"ticks\": %llu, \"deferred\": %llu, "
      "\"executed\": %llu, \"noops\": %llu, \"departed\": %llu},\n",
      static_cast<unsigned long long>(engine.ticks),
      static_cast<unsigned long long>(engine.deferred),
      static_cast<unsigned long long>(engine.executed),
      static_cast<unsigned long long>(engine.noops),
      static_cast<unsigned long long>(engine.departed));
  std::printf(
      "  \"planner\": {\"cycles\": %llu, \"demotions_planned\": %llu, "
      "\"promotions_planned\": %llu, \"reslides_planned\": %llu, "
      "\"cooldown_skips\": %llu},\n",
      static_cast<unsigned long long>(engine.planner.cycles),
      static_cast<unsigned long long>(engine.planner.demotions_planned),
      static_cast<unsigned long long>(engine.planner.promotions_planned),
      static_cast<unsigned long long>(engine.planner.reslides_planned),
      static_cast<unsigned long long>(engine.planner.cooldown_skips));
  std::printf(
      "  \"queue\": {\"enqueued\": %llu, \"popped\": %llu, "
      "\"congestion_drops\": %llu, \"duplicates\": %llu, \"purged\": %llu, "
      "\"high_water\": %u},\n",
      static_cast<unsigned long long>(engine.queue.enqueued),
      static_cast<unsigned long long>(engine.queue.popped),
      static_cast<unsigned long long>(engine.queue.congestion_drops),
      static_cast<unsigned long long>(engine.queue.duplicates),
      static_cast<unsigned long long>(engine.queue.purged),
      engine.queue.high_water);
  std::printf(
      "  \"controller\": {\"migrations\": %llu, \"demotions\": %llu, "
      "\"promotions\": %llu, \"reslides\": %llu, \"noops\": %llu, "
      "\"tcam_skips\": %llu, \"blocks_migrated\": %llu},\n",
      static_cast<unsigned long long>(ctrl.migrations),
      static_cast<unsigned long long>(ctrl.migration_demotions),
      static_cast<unsigned long long>(ctrl.migration_promotions),
      static_cast<unsigned long long>(ctrl.migration_reslides),
      static_cast<unsigned long long>(ctrl.migration_noops),
      static_cast<unsigned long long>(ctrl.migration_tcam_skips),
      static_cast<unsigned long long>(ctrl.blocks_migrated));
  std::printf("  \"hotness\": [\n");
  const alloc::HotnessTable& hotness = sw.hotness();
  const auto ranked = hotness.ranked();
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const auto [fid, score] = ranked[i];
    std::printf(
        "    {\"fid\": %d, \"score\": %llu, \"cold_streak\": %llu, "
        "\"cold\": %s}%s\n",
        fid, static_cast<unsigned long long>(score),
        static_cast<unsigned long long>(hotness.cold_streak(fid)),
        hotness.is_cold(fid) ? "true" : "false",
        i + 1 == ranked.size() ? "" : ",");
  }
  std::printf("  ]\n}\n");
}

double downtime_percentile_ms(std::vector<SimTime> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1) + 0.5);
  return static_cast<double>(samples[idx]) / static_cast<double>(kMillisecond);
}

// --fabric: the multi-switch observability surface. Four cache tenants on
// a 4-leaf / 2-spine fabric, placed by the federated global controller;
// leaf0 loses every link at 500ms and is never restored, so the health
// epochs declare it dead and the evacuation/re-placement machinery runs
// inside the dump window. Deterministic for any shard count.
int run_fabric_report(u32 shards) {
  netsim::Network net(std::max(shards, 1u));  // always the sharded engine
  const u32 workers = net.shards();

  faults::FaultPlan plan;
  plan.flaps.push_back({"leaf0", "", 500 * kMillisecond, 10 * kSecond});
  faults::FaultInjector injector(plan, workers);
  net.set_transmit_hook(&injector);

  telemetry::MetricsRegistry fabric_registry;
  fabric::TopologyConfig tcfg;
  tcfg.leaves = 4;
  tcfg.spines = 2;
  tcfg.switch_config.costs.table_entry_update = 100 * kMicrosecond;
  tcfg.switch_config.costs.snapshot_per_block = 1 * kMicrosecond;
  tcfg.switch_config.costs.clear_per_block = 1 * kMicrosecond;
  tcfg.switch_config.costs.extraction_timeout = 50 * kMillisecond;
  tcfg.switch_config.compute_model = alloc::ComputeModel::deterministic();
  tcfg.controller.epoch = 2 * kMillisecond;
  tcfg.controller.metrics = &fabric_registry;
  fabric::Topology topo(net, tcfg);

  constexpr packet::MacAddr kFabServerMac = 0x5E00;
  constexpr packet::MacAddr kFabClientBase = 0xC100;
  auto server = std::make_shared<apps::ServerNode>("server", kFabServerMac);
  net.attach(server);
  topo.attach_host(*server, 0, 2, kFabServerMac);
  net.pin(*server, 2 % workers);

  // Tenant 0 lands on the doomed leaf0 (round-robin admission places
  // service i on leaf i), so its service is the evacuation victim.
  const std::vector<u32> client_leaf = {1, 2, 3, 1};
  const u32 n = static_cast<u32>(client_leaf.size());
  struct Tenant {
    std::shared_ptr<client::ClientNode> client;
    std::shared_ptr<apps::CacheService> cache;
    workload::ZipfGenerator zipf{512, 1.2};
    Rng rng{0};
    u64 hits = 0;
    u64 misses = 0;
    SimTime stop_time = 0;
    std::function<void()> drive;
  };
  std::vector<std::unique_ptr<Tenant>> tenants;
  const auto key_of = [](u32 tenant, u32 rank) {
    return (static_cast<u64>(tenant + 1) << 40) ^
           workload::ZipfGenerator::key_for_rank(rank);
  };
  constexpr SimTime kStop = 1'200 * kMillisecond;
  const SimTime drive_stop = kStop - 300 * kMillisecond;
  for (u32 i = 0; i < n; ++i) {
    auto t = std::make_unique<Tenant>();
    t->rng = Rng(1000 + i);
    t->client = std::make_shared<client::ClientNode>(
        "tenant" + std::to_string(i), kFabClientBase + i,
        topo.controller_mac());
    net.attach(t->client);
    topo.attach_host(*t->client, 0, client_leaf[i], kFabClientBase + i);
    net.pin(*t->client, client_leaf[i] % workers);
    t->cache = std::make_shared<apps::CacheService>(
        "cache" + std::to_string(i), kFabServerMac);
    t->client->register_service(t->cache);
    tenants.push_back(std::move(t));
    for (u32 rank = 0; rank < tenants.back()->zipf.universe(); ++rank) {
      server->put(key_of(i, rank), rank + 1);
    }
  }
  for (u32 i = 0; i < n; ++i) {
    Tenant& t = *tenants[i];
    t.client->on_passive = [&t](netsim::Frame& frame) {
      const auto msg = apps::KvMessage::parse(
          std::span<const u8>(frame).subspan(
              packet::EthernetHeader::kWireSize));
      if (msg) t.cache->handle_server_reply(*msg);
    };
    t.cache->on_result = [&t](u32, u64, u32, bool hit) {
      (hit ? t.hits : t.misses)++;
    };
    const auto hot_set = [&t, i, key_of] {
      const u32 k = std::min(t.cache->bucket_count(), t.zipf.universe());
      std::vector<std::pair<u64, u32>> out;
      out.reserve(k);
      for (u32 rank = k; rank-- > 0;)
        out.emplace_back(key_of(i, rank), rank + 1);
      return out;
    };
    t.cache->on_relocated = [&t, hot_set] { t.cache->populate(hot_set()); };
    t.drive = [&t, &net, i, key_of] {
      if (net.simulator().now() >= t.stop_time) return;
      t.cache->get(key_of(i, t.zipf.next_rank(t.rng)));
      net.simulator().schedule_after(500 * kMicrosecond, [&t] { t.drive(); });
    };
    t.cache->on_ready = [&t, hot_set, drive_stop] {
      t.cache->populate(hot_set());
      t.stop_time = drive_stop;
      t.drive();
    };
    net.schedule_on(*t.client, (i + 1) * 100 * kMillisecond,
                    [&t] { t.cache->request_allocation(); });
  }

  topo.start(1 * kMillisecond, kStop);
  net.run_until(kStop + 500 * kMillisecond);

  const fabric::FabricReport report = topo.controller().report();
  const auto leaf_of = [&](packet::MacAddr mac) -> std::string {
    for (u32 i = 0; i < topo.leaves(); ++i) {
      if (topo.leaf_mac(i) == mac) return "leaf" + std::to_string(i);
    }
    return mac == 0 ? "unplaced" : "?";
  };
  // Queries carry the origin server as their L2 destination so a miss
  // continues there unassisted; a cache therefore intercepts them only
  // when its leaf is on the client->server path (client leaf or server
  // leaf). Off-path placements still serve every request -- management
  // capsules are steered to the owner, misses fall through to the origin.
  const auto on_path = [&](u32 tenant) {
    const packet::MacAddr owner =
        topo.controller().owner_of(tenants[tenant]->cache->fid());
    return owner == topo.leaf_mac(client_leaf[tenant]) ||
           owner == topo.leaf_mac(2);  // server leaf
  };
  std::fprintf(stderr,
               "fabric scenario done at t=%.3fs (%u leaves, %u spines, "
               "%u tenants, leaf0 killed at 0.5s)\n",
               net.now() / 1e9, topo.leaves(), topo.spines(), n);
  for (u32 i = 0; i < n; ++i) {
    const Tenant& t = *tenants[i];
    std::fprintf(stderr,
                 "  tenant%u: fid %u on %s (%s), %llu hits / %llu misses%s\n",
                 i, t.cache->fid(),
                 leaf_of(topo.controller().owner_of(t.cache->fid())).c_str(),
                 on_path(i) ? "on-path" : "off-path: origin serves queries",
                 static_cast<unsigned long long>(t.hits),
                 static_cast<unsigned long long>(t.misses),
                 t.cache->operational() ? "" : " [NOT OPERATIONAL]");
  }

  std::printf("{\n");
  std::printf(
      "  \"topology\": {\"leaves\": %u, \"spines\": %u, \"tenants\": %u, "
      "\"leaf_kill_at_ms\": 500},\n",
      topo.leaves(), topo.spines(), n);
  std::printf(
      "  \"report\": {\"placements\": %llu, \"evacuations\": %llu, "
      "\"replaced\": %llu, \"unplaced\": %llu, \"state_loss_services\": "
      "%llu, \"switch_deaths\": %llu, \"revivals\": %llu, "
      "\"downtime_p50_ms\": %.3f, \"downtime_p99_ms\": %.3f, "
      "\"downtime_max_ms\": %.3f},\n",
      static_cast<unsigned long long>(report.placements),
      static_cast<unsigned long long>(report.evacuations),
      static_cast<unsigned long long>(report.replaced),
      static_cast<unsigned long long>(report.unplaced),
      static_cast<unsigned long long>(report.state_loss_services),
      static_cast<unsigned long long>(report.switch_deaths),
      static_cast<unsigned long long>(report.revivals),
      downtime_percentile_ms(report.downtimes, 0.50),
      downtime_percentile_ms(report.downtimes, 0.99),
      downtime_percentile_ms(report.downtimes, 1.0));
  std::printf("  \"owners\": [");
  for (u32 i = 0; i < n; ++i) {
    const Fid fid = tenants[i]->cache->fid();
    std::printf("%s{\"tenant\": %u, \"fid\": %u, \"owner\": \"%s\"}",
                i == 0 ? "" : ", ", i, fid,
                leaf_of(topo.controller().owner_of(fid)).c_str());
  }
  std::printf("],\n");
  std::ostringstream metrics;
  fabric_registry.snapshot_json(metrics);
  std::printf("  \"metrics\": %s}\n", metrics.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  u32 requests = 2000;
  u32 shards = 0;  // 0 = the serial reference engine
  bool alloc_report = false;
  bool heatmap_report = false;
  bool migration_report = false;
  bool fabric_report = false;
  double loss = 0.0;
  u64 fault_seed = 1;
  const char* trace_path = nullptr;
  const char* spans_path = nullptr;
  const char* span_dump_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = static_cast<u32>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = static_cast<u32>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--loss") == 0 && i + 1 < argc) {
      loss = std::stod(argv[++i]);
    } else if (std::strcmp(argv[i], "--fault-seed") == 0 && i + 1 < argc) {
      fault_seed = std::stoull(argv[++i]);
    } else if (std::strcmp(argv[i], "--alloc") == 0) {
      alloc_report = true;
    } else if (std::strcmp(argv[i], "--heatmap") == 0) {
      heatmap_report = true;
    } else if (std::strcmp(argv[i], "--migration") == 0) {
      migration_report = true;
    } else if (std::strcmp(argv[i], "--fabric") == 0) {
      fabric_report = true;
    } else if (std::strcmp(argv[i], "--spans") == 0 && i + 1 < argc) {
      spans_path = argv[++i];
    } else if (std::strcmp(argv[i], "--span-dump") == 0 && i + 1 < argc) {
      span_dump_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: artmt_stats [--requests N] [--trace FILE] "
                   "[--shards N] [--loss P] [--fault-seed S] [--alloc] "
                   "[--heatmap] [--migration] [--fabric] [--spans FILE] "
                   "[--span-dump FILE]\n");
      return 2;
    }
  }

  if (spans_path != nullptr) {
    // Pure analysis mode: no scenario, just the phase breakdown.
    std::ifstream in(spans_path);
    if (!in) {
      std::fprintf(stderr, "artmt_stats: cannot open %s\n", spans_path);
      return 1;
    }
    std::vector<telemetry::SpanEvent> events;
    std::string error;
    if (!telemetry::load_span_events(in, &events, &error)) {
      std::fprintf(stderr, "artmt_stats: %s: %s\n", spans_path, error.c_str());
      return 1;
    }
    telemetry::print_span_breakdown(
        std::cout, telemetry::reconstruct_requests(events));
    return 0;
  }
  if (fabric_report) return run_fabric_report(shards);
  if (shards > 0 && trace_path != nullptr) {
    std::fprintf(stderr,
                 "artmt_stats: --trace requires the serial engine (the "
                 "trace sink is process-global; drop --shards)\n");
    return 2;
  }

  // Each shard owns a registry (the serial engine is one shard); they
  // are merged -- plus any per-shard engine stats -- after the run.
  netsim::Network net(shards);

  // Span capture: one lane per shard worker; the canonical sorted dump is
  // engine- and shard-invariant.
  std::unique_ptr<telemetry::SpanSink> span_sink;
  if (span_dump_path != nullptr) {
    span_sink = std::make_unique<telemetry::SpanSink>(net.shards());
    telemetry::set_span_sink(span_sink.get());
  }

  std::ofstream trace_file;
  std::unique_ptr<telemetry::TraceSink> sink;
  if (trace_path != nullptr) {
    trace_file.open(trace_path);
    if (!trace_file) {
      std::fprintf(stderr, "artmt_stats: cannot open %s\n", trace_path);
      return 1;
    }
    sink = std::make_unique<telemetry::TraceSink>(trace_file);
    sink->set_clock([&net] { return net.now(); });
    telemetry::set_trace_sink(sink.get());
  }

  controller::SwitchNode::Config cfg;
  if (migration_report) cfg.migration.enabled = true;
  // The switch lives on shard 0; its components record there. Modeled
  // compute makes the timeline -- and therefore the snapshot --
  // reproducible on either engine and for any shard count.
  cfg.metrics = &net.metrics(0);
  cfg.compute_model = alloc::ComputeModel::deterministic();
  auto sw = std::make_shared<controller::SwitchNode>("switch", cfg);
  auto server = std::make_shared<apps::ServerNode>("server", 0xbb);
  auto client = std::make_shared<client::ClientNode>("client", 0x100, 0xaa);
  net.attach(sw);
  net.attach(server);
  net.attach(client);
  net.connect(*sw, 0, *server, 0);
  net.connect(*sw, 1, *client, 0);
  sw->bind(0xbb, 0);
  sw->bind(0x100, 1);
  net.pin(*sw, 0);  // fleets round-robin over shards 1..N-1

  // Optional uniform loss: the reliability trackers ride through it and
  // the injected-fault counters join the snapshot.
  std::unique_ptr<faults::FaultInjector> injector;
  if (loss > 0.0) {
    injector = std::make_unique<faults::FaultInjector>(
        faults::FaultPlan::uniform_loss(fault_seed, loss), net.shards());
    net.set_transmit_hook(injector.get());
  }

  workload::ZipfGenerator zipf(5'000, 1.2);
  Rng rng(42);
  auto key_of = [](u32 rank) {
    return workload::ZipfGenerator::key_for_rank(rank);
  };
  for (u32 rank = 0; rank < zipf.universe(); ++rank) {
    server->put(key_of(rank), rank + 1);
  }

  // Service 1: the in-network cache (GET traffic, RTS hits).
  auto cache = std::make_shared<apps::CacheService>("cache", 0xbb);
  client->register_service(cache);
  client->on_passive = [&cache](netsim::Frame& frame) {
    const auto msg = apps::KvMessage::parse(std::span<const u8>(frame).subspan(
        packet::EthernetHeader::kWireSize));
    if (msg) cache->handle_server_reply(*msg);
  };
  u64 hits = 0;
  u64 misses = 0;
  cache->on_result = [&](u32, u64, u32, bool hit) { (hit ? hits : misses)++; };

  // Service 2: the heavy-hitter monitor (observe traffic, extraction,
  // then release -- exercising the controller's departure path too).
  auto monitor = std::make_shared<apps::FrequentItemService>("monitor", 0xbb);
  client->register_service(monitor);
  std::size_t heavy_hitters = 0;

  // The recursive drivers schedule through net.simulator(), which
  // resolves to the serial engine or -- on a worker thread -- to the
  // client's shard, so both engines run the identical scenario.
  std::function<void(u32)> get_next = [&](u32 remaining) {
    if (remaining == 0) return;
    cache->get(key_of(zipf.next_rank(rng)));
    net.simulator().schedule_after(
        100 * 1000, [&get_next, remaining] { get_next(remaining - 1); });
  };
  std::function<void(u32)> observe_next = [&](u32 remaining) {
    if (remaining == 0) {
      monitor->extract(
          [&](std::vector<std::pair<u64, u32>> items) {
            heavy_hitters = items.size();
            monitor->release();
          },
          /*min_count=*/20);
      return;
    }
    monitor->observe(key_of(zipf.next_rank(rng)));
    net.simulator().schedule_after(
        50 * 1000, [&observe_next, remaining] { observe_next(remaining - 1); });
  };

  cache->on_ready = [&] {
    std::vector<std::pair<u64, u32>> hot;
    for (u32 rank = 200; rank-- > 0;) hot.emplace_back(key_of(rank), rank + 1);
    cache->populate(std::move(hot), [&] { get_next(requests); });
  };
  monitor->on_ready = [&] { observe_next(requests); };

  cache->request_allocation();
  // The monitor's kick-off touches the client node, so it runs on the
  // client's shard.
  net.schedule_on(*client, kSecond, [&] { monitor->request_allocation(); });
  net.run();
  const SimTime end_time = net.now();

  std::fprintf(stderr,
               "scenario done at t=%.3fs: cache %llu hits / %llu misses, "
               "%zu heavy hitters, %llu capsules through the switch\n",
               end_time / 1e9, static_cast<unsigned long long>(hits),
               static_cast<unsigned long long>(misses), heavy_hitters,
               static_cast<unsigned long long>(sw->runtime().stats().packets));
  if (const netsim::ShardedSimulator* ssim = net.sharded()) {
    std::fprintf(stderr, "sharded engine: %u shards, %llu epochs\n",
                 net.shards(), static_cast<unsigned long long>(ssim->epochs()));
    for (u32 s = 0; s < ssim->shards(); ++s) {
      const netsim::ShardStats& st = ssim->shard_stats(s);
      std::fprintf(
          stderr,
          "  shard %u: %llu events, %llu frames in / %llu out, "
          "%llu rendezvous, barrier wait %.3f ms, serial %.3f ms\n",
          s, static_cast<unsigned long long>(st.events_dispatched),
          static_cast<unsigned long long>(st.frames_in),
          static_cast<unsigned long long>(st.frames_out),
          static_cast<unsigned long long>(st.rendezvous),
          static_cast<double>(st.barrier_wait_ns) / 1e6,
          static_cast<double>(st.serial_ns) / 1e6);
    }
    // Scheduler shape: adaptive epoch-window widths (virtual ns) and the
    // count of unbounded windows (no cross-shard constraint applied).
    telemetry::MetricsRegistry shape;
    ssim->export_shard_stats(shape);
    const telemetry::Histogram& widths =
        shape.histogram("sharding", "epoch_width_ns");
    std::fprintf(
        stderr,
        "  epoch widths: %llu bounded (p50 %llu ns, p99 %llu ns, "
        "max %llu ns), %llu unbounded\n",
        static_cast<unsigned long long>(widths.count()),
        static_cast<unsigned long long>(widths.percentile(0.50)),
        static_cast<unsigned long long>(widths.percentile(0.99)),
        static_cast<unsigned long long>(widths.max()),
        static_cast<unsigned long long>(
            shape.counter_value("sharding", "unbounded_epochs")));
  }

  // Fault and reliability metrics live outside the engine registries:
  // mirror them into whichever snapshot we emit.
  if (span_sink != nullptr) {
    telemetry::set_span_sink(nullptr);
    std::ofstream out(span_dump_path);
    if (!out) {
      std::fprintf(stderr, "artmt_stats: cannot open %s\n", span_dump_path);
      return 1;
    }
    span_sink->dump(out);
    std::fprintf(stderr, "wrote %llu span events to %s\n",
                 static_cast<unsigned long long>(span_sink->recorded()),
                 span_dump_path);
  }

  auto export_extras = [&](telemetry::MetricsRegistry& reg) {
    if (injector) injector->export_metrics(reg);
    sw->heatmap().export_metrics(reg);
    const auto cache_fid = static_cast<i32>(cache->fid());
    const auto monitor_fid = static_cast<i32>(monitor->fid());
    cache->populate_reliability().export_metrics(reg, cache_fid);
    cache->handshake_reliability().export_metrics(reg, cache_fid);
    monitor->extract_reliability().export_metrics(reg, monitor_fid);
    monitor->handshake_reliability().export_metrics(reg, monitor_fid);
  };
  if (alloc_report) {
    print_alloc_report(sw->controller().allocator());
  } else if (migration_report) {
    print_migration_report(*sw);
  } else if (heatmap_report) {
    print_heatmap_report(sw->heatmap());
  } else {
    telemetry::MetricsRegistry merged;
    net.merge_metrics_into(merged);
    if (const netsim::ShardedSimulator* ssim = net.sharded()) {
      ssim->export_shard_stats(merged);
    }
    export_extras(merged);
    merged.snapshot_json(std::cout);
  }

  if (sink != nullptr) {
    telemetry::set_trace_sink(nullptr);
    std::fprintf(stderr, "wrote %llu trace events to %s\n",
                 static_cast<unsigned long long>(sink->emitted()), trace_path);
  }
  return 0;
}

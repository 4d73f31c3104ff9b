// The data-plane bench: a steady-state harness, then the e2e netsim
// datapath harness that writes BENCH_datapath.json.
//
// The steady-state harness runs the switch's capsule path on a
// repeated-program workload: parse the frame in place (ProgramView,
// interned through the ProgramCache), execute the immutable
// CompiledProgram with a stack ExecCursor, and synthesize the shrink reply
// from the cursor (encode_executed). It asserts (exit 1) that the
// cache-hit execute performs zero heap allocations, and prints a JSON
// summary: packets/sec and allocations/packet, runtime drop/fault
// counters, and program-cache hit/miss statistics.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>

#include "active/assembler.hpp"
#include "active/program_cache.hpp"
#include "apps/cache_service.hpp"
#include "apps/programs.hpp"
#include "apps/server_node.hpp"
#include "client/client_node.hpp"
#include "controller/switch_node.hpp"
#include "faults/injector.hpp"
#include "netsim/network.hpp"
#include "netsim/sharded.hpp"
#include "packet/program_view.hpp"
#include "proto/wire.hpp"
#include "runtime/exec_batch.hpp"
#include "runtime/runtime.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

// --- global allocation counter -------------------------------------------
// Counts every heap allocation made by this binary; the steady-state
// harness reads deltas around the packet loop and around the cache-hit
// execute call specifically.
namespace {
unsigned long long g_alloc_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  ++g_alloc_count;
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace artmt {
namespace {

// Keeps a result observable so the measured work is not optimized away.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

// CI perf-smoke mode (scripts/ci.sh): ARTMT_BENCH_QUICK=1 shrinks every
// packet count so the whole harness finishes in seconds. Allocation
// assertions still run at full strength -- they are count-independent --
// but performance-ratio gates are skipped (the reduced rounds are too
// noisy to judge) and BENCH_datapath.json is NOT rewritten, so a smoke
// run never clobbers committed full-run numbers.
bool quick_mode() {
  static const bool quick = std::getenv("ARTMT_BENCH_QUICK") != nullptr;
  return quick;
}

// --- steady-state packet-path harness ------------------------------------

struct SteadyStateRig {
  rmt::PipelineConfig cfg;
  rmt::Pipeline pipeline{cfg};
  runtime::ActiveRuntime runtime{pipeline};
  active::ProgramCache cache;
  FramePool pool;
  std::vector<u8> frame;  // the repeated cache-query capsule

  SteadyStateRig() {
    for (u32 s = 0; s < cfg.logical_stages; ++s) {
      pipeline.stage(s).install(1, 0, 4096, 0);
    }
    const auto pkt = packet::ActivePacket::make_program(
        1, packet::ArgumentHeader{{10, 2, 3, 0}},
        apps::cache_query_program());
    frame = pkt.serialize();
  }

  // Runs `packets` capsules; returns the heap allocations of the whole
  // loop and adds those of the execute calls alone to `execute_allocs`.
  u64 round(u64 packets, u64* execute_allocs) {
    const auto allocs_before = g_alloc_count;
    active::ExecCursor cursor;
    for (u64 i = 0; i < packets; ++i) {
      FrameBuf buf = pool.copy(frame);
      auto view = packet::ProgramView::parse(buf, cache);
      auto ctx = runtime::ExecContext::over(view.initial, view.arguments,
                                            &view.ethernet);
      const auto exec_before = g_alloc_count;
      keep(runtime.execute(*view.compiled, ctx, cursor));
      *execute_allocs += g_alloc_count - exec_before;
      keep(proto::encode_executed(view, cursor, std::move(buf), pool));
    }
    return g_alloc_count - allocs_before;
  }
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

// Returns 0 on success, 1 when the zero-allocation assertion fails.
int run_steady_state() {
  const u64 kRounds = quick_mode() ? 3 : 10;
  const u64 kPerRound = quick_mode() ? 2'000 : 20'000;
  const u64 kIterations = kRounds * kPerRound;
  SteadyStateRig rig;
  u64 execute_allocs = 0;
  rig.round(1000, &execute_allocs);  // warm the cache and the pool
  execute_allocs = 0;

  // Best round: ambient load on a shared host only ever slows a round.
  double best_rate = 0.0;
  u64 allocs = 0;
  for (u64 r = 0; r < kRounds; ++r) {
    const auto start = std::chrono::steady_clock::now();
    allocs += rig.round(kPerRound, &execute_allocs);
    best_rate = std::max(best_rate, static_cast<double>(kPerRound) /
                                        seconds_since(start));
  }

  const runtime::RuntimeStats& stats = rig.runtime.stats();
  const active::ProgramCache::Stats& cstats = rig.cache.stats();
  std::printf(
      "{\n"
      "  \"workload\": {\"program\": \"cache_query\", \"packets\": %llu},\n"
      "  \"steady_state\": {\"packets_per_sec\": %.0f, "
      "\"allocs_per_packet\": %.2f, \"execute_allocs_per_packet\": %.6f},\n"
      "  \"runtime_counters\": {\n"
      "    \"packets\": %llu, \"instructions\": %llu, \"recirculations\": "
      "%llu,\n"
      "    \"drops_protection\": %llu, \"drops_no_allocation\": %llu,\n"
      "    \"drops_recirc_limit\": %llu, \"drops_recirc_budget\": %llu,\n"
      "    \"drops_privilege\": %llu, \"drops_explicit\": %llu,\n"
      "    \"rts_packets\": %llu, \"forwarded_unprocessed\": %llu\n"
      "  },\n"
      "  \"program_cache\": {\"hits\": %llu, \"misses\": %llu, "
      "\"evictions\": %llu, \"collisions\": %llu}\n"
      "}\n",
      static_cast<unsigned long long>(kIterations), best_rate,
      static_cast<double>(allocs) / static_cast<double>(kIterations),
      static_cast<double>(execute_allocs) /
          static_cast<double>(kIterations),
      static_cast<unsigned long long>(stats.packets),
      static_cast<unsigned long long>(stats.instructions),
      static_cast<unsigned long long>(stats.recirculations),
      static_cast<unsigned long long>(stats.drops_protection),
      static_cast<unsigned long long>(stats.drops_no_allocation),
      static_cast<unsigned long long>(stats.drops_recirc_limit),
      static_cast<unsigned long long>(stats.drops_recirc_budget),
      static_cast<unsigned long long>(stats.drops_privilege),
      static_cast<unsigned long long>(stats.drops_explicit),
      static_cast<unsigned long long>(stats.rts_packets),
      static_cast<unsigned long long>(stats.forwarded_unprocessed),
      static_cast<unsigned long long>(cstats.hits),
      static_cast<unsigned long long>(cstats.misses),
      static_cast<unsigned long long>(cstats.evictions),
      static_cast<unsigned long long>(cstats.collisions));
  std::fflush(stdout);

  if (execute_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: cache-hit ActiveRuntime::execute allocated %llu "
                 "times over %llu packets (expected 0)\n",
                 static_cast<unsigned long long>(execute_allocs),
                 static_cast<unsigned long long>(kIterations));
    return 1;
  }
  return 0;
}

// --- e2e netsim datapath harness -----------------------------------------
// The full wire-in/wire-out loop over the discrete-event network: a client
// node transmits pre-serialized program capsules to a SwitchNode, which
// parses each in place (ProgramView), executes it as a 1-lane ExecBatch,
// and forwards the shrunk reply, rewritten into the pooled inbound buffer,
// to a server sink -- the "zero_copy" block of BENCH_datapath.json.
// Asserts (exit 1) that this path performs zero heap allocations per
// forwarded frame once the pool is warm.
//
// A second rig runs the same path with telemetry recording enabled
// (per-FID counters + latency histogram on every frame, netsim counters
// on every delivery) against itself with recording gated off. Asserts
// (exit 1) that the instrumented path still performs zero steady-state
// allocations and stays within 5% of that baseline -- the CI
// `telemetry-overhead` gate.
//
// A third rig measures the always-on tracing configuration: span
// emission live with the FlightRecorder ring armed (the production
// forensic setup -- the full-capture SpanSink is an offline dump mode,
// attached like a trace sink only when wanted), with metric/heatmap
// recording gated off (the third rig already prices those). Gates: zero
// steady-state allocations with the recorder armed (the ring is
// preallocated) and within 5% of the zero-copy baseline with spans live.

class SinkNode : public netsim::Node {
 public:
  explicit SinkNode(std::string name) : netsim::Node(std::move(name)) {}
  void on_frame(netsim::Frame frame, u32 port) override {
    (void)port;
    ++received;
    bytes += frame.size();
    // `frame` dies here: the slab goes straight back to the pool.
  }
  u64 received = 0;
  u64 bytes = 0;
};

constexpr packet::MacAddr kBenchClientMac = 0x0c;
constexpr packet::MacAddr kBenchServerMac = 0x0b;
constexpr std::size_t kBenchPayloadBytes = 1400;  // MTU-ish data capsule

struct E2eRig {
  netsim::Simulator sim;
  netsim::Network net{sim};
  std::shared_ptr<controller::SwitchNode> sw;
  std::shared_ptr<SinkNode> client;
  std::shared_ptr<SinkNode> server;
  std::vector<u8> wire;  // the repeated capsule, serialized once

  explicit E2eRig(bool telemetry = false) {
    controller::SwitchNode::Config cfg;
    sw = std::make_shared<controller::SwitchNode>("switch", cfg);
    if (telemetry) {
      // Mirror the full artmt_stats wiring: netsim counters join the
      // switch's (private) registry, so the instrumented measurement pays
      // for every recording site the real deployment would.
      net.set_metrics(&sw->metrics());
    }
    client = std::make_shared<SinkNode>("client");
    server = std::make_shared<SinkNode>("server");
    net.attach(sw);
    net.attach(client);
    net.attach(server);
    net.connect(*sw, 0, *client, 0);
    net.connect(*sw, 1, *server, 0);
    sw->bind(kBenchClientMac, 0);
    sw->bind(kBenchServerMac, 1);
    // Grant FID 1 the whole pipeline so the query never faults.
    for (u32 s = 0; s < sw->pipeline().stage_count(); ++s) {
      sw->pipeline().stage(s).install(1, 0, 4096, 0);
    }
    auto pkt = packet::ActivePacket::make_program(
        1, packet::ArgumentHeader{{10, 2, 3, 0}},
        apps::cache_query_program());
    pkt.ethernet.src = kBenchClientMac;
    pkt.ethernet.dst = kBenchServerMac;
    pkt.payload.assign(kBenchPayloadBytes, 0x5a);
    wire = pkt.serialize();
  }

  // One frame at a time through the whole path (ingress copy, switch
  // execution, egress delivery), draining the simulator between frames
  // like a line-rate switch between arrivals, so every frame is its own
  // 1-lane batch. Ingress copies into the recycling pool.
  void pump(u64 packets) {
    for (u64 i = 0; i < packets; ++i) {
      net.transmit(*client, 0, net.pool().copy(wire));
      sim.run();
    }
  }
};

struct E2eMeasurement {
  double packets_per_sec = 0.0;
  u64 allocs = 0;  // total over the measured rounds
};

void measure_e2e(E2eRig& rig, u64 rounds, u64 per_round, E2eMeasurement* out) {
  for (u64 r = 0; r < rounds; ++r) {
    const auto allocs_before = g_alloc_count;
    const auto start = std::chrono::steady_clock::now();
    rig.pump(per_round);
    out->packets_per_sec =
        std::max(out->packets_per_sec,
                 static_cast<double>(per_round) / seconds_since(start));
    out->allocs += g_alloc_count - allocs_before;
  }
}

// --- sharded engine e2e ---------------------------------------------------
// Scaling harness for the sharded multi-worker engine: K independent
// client -> switch -> sink rings, ring i pinned to shard i, open-loop
// injection (one capsule per ring every kInjectPeriod of virtual time).
// All traffic stays on its ring's shard, so the workload is embarrassingly
// parallel -- the measured speedup isolates the engine's epoch/barrier
// overhead from cross-shard cloning. Three engines run the identical
// scenario: the serial Simulator (reference), ShardedSimulator(1) (the
// epoch loop inline, no threads -- must stay within 5% of serial), and
// ShardedSimulator(kRingCount) (one worker per ring -- must reach 2x on
// hosts with >= 4 cores). Results land in BENCH_datapath.json under
// "sharding"; the gates are enforced (exit 1) only when the host has at
// least 4 cores, since wall-clock scaling is meaningless below that.

constexpr u32 kRingCount = 4;
constexpr u64 kFramesPerRing = 10'000;
constexpr u64 kWarmupFramesPerRing = 1'000;
constexpr SimTime kInjectPeriod = 250;  // ns of virtual time between frames
constexpr u32 kShardedRounds = 5;       // interleaved, best-of

struct RingInjector {
  netsim::Network* net;
  netsim::Node* client;
  const std::vector<u8>* wire;
  u64 remaining;
  void operator()() {
    net->transmit(*client, 0, net->pool().copy(*wire));
    if (--remaining > 0) {
      net->simulator().schedule_after(kInjectPeriod, *this);
    }
  }
};

struct ShardedRings {
  netsim::Network net;
  std::vector<std::shared_ptr<controller::SwitchNode>> switches;
  std::vector<std::shared_ptr<SinkNode>> clients;
  std::vector<std::shared_ptr<SinkNode>> sinks;
  std::vector<u8> wire;

  // shards == 0 builds the serial-Simulator reference rig.
  explicit ShardedRings(u32 shards) : net(shards) {
    auto pkt = packet::ActivePacket::make_program(
        1, packet::ArgumentHeader{{10, 2, 3, 0}},
        apps::cache_query_program());
    pkt.ethernet.src = kBenchClientMac;
    pkt.ethernet.dst = kBenchServerMac;
    pkt.payload.assign(kBenchPayloadBytes, 0x5a);
    wire = pkt.serialize();

    // 100us links against a 250ns injection period keep epochs coarse:
    // each barrier round covers ~400 frames per shard.
    netsim::LinkSpec link;
    link.latency = 100 * kMicrosecond;
    for (u32 i = 0; i < kRingCount; ++i) {
      const std::string tag = std::to_string(i);
      auto sw = std::make_shared<controller::SwitchNode>(
          "sw" + tag, controller::SwitchNode::Config{});
      auto client = std::make_shared<SinkNode>("client" + tag);
      auto sink = std::make_shared<SinkNode>("sink" + tag);
      net.attach(sw);
      net.attach(client);
      net.attach(sink);
      net.connect(*sw, 0, *client, 0, link);
      net.connect(*sw, 1, *sink, 0, link);
      sw->bind(kBenchClientMac, 0);
      sw->bind(kBenchServerMac, 1);
      for (u32 s = 0; s < sw->pipeline().stage_count(); ++s) {
        sw->pipeline().stage(s).install(1, 0, 4096, 0);
      }
      const u32 shard = i % net.shards();
      net.pin(*sw, shard);
      net.pin(*client, shard);
      net.pin(*sink, shard);
      switches.push_back(std::move(sw));
      clients.push_back(std::move(client));
      sinks.push_back(std::move(sink));
    }
  }

  // Injects `frames` per ring and runs to quiescence; returns wall seconds.
  double drive(u64 frames) {
    for (u32 i = 0; i < kRingCount; ++i) {
      RingInjector inj{&net, clients[i].get(), &wire, frames};
      net.schedule_on(*clients[i], net.now(), inj);
    }
    const auto start = std::chrono::steady_clock::now();
    net.run();
    return seconds_since(start);
  }

  [[nodiscard]] u64 received() const {
    u64 total = 0;
    for (const auto& s : sinks) total += s->received;
    return total;
  }
};

// Fills `json` with the "sharding" member of BENCH_datapath.json.
// Returns 0 on success, 1 when a scaling gate fails on a capable host.
int run_sharded_e2e(char* json, std::size_t cap) {
  const unsigned cores = std::thread::hardware_concurrency();
  const u64 frames_per_ring = quick_mode() ? 1'000 : kFramesPerRing;
  const u64 warmup_per_ring = quick_mode() ? 200 : kWarmupFramesPerRing;
  const u32 rounds = quick_mode() ? 2 : kShardedRounds;
  ShardedRings serial(0);
  ShardedRings one(1);
  ShardedRings wide(kRingCount);
  telemetry::set_enabled(false);
  serial.drive(warmup_per_ring);
  one.drive(warmup_per_ring);
  wide.drive(warmup_per_ring);

  double serial_pps = 0.0;
  double one_pps = 0.0;
  double wide_pps = 0.0;
  const double kFrames =
      static_cast<double>(frames_per_ring) * kRingCount;
  for (u32 r = 0; r < rounds; ++r) {
    serial_pps = std::max(serial_pps, kFrames / serial.drive(frames_per_ring));
    one_pps = std::max(one_pps, kFrames / one.drive(frames_per_ring));
    wide_pps = std::max(wide_pps, kFrames / wide.drive(frames_per_ring));
  }
  telemetry::set_enabled(true);

  const u64 expected =
      kRingCount * (warmup_per_ring + rounds * frames_per_ring);
  for (const ShardedRings* rig : {&serial, &one, &wide}) {
    if (rig->received() != expected) {
      std::fprintf(stderr,
                   "FAIL: sharded e2e rig delivered %llu frames, expected "
                   "%llu\n",
                   static_cast<unsigned long long>(rig->received()),
                   static_cast<unsigned long long>(expected));
      return 1;
    }
  }

  const double speedup = wide_pps / serial_pps;
  const bool one_within_5pct = one_pps >= 0.95 * serial_pps;
  const bool enforce = cores >= 4 && !quick_mode();
  u64 events = 0;
  u64 cross = 0;
  u64 barrier_ns = 0;
  const netsim::ShardedSimulator& wide_engine = *wide.net.sharded();
  for (u32 i = 0; i < kRingCount; ++i) {
    const auto& st = wide_engine.shard_stats(i);
    events += st.events_dispatched;
    cross += st.frames_in;
    barrier_ns += st.barrier_wait_ns;
  }
  std::snprintf(
      json, cap,
      "  \"sharding\": {\n"
      "    \"rings\": %u, \"frames_per_ring\": %llu, \"cores\": %u,\n"
      "    \"serial\": {\"packets_per_sec\": %.0f},\n"
      "    \"shards1\": {\"packets_per_sec\": %.0f, \"within_5pct\": %s},\n"
      "    \"shards%u\": {\"packets_per_sec\": %.0f, \"speedup\": %.2f},\n"
      "    \"epochs\": %llu, \"events_dispatched\": %llu,\n"
      "    \"cross_shard_frames\": %llu, \"barrier_wait_ns\": %llu,\n"
      "    \"gates_enforced\": %s\n"
      "  }\n",
      kRingCount, static_cast<unsigned long long>(frames_per_ring), cores,
      serial_pps, one_pps, one_within_5pct ? "true" : "false", kRingCount,
      wide_pps, speedup, static_cast<unsigned long long>(wide_engine.epochs()),
      static_cast<unsigned long long>(events),
      static_cast<unsigned long long>(cross),
      static_cast<unsigned long long>(barrier_ns),
      enforce ? "true" : "false");

  if (enforce && !one_within_5pct) {
    std::fprintf(stderr,
                 "FAIL: shards=1 ran at %.0f pps vs %.0f pps serial "
                 "(budget: within 5%%)\n",
                 one_pps, serial_pps);
    return 1;
  }
  if (enforce && speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: %u shards reached %.2fx over serial on %u cores "
                 "(gate: >= 2x)\n",
                 kRingCount, speedup, cores);
    return 1;
  }
  return 0;
}

// --- batched ingress burst harness ----------------------------------------
// Measures the SwitchNode batch ingress: kBurst capsules transmitted
// back-to-back arrive at the switch at the same virtual instant, so the
// flush event drains the whole burst into one runtime::ExecBatch stage
// sweep (one memoized protection lookup and one register working set per
// stage for all lanes). The per-packet reference engine is compared at
// engine level (EngineLanes below), isolated from parse/encode/netsim
// costs. The capsule carries a small payload (active capsules are
// probe-sized; the 1400-byte payload of the per-frame rigs would make the
// harness's injection memcpy the bottleneck of what is an execution
// measurement). Gate (exit 1, full runs only): the engine-level batched
// cache query must clear 2x this run's per-frame zero-copy baseline.

constexpr u32 kBurst = 64;
constexpr std::size_t kBurstPayloadBytes = 64;

struct BurstRig {
  netsim::Simulator sim;
  netsim::Network net{sim};
  std::shared_ptr<controller::SwitchNode> sw;
  std::shared_ptr<SinkNode> client;
  std::shared_ptr<SinkNode> server;
  std::vector<u8> wire;

  BurstRig() {
    controller::SwitchNode::Config cfg;
    sw = std::make_shared<controller::SwitchNode>("switch", cfg);
    client = std::make_shared<SinkNode>("client");
    server = std::make_shared<SinkNode>("server");
    net.attach(sw);
    net.attach(client);
    net.attach(server);
    net.connect(*sw, 0, *client, 0);
    net.connect(*sw, 1, *server, 0);
    sw->bind(kBenchClientMac, 0);
    sw->bind(kBenchServerMac, 1);
    for (u32 s = 0; s < sw->pipeline().stage_count(); ++s) {
      sw->pipeline().stage(s).install(1, 0, 4096, 0);
    }
    auto pkt = packet::ActivePacket::make_program(
        1, packet::ArgumentHeader{{10, 2, 3, 0}},
        apps::cache_query_program());
    pkt.ethernet.src = kBenchClientMac;
    pkt.ethernet.dst = kBenchServerMac;
    pkt.payload.assign(kBurstPayloadBytes, 0x5a);
    wire = pkt.serialize();
  }

  // All frames of a burst are transmitted at the same virtual instant
  // before the simulator drains, so they share one arrival timestamp.
  void pump(u64 bursts) {
    for (u64 i = 0; i < bursts; ++i) {
      for (u32 b = 0; b < kBurst; ++b) {
        net.transmit(*client, 0, net.pool().copy(wire));
      }
      sim.run();
    }
  }
};

// Engine-level lanes: kBurst pre-parsed execution contexts against one
// pipeline, run per-packet (execute) or batched (ExecBatch). This
// isolates the execution engines from parse/encode/netsim costs -- the
// number the flat-dispatch/stage-sweep refactor actually moves.
struct EngineLanes {
  rmt::PipelineConfig cfg;
  rmt::Pipeline pipeline{cfg};
  runtime::ActiveRuntime runtime{pipeline};
  active::CompiledProgram compiled;
  std::vector<std::array<Word, active::kArgFields>> args;
  std::vector<runtime::ExecContext> ctxs;
  std::vector<active::ExecCursor> cursors;
  runtime::PacketMeta meta;
  runtime::ExecBatch batch{runtime};

  // `resident_fids` populates every stage's protection table: 1 mirrors
  // the committed zero-copy baseline conditions; a populated table makes
  // the per-access lookup cost what a multi-tenant switch pays.
  EngineLanes(const active::Program& program, u32 resident_fids)
      : compiled(active::CompiledProgram::compile(program)) {
    for (u32 s = 0; s < cfg.logical_stages; ++s) {
      for (u32 f = 1; f <= resident_fids; ++f) {
        pipeline.stage(s).install(f, 0, 4096, 0);
      }
    }
    args.resize(kBurst);
    ctxs.resize(kBurst);
    cursors.resize(kBurst);
    for (u32 i = 0; i < kBurst; ++i) {
      args[i] = {10, 2, 3, 0};
      ctxs[i].args = &args[i];
      ctxs[i].fid = 1;
    }
  }

  void run_per_packet(u64 reps) {
    for (u64 r = 0; r < reps; ++r) {
      for (u32 i = 0; i < kBurst; ++i) {
        keep(
            runtime.execute(compiled, ctxs[i], cursors[i], meta, 0));
      }
    }
  }

  void run_batched(u64 reps) {
    for (u64 r = 0; r < reps; ++r) {
      batch.clear();
      for (u32 i = 0; i < kBurst; ++i) {
        batch.add(compiled, ctxs[i], cursors[i], meta, 0);
      }
      batch.execute();
      for (u32 i = 0; i < kBurst; ++i) {
        keep(batch.result(i));
      }
    }
  }
};

struct EnginePair {
  double per_packet_pps = 0.0;
  double batched_pps = 0.0;
};

EnginePair measure_engine(EngineLanes& rig, u64 rounds, u64 reps) {
  EnginePair out;
  rig.run_per_packet(reps / 4 + 1);  // warm
  rig.run_batched(reps / 4 + 1);
  const double frames = static_cast<double>(reps) * kBurst;
  for (u64 r = 0; r < rounds; ++r) {
    auto start = std::chrono::steady_clock::now();
    rig.run_per_packet(reps);
    out.per_packet_pps =
        std::max(out.per_packet_pps, frames / seconds_since(start));
    start = std::chrono::steady_clock::now();
    rig.run_batched(reps);
    out.batched_pps = std::max(out.batched_pps, frames / seconds_since(start));
  }
  return out;
}

// A telemetry-counter program: one address load, then a counter bump in
// every remaining ingress+egress stage. Nearly every instruction is a
// protected memory access, so per-packet execution pays a protection
// lookup per stage per packet while the sweep pays one per stage per
// BATCH -- the access pattern the stage-sweep engine is built for.
active::Program counter_sweep_program() {
  return active::assemble(R"(
      MAR_LOAD $0
      MEM_INCREMENT
      MEM_INCREMENT
      MEM_INCREMENT
      MEM_INCREMENT
      MEM_INCREMENT
      MEM_INCREMENT
      MEM_INCREMENT
      MEM_INCREMENT
      MEM_INCREMENT
      MEM_INCREMENT
      MEM_INCREMENT
      MEM_INCREMENT
      MEM_INCREMENT
      MEM_INCREMENT
      MEM_INCREMENT
      MEM_INCREMENT
      MEM_INCREMENT
      RETURN
  )");
}

// Fills `json` with the "batched" member of BENCH_datapath.json (trailing
// comma included). Returns 0 on success, 1 when the 2x gate fails.
int run_batched_block(char* json, std::size_t cap, double zc_baseline_pps) {
  const u64 rounds = quick_mode() ? 3 : 10;
  const u64 bursts_per_round = quick_mode() ? 20 : 500;
  const u64 frames_per_round = bursts_per_round * kBurst;
  BurstRig batched;
  telemetry::set_enabled(false);
  batched.pump(quick_mode() ? 5 : 50);

  double bat_pps = 0.0;
  u64 bat_allocs = 0;
  for (u64 r = 0; r < rounds; ++r) {
    const auto allocs_before = g_alloc_count;
    const auto start = std::chrono::steady_clock::now();
    batched.pump(bursts_per_round);
    bat_pps = std::max(bat_pps, static_cast<double>(frames_per_round) /
                                    seconds_since(start));
    bat_allocs += g_alloc_count - allocs_before;
  }
  // One instrumented burst (recording was gated off during measurement):
  // proves the burst actually coalesced into a single ExecBatch.
  telemetry::set_enabled(true);
  batched.pump(1);
  const u64 batches =
      batched.sw->metrics().counter("switch", "exec_batches").value();
  const u64 coalesced =
      batched.sw->metrics().counter("switch", "zero_copy_frames").value();
  if (batches == 0 || coalesced / std::max<u64>(batches, 1) < kBurst / 2) {
    std::fprintf(stderr,
                 "FAIL: burst of %u frames did not coalesce (batches=%llu)\n",
                 kBurst, static_cast<unsigned long long>(batches));
    return 1;
  }

  // Engine-level comparison, two workloads: the cache query under the
  // committed baseline's table conditions (the gate anchor), and the
  // counter sweep against a populated protection table (where the
  // memoized per-stage lookup is the dominant saving).
  const u64 engine_rounds = quick_mode() ? 3 : 10;
  const u64 engine_reps = quick_mode() ? 200 : 2'000;
  EngineLanes query_rig(apps::cache_query_program(), /*resident_fids=*/1);
  EngineLanes sweep_rig(counter_sweep_program(), /*resident_fids=*/64);
  telemetry::set_enabled(false);
  const EnginePair query = measure_engine(query_rig, engine_rounds,
                                          engine_reps);
  const EnginePair sweep = measure_engine(sweep_rig, engine_rounds,
                                          engine_reps);
  telemetry::set_enabled(true);

  const double vs_zero_copy = query.batched_pps / zc_baseline_pps;
  const bool gate_met = query.batched_pps >= 2.0 * zc_baseline_pps;
  std::snprintf(
      json, cap,
      "  \"batched\": {\n"
      "    \"packets_per_sec\": %.0f,\n"
      "    \"speedup_vs_zero_copy\": %.2f, \"gate_2x_zero_copy\": %s,\n"
      "    \"engine_cache_query\": {\"resident_fids\": 1,\n"
      "      \"per_packet_packets_per_sec\": %.0f, "
      "\"batched_packets_per_sec\": %.0f, \"speedup\": %.2f},\n"
      "    \"engine_counter_sweep\": {\"resident_fids\": 64,\n"
      "      \"per_packet_packets_per_sec\": %.0f, "
      "\"batched_packets_per_sec\": %.0f, \"speedup\": %.2f},\n"
      "    \"e2e_burst\": {\"program\": \"cache_query\", \"burst\": %u, "
      "\"payload_bytes\": %zu,\n"
      "      \"batched_packets_per_sec\": %.0f,\n"
      "      \"allocs_per_frame_steady\": %.6f, \"exec_batches\": %llu}\n"
      "  },\n",
      query.batched_pps, vs_zero_copy, gate_met ? "true" : "false",
      query.per_packet_pps, query.batched_pps,
      query.batched_pps / query.per_packet_pps, sweep.per_packet_pps,
      sweep.batched_pps, sweep.batched_pps / sweep.per_packet_pps, kBurst,
      kBurstPayloadBytes, bat_pps,
      static_cast<double>(bat_allocs) /
          static_cast<double>(rounds * frames_per_round),
      static_cast<unsigned long long>(batches));

  if (bat_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: batched ingress allocated %llu times over %llu "
                 "frames (expected 0 in steady state)\n",
                 static_cast<unsigned long long>(bat_allocs),
                 static_cast<unsigned long long>(rounds * frames_per_round));
    return 1;
  }
  if (!quick_mode() && !gate_met) {
    std::fprintf(stderr,
                 "FAIL: batched engine ran at %.0f pps, %.2fx the zero-copy "
                 "datapath baseline of %.0f pps (gate: >= 2x)\n",
                 query.batched_pps, vs_zero_copy, zc_baseline_pps);
    return 1;
  }
  return 0;
}

// --- chaos: injector hook overhead + lossy reliability soak ---------------
// Two results ride in the "chaos" block of BENCH_datapath.json: a
// FaultInjector with an empty plan on the zero-copy datapath must stay
// within 5% of the hookless packets/sec baseline (the cost of having the
// subsystem compiled in and attached but idle), and a cache-populate soak
// through 5% uniform loss must converge, recording the injected /
// retransmitted / recovered capsule counts.

struct ChaosSoak {
  u64 injected_drops = 0;
  u64 retransmits = 0;
  u64 recovered = 0;
  u64 give_ups = 0;
  u64 cache_hits = 0;
  u64 cache_misses = 0;
  bool converged = false;
};

ChaosSoak run_chaos_soak() {
  controller::SwitchNode::Config cfg;
  cfg.costs = scenario::shrunk_costs();
  scenario::Star star(0, cfg);
  netsim::Network& net = star.net;
  netsim::Simulator& sim = net.simulator();
  client::ClientNode& client = star.add_client("client");

  // The loss window opens after admission settles: allocation-control
  // capsules carry no retransmission by design, so the soak measures the
  // reliability layer, not handshake luck.
  faults::FaultPlan plan = faults::FaultPlan::uniform_loss(3, 0.05);
  plan.link_faults[0].from = 50 * kMillisecond;
  faults::FaultInjector injector(plan);
  net.set_transmit_hook(&injector);

  auto cache = std::make_shared<apps::CacheService>(
      "cache", scenario::Star::kServerMac);
  client.register_service(cache);
  scenario::route_cache_replies(client, *cache);
  ChaosSoak soak;
  cache->on_result = [&](u32, u64, u32, bool hit) {
    (hit ? soak.cache_hits : soak.cache_misses)++;
  };
  for (u64 key = 0; key < 2048; ++key) star.server->put(key, 1);

  bool populated = false;
  std::function<void(u32)> get_next = [&](u32 remaining) {
    if (remaining == 0) return;
    cache->get(remaining % 256);
    sim.schedule_after(100 * kMicrosecond,
                       [&get_next, remaining] { get_next(remaining - 1); });
  };
  cache->on_ready = [&] {
    std::vector<std::pair<u64, u32>> hot;
    for (u32 key = 0; key < 128; ++key) hot.emplace_back(key, key + 1);
    sim.schedule_at(60 * kMillisecond, [&cache, hot = std::move(hot), &populated,
                                        &get_next] {
      cache->populate(hot, [&populated] { populated = true; });
      get_next(1000);
    });
  };
  cache->request_allocation();
  sim.run();

  soak.injected_drops = injector.injected(faults::FaultKind::kDrop);
  const auto& stats = cache->populate_reliability().stats();
  soak.retransmits = stats.retransmits;
  soak.recovered = stats.recovered;
  soak.give_ups = stats.give_ups;
  soak.converged =
      populated && cache->populate_reliability().outstanding() == 0;
  return soak;
}

// Fills `json` with the "chaos" member of BENCH_datapath.json (trailing
// comma included). Returns 0 on success, 1 when a gate fails.
int run_chaos_block(char* json, std::size_t cap) {
  E2eRig base_rig;
  E2eRig hook_rig;
  faults::FaultInjector idle{faults::FaultPlan{}};
  hook_rig.net.set_transmit_hook(&idle);
  telemetry::set_enabled(false);
  base_rig.pump(1000);
  hook_rig.pump(1000);
  E2eMeasurement base;
  E2eMeasurement hook;
  const u64 kChaosRounds = quick_mode() ? 3 : 10;
  const u64 kChaosPerRound = quick_mode() ? 1'000 : 5'000;
  for (u64 r = 0; r < kChaosRounds; ++r) {
    measure_e2e(base_rig, 1, kChaosPerRound, &base);
    measure_e2e(hook_rig, 1, kChaosPerRound, &hook);
  }
  telemetry::set_enabled(true);
  const double overhead_pct =
      100.0 * (1.0 - hook.packets_per_sec / base.packets_per_sec);
  const bool within_5pct = hook.packets_per_sec >= 0.95 * base.packets_per_sec;

  const ChaosSoak soak = run_chaos_soak();
  std::snprintf(
      json, cap,
      "  \"chaos\": {\n"
      "    \"idle_injector\": {\"packets_per_sec\": %.0f, "
      "\"baseline_packets_per_sec\": %.0f,\n"
      "                      \"overhead_pct\": %.2f, \"within_5pct\": %s},\n"
      "    \"lossy_soak\": {\"loss\": 0.05, \"injected_drops\": %llu, "
      "\"retransmits\": %llu,\n"
      "                   \"recovered\": %llu, \"give_ups\": %llu, "
      "\"cache_hits\": %llu,\n"
      "                   \"cache_misses\": %llu, \"converged\": %s}\n"
      "  },\n",
      hook.packets_per_sec, base.packets_per_sec, overhead_pct,
      within_5pct ? "true" : "false",
      static_cast<unsigned long long>(soak.injected_drops),
      static_cast<unsigned long long>(soak.retransmits),
      static_cast<unsigned long long>(soak.recovered),
      static_cast<unsigned long long>(soak.give_ups),
      static_cast<unsigned long long>(soak.cache_hits),
      static_cast<unsigned long long>(soak.cache_misses),
      soak.converged ? "true" : "false");

  if (!quick_mode() && !within_5pct) {
    std::fprintf(stderr,
                 "FAIL: idle fault injector ran at %.0f pps vs %.0f pps "
                 "baseline (%.2f%% overhead, budget 5%%)\n",
                 hook.packets_per_sec, base.packets_per_sec, overhead_pct);
    return 1;
  }
  if (!soak.converged) {
    std::fprintf(stderr,
                 "FAIL: lossy soak did not converge (populate done=%d, "
                 "outstanding writes give-ups=%llu)\n",
                 soak.converged,
                 static_cast<unsigned long long>(soak.give_ups));
    return 1;
  }
  return 0;
}

// Returns 0 on success, 1 when the zero-allocation assertion fails.
int run_e2e_datapath() {
  const u64 kRounds = quick_mode() ? 3 : 12;
  const u64 kPerRound = quick_mode() ? 1'000 : 5'000;
  const u64 kPackets = kRounds * kPerRound;
  E2eRig zc_rig;
  E2eRig tel_rig(/*telemetry=*/true);
  E2eRig spans_rig;
  // The production always-on tracing configuration: every span event is
  // emitted into the armed flight-recorder ring (preallocated, no dump
  // dir -- recording only). The full-capture SpanSink is the offline
  // forensic mode -- attached only when a dump is wanted, like a trace
  // sink -- so it stays detached here; counters/heatmap stay gated off
  // too (the third rig already prices those). The "spans" block thus
  // prices exactly what a deployment pays to keep the recorder armed.
  telemetry::FlightRecorder flight(telemetry::FlightRecorder::kDefaultCapacity,
                                   1);
  auto arm_spans = [&] { telemetry::set_flight_recorder(&flight); };
  auto disarm_spans = [&] { telemetry::set_flight_recorder(nullptr); };
  // Warm-up: populates the program caches, the frame pools, the event
  // queue capacity, and (for the instrumented rigs) the per-FID counter
  // memos, so the measured rounds see the steady state.
  telemetry::set_enabled(true);
  zc_rig.pump(1000);
  tel_rig.pump(1000);
  arm_spans();
  spans_rig.pump(1000);
  disarm_spans();
  const u64 warmup_span_events = flight.recorded();

  E2eMeasurement zc;
  E2eMeasurement tel_base;
  E2eMeasurement tel;
  E2eMeasurement spans_base;
  E2eMeasurement spans;
  // Interleaved rounds, best-of: ambient load skews all paths alike. The
  // two overhead gates (telemetry recording, span tracing) are same-rig
  // paired A/Bs, like the chaos block's idle-injector gate: within each
  // round the rig alternates recording-off / recording-on in
  // sub-millisecond blocks so frequency ramps and scheduler quanta hit
  // both sides, each adjacent off/on pair yields one overhead ratio, and
  // the gate takes the MEDIAN over the pairs of the whole run. A
  // cross-rig comparison (or an independent best-of per side) lets one
  // lucky or stolen window on either side swing the measured cost by
  // tens of percent on a noisy host; the median of paired ratios is
  // robust in both directions.
  struct AbPair {
    double base_pps;  // the pair's recording-off throughput
    double on_pps;    // the pair's recording-on throughput
    double ratio;     // 1 - on/off for that pair
  };
  const u64 kAbBlocks = 5;
  // One paired A/B round: appends one overhead ratio per adjacent
  // off/on block pair and folds the block bests / alloc counts into the
  // global accumulators -- individual pairs are noisy, but a scheduler
  // steal poisons only the pairs it lands on, and the median shrugs
  // those off.
  const auto paired_round = [&](E2eRig& rig, auto&& off, auto&& on,
                                E2eMeasurement* base_out,
                                E2eMeasurement* on_out,
                                std::vector<AbPair>* overheads) {
    for (u64 k = 0; k < kAbBlocks; ++k) {
      E2eMeasurement base_b;
      E2eMeasurement on_b;
      // ABBA order alternation: the second slot of a pair sits closer to
      // the next scheduler quantum, so a fixed order would bias one side.
      if (k % 2 == 0) {
        off();
        measure_e2e(rig, 1, kPerRound / kAbBlocks, &base_b);
        on();
        measure_e2e(rig, 1, kPerRound / kAbBlocks, &on_b);
      } else {
        on();
        measure_e2e(rig, 1, kPerRound / kAbBlocks, &on_b);
        off();
        measure_e2e(rig, 1, kPerRound / kAbBlocks, &base_b);
      }
      base_out->packets_per_sec =
          std::max(base_out->packets_per_sec, base_b.packets_per_sec);
      base_out->allocs += base_b.allocs;
      on_out->packets_per_sec =
          std::max(on_out->packets_per_sec, on_b.packets_per_sec);
      on_out->allocs += on_b.allocs;
      overheads->push_back(
          {base_b.packets_per_sec, on_b.packets_per_sec,
           1.0 - on_b.packets_per_sec / base_b.packets_per_sec});
    }
    off();
  };
  std::vector<AbPair> tel_overheads;
  std::vector<AbPair> spans_overheads;
  tel_overheads.reserve(kRounds * kAbBlocks);
  spans_overheads.reserve(kRounds * kAbBlocks);
  for (u64 r = 0; r < kRounds; ++r) {
    telemetry::set_enabled(false);
    measure_e2e(zc_rig, 1, kPerRound, &zc);
    paired_round(tel_rig, [] { telemetry::set_enabled(false); },
                 [] { telemetry::set_enabled(true); }, &tel_base, &tel,
                 &tel_overheads);
    paired_round(spans_rig, disarm_spans, arm_spans, &spans_base, &spans,
                 &spans_overheads);
  }
  const u64 span_events = flight.recorded() - warmup_span_events;
  telemetry::set_enabled(true);  // the blocks below manage their own state
  // Median overhead over the clean-window pairs. A pair either of whose
  // blocks ran far below the run's best for that side was hit by host
  // throttling or a scheduler steal; such a pair's ratio is an outlier in
  // whichever direction the steal landed. The filter must test BOTH
  // sides: dropping only low-off-side pairs would remove the
  // negative-ratio outliers (steal on the off block) while keeping the
  // positive ones (steal on the on block), biasing the median upward.
  // VM throttling is measurement noise, not system-under-test cost.
  const auto median_overhead = [](const std::vector<AbPair>& pairs) {
    double best_off = 0.0;
    double best_on = 0.0;
    for (const AbPair& p : pairs) {
      best_off = std::max(best_off, p.base_pps);
      best_on = std::max(best_on, p.on_pps);
    }
    std::vector<double> v;
    v.reserve(pairs.size());
    for (const AbPair& p : pairs) {
      if (p.base_pps >= 0.6 * best_off && p.on_pps >= 0.6 * best_on) {
        v.push_back(p.ratio);
      }
    }
    if (v.size() < pairs.size() / 2) {
      // Degenerate throttle profile: fall back to every pair rather than
      // gate on a handful of samples.
      v.clear();
      for (const AbPair& p : pairs) v.push_back(p.ratio);
    }
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n == 0) return 0.0;
    return n % 2 != 0 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  };

  const double zc_allocs_per_frame =
      static_cast<double>(zc.allocs) / static_cast<double>(kPackets);
  const double tel_allocs_per_frame =
      static_cast<double>(tel.allocs) / static_cast<double>(kPackets);
  const double tel_overhead = median_overhead(tel_overheads);
  const double tel_overhead_pct = 100.0 * tel_overhead;
  const bool tel_within_5pct = tel_overhead <= 0.05;
  const double spans_allocs_per_frame =
      static_cast<double>(spans.allocs) / static_cast<double>(kPackets);
  const double spans_overhead = median_overhead(spans_overheads);
  const double spans_overhead_pct = 100.0 * spans_overhead;
  const bool spans_within_5pct = spans_overhead <= 0.05;

  const auto& ss = zc_rig.sw->node_stats();
  const auto& cs = zc_rig.sw->program_cache().stats();
  const auto& ps = zc_rig.net.pool().stats();
  const u64 lookups = cs.hits + cs.misses;
  const double hit_rate =
      lookups ? static_cast<double>(cs.hits) / static_cast<double>(lookups)
              : 0.0;

  char sharding_json[1024];
  const int sharded_rc = run_sharded_e2e(sharding_json, sizeof(sharding_json));
  char batched_json[1024];
  const int batched_rc =
      run_batched_block(batched_json, sizeof(batched_json),
                        zc.packets_per_sec);
  char chaos_json[1024];
  const int chaos_rc = run_chaos_block(chaos_json, sizeof(chaos_json));

  char json[8192];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"benchmark\": \"e2e_netsim_datapath\",\n"
      "  \"cores\": %u,\n"
      "  \"quick\": %s,\n"
      "  \"workload\": {\"program\": \"cache_query\", \"payload_bytes\": "
      "%zu,\n"
      "               \"frame_bytes\": %zu, \"packets_per_path\": %llu},\n"
      "  \"zero_copy\": {\"packets_per_sec\": %.0f, "
      "\"allocs_per_frame_steady\": %.6f},\n"
      "  \"telemetry\": {\"packets_per_sec\": %.0f, "
      "\"baseline_packets_per_sec\": %.0f,\n"
      "               \"allocs_per_frame_steady\": %.6f,\n"
      "               \"overhead_pct\": %.2f, \"within_5pct\": %s},\n"
      "  \"spans\": {\"packets_per_sec\": %.0f, "
      "\"baseline_packets_per_sec\": %.0f,\n"
      "           \"allocs_per_frame_steady\": %.6f,\n"
      "           \"overhead_pct\": %.2f, \"within_5pct\": %s, "
      "\"span_events\": %llu},\n"
      "  \"switch\": {\"forwarded\": %llu, \"returned\": %llu, \"dropped\": "
      "%llu,\n"
      "             \"malformed\": %llu, \"unknown_destination\": %llu,\n"
      "             \"zero_copy_frames\": %llu},\n"
      "  \"program_cache\": {\"hits\": %llu, \"misses\": %llu, "
      "\"hit_rate\": %.6f},\n"
      "  \"frame_pool\": {\"acquired\": %llu, \"slabs_created\": %llu, "
      "\"recycled\": %llu, \"oversize\": %llu},\n"
      "  \"network\": {\"frames_delivered\": %llu, \"frames_dropped\": "
      "%llu},\n"
      "  \"simulator\": {\"actions_spilled\": %llu},\n"
      "%s"
      "%s"
      "%s"
      "}\n",
      std::thread::hardware_concurrency(),
      quick_mode() ? "true" : "false", kBenchPayloadBytes, zc_rig.wire.size(),
      static_cast<unsigned long long>(kPackets), zc.packets_per_sec,
      zc_allocs_per_frame, tel.packets_per_sec, tel_base.packets_per_sec,
      tel_allocs_per_frame, tel_overhead_pct,
      tel_within_5pct ? "true" : "false", spans.packets_per_sec,
      spans_base.packets_per_sec, spans_allocs_per_frame, spans_overhead_pct,
      spans_within_5pct ? "true" : "false",
      static_cast<unsigned long long>(span_events),
      static_cast<unsigned long long>(ss.forwarded),
      static_cast<unsigned long long>(ss.returned),
      static_cast<unsigned long long>(ss.dropped),
      static_cast<unsigned long long>(ss.malformed),
      static_cast<unsigned long long>(ss.unknown_destination),
      static_cast<unsigned long long>(ss.zero_copy_frames),
      static_cast<unsigned long long>(cs.hits),
      static_cast<unsigned long long>(cs.misses), hit_rate,
      static_cast<unsigned long long>(ps.acquired),
      static_cast<unsigned long long>(ps.slabs_created),
      static_cast<unsigned long long>(ps.recycled),
      static_cast<unsigned long long>(ps.oversize),
      static_cast<unsigned long long>(zc_rig.net.frames_delivered()),
      static_cast<unsigned long long>(zc_rig.net.frames_dropped()),
      static_cast<unsigned long long>(zc_rig.sim.actions_spilled()),
      batched_json, chaos_json, sharding_json);
  std::fputs(json, stdout);
  std::fflush(stdout);
  if (!quick_mode()) {
    if (std::FILE* f = std::fopen("BENCH_datapath.json", "w")) {
      std::fputs(json, f);
      std::fclose(f);
    }
  }

  if (zc.allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: zero-copy datapath allocated %llu times over %llu "
                 "frames (expected 0 in steady state)\n",
                 static_cast<unsigned long long>(zc.allocs),
                 static_cast<unsigned long long>(kPackets));
    return 1;
  }
  if (tel.allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: telemetry-enabled datapath allocated %llu times over "
                 "%llu frames (expected 0 in steady state)\n",
                 static_cast<unsigned long long>(tel.allocs),
                 static_cast<unsigned long long>(kPackets));
    return 1;
  }
  if (spans.allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: span-tracing datapath allocated %llu times over "
                 "%llu frames (expected 0 in steady state with the flight "
                 "recorder armed)\n",
                 static_cast<unsigned long long>(spans.allocs),
                 static_cast<unsigned long long>(kPackets));
    return 1;
  }
  if (!quick_mode() && !tel_within_5pct) {
    std::fprintf(stderr,
                 "FAIL: telemetry-enabled datapath ran at %.0f pps vs %.0f "
                 "pps disarmed baseline (%.2f%% overhead, budget 5%%)\n",
                 tel.packets_per_sec, tel_base.packets_per_sec,
                 tel_overhead_pct);
    return 1;
  }
  if (!quick_mode() && !spans_within_5pct) {
    std::fprintf(stderr,
                 "FAIL: span-tracing datapath ran at %.0f pps vs %.0f pps "
                 "disarmed baseline (%.2f%% overhead, budget 5%%)\n",
                 spans.packets_per_sec, spans_base.packets_per_sec,
                 spans_overhead_pct);
    return 1;
  }
  if (sharded_rc != 0) return sharded_rc;
  return batched_rc != 0 ? batched_rc : chaos_rc;
}

}  // namespace
}  // namespace artmt

int main() {
  const int steady_state_rc = artmt::run_steady_state();
  const int e2e_rc = artmt::run_e2e_datapath();
  return steady_state_rc != 0 ? steady_state_rc : e2e_rc;
}

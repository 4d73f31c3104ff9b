// Figure 8: latency overheads.
//   (a) total provisioning time per admission under Poisson churn --
//       allocator compute (measured) + table updates + snapshotting
//       (modeled) -- levelling off at ~1 s, vs the 28.79 s P4-compile
//       baseline the paper measured for a 22-instance monolithic image.
//   (b) client-to-switch RTT vs active program length (10/20/30
//       instructions + echo baseline) over the event-driven testbed;
//       every extra pipeline pass adds ~0.5 us.
#include <cstdio>

#include "common/ewma.hpp"
#include "controller/switch_node.hpp"
#include "harness.hpp"
#include "netsim/network.hpp"
#include "workload/arrivals.hpp"

namespace artmt::bench {
namespace {

// Mean cost composition of one Fig. 8a run (seconds), for the per-entry
// vs batched-updates comparison below.
struct ProvisioningBreakdown {
  double compute = 0.0;
  double tables = 0.0;
  double snapshot = 0.0;
  double steady = 0.0;  // mean total of the last 50 admissions
};

ProvisioningBreakdown provisioning_time(bool batched_updates) {
  std::printf("\n## Fig 8a: provisioning time per admission (s)%s\n",
              batched_updates ? " -- batched+coalesced table updates" : "");
  rmt::PipelineConfig pipe_cfg;
  rmt::Pipeline pipeline(pipe_cfg);
  runtime::ActiveRuntime runtime(pipeline);
  controller::CostModel costs;
  costs.batched_updates = batched_updates;
  controller::Controller ctrl(pipeline, runtime, alloc::Scheme::kWorstFit,
                              alloc::MutantPolicy::most_constrained(), costs);

  workload::ArrivalProcess process(2.0, 1.0, 7);
  Rng departure_rng(99);
  std::vector<Fid> resident;

  stats::Series total("total_s");
  stats::Series compute("compute_s");
  stats::Series tables("table_update_s");
  stats::Series snapshot("snapshot_s");
  u32 sample = 0;
  for (u32 epoch = 0; epoch < 200; ++epoch) {
    const auto plan = process.next_epoch();
    for (u32 d = 0; d < plan.departures && !resident.empty(); ++d) {
      const std::size_t pick = departure_rng.uniform(resident.size());
      ctrl.release(resident[pick]);
      resident.erase(resident.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    for (const auto kind : plan.arrivals) {
      const auto result = ctrl.admit(request_for(kind));
      if (ctrl.has_pending()) {
        ctrl.timeout_pending();
        ctrl.apply_pending();
      }
      if (!result.admitted) continue;
      resident.push_back(result.fid);
      const double second = static_cast<double>(kSecond);
      total.add(sample, result.provisioning_time() / second);
      compute.add(sample, result.compute_ms / 1e3);
      tables.add(sample, result.table_update_cost / second);
      snapshot.add(sample, result.snapshot_cost / second);
      ++sample;
    }
  }
  // The paper plots the trend; smooth the per-admission spikes.
  Ewma smoothed(0.1);
  stats::Series trend("total_ewma_s");
  for (const auto& point : total.points()) {
    trend.add(point.x, smoothed.update(point.y));
  }
  print_series("admission,total_provisioning_ewma_s", trend, 10);
  std::printf("breakdown (mean): compute=%.4fs tables=%.4fs snapshot=%.4fs\n",
              compute.mean_y(), tables.mean_y(), snapshot.mean_y());
  // Steady state: mean of the last 50 admissions.
  double steady = 0.0;
  u32 tail = 0;
  const auto& points = total.points();
  for (auto it = points.rbegin(); it != points.rend() && tail < 50;
       ++it, ++tail) {
    steady += it->y;
  }
  steady = tail ? steady / tail : 0.0;
  std::printf("steady-state provisioning (mean of last 50): %.3f s\n",
              steady);
  const double p4_compile =
      static_cast<double>(ctrl.costs().p4_compile_baseline) / kSecond;
  std::printf(
      "P4 recompilation baseline (paper, 22-instance image): %.2f s -> "
      "ActiveRMT is %.0fx faster at steady state\n",
      p4_compile, p4_compile / steady);
  return ProvisioningBreakdown{compute.mean_y(), tables.mean_y(),
                               snapshot.mean_y(), steady};
}

// The paper's Fig. 8a composition is dominated by per-entry table
// updates; batching+coalescing (CostModel::batched_updates) shifts it
// toward allocator compute + snapshotting. Print the shift so
// EXPERIMENTS.md can record both compositions side by side.
void provisioning_composition_shift(const ProvisioningBreakdown& per_entry,
                                    const ProvisioningBreakdown& batched) {
  std::printf("\n## Fig 8a composition shift: per-entry vs batched updates\n");
  const auto share = [](const ProvisioningBreakdown& b, double part) {
    const double total = b.compute + b.tables + b.snapshot;
    return total > 0.0 ? 100.0 * part / total : 0.0;
  };
  std::printf(
      "per-entry: compute %.1f%% / tables %.1f%% / snapshot %.1f%% "
      "(steady %.3f s)\n",
      share(per_entry, per_entry.compute), share(per_entry, per_entry.tables),
      share(per_entry, per_entry.snapshot), per_entry.steady);
  std::printf(
      "batched:   compute %.1f%% / tables %.1f%% / snapshot %.1f%% "
      "(steady %.3f s)\n",
      share(batched, batched.compute), share(batched, batched.tables),
      share(batched, batched.snapshot), batched.steady);
  std::printf(
      "steady-state provisioning: %.3f s -> %.3f s (%.1fx) with batched "
      "table updates\n",
      per_entry.steady, batched.steady,
      batched.steady > 0.0 ? per_entry.steady / batched.steady : 0.0);
}

void rtt_vs_program_length() {
  std::printf("\n## Fig 8b: RTT vs program length (us)\n");
  netsim::Network net(0);
  controller::SwitchNode::Config cfg;
  auto sw = std::make_shared<controller::SwitchNode>("switch", cfg);
  net.attach(sw);

  // One measurement client, 1 us links at 40 Gbps like the testbed.
  class Probe : public netsim::Node {
   public:
    Probe() : netsim::Node("probe") {}
    void on_frame(netsim::Frame, u32) override {
      received_at = network().simulator().now();
    }
    SimTime received_at = -1;
  };
  auto probe = std::make_shared<Probe>();
  net.attach(probe);
  net.connect(*sw, 1, *probe, 0);
  sw->bind(0x100, 1);

  auto measure = [&](u32 instructions, bool active) {
    packet::ActivePacket pkt;
    if (active) {
      active::Program program;
      program.push({active::Opcode::kRts});
      for (u32 i = 1; i + 1 < instructions; ++i) {
        program.push({active::Opcode::kNop});
      }
      program.push({active::Opcode::kReturn});
      pkt = packet::ActivePacket::make_program(0, packet::ArgumentHeader{},
                                               program);
    } else {
      // Baseline: a one-instruction RTS "echo" with no further work.
      active::Program program;
      program.push({active::Opcode::kRts});
      program.push({active::Opcode::kReturn});
      pkt = packet::ActivePacket::make_program(0, packet::ArgumentHeader{},
                                               program);
    }
    pkt.ethernet.src = 0x100;
    pkt.ethernet.dst = 0x0aa;
    // Pad to 256-byte frames like the paper's measurement.
    auto frame = pkt.serialize();
    frame.resize(std::max<std::size_t>(frame.size(), 256), 0);
    probe->received_at = -1;
    const SimTime sent = net.now();
    net.transmit(*probe, 0, std::move(frame));
    net.run_until(net.now() + 10 * kMillisecond);
    return (probe->received_at - sent) / 1000.0;  // us
  };

  const double echo = measure(2, false);
  std::printf("baseline echo RTT: %.3f us\n", echo);
  for (const u32 n : {10u, 20u, 30u}) {
    const double rtt = measure(n, true);
    std::printf("%u instructions: RTT=%.3f us (+%.3f us over echo)\n", n,
                rtt, rtt - echo);
  }
  std::printf("per-pass latency model: %.1f us\n",
              static_cast<double>(rmt::PipelineConfig{}.pass_latency) /
                  1000.0);
}

}  // namespace
}  // namespace artmt::bench

int main() {
  std::printf("=== Figure 8: latency overhead ===\n");
  const auto per_entry = artmt::bench::provisioning_time(false);
  const auto batched = artmt::bench::provisioning_time(true);
  artmt::bench::provisioning_composition_shift(per_entry, batched);
  artmt::bench::rtt_vs_program_length();
  return 0;
}

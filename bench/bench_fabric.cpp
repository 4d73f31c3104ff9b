// Fabric availability bench gate (BENCH_fabric.json), two sections:
//
//  A. Chaos soak: four cache tenants on a 4-leaf / 2-spine fabric with a
//     federated global controller. A deterministic chaos schedule kills
//     leaf0 (all links down at 500ms, never restored inside the run) and
//     flaps spine1's links (800-900ms; spine1 is standby redundancy, so
//     the flap must be non-disruptive). Gates: the evacuated service is
//     re-placed within a bounded p99 downtime window, recovers with zero
//     state loss (a sibling has capacity), and is serving cache hits
//     again after the recovery mark.
//
//  B. Determinism: the fault-free scenario and the chaos scenario must
//     both produce byte-identical reply digests, per-leaf register
//     digests, placements and completion times at shards 1/2/4.
//
// CI smoke mode: ARTMT_BENCH_QUICK=1 shrinks the schedule and skips the
// JSON rewrite so a smoke run never clobbers committed full-run numbers.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "scenario/scenario.hpp"

namespace artmt {
namespace {

bool quick_mode() {
  static const bool quick = std::getenv("ARTMT_BENCH_QUICK") != nullptr;
  return quick;
}

// The gates read the shards = 1 run only (the p99 downtime gate
// included), so every shard count must reproduce its report too.
bool matches(const scenario::FabricDrillOut& a,
             const scenario::FabricDrillOut& b) {
  return a.reply_digest == b.reply_digest &&
         a.leaf_digests == b.leaf_digests && a.fids == b.fids &&
         a.owners == b.owners && a.completed_at == b.completed_at &&
         a.report == b.report;
}

// Four tenants on leaves {1,2,3,1} (none on the doomed leaf0), server on
// leaf2. Round-robin admission places service i on leaf i, so tenant 0's
// service rides leaf0 and is the chaos schedule's victim.
scenario::FabricDrill drill() {
  scenario::FabricDrill d;
  d.client_leaf = {1, 2, 3, 1};
  d.server_leaf = 2;
  return d;
}

double percentile_ms(std::vector<SimTime> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1) + 0.5);
  return static_cast<double>(samples[idx]) / static_cast<double>(kMillisecond);
}

}  // namespace
}  // namespace artmt

int main() {
  using namespace artmt;
  const bool quick = quick_mode();

  // Deterministic chaos schedule: leaf0 dies for good at 500ms; spine1
  // (standby redundancy) flaps 800-900ms, which must disturb nothing.
  faults::FaultPlan chaos;
  chaos.flaps.push_back({"leaf0", "", 500 * kMillisecond, 10 * kSecond});
  chaos.flaps.push_back(
      {"spine1", "", 800 * kMillisecond, 900 * kMillisecond});

  scenario::FabricDrill chaos_drill = drill();
  chaos_drill.plan = &chaos;
  chaos_drill.mark = 700 * kMillisecond;
  if (quick) chaos_drill.stop = 1'200 * kMillisecond;

  const scenario::FabricDrillOut out = scenario::run_fabric_drill(chaos_drill);
  const double p99_ms = percentile_ms(out.report.downtimes, 0.99);
  const double max_ms = percentile_ms(out.report.downtimes, 1.0);
  const double zero_loss_fraction =
      out.report.evacuations == 0
          ? 1.0
          : 1.0 - static_cast<double>(out.report.state_loss_services) /
                      static_cast<double>(out.report.evacuations);
  const bool victim_serving = out.late_hits.at(0) > 0 && out.operational.at(0);
  u64 bystander_late = 0;
  for (u32 i = 1; i < out.late_hits.size(); ++i)
    bystander_late += out.late_hits[i];

  std::printf(
      "chaos: deaths=%llu evacuations=%llu replaced=%llu unplaced=%llu "
      "state_loss=%llu\n",
      static_cast<unsigned long long>(out.report.switch_deaths),
      static_cast<unsigned long long>(out.report.evacuations),
      static_cast<unsigned long long>(out.report.replaced),
      static_cast<unsigned long long>(out.report.unplaced),
      static_cast<unsigned long long>(out.report.state_loss_services));
  std::printf(
      "  downtime p99=%.3fms max=%.3fms, zero-loss fraction %.2f, victim "
      "serving after mark: %s (late hits %llu, bystanders %llu)\n",
      p99_ms, max_ms, zero_loss_fraction, victim_serving ? "yes" : "NO",
      static_cast<unsigned long long>(out.late_hits.at(0)),
      static_cast<unsigned long long>(bystander_late));

  // Availability gates: exactly the leaf kill is detected (the spine flap
  // is non-disruptive), every evacuated service is re-placed with no
  // state loss, and the victim serves hits again inside the run.
  constexpr double kDowntimeP99BoundMs = 50.0;
  const bool gate_pass =
      out.report.switch_deaths == 1 && out.report.evacuations >= 1 &&
      out.report.replaced == out.report.evacuations &&
      out.report.unplaced == 0 && out.report.state_loss_services == 0 &&
      p99_ms > 0.0 && p99_ms <= kDowntimeP99BoundMs && victim_serving &&
      bystander_late > 0 && out.bad_values == 0;

  // Determinism: fault-free and chaos runs, shards 1/2/4.
  scenario::FabricDrill clean_drill = drill();
  if (quick) clean_drill.stop = 1'200 * kMillisecond;
  const scenario::FabricDrillOut clean_base =
      scenario::run_fabric_drill(clean_drill);
  bool clean_match = true;
  bool chaos_match = true;
  for (const u32 shards :
       quick ? std::vector<u32>{2} : std::vector<u32>{2, 4}) {
    scenario::FabricDrill k = clean_drill;
    k.shards = shards;
    const bool clean_ok = matches(scenario::run_fabric_drill(k), clean_base);
    scenario::FabricDrill c = chaos_drill;
    c.shards = shards;
    const bool chaos_ok = matches(scenario::run_fabric_drill(c), out);
    std::printf("shards=%u: fault-free %s, chaos %s\n", shards,
                clean_ok ? "byte-identical" : "DIVERGED",
                chaos_ok ? "byte-identical" : "DIVERGED");
    clean_match &= clean_ok;
    chaos_match &= chaos_ok;
  }

  if (!quick) {
    char json[2048];
    std::snprintf(
        json, sizeof(json),
        "{\n"
        "  \"quick\": false,\n"
        "  \"chaos\": {\n"
        "    \"leaves\": 4, \"spines\": 2, \"tenants\": 4,\n"
        "    \"leaf_kill_at_ms\": 500, \"spine_flap_ms\": [800, 900],\n"
        "    \"switch_deaths\": %llu, \"evacuations\": %llu,\n"
        "    \"replaced\": %llu, \"unplaced\": %llu,\n"
        "    \"state_loss_services\": %llu,\n"
        "    \"downtime_p99_ms\": %.3f, \"downtime_max_ms\": %.3f,\n"
        "    \"downtime_p99_bound_ms\": %.1f,\n"
        "    \"zero_state_loss_fraction\": %.3f,\n"
        "    \"victim_serving_after_mark\": %s,\n"
        "    \"gate_pass\": %s\n"
        "  },\n"
        "  \"determinism\": {\n"
        "    \"fault_free_shards_match\": %s,\n"
        "    \"chaos_shards_match\": %s\n"
        "  }\n"
        "}\n",
        static_cast<unsigned long long>(out.report.switch_deaths),
        static_cast<unsigned long long>(out.report.evacuations),
        static_cast<unsigned long long>(out.report.replaced),
        static_cast<unsigned long long>(out.report.unplaced),
        static_cast<unsigned long long>(out.report.state_loss_services),
        p99_ms, max_ms, kDowntimeP99BoundMs, zero_loss_fraction,
        victim_serving ? "true" : "false", gate_pass ? "true" : "false",
        clean_match ? "true" : "false", chaos_match ? "true" : "false");
    std::fputs(json, stdout);
    if (std::FILE* f = std::fopen("BENCH_fabric.json", "w")) {
      std::fputs(json, f);
      std::fclose(f);
    }
  }

  if (!clean_match) {
    std::fprintf(stderr, "FAIL: fault-free fabric run diverges across shards\n");
    return 1;
  }
  if (!chaos_match) {
    std::fprintf(stderr, "FAIL: chaos fabric run diverges across shards\n");
    return 1;
  }
  if (!gate_pass) {
    std::fprintf(stderr, "FAIL: fabric availability gates not met\n");
    return 1;
  }
  std::printf("fabric availability gates: PASS\n");
  return 0;
}

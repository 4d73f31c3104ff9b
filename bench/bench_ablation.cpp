// Ablations for the design choices DESIGN.md calls out beyond the
// paper's own sweeps:
//   1. the packet-shrink optimization (Section 3.1): on-wire bytes on the
//      return path with and without it,
//   2. the mutant recirculation budget: extra passes vs mutant-space
//      size, cache utilization, and heavy-hitter capacity,
//   3. TCAM range-entry capacity (the bottleneck Section 3.1 identifies)
//      vs the number of admissible services,
//   4. the Section 5 resource-overhead comparison.
#include <cstdio>

#include "apps/programs.hpp"
#include "controller/controller.hpp"
#include "harness.hpp"
#include "proto/wire.hpp"

namespace artmt::bench {
namespace {

void shrink_ablation() {
  std::printf("\n## Ablation 1: packet-shrink optimization\n");
  rmt::PipelineConfig cfg;
  rmt::Pipeline pipeline(cfg);
  runtime::ActiveRuntime runtime(pipeline);
  controller::Controller ctrl(pipeline, runtime);
  const auto admitted = ctrl.admit(apps::cache_request());

  const auto synth = [&] {
    return client::synthesize(apps::cache_service_spec(),
                              *ctrl.mutant_of(admitted.fid),
                              ctrl.response_for(admitted.fid),
                              cfg.logical_stages);
  }();

  // Each capsule goes the switch's way: parsed in place, executed, and
  // answered with the reply encode_executed synthesizes from the cursor.
  active::ProgramCache cache;
  FramePool pool;
  for (const bool shrink : {true, false}) {
    packet::ArgumentHeader args;
    args.args[0] = synth.access_base[0];
    auto pkt = packet::ActivePacket::make_program(admitted.fid, args,
                                                  synth.program);
    if (!shrink) pkt.initial.flags |= packet::kFlagNoShrink;
    FrameBuf frame(pkt.serialize());
    const std::size_t out_bytes = frame.size();
    auto view = packet::ProgramView::parse(frame, cache);
    auto ctx =
        runtime::ExecContext::over(view.initial, view.arguments, &view.ethernet);
    active::ExecCursor cursor;
    runtime.execute(*view.compiled, ctx, cursor);
    const std::size_t back_bytes =
        proto::encode_executed(view, cursor, std::move(frame), pool).size();
    std::printf(
        "shrink=%-3s outbound=%zuB return=%zuB (saved %.0f%% of the active "
        "headers)\n",
        shrink ? "on" : "off", out_bytes, back_bytes,
        100.0 * (1.0 - static_cast<double>(back_bytes) / out_bytes));
  }
}

void recirc_budget_ablation() {
  std::printf("\n## Ablation 2: mutant recirculation budget\n");
  std::printf("extra_passes  cache_mutants  hh_mutants  cache_util@50  "
              "hh_capacity(<=120)\n");
  for (const u32 extra : {0u, 1u, 2u}) {
    const alloc::MutantPolicy policy{extra, extra == 0};
    const auto cache_mutants =
        alloc::enumerate_mutants(apps::cache_request(), kGeometry, policy)
            .size();
    const auto hh_mutants =
        alloc::enumerate_mutants(apps::hh_request(), kGeometry, policy)
            .size();

    alloc::Allocator caches(kGeometry, kBlocksPerStage,
                            alloc::Scheme::kWorstFit, policy);
    for (int i = 0; i < 50; ++i) caches.allocate(apps::cache_request());

    alloc::Allocator hh(kGeometry, kBlocksPerStage,
                        alloc::Scheme::kWorstFit, policy);
    u32 capacity = 0;
    while (capacity < 120 && hh.allocate(apps::hh_request()).success) {
      ++capacity;
    }

    std::printf("%-13u %-14zu %-11zu %-14.3f %u\n", extra, cache_mutants,
                hh_mutants, caches.utilization(), capacity);
  }
}

void tcam_ablation() {
  std::printf("\n## Ablation 3: TCAM range-entry capacity per stage\n");
  std::printf("tcam_entries  caches_admitted  tcam_rejections\n");
  for (const u32 capacity : {4u, 8u, 16u, 32u, 64u}) {
    rmt::PipelineConfig cfg;
    cfg.tcam_entries_per_stage = capacity;
    rmt::Pipeline pipeline(cfg);
    runtime::ActiveRuntime runtime(pipeline);
    controller::Controller ctrl(pipeline, runtime);
    u32 admitted = 0;
    for (int i = 0; i < 200; ++i) {
      if (ctrl.admit(apps::cache_request()).admitted) {
        ++admitted;
      } else {
        break;
      }
      if (ctrl.has_pending()) {
        ctrl.timeout_pending();
        ctrl.apply_pending();
      }
    }
    std::printf("%-13u %-16u %llu\n", capacity, admitted,
                static_cast<unsigned long long>(
                    ctrl.stats().tcam_rejections));
  }
  std::printf("(elastic caches are memory-admissible forever; the range "
              "entries become the binding constraint, as Section 3.1 "
              "anticipates)\n");
}

void resource_overheads() {
  std::printf("\n## Section 5 resource overheads (modeled)\n");
  std::printf(
      "ActiveRMT runtime: 100%% of register SRAM + all stage TCAMs; 83%% "
      "of match-action resources remain for programs (paper).\n");
  std::printf(
      "NetVRM comparison: power-of-two regions + 2-stage translation "
      "leave <50%% available (paper).\n");
  std::printf(
      "This model: protection costs exactly one TCAM range entry per "
      "(service, stage); translation costs zero match-action stages "
      "(mask/offset ride existing entries).\n");
}

}  // namespace
}  // namespace artmt::bench

int main() {
  std::printf("=== Ablations: shrink, recirculation budget, TCAM ===\n");
  artmt::bench::shrink_ablation();
  artmt::bench::recirc_budget_ablation();
  artmt::bench::tcam_ablation();
  artmt::bench::resource_overheads();
  return 0;
}

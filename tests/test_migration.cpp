// Tests for the background migration & defragmentation engine (ROADMAP
// item 2): the decayed hotness table (half-life, coldness hysteresis,
// observation clamping), heatmap shard-merge edge cases, the bounded
// remap queue, planner determinism, the allocator's demote / promote /
// re-slide primitives, Controller::migrate's sentinel handshake, and the
// end-to-end SwitchNode engine -- post-migration register state must be
// byte-identical across shard counts, fault-free and under a FaultPlan.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "alloc/hotness.hpp"
#include "apps/cache_service.hpp"
#include "apps/kv.hpp"
#include "apps/programs.hpp"
#include "apps/server_node.hpp"
#include "client/client_node.hpp"
#include "controller/controller.hpp"
#include "controller/migration.hpp"
#include "controller/switch_node.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "netsim/network.hpp"
#include "telemetry/heatmap.hpp"
#include "workload/zipf.hpp"

namespace artmt {
namespace {

using controller::MigrationPlanner;
using controller::MigrationPolicy;
using controller::RemapKind;
using controller::RemapQueue;
using controller::RemapRequest;

// --- hotness table ---------------------------------------------------------

TEST(Hotness, DecayShiftOneIsOneTickHalfLife) {
  telemetry::StageHeatmap heatmap(4);
  alloc::HotnessTable table;  // decay_shift 1
  for (int i = 0; i < 64; ++i) heatmap.record_read(0, 7);

  table.tick(heatmap);  // observe 64, then one decay
  EXPECT_EQ(table.score(7), 32u);
  for (u64 expect : {16u, 8u, 4u, 2u, 1u, 0u}) {
    table.tick(heatmap);  // cumulative counters unchanged: pure decay
    EXPECT_EQ(table.score(7), expect);
  }
}

TEST(Hotness, ColdOnlyAfterConsecutiveQuietTicks) {
  telemetry::StageHeatmap heatmap(4);
  alloc::HotnessTable table;  // threshold 8, cold_ticks 3
  for (int i = 0; i < 64; ++i) heatmap.record_read(0, 7);

  // 64 -> 32 -> 16 are warm; 8 is the first cold epoch; cold on the third.
  table.tick(heatmap);
  table.tick(heatmap);
  EXPECT_EQ(table.cold_streak(7), 0u);
  table.tick(heatmap);  // 8 <= threshold
  EXPECT_EQ(table.cold_streak(7), 1u);
  table.tick(heatmap);
  EXPECT_FALSE(table.is_cold(7));
  table.tick(heatmap);
  EXPECT_TRUE(table.is_cold(7));

  // Fresh traffic resets the streak in one tick.
  for (int i = 0; i < 64; ++i) heatmap.record_read(1, 7);
  table.tick(heatmap);
  EXPECT_EQ(table.cold_streak(7), 0u);
  EXPECT_FALSE(table.is_cold(7));
}

TEST(Hotness, SingleSampleDecaysToZeroThenColds) {
  telemetry::StageHeatmap heatmap(2);
  alloc::HotnessTable table;
  heatmap.record_read(0, 3);

  table.tick(heatmap);  // 1 >> 1 == 0: immediately below threshold
  EXPECT_EQ(table.score(3), 0u);
  EXPECT_EQ(table.cold_streak(3), 1u);
  table.tick(heatmap);
  table.tick(heatmap);
  EXPECT_TRUE(table.is_cold(3));
  EXPECT_TRUE(table.tracked(3));
}

TEST(Hotness, UntrackedFidIsNeverCold) {
  alloc::HotnessTable table;
  EXPECT_FALSE(table.is_cold(42));
  EXPECT_EQ(table.score(42), 0u);
  EXPECT_EQ(table.cold_streak(42), 0u);
}

TEST(Hotness, ForgetDropsTheRow) {
  telemetry::StageHeatmap heatmap(2);
  alloc::HotnessTable table;
  for (int i = 0; i < 32; ++i) heatmap.record_write(0, 9);
  table.tick(heatmap);
  ASSERT_GT(table.score(9), 0u);

  table.forget(9);
  EXPECT_FALSE(table.tracked(9));
  EXPECT_EQ(table.score(9), 0u);
  // A reused FID starts fresh: the old cumulative base is gone, so the
  // full current counter is absorbed as new traffic.
  table.tick(heatmap);
  EXPECT_EQ(table.score(9), 16u);
}

TEST(Hotness, ObserveClampsAfterHeatmapClear) {
  telemetry::StageHeatmap heatmap(2);
  alloc::HotnessTable table;
  for (int i = 0; i < 16; ++i) heatmap.record_read(0, 5);
  table.tick(heatmap);
  EXPECT_EQ(table.score(5), 8u);

  // A cleared heatmap regresses the cumulative counters; the delta base
  // clamps (no u64 wrap-around explosion) and re-bases on the new counts.
  heatmap.clear();
  for (int i = 0; i < 4; ++i) heatmap.record_read(0, 5);
  table.tick(heatmap);
  EXPECT_EQ(table.score(5), 4u);  // 8 >> 1, no new delta absorbed
  for (int i = 0; i < 4; ++i) heatmap.record_read(0, 5);
  table.tick(heatmap);
  EXPECT_EQ(table.score(5), 4u);  // (4 + 4-new) >> 1: re-based cleanly
}

TEST(Hotness, RankedOrdersHottestFirstWithFidTiebreak) {
  telemetry::StageHeatmap heatmap(2);
  alloc::HotnessTable table;
  for (int i = 0; i < 8; ++i) heatmap.record_read(0, 2);
  for (int i = 0; i < 32; ++i) heatmap.record_read(0, 1);
  for (int i = 0; i < 8; ++i) heatmap.record_read(1, 3);
  table.tick(heatmap);

  const auto ranked = table.ranked();
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].first, 1);  // 16
  EXPECT_EQ(ranked[1].first, 2);  // 4, fid tiebreak vs 3
  EXPECT_EQ(ranked[2].first, 3);
}

// --- heatmap shard merges --------------------------------------------------

std::string heatmap_json(const telemetry::StageHeatmap& h) {
  std::ostringstream os;
  h.snapshot_json(os);
  return os.str();
}

TEST(HeatmapMerge, OrderInvariantAndEmptyShardSafe) {
  telemetry::StageHeatmap a(4);
  telemetry::StageHeatmap b(4);
  telemetry::StageHeatmap empty(4);
  for (int i = 0; i < 10; ++i) a.record_read(0, 1);
  for (int i = 0; i < 5; ++i) a.record_write(1, 2);
  for (int i = 0; i < 3; ++i) b.record_read(0, 1);  // overlaps a's cell
  b.record_collision(3, 2);

  telemetry::StageHeatmap forward(4);
  forward.merge_from(a);
  forward.merge_from(b);
  forward.merge_from(empty);
  telemetry::StageHeatmap backward(4);
  backward.merge_from(empty);
  backward.merge_from(b);
  backward.merge_from(a);

  EXPECT_EQ(heatmap_json(forward), heatmap_json(backward));
  EXPECT_EQ(forward.total_accesses(1), 13u);
  EXPECT_EQ(forward.total_accesses(2), 6u);
  // Merging an empty shard into an empty map stays empty.
  telemetry::StageHeatmap still_empty(4);
  still_empty.merge_from(empty);
  EXPECT_TRUE(still_empty.fids().empty());
}

TEST(HeatmapMerge, MergedShardsFeedHotnessLikeOneMap) {
  telemetry::StageHeatmap a(2);
  telemetry::StageHeatmap b(2);
  for (int i = 0; i < 12; ++i) a.record_read(0, 1);
  for (int i = 0; i < 20; ++i) b.record_write(1, 1);

  telemetry::StageHeatmap merged(2);
  merged.merge_from(b);
  merged.merge_from(a);
  alloc::HotnessTable from_merged;
  from_merged.tick(merged);

  telemetry::StageHeatmap single(2);
  for (int i = 0; i < 12; ++i) single.record_read(0, 1);
  for (int i = 0; i < 20; ++i) single.record_write(1, 1);
  alloc::HotnessTable from_single;
  from_single.tick(single);

  EXPECT_EQ(from_merged.score(1), from_single.score(1));
  EXPECT_EQ(from_merged.stage_score(1, 0), from_single.stage_score(1, 0));
  EXPECT_EQ(from_merged.stage_score(1, 1), from_single.stage_score(1, 1));
}

// --- remap queue -----------------------------------------------------------

TEST(RemapQueueTest, DedupThenCongestionThenFifo) {
  RemapQueue queue(2);
  EXPECT_TRUE(queue.push({1, RemapKind::kDemote, 0, 0}));
  EXPECT_FALSE(queue.push({1, RemapKind::kReslide, 3, 0}));  // dup FID
  EXPECT_TRUE(queue.push({2, RemapKind::kPromote, 0, 0}));
  EXPECT_FALSE(queue.push({3, RemapKind::kDemote, 0, 0}));  // full

  EXPECT_EQ(queue.stats().duplicates, 1u);
  EXPECT_EQ(queue.stats().congestion_drops, 1u);
  EXPECT_EQ(queue.stats().high_water, 2u);

  const auto first = queue.pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->fid, 1u);
  EXPECT_EQ(first->kind, RemapKind::kDemote);
  EXPECT_FALSE(queue.contains(1));
  EXPECT_TRUE(queue.push({3, RemapKind::kDemote, 0, 0}));  // slot freed
  EXPECT_EQ(queue.pop()->fid, 2u);
  EXPECT_EQ(queue.pop()->fid, 3u);
  EXPECT_FALSE(queue.pop().has_value());
  EXPECT_EQ(queue.stats().popped, 3u);
}

TEST(RemapQueueTest, DropFidPurgesQueuedRequest) {
  RemapQueue queue(4);
  queue.push({1, RemapKind::kDemote, 0, 0});
  queue.push({2, RemapKind::kReslide, 5, 0});
  queue.drop_fid(1);
  queue.drop_fid(9);  // absent: no-op
  EXPECT_EQ(queue.stats().purged, 1u);
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.pop()->fid, 2u);
}

TEST(RemapQueueTest, ZeroDepthThrows) {
  EXPECT_THROW(RemapQueue(0), UsageError);
}

TEST(PlannerConfig, ZeroPlansPerCycleThrows) {
  MigrationPolicy policy;
  policy.max_plans_per_cycle = 0;
  EXPECT_THROW(MigrationPlanner{policy}, UsageError);
}

// --- allocator migration primitives ---------------------------------------

constexpr alloc::StageGeometry kGeom{20, 10};

alloc::AllocationRequest inelastic_two_blocks() {
  alloc::AllocationRequest r;
  r.accesses = {alloc::AccessDemand{4, 2, -1}};
  r.program_length = 12;
  return r;
}

TEST(AllocatorMigration, DemotePromoteRoundTrip) {
  alloc::Allocator alloc(kGeom, 368);
  const auto cache = alloc.allocate(apps::cache_request());
  ASSERT_TRUE(cache.success);
  const auto grown = alloc.regions_of(cache.app);
  u64 grown_blocks = 0;
  for (const auto& [stage, region] : grown) grown_blocks += region.size();
  ASSERT_GT(grown_blocks, grown.size());  // uncapped: more than the minimum

  const auto demoted = alloc.demote_elastic(cache.app);
  EXPECT_TRUE(alloc.demoted(cache.app));
  ASSERT_FALSE(demoted.empty());  // the target's own share moved
  u64 min_blocks = 0;
  for (const auto& [stage, region] : alloc.regions_of(cache.app)) {
    min_blocks += region.size();
  }
  EXPECT_EQ(min_blocks, grown.size());  // one block (the minimum) per stage
  // Idempotent: demoting a demoted app is a graceful no-op.
  EXPECT_TRUE(alloc.demote_elastic(cache.app).empty());

  const auto promoted = alloc.promote_elastic(cache.app);
  EXPECT_FALSE(alloc.demoted(cache.app));
  ASSERT_FALSE(promoted.empty());
  EXPECT_EQ(alloc.regions_of(cache.app), grown);  // share fully restored
  EXPECT_TRUE(alloc.promote_elastic(cache.app).empty());
}

TEST(AllocatorMigration, DemoteRejectsInelasticAndUnknown) {
  alloc::Allocator alloc(kGeom, 368);
  const auto hh = alloc.allocate(apps::hh_request());
  ASSERT_TRUE(hh.success);
  EXPECT_TRUE(alloc.demote_elastic(hh.app).empty());
  EXPECT_FALSE(alloc.demoted(hh.app));
  EXPECT_TRUE(alloc.demote_elastic(12345).empty());
  EXPECT_TRUE(alloc.promote_elastic(12345).empty());
}

TEST(AllocatorMigration, ReslideCompactsAFragmentedStage) {
  // First-fit so the compaction direction is deterministic: freed holes
  // are reused lowest-first.
  alloc::Allocator alloc(kGeom, 8, alloc::Scheme::kFirstFit);
  const auto a = alloc.allocate(inelastic_two_blocks());
  const auto b = alloc.allocate(inelastic_two_blocks());
  const auto c = alloc.allocate(inelastic_two_blocks());
  ASSERT_TRUE(a.success);
  ASSERT_TRUE(b.success);
  ASSERT_TRUE(c.success);
  ASSERT_EQ(a.regions.begin()->first, b.regions.begin()->first);
  ASSERT_EQ(b.regions.begin()->first, c.regions.begin()->first);
  const u32 stage = a.regions.begin()->first;

  alloc.deallocate(b.app);  // two-block hole below c's region
  ASSERT_LT(alloc.stage(stage).largest_free_run(),
            alloc.stage(stage).free_blocks());

  const auto move = alloc.reallocate_app(c.app);
  EXPECT_TRUE(move.success);
  EXPECT_TRUE(move.moved);
  EXPECT_NE(move.old_regions, move.new_regions);
  // The stage is compact again: every free block is in one run.
  EXPECT_EQ(alloc.stage(stage).largest_free_run(),
            alloc.stage(stage).free_blocks());

  // Re-sliding an already-compact resident reports !moved, no disturbance.
  const auto again = alloc.reallocate_app(c.app);
  EXPECT_TRUE(again.success);
  EXPECT_FALSE(again.moved);
  EXPECT_TRUE(again.reallocated.empty());
  EXPECT_FALSE(alloc.reallocate_app(9999).success);
}

// --- planner ---------------------------------------------------------------

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest()
      : pipeline_(rmt::PipelineConfig{}), runtime_(pipeline_),
        controller_(pipeline_, runtime_) {}

  void finalize_if_pending() {
    if (controller_.has_pending()) controller_.force_finalize();
  }

  rmt::Pipeline pipeline_;
  runtime::ActiveRuntime runtime_;
  controller::Controller controller_;
  telemetry::StageHeatmap heatmap_{20};
  alloc::HotnessTable hotness_;
};

TEST_F(PlannerTest, ColdElasticServiceIsDemotedThenPromotedOnRecovery) {
  const auto cache = controller_.admit(apps::cache_request());
  ASSERT_TRUE(cache.admitted);
  finalize_if_pending();

  MigrationPolicy policy;
  policy.cooldown_cycles = 1;
  MigrationPlanner planner(policy);
  RemapQueue queue(8);

  // Nothing proposed while the service has no observed traffic (an empty
  // table must not demote a service that never sent a packet).
  EXPECT_EQ(planner.plan(controller_, hotness_, queue), 0u);

  // Traffic, then silence until cold.
  for (int i = 0; i < 64; ++i) {
    heatmap_.record_read(0, static_cast<i32>(cache.fid));
  }
  for (int i = 0; i < 8; ++i) hotness_.tick(heatmap_);
  ASSERT_TRUE(hotness_.is_cold(static_cast<i32>(cache.fid)));

  ASSERT_EQ(planner.plan(controller_, hotness_, queue), 1u);
  auto request = queue.pop();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->fid, cache.fid);
  EXPECT_EQ(request->kind, RemapKind::kDemote);

  // Execute the demotion, then let the traffic recover: the planner
  // proposes the promotion once the decayed score crosses promote_score.
  const auto result = controller_.migrate(*request);
  ASSERT_TRUE(result.applied);
  if (result.pending) controller_.force_finalize();

  for (int i = 0; i < 512; ++i) {
    heatmap_.record_read(0, static_cast<i32>(cache.fid));
  }
  hotness_.tick(heatmap_);
  ASSERT_GE(hotness_.score(static_cast<i32>(cache.fid)),
            planner.policy().promote_score);
  ASSERT_EQ(planner.plan(controller_, hotness_, queue), 1u);
  request = queue.pop();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->kind, RemapKind::kPromote);
  EXPECT_EQ(planner.stats().demotions_planned, 1u);
  EXPECT_EQ(planner.stats().promotions_planned, 1u);
}

TEST_F(PlannerTest, CooldownSuppressesRePlanning) {
  const auto cache = controller_.admit(apps::cache_request());
  ASSERT_TRUE(cache.admitted);
  finalize_if_pending();
  for (int i = 0; i < 64; ++i) {
    heatmap_.record_read(0, static_cast<i32>(cache.fid));
  }
  for (int i = 0; i < 8; ++i) hotness_.tick(heatmap_);

  MigrationPolicy policy;
  policy.cooldown_cycles = 3;
  MigrationPlanner planner(policy);
  RemapQueue queue(8);
  ASSERT_EQ(planner.plan(controller_, hotness_, queue), 1u);
  queue.pop();  // drain without executing: the service stays cold
  EXPECT_EQ(planner.plan(controller_, hotness_, queue), 0u);
  EXPECT_EQ(planner.plan(controller_, hotness_, queue), 0u);
  EXPECT_EQ(planner.stats().cooldown_skips, 2u);
  // Cooldown expired: re-proposed.
  EXPECT_EQ(planner.plan(controller_, hotness_, queue), 1u);
}

TEST_F(PlannerTest, FragmentedStageYieldsReslideOfTopmostInelastic) {
  // First-fit stacks the three inelastic two-block apps into one stage;
  // releasing the middle one leaves a hole under the topmost region.
  // (Worst-fit would spread them across stages and never fragment.)
  rmt::Pipeline pipeline(rmt::PipelineConfig{});
  runtime::ActiveRuntime runtime(pipeline);
  controller::Controller ctrl(pipeline, runtime, alloc::Scheme::kFirstFit);
  const auto finalize = [&ctrl] {
    if (ctrl.has_pending()) ctrl.force_finalize();
  };
  const auto a = ctrl.admit(inelastic_two_blocks());
  finalize();
  const auto b = ctrl.admit(inelastic_two_blocks());
  finalize();
  const auto c = ctrl.admit(inelastic_two_blocks());
  finalize();
  ASSERT_TRUE(a.admitted && b.admitted && c.admitted);
  ctrl.release(b.fid);

  MigrationPolicy policy;
  policy.min_frag_blocks = 2;
  policy.frag_threshold = 1.0;  // any split free space counts
  MigrationPlanner planner(policy);
  RemapQueue queue(8);
  const u32 planned = planner.plan(ctrl, hotness_, queue);
  ASSERT_GE(planned, 1u);
  bool saw_reslide = false;
  while (auto request = queue.pop()) {
    if (request->kind != RemapKind::kReslide) continue;
    saw_reslide = true;
    EXPECT_EQ(request->fid, c.fid);  // topmost inelastic region
  }
  EXPECT_TRUE(saw_reslide);
  EXPECT_EQ(planner.stats().reslides_planned, planned);
}

TEST_F(PlannerTest, PlanningIsDeterministic) {
  std::vector<Fid> caches;
  for (int i = 0; i < 4; ++i) {
    const auto result = controller_.admit(apps::cache_request());
    ASSERT_TRUE(result.admitted);
    finalize_if_pending();
    caches.push_back(result.fid);
  }
  for (const Fid fid : caches) {
    for (int i = 0; i < 64; ++i) heatmap_.record_read(0, static_cast<i32>(fid));
  }
  for (int i = 0; i < 8; ++i) hotness_.tick(heatmap_);

  const auto drain = [&](RemapQueue& queue) {
    std::vector<std::pair<Fid, RemapKind>> out;
    while (auto request = queue.pop()) out.emplace_back(request->fid, request->kind);
    return out;
  };
  MigrationPlanner p1;
  MigrationPlanner p2;
  RemapQueue q1(16);
  RemapQueue q2(16);
  p1.plan(controller_, hotness_, q1);
  p2.plan(controller_, hotness_, q2);
  const auto first = drain(q1);
  EXPECT_EQ(first, drain(q2));
  ASSERT_EQ(first.size(), 4u);  // every cold cache, ascending FID
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].first, caches[i]);
    EXPECT_EQ(first[i].second, RemapKind::kDemote);
  }
}

// --- Controller::migrate ---------------------------------------------------

class ControllerMigrateTest : public ::testing::Test {
 protected:
  ControllerMigrateTest()
      : pipeline_(rmt::PipelineConfig{}), runtime_(pipeline_),
        controller_(pipeline_, runtime_) {}

  rmt::Pipeline pipeline_;
  runtime::ActiveRuntime runtime_;
  controller::Controller controller_;
};

TEST_F(ControllerMigrateTest, DepartedFidIsGracefulNoop) {
  const auto result = controller_.migrate({999, RemapKind::kDemote, 0, 0});
  EXPECT_FALSE(result.applied);
  EXPECT_FALSE(result.pending);
  EXPECT_TRUE(result.disturbed.empty());
  EXPECT_EQ(controller_.stats().migrations, 0u);
}

TEST_F(ControllerMigrateTest, DemoteRunsSentinelHandshake) {
  const auto cache = controller_.admit(apps::cache_request());
  ASSERT_TRUE(cache.admitted);
  if (controller_.has_pending()) controller_.force_finalize();
  const auto before = controller_.response_for(cache.fid);

  const auto result = controller_.migrate({cache.fid, RemapKind::kDemote, 0, 0});
  EXPECT_TRUE(result.applied);
  ASSERT_TRUE(result.pending);  // uncapped share shrank: handshake runs
  ASSERT_FALSE(result.disturbed.empty());
  EXPECT_TRUE(controller_.has_pending());
  EXPECT_TRUE(runtime_.is_deactivated(cache.fid));
  // A second migration while the handshake is outstanding is a usage bug.
  EXPECT_THROW(controller_.migrate({cache.fid, RemapKind::kPromote, 0, 0}),
               UsageError);

  controller_.force_finalize();
  EXPECT_FALSE(controller_.has_pending());
  EXPECT_FALSE(runtime_.is_deactivated(cache.fid));
  EXPECT_TRUE(controller_.resident(cache.fid));  // no admission rode along
  EXPECT_EQ(controller_.stats().migrations, 1u);
  EXPECT_EQ(controller_.stats().migration_demotions, 1u);

  // Table entries re-synced to the shrunken share: fewer words per stage.
  const auto after = controller_.response_for(cache.fid);
  u64 words_before = 0;
  u64 words_after = 0;
  for (u32 s = 0; s < packet::kResponseStages; ++s) {
    if (before.regions[s].allocated()) {
      words_before += before.regions[s].limit_word - before.regions[s].start_word;
    }
    if (after.regions[s].allocated()) {
      words_after += after.regions[s].limit_word - after.regions[s].start_word;
    }
  }
  EXPECT_LT(words_after, words_before);
}

TEST_F(ControllerMigrateTest, RedundantDemoteIsNoopNotHandshake) {
  const auto cache = controller_.admit(apps::cache_request());
  ASSERT_TRUE(cache.admitted);
  if (controller_.has_pending()) controller_.force_finalize();
  auto result = controller_.migrate({cache.fid, RemapKind::kDemote, 0, 0});
  if (result.pending) controller_.force_finalize();
  ASSERT_TRUE(result.applied);

  result = controller_.migrate({cache.fid, RemapKind::kDemote, 0, 0});
  EXPECT_FALSE(result.applied);
  EXPECT_FALSE(result.pending);
  EXPECT_EQ(controller_.stats().migration_noops, 1u);
  // Promote while nothing was promoted-from: applied, layout restored.
  result = controller_.migrate({cache.fid, RemapKind::kPromote, 0, 0});
  EXPECT_TRUE(result.applied);
  if (result.pending) controller_.force_finalize();
  EXPECT_EQ(controller_.stats().migration_promotions, 1u);
}

TEST_F(ControllerMigrateTest, ReslideSkipsWhenTcamHasNoHeadroom) {
  rmt::PipelineConfig tight;
  tight.tcam_entries_per_stage = 1;
  rmt::Pipeline pipeline(tight);
  runtime::ActiveRuntime runtime(pipeline);
  controller::Controller ctrl(pipeline, runtime);
  const auto cache = ctrl.admit(apps::cache_request());
  ASSERT_TRUE(cache.admitted);
  if (ctrl.has_pending()) ctrl.force_finalize();

  const auto result = ctrl.migrate({cache.fid, RemapKind::kReslide, 0, 0});
  EXPECT_FALSE(result.applied);
  EXPECT_FALSE(result.pending);
  EXPECT_EQ(ctrl.stats().migration_tcam_skips, 1u);
}

// --- end-to-end: the SwitchNode engine -------------------------------------

constexpr packet::MacAddr kSwitchMac = 0x0000aa;
constexpr packet::MacAddr kServerMac = 0x0000bb;
constexpr packet::MacAddr kClientMacBase = 0x000100;

struct Digest {
  u64 h = 1469598103934665603ull;
  void mix(u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

// The migration-parity key: every register word of every stage. Equal
// digests mean the post-migration state (extract -> reallocate ->
// repopulate, plus all surviving residents) is byte-identical.
u64 register_digest(rmt::Pipeline& pipeline) {
  Digest digest;
  for (u32 s = 0; s < pipeline.stage_count(); ++s) {
    rmt::RegisterArray& memory = pipeline.stage(s).memory();
    for (const Word w : memory.dump(0, memory.size())) digest.mix(w);
  }
  return digest.h;
}

struct MigScenarioOut {
  u64 reg_digest = 0;
  u64 reply_digest = 0;
  std::string snapshot;
  SimTime completed_at = 0;
  controller::SwitchNode::MigrationEngineStats engine;
  u64 late_hits = 0;  // tenant 0 hits after the promote window opened
  u64 bad_values = 0;  // hits whose value contradicts the seeded server
};

// Two cache tenants; tenant 1 idles mid-run (cold -> demoted) and then
// resumes (hot -> promoted), both moves disturbing tenant 0, which
// repopulates through the extraction datapath while its traffic keeps
// flowing. Drivable at any shard count, with an optional fault plan.
MigScenarioOut run_mig_scenario(u32 shards, const faults::FaultPlan* plan) {
  netsim::Network net(shards);
  std::unique_ptr<faults::FaultInjector> injector;
  if (plan != nullptr) {
    injector = std::make_unique<faults::FaultInjector>(*plan, shards);
    net.set_transmit_hook(injector.get());
  }

  controller::SwitchNode::Config cfg;
  cfg.costs.table_entry_update = 100 * kMicrosecond;
  cfg.costs.snapshot_per_block = 1 * kMicrosecond;
  cfg.costs.clear_per_block = 1 * kMicrosecond;
  cfg.costs.extraction_timeout = 200 * kMillisecond;
  cfg.compute_model = alloc::ComputeModel::deterministic();
  cfg.metrics = &net.metrics(0);
  cfg.migration.enabled = true;
  cfg.migration.interval = 50 * kMillisecond;
  auto sw = std::make_shared<controller::SwitchNode>("switch", cfg);
  net.attach(sw);
  net.pin(*sw, 0);
  auto server = std::make_shared<apps::ServerNode>("server", kServerMac);
  net.attach(server);
  net.connect(*sw, 0, *server, 0);
  sw->bind(kServerMac, 0);

  constexpr SimTime kStop = 3 * kSecond;
  constexpr SimTime kPause = 1 * kSecond;
  constexpr SimTime kResume = 2'200 * kMillisecond;

  struct Tenant {
    std::shared_ptr<client::ClientNode> client;
    std::shared_ptr<apps::CacheService> cache;
    workload::ZipfGenerator zipf{2'000, 1.2};
    Rng rng{0};
    Digest replies;
    u64 late_hits = 0;
    u64 bad_values = 0;
    SimTime stop_time = 0;
    std::function<void()> drive;  // self-rescheduling request driver
  };
  std::vector<std::unique_ptr<Tenant>> tenants;
  for (u32 i = 0; i < 2; ++i) {
    auto t = std::make_unique<Tenant>();
    t->rng = Rng(1000 + i);
    t->client = std::make_shared<client::ClientNode>(
        "tenant" + std::to_string(i), kClientMacBase + i, kSwitchMac);
    net.attach(t->client);
    net.connect(*sw, i + 1, *t->client, 0);
    sw->bind(kClientMacBase + i, i + 1);
    t->cache = std::make_shared<apps::CacheService>(
        "cache" + std::to_string(i), kServerMac);
    t->client->register_service(t->cache);
    tenants.push_back(std::move(t));
  }

  const auto key_of = [](u32 tenant, u32 rank) {
    return (static_cast<u64>(tenant + 1) << 40) ^
           workload::ZipfGenerator::key_for_rank(rank);
  };
  for (u32 i = 0; i < 2; ++i) {
    for (u32 rank = 0; rank < tenants[i]->zipf.universe(); ++rank) {
      server->put(key_of(i, rank), rank + 1);
    }
  }

  for (u32 i = 0; i < 2; ++i) {
    Tenant& t = *tenants[i];
    t.client->on_passive = [&t](netsim::Frame& frame) {
      const auto msg = apps::KvMessage::parse(std::span<const u8>(frame).subspan(
          packet::EthernetHeader::kWireSize));
      if (msg) t.cache->handle_server_reply(*msg);
    };
    t.cache->on_result = [&t, &net, i](u32 seq, u64 key, u32 value, bool hit) {
      const SimTime now = net.simulator().now();
      if (hit) {
        // Content-preservation check: a hit must serve the seeded value
        // (rank + 1), even right after an extract -> repopulate cycle.
        const u64 base = key ^ (static_cast<u64>(i + 1) << 40);
        if (value != static_cast<u32>(base & 0xffffffff) &&
            value == 0) {
          ++t.bad_values;
        }
        if (i == 0 && now >= kResume) ++t.late_hits;
      }
      t.replies.mix(static_cast<u64>(now));
      t.replies.mix(seq);
      t.replies.mix(key);
      t.replies.mix(value);
      t.replies.mix(hit ? 1 : 0);
    };
    const auto hot_set = [&t, i, key_of] {
      const u32 k = std::min(t.cache->bucket_count(), t.zipf.universe());
      std::vector<std::pair<u64, u32>> out;
      out.reserve(k);
      for (u32 rank = k; rank-- > 0;) out.emplace_back(key_of(i, rank), rank + 1);
      return out;
    };
    t.cache->on_relocated = [&t, hot_set] { t.cache->populate(hot_set()); };

    // Self-rescheduling request driver (runs on the client's shard). The
    // tenant owns it, so the recursive capture is a plain reference --
    // no shared_ptr cycle for LeakSanitizer to flag.
    t.drive = [&t, &net, i, key_of] {
      if (net.simulator().now() >= t.stop_time) return;
      t.cache->get(key_of(i, t.zipf.next_rank(t.rng)));
      net.simulator().schedule_after(500 * kMicrosecond, [&t] { t.drive(); });
    };
    t.cache->on_ready = [&t, hot_set, i] {
      t.cache->populate(hot_set());
      t.stop_time = i == 1 ? kPause : kStop;
      t.drive();
    };
    net.schedule_on(*t.client, (i + 1) * 100 * kMillisecond,
                    [&t] { t.cache->request_allocation(); });
    if (i == 1) {
      net.schedule_on(*t.client, kResume, [&t] {
        t.stop_time = kStop;
        t.drive();
      });
    }
  }

  net.run_until(kStop + kSecond);

  MigScenarioOut out;
  out.reg_digest = register_digest(sw->pipeline());
  Digest combined;
  for (const auto& t : tenants) {
    combined.mix(t->replies.h);
    out.late_hits += t->late_hits;
    out.bad_values += t->bad_values;
  }
  out.reply_digest = combined.h;
  out.completed_at = net.now();
  out.engine = sw->migration_stats();
  telemetry::MetricsRegistry merged;
  net.merge_metrics_into(merged);
  std::ostringstream os;
  merged.snapshot_json(os);
  out.snapshot = os.str();
  return out;
}

TEST(MigrationE2E, ShardCountsProduceByteIdenticalState) {
  const auto one = run_mig_scenario(1, nullptr);
  ASSERT_GE(one.engine.executed, 2u);  // at least the demote and promote
  ASSERT_GE(one.engine.planner.demotions_planned, 1u);
  ASSERT_GE(one.engine.planner.promotions_planned, 1u);
  EXPECT_EQ(one.bad_values, 0u);
  EXPECT_GT(one.late_hits, 0u);  // tenant 0 kept serving post-migration

  for (const u32 shards : {2u, 4u}) {
    const auto result = run_mig_scenario(shards, nullptr);
    EXPECT_EQ(result.reg_digest, one.reg_digest) << shards << " shards";
    EXPECT_EQ(result.reply_digest, one.reply_digest) << shards << " shards";
    EXPECT_EQ(result.snapshot, one.snapshot) << shards << " shards";
    EXPECT_EQ(result.completed_at, one.completed_at) << shards << " shards";
  }
}

TEST(MigrationE2E, SurvivesFaultPlanByteIdenticallyAcrossShards) {
  const auto plan = faults::FaultPlan::uniform_loss(5, 0.02);
  const auto one = run_mig_scenario(1, &plan);
  ASSERT_GE(one.engine.executed, 1u);
  EXPECT_EQ(one.bad_values, 0u);  // loss may cost hits, never wrong values

  for (const u32 shards : {2u, 4u}) {
    const auto result = run_mig_scenario(shards, &plan);
    EXPECT_EQ(result.reg_digest, one.reg_digest) << shards << " shards";
    EXPECT_EQ(result.reply_digest, one.reply_digest) << shards << " shards";
    EXPECT_EQ(result.snapshot, one.snapshot) << shards << " shards";
  }
}

}  // namespace
}  // namespace artmt

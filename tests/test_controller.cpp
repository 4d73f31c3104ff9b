// Tests for the control plane: admission, table installation (including
// the MAR advance chain), snapshots, the reallocation handshake, zeroing,
// release, and cost accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "apps/programs.hpp"
#include "common/rng.hpp"
#include "controller/controller.hpp"

namespace artmt::controller {
namespace {

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest()
      : pipeline_(config()), runtime_(pipeline_),
        controller_(pipeline_, runtime_) {}

  static rmt::PipelineConfig config() {
    rmt::PipelineConfig cfg;  // paper defaults: 20 stages, 368 blocks
    return cfg;
  }

  rmt::Pipeline pipeline_;
  runtime::ActiveRuntime runtime_;
  Controller controller_;
};

TEST_F(ControllerTest, AdmitInstallsEntriesInChosenStages) {
  const auto result = controller_.admit(apps::cache_request());
  ASSERT_TRUE(result.admitted);
  EXPECT_FALSE(result.pending);
  u32 installed = 0;
  for (u32 s = 0; s < pipeline_.stage_count(); ++s) {
    if (pipeline_.stage(s).lookup(result.fid) != nullptr) ++installed;
  }
  EXPECT_EQ(installed, 3u);
  EXPECT_TRUE(controller_.resident(result.fid));
}

TEST_F(ControllerTest, ResponseEncodesWordRegions) {
  const auto result = controller_.admit(apps::cache_request());
  const auto response = controller_.response_for(result.fid);
  u32 allocated_stages = 0;
  for (u32 s = 0; s < packet::kResponseStages; ++s) {
    if (!response.regions[s].allocated()) continue;
    ++allocated_stages;
    const rmt::FidEntry* entry = pipeline_.stage(s).lookup(result.fid);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->start_word, response.regions[s].start_word);
    EXPECT_EQ(entry->limit_word, response.regions[s].limit_word);
  }
  EXPECT_EQ(allocated_stages, 3u);
}

TEST_F(ControllerTest, AdvanceChainLinksAccessStages) {
  const auto result = controller_.admit(apps::cache_request());
  const auto* mutant = controller_.mutant_of(result.fid);
  ASSERT_NE(mutant, nullptr);
  ASSERT_EQ(mutant->size(), 3u);
  const u32 n = pipeline_.config().logical_stages;
  for (std::size_t i = 0; i + 1 < mutant->size(); ++i) {
    const auto* entry =
        pipeline_.stage((*mutant)[i] % n).lookup(result.fid);
    const auto* next =
        pipeline_.stage((*mutant)[i + 1] % n).lookup(result.fid);
    ASSERT_NE(entry, nullptr);
    ASSERT_NE(next, nullptr);
    EXPECT_EQ(entry->advance, static_cast<i32>(next->start_word) -
                                  static_cast<i32>(entry->start_word));
  }
  // The last access's entry does not advance.
  const auto* last = pipeline_.stage(mutant->back() % n).lookup(result.fid);
  EXPECT_EQ(last->advance, 0);
}

TEST_F(ControllerTest, RejectionReportsNoFid) {
  while (controller_.admit(apps::hh_request()).admitted) {
  }
  const auto result = controller_.admit(apps::hh_request());
  EXPECT_FALSE(result.admitted);
  EXPECT_EQ(result.fid, 0);
  EXPECT_GT(controller_.stats().rejections, 0u);
}

TEST_F(ControllerTest, SecondTenantTriggersHandshake) {
  // First-fit makes both caches pick (1,4,8): forced sharing.
  rmt::Pipeline pipe(config());
  runtime::ActiveRuntime rt(pipe);
  Controller ctrl(pipe, rt, alloc::Scheme::kFirstFit);
  const auto first = ctrl.admit(apps::cache_request());
  ASSERT_TRUE(first.admitted);
  const auto second = ctrl.admit(apps::cache_request());
  ASSERT_TRUE(second.admitted);
  ASSERT_TRUE(second.pending);
  ASSERT_EQ(second.disturbed.size(), 1u);
  EXPECT_EQ(second.disturbed[0], first.fid);

  // The disturbed app is quiesced and snapshotted; old entries intact.
  EXPECT_TRUE(rt.is_deactivated(first.fid));
  ASSERT_NE(ctrl.snapshot_of(first.fid), nullptr);

  // The new app's entries are NOT installed until the handshake ends.
  bool installed = false;
  for (u32 s = 0; s < pipe.stage_count(); ++s) {
    installed |= pipe.stage(s).lookup(second.fid) != nullptr;
  }
  EXPECT_FALSE(installed);

  EXPECT_TRUE(ctrl.extraction_complete(first.fid));
  ctrl.apply_pending();
  EXPECT_FALSE(rt.is_deactivated(first.fid));
  installed = false;
  for (u32 s = 0; s < pipe.stage_count(); ++s) {
    installed |= pipe.stage(s).lookup(second.fid) != nullptr;
  }
  EXPECT_TRUE(installed);
}

TEST_F(ControllerTest, SnapshotCapturesOldContents) {
  rmt::Pipeline pipe(config());
  runtime::ActiveRuntime rt(pipe);
  Controller ctrl(pipe, rt, alloc::Scheme::kFirstFit);
  const auto first = ctrl.admit(apps::cache_request());
  // Write a sentinel into the first app's first region.
  const auto regions = ctrl.regions_of(first.fid);
  const auto [stage, interval] = *regions.begin();
  const u32 word = interval.begin * pipe.config().block_words + 5;
  pipe.stage(stage).memory().write(word, 0xfeedface);

  const auto second = ctrl.admit(apps::cache_request());
  ASSERT_TRUE(second.pending);
  const auto* snapshot = ctrl.snapshot_of(first.fid);
  ASSERT_NE(snapshot, nullptr);
  ASSERT_TRUE(snapshot->contains(stage));
  EXPECT_EQ(snapshot->at(stage)[5], 0xfeedfaceu);

  // After the handshake the moved regions are zeroed (isolation).
  ctrl.extraction_complete(first.fid);
  ctrl.apply_pending();
  for (const auto& [s, iv] : ctrl.regions_of(second.fid)) {
    const u32 start = iv.begin * pipe.config().block_words;
    EXPECT_EQ(pipe.stage(s).memory().read(start), 0u);
  }
}

TEST_F(ControllerTest, TimeoutPathFinalizes) {
  rmt::Pipeline pipe(config());
  runtime::ActiveRuntime rt(pipe);
  Controller ctrl(pipe, rt, alloc::Scheme::kFirstFit);
  const auto first = ctrl.admit(apps::cache_request());
  const auto second = ctrl.admit(apps::cache_request());
  ASSERT_TRUE(second.pending);
  ctrl.timeout_pending();
  EXPECT_TRUE(ctrl.pending_ready());
  ctrl.apply_pending();
  EXPECT_FALSE(ctrl.has_pending());
  EXPECT_EQ(ctrl.stats().extraction_timeouts, 1u);
  EXPECT_FALSE(rt.is_deactivated(first.fid));
}

TEST_F(ControllerTest, SerializedAdmissions) {
  rmt::Pipeline pipe(config());
  runtime::ActiveRuntime rt(pipe);
  Controller ctrl(pipe, rt, alloc::Scheme::kFirstFit);
  ctrl.admit(apps::cache_request());
  const auto second = ctrl.admit(apps::cache_request());
  ASSERT_TRUE(second.pending);
  EXPECT_THROW((void)ctrl.admit(apps::cache_request()), UsageError);
  EXPECT_THROW((void)ctrl.release(second.fid), UsageError);
}

TEST_F(ControllerTest, ApplyWithoutReadyThrows) {
  EXPECT_THROW(controller_.apply_pending(), UsageError);
}

TEST_F(ControllerTest, ReleaseRemovesEntriesAndRebalances) {
  rmt::Pipeline pipe(config());
  runtime::ActiveRuntime rt(pipe);
  Controller ctrl(pipe, rt, alloc::Scheme::kFirstFit);
  const auto a = ctrl.admit(apps::cache_request());
  const auto b = ctrl.admit(apps::cache_request());
  ctrl.extraction_complete(a.fid);
  ctrl.apply_pending();

  const auto release = ctrl.release(b.fid);
  EXPECT_FALSE(ctrl.resident(b.fid));
  for (u32 s = 0; s < pipe.stage_count(); ++s) {
    EXPECT_EQ(pipe.stage(s).lookup(b.fid), nullptr);
  }
  // The survivor was rebalanced back to the full pool.
  ASSERT_EQ(release.disturbed.size(), 1u);
  EXPECT_EQ(release.disturbed[0], a.fid);
  for (const auto& [s, iv] : ctrl.regions_of(a.fid)) {
    EXPECT_EQ(iv.size(), pipe.config().blocks_per_stage());
  }
}

TEST_F(ControllerTest, ReleaseUnknownThrows) {
  EXPECT_THROW((void)controller_.release(123), UsageError);
}

TEST_F(ControllerTest, CostsScaleWithDisturbance) {
  rmt::Pipeline pipe(config());
  runtime::ActiveRuntime rt(pipe);
  Controller ctrl(pipe, rt, alloc::Scheme::kFirstFit);
  const auto first = ctrl.admit(apps::cache_request());
  EXPECT_GT(first.table_update_cost, 0);
  EXPECT_EQ(first.snapshot_cost, 0);  // nobody disturbed

  const auto second = ctrl.admit(apps::cache_request());
  EXPECT_GT(second.table_update_cost, first.table_update_cost);
  EXPECT_GT(second.snapshot_cost, 0);
  EXPECT_GT(second.provisioning_time(), first.provisioning_time());
}

TEST(CostModel, TableUpdateTimeBatchedVsUnbatched) {
  CostModel costs;  // defaults: unbatched, 15 ms/entry
  EXPECT_EQ(costs.table_update_time(10, 1), 10 * costs.table_entry_update);
  EXPECT_EQ(costs.table_update_time(0, 0), 0);

  costs.batched_updates = true;
  // One coalesced batch: setup + per-entry streaming cost.
  EXPECT_EQ(costs.table_update_time(10, 1),
            costs.batch_setup + 10 * costs.batched_entry_update);
  EXPECT_EQ(costs.table_update_time(10, 3),
            3 * costs.batch_setup + 10 * costs.batched_entry_update);
  EXPECT_EQ(costs.table_update_time(0, 3), 0);  // nothing to install
  // At the defaults, batching wins whenever a batch has >1 entry.
  EXPECT_LT(costs.table_update_time(10, 1),
            static_cast<SimTime>(10) * CostModel{}.table_entry_update);
}

TEST(CostModel, BatchedAdmissionCoalescesPerApp) {
  rmt::PipelineConfig cfg;
  rmt::Pipeline pipe(cfg);
  runtime::ActiveRuntime rt(pipe);
  CostModel costs;
  costs.batched_updates = true;
  Controller ctrl(pipe, rt, alloc::Scheme::kFirstFit,
                  alloc::MutantPolicy::most_constrained(), costs);

  const auto first = ctrl.admit(apps::cache_request());
  ASSERT_TRUE(first.admitted);
  // Undisturbed admission: a single batch for the new app's entries.
  EXPECT_EQ(first.table_update_batches, 1u);

  const auto second = ctrl.admit(apps::cache_request());
  ASSERT_TRUE(second.admitted);
  ASSERT_EQ(second.disturbed.size(), 1u);
  // One batch for the new app plus one per disturbed app.
  EXPECT_EQ(second.table_update_batches, 2u);
  ctrl.extraction_complete(first.fid);
  ctrl.apply_pending();

  EXPECT_EQ(ctrl.stats().table_update_batches, 3u);

  const auto release = ctrl.release(second.fid);
  EXPECT_EQ(release.table_update_batches, 2u);  // removal + survivor rewrite
}

TEST(CostModel, BatchedAdmissionIsCheaperUnderDisturbance) {
  // Same workload through an unbatched and a batched controller: identical
  // placements (the cost model never affects allocation), strictly smaller
  // table-update cost once installs are coalesced.
  rmt::PipelineConfig cfg;
  CostModel batched;
  batched.batched_updates = true;
  rmt::Pipeline pipe_a(cfg);
  runtime::ActiveRuntime rt_a(pipe_a);
  Controller plain(pipe_a, rt_a, alloc::Scheme::kFirstFit);
  rmt::Pipeline pipe_b(cfg);
  runtime::ActiveRuntime rt_b(pipe_b);
  Controller fast(pipe_b, rt_b, alloc::Scheme::kFirstFit,
                  alloc::MutantPolicy::most_constrained(), batched);

  for (int i = 0; i < 6; ++i) {
    const auto a = plain.admit(apps::cache_request());
    const auto b = fast.admit(apps::cache_request());
    ASSERT_EQ(a.admitted, b.admitted);
    ASSERT_EQ(a.disturbed.size(), b.disturbed.size());
    if (!a.disturbed.empty()) {
      EXPECT_LT(b.table_update_cost, a.table_update_cost);
    }
    for (Controller* c : {&plain, &fast}) {
      if (c->has_pending()) {
        c->timeout_pending();
        c->apply_pending();
      }
    }
  }
  EXPECT_EQ(plain.stats().table_entry_updates, fast.stats().table_entry_updates);
}

TEST_F(ControllerTest, StatsAccumulate) {
  const auto a = controller_.admit(apps::cache_request());
  controller_.admit(apps::lb_request());
  controller_.release(a.fid);
  EXPECT_EQ(controller_.stats().admissions, 2u);
  EXPECT_EQ(controller_.stats().releases, 1u);
  EXPECT_GT(controller_.stats().table_entry_updates, 0u);
}

TEST_F(ControllerTest, FidsAreUniqueAcrossLifetime) {
  const auto a = controller_.admit(apps::cache_request());
  controller_.release(a.fid);
  const auto b = controller_.admit(apps::cache_request());
  EXPECT_NE(a.fid, b.fid);
}

TEST_F(ControllerTest, HeavyHitterAliasSharesOneEntry) {
  const auto result = controller_.admit(apps::hh_request());
  ASSERT_TRUE(result.admitted);
  // Six accesses but only five distinct stages (threshold read/update).
  EXPECT_EQ(controller_.regions_of(result.fid).size(), 5u);
}

TEST_F(ControllerTest, TcamExhaustionRejectsGracefully) {
  rmt::PipelineConfig cfg;
  cfg.tcam_entries_per_stage = 2;  // tiny range-match capacity
  rmt::Pipeline pipe(cfg);
  runtime::ActiveRuntime rt(pipe);
  Controller ctrl(pipe, rt);
  u32 admitted = 0;
  u32 rejected = 0;
  for (int i = 0; i < 20; ++i) {
    const auto result = ctrl.admit(apps::cache_request());
    if (ctrl.has_pending()) {
      ctrl.timeout_pending();
      ctrl.apply_pending();
    }
    if (result.admitted) {
      ++admitted;
    } else {
      ++rejected;
    }
  }
  // The first access stage group has 3 stages x 2 entries = 6 slots.
  EXPECT_EQ(admitted, 6u);
  EXPECT_EQ(rejected, 14u);
  EXPECT_EQ(ctrl.stats().tcam_rejections, 14u);
  // Rejection rolled the allocator back: no ghost residents.
  EXPECT_EQ(ctrl.allocator().resident_count(), admitted);
}

TEST_F(ControllerTest, TcamRejectionFreesMemoryForLaterAdmissions) {
  rmt::PipelineConfig cfg;
  cfg.tcam_entries_per_stage = 1;
  rmt::Pipeline pipe(cfg);
  runtime::ActiveRuntime rt(pipe);
  Controller ctrl(pipe, rt);
  std::vector<Fid> fids;
  for (int i = 0; i < 5; ++i) {
    const auto result = ctrl.admit(apps::cache_request());
    if (ctrl.has_pending()) {
      ctrl.timeout_pending();
      ctrl.apply_pending();
    }
    if (result.admitted) fids.push_back(result.fid);
  }
  ASSERT_EQ(fids.size(), 3u);  // one per first-access stage
  ctrl.release(fids[0]);
  const auto result = ctrl.admit(apps::cache_request());
  EXPECT_TRUE(result.admitted);  // the freed entries are reusable
}

TEST_F(ControllerTest, ProvisioningTimeAroundASecondWhenLoaded) {
  // Fig. 8a: once memory is contended, provisioning lands in the
  // 0.1 s - 3 s band (dominated by table updates).
  for (int i = 0; i < 30; ++i) {
    controller_.admit(apps::cache_request());
    if (controller_.has_pending()) {
      controller_.timeout_pending();
      controller_.apply_pending();
    }
  }
  const auto result = controller_.admit(apps::cache_request());
  ASSERT_TRUE(result.admitted);
  if (controller_.has_pending()) {
    controller_.timeout_pending();
    controller_.apply_pending();
  }
  EXPECT_GT(result.provisioning_time(), 100 * kMillisecond);
  EXPECT_LT(result.provisioning_time(), 3 * kSecond);
}

// --- the handshake's finalize contract ---

// Every range entry `fid` holds, by stage.
std::map<u32, rmt::FidEntry> entries_of(const rmt::Pipeline& pipe, Fid fid) {
  std::map<u32, rmt::FidEntry> out;
  for (u32 s = 0; s < pipe.stage_count(); ++s) {
    if (const rmt::FidEntry* e = pipe.stage(s).lookup(fid)) out[s] = *e;
  }
  return out;
}

bool same_entries(const std::map<u32, rmt::FidEntry>& a,
                  const std::map<u32, rmt::FidEntry>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto& x, const auto& y) {
                      return x.first == y.first &&
                             x.second.start_word == y.second.start_word &&
                             x.second.limit_word == y.second.limit_word &&
                             x.second.mask == y.second.mask &&
                             x.second.offset == y.second.offset &&
                             x.second.advance == y.second.advance;
                    });
}

// apply_pending reactivates exactly the handshake's disturbed FIDs, after
// an admission and after a migration (no new FID), and leaves every other
// resident's entries untouched.
TEST(ControllerFinalize, ReactivatesExactlyTheDisturbed) {
  rmt::Pipeline pipe(rmt::PipelineConfig{});
  runtime::ActiveRuntime rt(pipe);
  Controller ctrl(pipe, rt, alloc::Scheme::kFirstFit);
  const auto first = ctrl.admit(apps::cache_request());
  const auto bystander = ctrl.admit(apps::lb_request());  // pinned: never moves
  ASSERT_TRUE(first.admitted);
  ASSERT_TRUE(bystander.admitted);
  if (ctrl.has_pending()) ctrl.force_finalize();
  const auto bystander_entries = entries_of(pipe, bystander.fid);
  ASSERT_FALSE(bystander_entries.empty());

  const auto expect_handshake = [&](const std::vector<Fid>& disturbed) {
    ASSERT_FALSE(disturbed.empty());
    for (const Fid fid : ctrl.resident_fids()) {
      const bool in_handshake =
          std::find(disturbed.begin(), disturbed.end(), fid) != disturbed.end();
      EXPECT_EQ(rt.is_deactivated(fid), in_handshake) << "fid " << fid;
    }
    for (const Fid fid : disturbed) ctrl.extraction_complete(fid);
    ASSERT_TRUE(ctrl.pending_ready());
    ctrl.apply_pending();
    EXPECT_FALSE(ctrl.has_pending());
    for (const Fid fid : ctrl.resident_fids()) {
      EXPECT_FALSE(rt.is_deactivated(fid)) << "fid " << fid;
    }
    EXPECT_TRUE(same_entries(entries_of(pipe, bystander.fid),
                             bystander_entries));
  };

  const auto second = ctrl.admit(apps::cache_request());
  ASSERT_TRUE(second.pending);
  EXPECT_EQ(second.disturbed, (std::vector<Fid>{first.fid}));
  expect_handshake(second.disturbed);

  RemapRequest demote;
  demote.fid = first.fid;
  demote.kind = RemapKind::kDemote;
  const auto migration = ctrl.migrate(demote);
  ASSERT_TRUE(migration.applied);
  ASSERT_TRUE(migration.pending);
  expect_handshake(migration.disturbed);
  EXPECT_TRUE(ctrl.allocator().demoted(ctrl.app_of(first.fid)));
}

// --- cross-layer agreement over a seeded control sequence ---

u64 fnv_mix(u64 h, u64 v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Small-footprint kinds (as in the churn benchmark) so a paper-geometry
// pipeline holds a few hundred residents and every handshake path fires.
alloc::AllocationRequest audit_request(u64 kind) {
  alloc::AllocationRequest r;
  r.program_length = 4;
  switch (kind) {
    case 0:  // elastic: min 8, cap 64 per stage
      r.accesses = {alloc::AccessDemand{1, 8, -1}};
      r.elastic = true;
      r.elastic_cap_blocks = 64;
      break;
    case 1:  // two pinned rows
      r.accesses = {alloc::AccessDemand{0, 24, -1},
                    alloc::AccessDemand{2, 24, -1}};
      break;
    default:  // one pinned pool
      r.accesses = {alloc::AccessDemand{3, 16, -1}};
      break;
  }
  return r;
}

// Drives admit / extraction_complete / apply_pending / timeout_pending /
// force_finalize / release / migrate from one seed and checks after every
// call that the allocator, the installed range entries and the runtime's
// deactivation set agree.
class ControlSequence {
 public:
  explicit ControlSequence(u64 seed)
      : pipe_(config()), rt_(pipe_), ctrl_(pipe_, rt_), rng_(seed) {
    ctrl_.set_compute_model(alloc::ComputeModel::deterministic());
  }

  static rmt::PipelineConfig config() {
    rmt::PipelineConfig cfg;  // 20 stages x 368 blocks
    cfg.tcam_entries_per_stage = 24;
    return cfg;
  }

  void run(u32 steps) {
    for (u32 i = 0; i < steps; ++i) {
      step();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  [[nodiscard]] u64 digest() const { return digest_; }
  [[nodiscard]] const Controller& ctrl() const { return ctrl_; }

  // FNV-1a over every stage's register words.
  [[nodiscard]] u64 memory_digest() const {
    u64 h = 0xcbf29ce484222325ull;
    for (u32 s = 0; s < pipe_.stage_count(); ++s) {
      const auto& mem = pipe_.stage(s).memory();
      for (const Word w : mem.dump(0, mem.size())) h = fnv_mix(h, w);
    }
    return h;
  }

 private:
  void step() {
    if (ctrl_.has_pending()) {
      finish_handshake();
      return;
    }
    const u64 roll = rng_.uniform(10);
    const auto fids = ctrl_.resident_fids();
    if (roll < 5 || fids.empty()) {
      const AdmissionResult r = ctrl_.admit(audit_request(rng_.uniform(3)));
      record(1, r.fid, static_cast<u64>(r.provisioning_time()),
             r.disturbed.size());
      if (r.admitted) issued_.push_back(r.fid);
      begin_handshake(r.fid, r.disturbed, r.pending);
    } else if (roll < 7) {
      const Fid fid = fids[rng_.uniform(fids.size())];
      const ReleaseResult r = ctrl_.release(fid);
      record(2, fid,
             static_cast<u64>(r.table_update_cost + r.snapshot_cost),
             r.disturbed.size());
      stamp(r.disturbed);
    } else {
      RemapRequest req;
      req.fid = fids[rng_.uniform(fids.size())];
      req.kind = static_cast<RemapKind>(rng_.uniform(3));
      const MigrationResult r = ctrl_.migrate(req);
      record(3, req.fid,
             static_cast<u64>(r.apply_time() + r.snapshot_cost) * 4 +
                 (r.applied ? 2 : 0) + (r.moved ? 1 : 0),
             r.disturbed.size());
      begin_handshake(0, r.disturbed, r.pending);
    }
    audit();
  }

  void begin_handshake(Fid new_fid, const std::vector<Fid>& disturbed,
                       bool pending) {
    new_fid_ = new_fid;
    awaiting_.assign(disturbed.begin(), disturbed.end());
    handshake_ = std::set<Fid>(disturbed.begin(), disturbed.end());
    for (const Fid fid : disturbed) {
      const auto* snap = ctrl_.snapshot_of(fid);
      ASSERT_NE(snap, nullptr);
      for (const auto& [stage, words] : *snap) {
        digest_ = fnv_mix(digest_, stage);
        for (const Word w : words) digest_ = fnv_mix(digest_, w);
      }
    }
    if (!pending) settled();
  }

  // One handshake call per step: a client reports in, the deadline fires,
  // or the (ready) layout is applied.
  void finish_handshake() {
    const u64 roll = rng_.uniform(10);
    if (ctrl_.pending_ready()) {
      if (roll < 5) {
        ctrl_.apply_pending();
      } else {
        ctrl_.force_finalize();
      }
      settled();
    } else if (roll < 7) {
      const std::size_t pick = rng_.uniform(awaiting_.size());
      const Fid fid = awaiting_[pick];
      awaiting_.erase(awaiting_.begin() + static_cast<std::ptrdiff_t>(pick));
      const bool ready = ctrl_.extraction_complete(fid);
      EXPECT_EQ(ready, awaiting_.empty());
    } else if (roll < 8) {
      ctrl_.timeout_pending();
      awaiting_.clear();
    } else {
      ctrl_.force_finalize();
      awaiting_.clear();
      settled();
    }
    audit();
  }

  void settled() {
    std::vector<Fid> moved(handshake_.begin(), handshake_.end());
    if (new_fid_ != 0) moved.push_back(new_fid_);
    stamp(moved);
    handshake_.clear();
    new_fid_ = 0;
  }

  // Writes a per-(fid, stage) sentinel at the start of each fresh region,
  // so later snapshots and the final memory digest see real contents.
  void stamp(const std::vector<Fid>& fids) {
    const u32 block_words = pipe_.config().block_words;
    for (const Fid fid : fids) {
      for (const auto& [stage, region] : ctrl_.regions_of(fid)) {
        pipe_.stage(stage).memory().write(region.begin * block_words,
                                          fid * 100 + stage + 1);
      }
    }
  }

  void record(u64 tag, Fid fid, u64 cost, u64 disturbed) {
    digest_ = fnv_mix(digest_, tag);
    digest_ = fnv_mix(digest_, fid);
    digest_ = fnv_mix(digest_, cost);
    digest_ = fnv_mix(digest_, disturbed);
  }

  void audit() {
    const bool pending = ctrl_.has_pending();
    ASSERT_EQ(pending, !handshake_.empty() || new_fid_ != 0);
    const u32 block_words = pipe_.config().block_words;
    u64 region_count = 0;
    for (const Fid fid : ctrl_.resident_fids()) {
      const auto regions = ctrl_.regions_of(fid);
      region_count += regions.size();
      // Mid-handshake, the disturbed FIDs keep their old entries and the
      // new FID has none until the layout is applied.
      if (handshake_.contains(fid) || fid == new_fid_) continue;
      for (u32 s = 0; s < pipe_.stage_count(); ++s) {
        const rmt::FidEntry* entry = pipe_.stage(s).lookup(fid);
        const auto it = regions.find(s);
        if (it == regions.end()) {
          ASSERT_EQ(entry, nullptr) << "fid " << fid << " stage " << s;
          continue;
        }
        ASSERT_NE(entry, nullptr) << "fid " << fid << " stage " << s;
        ASSERT_EQ(entry->start_word, it->second.begin * block_words);
        ASSERT_EQ(entry->limit_word, it->second.end * block_words);
      }
    }
    if (!pending) {
      u64 tcam = 0;
      for (u32 s = 0; s < pipe_.stage_count(); ++s) {
        tcam += pipe_.stage(s).tcam_used();
      }
      ASSERT_EQ(tcam, region_count);  // no entry for a departed FID
    }
    for (const Fid fid : issued_) {
      ASSERT_EQ(rt_.is_deactivated(fid), handshake_.contains(fid))
          << "fid " << fid;
    }
  }

  rmt::Pipeline pipe_;
  runtime::ActiveRuntime rt_;
  Controller ctrl_;
  Rng rng_;
  u64 digest_ = 0xcbf29ce484222325ull;
  std::vector<Fid> issued_;
  std::set<Fid> handshake_;     // disturbed FIDs of the open handshake
  std::vector<Fid> awaiting_;   // those not yet reported in
  Fid new_fid_ = 0;             // the admission riding the handshake
};

// Pinned values for seed 7: a change to placements, modeled costs, disturbed
// sets, snapshot or register bytes, or stats on this sequence shows here.
TEST(ControllerAudit, LayersAgreeAfterEveryCall) {
  ControlSequence seq(7);
  seq.run(2500);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  EXPECT_EQ(seq.digest(), 0xf49a7c725a232cf1ull);
  EXPECT_EQ(seq.memory_digest(), 0xeec92d0e3ecd3bb1ull);
  EXPECT_EQ(seq.ctrl().allocator().resident_count(), 297u);
  const ControllerStats& st = seq.ctrl().stats();
  EXPECT_EQ(st.admissions, 577u);
  EXPECT_EQ(st.rejections, 216u);
  EXPECT_EQ(st.tcam_rejections, 14u);
  EXPECT_EQ(st.releases, 280u);
  EXPECT_EQ(st.reallocations, 1892u);
  EXPECT_EQ(st.table_entry_updates, 4930u);
  EXPECT_EQ(st.table_update_batches, 2749u);
  EXPECT_EQ(st.blocks_snapshotted, 48970u);
  EXPECT_EQ(st.extraction_timeouts, 931u);
  EXPECT_EQ(st.migrations, 77u);
  EXPECT_EQ(st.migration_noops, 311u);
  EXPECT_EQ(st.migration_demotions, 31u);
  EXPECT_EQ(st.migration_promotions, 5u);
  EXPECT_EQ(st.migration_reslides, 41u);
  EXPECT_EQ(st.migration_tcam_skips, 55u);
  EXPECT_EQ(st.blocks_migrated, 7503u);
}

}  // namespace
}  // namespace artmt::controller

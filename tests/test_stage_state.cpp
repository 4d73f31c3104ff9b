// Tests for per-stage block accounting: inelastic pinning, holes, the
// elastic frontier, and progressive-filling shares (held to a literal
// block-by-block fill, kept here as the oracle).
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <vector>

#include "alloc/stage_state.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace artmt::alloc {
namespace {

TEST(StageState, InelasticPinsToBottom) {
  StageState s(100);
  s.add_inelastic(1, 10);
  s.add_inelastic(2, 5);
  EXPECT_EQ(s.regions().at(1), (Interval{0, 10}));
  EXPECT_EQ(s.regions().at(2), (Interval{10, 15}));
  EXPECT_EQ(s.allocated_blocks(), 15u);
  EXPECT_EQ(s.free_blocks(), 85u);
}

TEST(StageState, DepartureLeavesHoleReusedFirstFit) {
  StageState s(100);
  s.add_inelastic(1, 10);
  s.add_inelastic(2, 5);
  s.add_inelastic(3, 7);
  s.remove_inelastic(2);
  EXPECT_FALSE(s.inelastic_needs_frontier(5));
  s.add_inelastic(4, 4);  // fits the hole at [10, 15)
  EXPECT_EQ(s.regions().at(4), (Interval{10, 14}));
}

TEST(StageState, FrontierRetreatsWhenEdgeFrees) {
  StageState s(100);
  s.add_inelastic(1, 10);
  s.add_inelastic(2, 5);
  s.remove_inelastic(2);
  s.remove_inelastic(1);
  // Everything freed: frontier back at zero, whole pool elastic-capable.
  EXPECT_TRUE(s.elastic_fits(100));
}

TEST(StageState, ElasticSharesSplitEqually) {
  StageState s(100);
  s.add_elastic(1, 1);
  EXPECT_EQ(s.regions().at(1).size(), 100u);
  s.add_elastic(2, 1);
  EXPECT_EQ(s.regions().at(1).size(), 50u);
  EXPECT_EQ(s.regions().at(2).size(), 50u);
  s.add_elastic(3, 1);
  // 100 = 34 + 33 + 33 under progressive filling.
  u32 total = 0;
  for (const auto& [id, region] : s.regions()) {
    EXPECT_GE(region.size(), 33u);
    EXPECT_LE(region.size(), 34u);
    total += region.size();
  }
  EXPECT_EQ(total, 100u);
}

TEST(StageState, ElasticRegionsContiguousAndDisjoint) {
  StageState s(100);
  s.add_inelastic(9, 10);
  s.add_elastic(1, 1);
  s.add_elastic(2, 1);
  const auto& r1 = s.regions().at(1);
  const auto& r2 = s.regions().at(2);
  EXPECT_EQ(r1.begin, 10u);  // elastic pool starts at the frontier
  EXPECT_EQ(r2.begin, r1.end);
  EXPECT_EQ(r2.end, 100u);
}

TEST(StageState, ElasticCapsRespected) {
  StageState s(100);
  s.add_elastic(1, 1, /*cap=*/10);
  s.add_elastic(2, 1);
  EXPECT_EQ(s.regions().at(1).size(), 10u);
  EXPECT_EQ(s.regions().at(2).size(), 90u);
}

TEST(StageState, AllCappedLeavesFreeBlocks) {
  StageState s(100);
  s.add_elastic(1, 1, 5);
  s.add_elastic(2, 1, 5);
  EXPECT_EQ(s.allocated_blocks(), 10u);
  EXPECT_EQ(s.free_blocks(), 90u);
}

TEST(StageState, InelasticSqueezesElastic) {
  StageState s(100);
  s.add_elastic(1, 1);
  EXPECT_EQ(s.regions().at(1).size(), 100u);
  s.add_inelastic(2, 40);
  EXPECT_EQ(s.regions().at(2), (Interval{0, 40}));
  EXPECT_EQ(s.regions().at(1).size(), 60u);
}

TEST(StageState, InelasticFitRespectsElasticMinima) {
  StageState s(100);
  s.add_elastic(1, 30);
  s.add_elastic(2, 30);
  EXPECT_TRUE(s.inelastic_fits(40));
  EXPECT_FALSE(s.inelastic_fits(41));  // would violate the minima
  EXPECT_THROW(s.add_inelastic(3, 41), UsageError);
}

TEST(StageState, ElasticFitRespectsMinima) {
  StageState s(10);
  s.add_elastic(1, 4);
  s.add_elastic(2, 4);
  EXPECT_TRUE(s.elastic_fits(2));
  EXPECT_FALSE(s.elastic_fits(3));
}

TEST(StageState, FungibleCountsFreePlusSqueezable) {
  StageState s(100);
  s.add_inelastic(1, 20);  // fungible: 80 free
  EXPECT_EQ(s.fungible_blocks(), 80u);
  s.add_elastic(2, 5);  // takes all 80, squeezable to 5
  EXPECT_EQ(s.fungible_blocks(), 75u);
  s.remove_inelastic(1);
  // Pool back to 100, all held by app 2 above its 5-block minimum.
  EXPECT_EQ(s.fungible_blocks(), 95u);
}

TEST(StageState, DuplicateAppRejected) {
  StageState s(10);
  s.add_elastic(1, 1);
  EXPECT_THROW(s.add_elastic(1, 1), UsageError);
  EXPECT_THROW(s.add_inelastic(1, 1), UsageError);
}

TEST(StageState, UnknownRemovalRejected) {
  StageState s(10);
  EXPECT_THROW(s.remove_elastic(9), UsageError);
  EXPECT_THROW(s.remove_inelastic(9), UsageError);
}

TEST(StageState, ZeroDemandsRejected) {
  StageState s(10);
  EXPECT_THROW((void)s.inelastic_fits(0), UsageError);
  EXPECT_THROW((void)s.elastic_fits(0), UsageError);
}

TEST(StageState, RemoveElasticRedistributes) {
  StageState s(90);
  s.add_elastic(1, 1);
  s.add_elastic(2, 1);
  s.add_elastic(3, 1);
  s.remove_elastic(2);
  EXPECT_EQ(s.regions().at(1).size(), 45u);
  EXPECT_EQ(s.regions().at(3).size(), 45u);
}

TEST(StageState, MinimaHonoredUnderContention) {
  StageState s(10);
  s.add_elastic(1, 3);
  s.add_elastic(2, 3);
  s.add_elastic(3, 3);
  for (const auto& [id, region] : s.regions()) {
    EXPECT_GE(region.size(), 3u);
  }
  EXPECT_EQ(s.allocated_blocks(), 10u);
}

TEST(StageState, LastChangedReportsMovedMembersOnly) {
  StageState s(100);
  s.add_elastic(1, 1);
  s.add_elastic(2, 1);
  // Adding app 2 split app 1's region: both moved.
  EXPECT_EQ(s.last_changed(), (std::vector<AppId>{1, 2}));
  // Squeezing the elastic pool moves 1 and 2; the pinned newcomer itself is
  // not an elastic member and is never reported.
  s.add_inelastic(3, 10);
  EXPECT_EQ(s.last_changed(), (std::vector<AppId>{1, 2}));
  s.remove_inelastic(3);
  EXPECT_EQ(s.last_changed(), (std::vector<AppId>{1, 2}));
}

TEST(StageState, LastChangedEmptyWhenLayoutUndisturbed) {
  StageState s(100);
  s.add_inelastic(1, 10);
  s.add_inelastic(2, 5);
  // Pinned regions never move; removing a non-edge member disturbs nobody.
  s.remove_inelastic(2);
  EXPECT_TRUE(s.last_changed().empty());
}

TEST(StageState, LargestFreeRunTracksHoles) {
  StageState s(100);
  EXPECT_EQ(s.largest_free_run(), 100u);
  s.add_inelastic(1, 10);
  s.add_inelastic(2, 5);
  s.add_inelastic(3, 7);
  EXPECT_EQ(s.largest_free_run(), 78u);  // [22, 100)
  s.remove_inelastic(2);
  EXPECT_EQ(s.largest_free_run(), 78u);  // hole [10, 15) is smaller
  s.remove_inelastic(3);
  EXPECT_EQ(s.largest_free_run(), 90u);  // coalesced [10, 100)
}

TEST(StageState, MaxInelasticFitAccountsForElasticSqueeze) {
  StageState s(100);
  EXPECT_EQ(s.max_inelastic_fit(), 100u);
  s.add_elastic(1, 30);  // takes the whole pool, squeezable back to 30
  EXPECT_EQ(s.max_inelastic_fit(), 70u);
  s.add_inelastic(2, 20);
  EXPECT_EQ(s.max_inelastic_fit(), 50u);
  s.remove_inelastic(2);
  EXPECT_EQ(s.max_inelastic_fit(), 70u);
}

TEST(StageState, IncrementalAccountingMatchesRegionSum) {
  // allocated_blocks()/fungible_blocks() are maintained incrementally;
  // they must always agree with a from-scratch sum over regions().
  StageState s(368);
  s.add_inelastic(1, 40);
  s.add_elastic(2, 10, 60);
  s.add_elastic(3, 5);
  s.remove_inelastic(1);
  s.add_inelastic(4, 25);
  s.remove_elastic(2);
  u32 sum = 0;
  for (const auto& [id, region] : s.regions()) sum += region.size();
  EXPECT_EQ(s.allocated_blocks(), sum);
  EXPECT_EQ(s.free_blocks(), 368u - sum);
  // fungible = free + elastic squeeze (app 3 holds everything above min 5).
  EXPECT_EQ(s.fungible_blocks(), s.free_blocks() + s.regions().at(3).size() - 5);
}

// Property: random churn keeps regions disjoint and within capacity.
TEST(StageState, PropertyChurnKeepsInvariants) {
  StageState s(368);
  u32 next_id = 1;
  std::vector<std::pair<u32, bool>> resident;  // (id, elastic)
  u64 seed = 12345;
  auto rand = [&seed] {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<u32>(seed >> 33);
  };
  for (int step = 0; step < 300; ++step) {
    if (resident.size() > 4 && rand() % 3 == 0) {
      const auto pick = rand() % resident.size();
      const auto [id, elastic] = resident[pick];
      if (elastic) {
        s.remove_elastic(id);
      } else {
        s.remove_inelastic(id);
      }
      resident.erase(resident.begin() + pick);
    } else {
      const bool elastic = rand() % 2 == 0;
      const u32 demand = rand() % 8 + 1;
      const u32 id = next_id++;
      if (elastic ? s.elastic_fits(demand) : s.inelastic_fits(demand)) {
        if (elastic) {
          s.add_elastic(id, demand);
        } else {
          s.add_inelastic(id, demand);
        }
        resident.push_back({id, elastic});
      }
    }
    // Invariants: disjoint regions, all within capacity.
    std::vector<Interval> regions;
    for (const auto& [id, region] : s.regions()) regions.push_back(region);
    for (std::size_t i = 0; i < regions.size(); ++i) {
      ASSERT_LE(regions[i].end, 368u);
      for (std::size_t j = i + 1; j < regions.size(); ++j) {
        ASSERT_FALSE(regions[i].overlaps(regions[j]));
      }
    }
    ASSERT_EQ(s.regions().size(), resident.size());
  }
}

// --- the share fill against its oracle ---

struct OracleMember {
  AppId id;
  u32 min_blocks;
  u32 cap_blocks;  // 0 = uncapped
};

// Literal progressive filling: every member starts at its minimum share,
// then one block at a time goes to the member with the smallest
// (share, index) that is below its cap (a cap below the minimum saturates
// the member at its minimum). StageState::rebalance computes the same
// shares in closed form.
std::vector<u32> oracle_fill(u32 pool, const std::vector<OracleMember>& members) {
  std::vector<u32> share(members.size());
  u32 used = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    share[i] = members[i].min_blocks;
    used += share[i];
  }
  using Entry = std::pair<u32, std::size_t>;  // (share, member index)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (std::size_t i = 0; i < members.size(); ++i) heap.emplace(share[i], i);
  u32 remaining = pool - used;
  while (remaining > 0 && !heap.empty()) {
    const auto [s, i] = heap.top();
    heap.pop();
    if (s != share[i]) continue;  // stale entry
    const u32 cap = members[i].cap_blocks;
    if (cap != 0 && share[i] >= cap) continue;  // member is saturated
    ++share[i];
    --remaining;
    heap.emplace(share[i], i);
  }
  return share;
}

// The elastic regions the oracle expects: contiguous from the pool start
// in arrival order.
std::map<AppId, Interval> oracle_regions(
    u32 pool_start, u32 pool, const std::vector<OracleMember>& members) {
  const auto share = oracle_fill(pool, members);
  std::map<AppId, Interval> out;
  u32 cursor = pool_start;
  for (std::size_t i = 0; i < members.size(); ++i) {
    out[members[i].id] = Interval{cursor, cursor + share[i]};
    cursor += share[i];
  }
  return out;
}

// The elastic pool starts at the frontier: capacity - headroom - minima.
u32 pool_start_of(const StageState& s,
                  const std::vector<OracleMember>& members) {
  u32 minima = 0;
  for (const auto& m : members) minima += m.min_blocks;
  return s.capacity() - s.elastic_headroom() - minima;
}

void expect_oracle_layout(const StageState& s,
                          const std::vector<OracleMember>& members) {
  const u32 start = pool_start_of(s, members);
  const auto expected =
      oracle_regions(start, s.capacity() - start, members);
  for (const auto& [id, region] : expected) {
    ASSERT_TRUE(s.has_app(id)) << "member " << id;
    ASSERT_EQ(s.regions().at(id), region) << "member " << id;
  }
}

// Member-set families: each covers one corner of the fill.
enum class Family { kEmpty, kMinimaFillPool, kUncapped, kCapBelowMin,
                    kDemoted, kMixed };

TEST(StageStateOracle, FillMatchesOracleOnRandomMemberSets) {
  constexpr Family kFamilies[] = {Family::kEmpty,       Family::kMinimaFillPool,
                                  Family::kUncapped,    Family::kCapBelowMin,
                                  Family::kDemoted,     Family::kMixed};
  Rng rng(2023);
  u64 compared = 0;
  u64 exact_fills = 0;
  for (u32 trial = 0; trial < 120'000; ++trial) {
    const Family family = kFamilies[trial % 6];
    const u32 capacity = static_cast<u32>(rng.uniform_range(1, 256));
    StageState s(capacity);
    // A pinned prefix moves the frontier off zero in half the sets.
    const u32 pinned =
        rng.uniform(2) == 0 ? static_cast<u32>(rng.uniform(capacity / 2 + 1)) : 0;
    if (pinned > 0) s.add_inelastic(9999, pinned);
    const u32 pool = capacity - pinned;
    const u32 n = family == Family::kEmpty
                      ? 0
                      : static_cast<u32>(rng.uniform_range(1, 12));
    std::vector<OracleMember> members;
    u32 minima = 0;
    for (u32 i = 0; i < n; ++i) {
      u32 min_blocks = static_cast<u32>(rng.uniform_range(1, 16));
      if (family == Family::kMinimaFillPool && i + 1 == n) {
        if (minima >= pool) break;
        min_blocks = pool - minima;  // the minima fill the pool exactly
      }
      if (minima + min_blocks > pool) break;
      u32 cap = 0;
      switch (family) {
        case Family::kEmpty:
        case Family::kUncapped:
          break;
        case Family::kMinimaFillPool:
        case Family::kMixed:
          switch (rng.uniform(4)) {
            case 0: cap = 0; break;
            case 1: cap = static_cast<u32>(rng.uniform(min_blocks)); break;
            case 2: cap = min_blocks; break;
            default:
              cap = min_blocks + static_cast<u32>(rng.uniform_range(1, 64));
          }
          break;
        case Family::kCapBelowMin:
          cap = rng.uniform(2) == 0
                    ? static_cast<u32>(rng.uniform(min_blocks))
                    : min_blocks + static_cast<u32>(rng.uniform(64));
          break;
        case Family::kDemoted:
          cap = rng.uniform(2) == 0
                    ? min_blocks
                    : min_blocks + static_cast<u32>(rng.uniform(64));
          break;
      }
      const AppId id = i + 1;
      s.add_elastic(id, min_blocks, cap);
      members.push_back(OracleMember{id, min_blocks, cap});
      minima += min_blocks;
    }
    expect_oracle_layout(s, members);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "trial " << trial << " capacity " << capacity << " pinned "
             << pinned;
    }
    if (family == Family::kEmpty) {
      EXPECT_EQ(s.allocated_blocks(), pinned);
    }
    if (family == Family::kMinimaFillPool && minima == pool) {
      EXPECT_EQ(s.free_blocks(), 0u);
      ++exact_fills;
    }
    ++compared;
  }
  EXPECT_EQ(compared, 120'000u);
  EXPECT_GT(exact_fills, 10'000u);
}

// Seeded operation sequences: after every applied step the elastic layout
// equals the oracle's, and last_changed() names exactly the elastic
// members whose regions moved (newcomers included).
TEST(StageStateOracle, FillMatchesOracleAcrossOperationSequences) {
  Rng rng(368);
  for (u32 seq = 0; seq < 300; ++seq) {
    const u32 capacity = static_cast<u32>(rng.uniform_range(16, 368));
    StageState s(capacity);
    std::vector<OracleMember> elastic;
    std::vector<AppId> pinned;
    AppId next_id = 1;
    auto prev = s.regions();
    for (u32 step = 0; step < 200; ++step) {
      bool applied = false;
      switch (rng.uniform(5)) {
        case 0: {  // add_elastic (caps: none, below min, at min, above)
          const u32 min_blocks = static_cast<u32>(rng.uniform_range(1, 12));
          const u32 roll = static_cast<u32>(rng.uniform(4));
          const u32 cap = roll == 0   ? 0
                          : roll == 1 ? static_cast<u32>(rng.uniform(min_blocks))
                          : roll == 2 ? min_blocks
                                      : min_blocks + static_cast<u32>(
                                                         rng.uniform_range(1, 40));
          if (!s.elastic_fits(min_blocks)) break;
          s.add_elastic(next_id, min_blocks, cap);
          elastic.push_back(OracleMember{next_id++, min_blocks, cap});
          applied = true;
          break;
        }
        case 1: {  // remove_elastic
          if (elastic.empty()) break;
          const std::size_t pick = rng.uniform(elastic.size());
          s.remove_elastic(elastic[pick].id);
          elastic.erase(elastic.begin() + static_cast<std::ptrdiff_t>(pick));
          applied = true;
          break;
        }
        case 2: {  // set_elastic_cap: demote, restore, uncap, or raise
          if (elastic.empty()) break;
          OracleMember& m = elastic[rng.uniform(elastic.size())];
          const u32 roll = static_cast<u32>(rng.uniform(3));
          const u32 cap = roll == 0   ? 0
                          : roll == 1 ? m.min_blocks
                                      : m.min_blocks + static_cast<u32>(
                                                           rng.uniform(40));
          s.set_elastic_cap(m.id, cap);
          m.cap_blocks = cap;
          applied = true;
          break;
        }
        case 3: {  // add_inelastic
          const u32 demand = static_cast<u32>(rng.uniform_range(1, 24));
          if (!s.inelastic_fits(demand)) break;
          s.add_inelastic(next_id, demand);
          pinned.push_back(next_id++);
          applied = true;
          break;
        }
        default: {  // remove_inelastic
          if (pinned.empty()) break;
          const std::size_t pick = rng.uniform(pinned.size());
          s.remove_inelastic(pinned[pick]);
          pinned.erase(pinned.begin() + static_cast<std::ptrdiff_t>(pick));
          applied = true;
          break;
        }
      }
      if (!applied) continue;
      const u32 start = pool_start_of(s, elastic);
      const auto expected =
          oracle_regions(start, s.capacity() - start, elastic);
      std::vector<AppId> moved;
      for (const auto& [id, region] : expected) {
        ASSERT_EQ(s.regions().at(id), region)
            << "sequence " << seq << " step " << step << " member " << id;
        const auto before = prev.find(id);
        if (before == prev.end() || before->second != region) {
          moved.push_back(id);
        }
      }
      ASSERT_EQ(s.last_changed(), moved)
          << "sequence " << seq << " step " << step;
      prev = s.regions();
    }
  }
}

}  // namespace
}  // namespace artmt::alloc

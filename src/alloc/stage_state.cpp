#include "alloc/stage_state.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace artmt::alloc {

StageState::StageState(u32 capacity_blocks) : capacity_(capacity_blocks) {
  if (capacity_blocks == 0) throw UsageError("StageState: zero capacity");
}

bool StageState::inelastic_fits(u32 demand) const {
  if (demand == 0) throw UsageError("StageState: zero inelastic demand");
  if (holes_.max_size() >= demand) return true;
  // Extend the frontier: elastic members can be squeezed to their minima.
  return capacity_ - frontier_ >= demand + elastic_min_total_;
}

bool StageState::inelastic_needs_frontier(u32 demand) const {
  return holes_.max_size() < demand;
}

u32 StageState::max_inelastic_fit() const {
  const u32 pool = capacity_ - frontier_;
  const u32 frontier_room =
      pool > elastic_min_total_ ? pool - elastic_min_total_ : 0;
  return std::max(holes_.max_size(), frontier_room);
}

u32 StageState::largest_free_run() const {
  const u32 tail = capacity_ - layout_end_;
  return std::max(holes_.max_size(), tail);
}

void StageState::add_inelastic(AppId id, u32 demand) {
  if (regions_.contains(id)) {
    throw UsageError("StageState: app already resident in stage");
  }
  Interval region;
  if (const auto hole = holes_.find_first_fit(demand)) {
    region = Interval{hole->begin, hole->begin + demand};
    holes_.remove(region);
  } else {
    if (capacity_ - frontier_ < demand + elastic_min_total_) {
      throw UsageError("StageState: inelastic demand does not fit");
    }
    region = Interval{frontier_, frontier_ + demand};
    frontier_ += demand;
  }
  inelastic_[id] = region;
  regions_[id] = region;
  inelastic_total_ += demand;
  rebalance();
}

void StageState::remove_inelastic(AppId id) {
  const auto it = inelastic_.find(id);
  if (it == inelastic_.end()) {
    throw UsageError("StageState: unknown inelastic app");
  }
  holes_.insert(it->second);
  inelastic_total_ -= it->second.size();
  inelastic_.erase(it);
  regions_.erase(id);
  // Return frontier-adjacent free space to the elastic pool.
  while (true) {
    const auto& hs = holes_.intervals();
    if (hs.empty() || hs.back().end != frontier_) break;
    const Interval tail = hs.back();  // copy: remove() mutates the set
    frontier_ = tail.begin;
    holes_.remove(tail);
  }
  rebalance();
}

bool StageState::elastic_fits(u32 min_blocks) const {
  if (min_blocks == 0) throw UsageError("StageState: zero elastic minimum");
  return elastic_headroom() >= min_blocks;
}

void StageState::add_elastic(AppId id, u32 min_blocks, u32 cap_blocks) {
  if (regions_.contains(id)) {
    throw UsageError("StageState: app already resident in stage");
  }
  if (!elastic_fits(min_blocks)) {
    throw UsageError("StageState: elastic minimum does not fit");
  }
  elastic_.push_back(ElasticMember{id, min_blocks, cap_blocks});
  elastic_min_total_ += min_blocks;
  rebalance();
}

void StageState::remove_elastic(AppId id) {
  const auto it =
      std::find_if(elastic_.begin(), elastic_.end(),
                   [id](const ElasticMember& m) { return m.id == id; });
  if (it == elastic_.end()) throw UsageError("StageState: unknown elastic app");
  elastic_min_total_ -= it->min_blocks;
  elastic_.erase(it);
  regions_.erase(id);
  rebalance();
}

void StageState::set_elastic_cap(AppId id, u32 cap_blocks) {
  const auto it =
      std::find_if(elastic_.begin(), elastic_.end(),
                   [id](const ElasticMember& m) { return m.id == id; });
  if (it == elastic_.end()) throw UsageError("StageState: unknown elastic app");
  if (cap_blocks != 0 && cap_blocks < it->min_blocks) {
    throw UsageError("StageState: elastic cap below minimum");
  }
  if (it->cap_blocks == cap_blocks) {
    changed_.clear();  // no-op: nothing rebalances, nobody is disturbed
    return;
  }
  it->cap_blocks = cap_blocks;
  rebalance();
}

namespace {

// A member's share at water level `level`: its minimum raised to the level,
// held at its cap (0 = uncapped; a cap below the minimum saturates the
// member at its minimum).
u32 share_at(u32 level, u32 min_blocks, u32 cap_blocks) {
  const u32 share = std::max(level, min_blocks);
  if (cap_blocks == 0) return share;
  return std::min(share, std::max(cap_blocks, min_blocks));
}

}  // namespace

void StageState::rebalance() {
  const u32 pool = capacity_ - frontier_;
  // Progressive filling (the paper's max-min approximation) in closed
  // form. Filling block by block from the minima, always to the member
  // with the smallest (share, index) below its cap, ends at the highest
  // water level L with sum(share_at(L)) <= pool; the r blocks left over
  // go one each to the lowest-index members sitting at exactly L below
  // their cap. The oracle test in test_stage_state.cpp holds this to the
  // block-by-block fill.
  const auto filled = [&](u32 level) {
    u64 total = 0;
    for (const ElasticMember& m : elastic_) {
      total += share_at(level, m.min_blocks, m.cap_blocks);
    }
    return total;
  };
  if (filled(0) > pool) {
    throw UsageError("StageState::rebalance: minima exceed pool");
  }
  u32 level = 0;  // filled(level) <= pool throughout
  u32 hi = pool;  // a higher level fits only if it changes no share
  while (level < hi) {
    const u32 mid = static_cast<u32>((u64{level} + hi + 1) / 2);
    if (filled(mid) <= pool) {
      level = mid;
    } else {
      hi = mid - 1;
    }
  }
  std::vector<u32> share(elastic_.size());
  u64 leftover = pool - filled(level);
  for (std::size_t i = 0; i < elastic_.size(); ++i) {
    const ElasticMember& m = elastic_[i];
    share[i] = share_at(level, m.min_blocks, m.cap_blocks);
    if (leftover > 0 && share[i] == level &&
        share_at(level + 1, m.min_blocks, m.cap_blocks) > level) {
      ++share[i];
      --leftover;
    }
  }

  // Contiguous layout in arrival order, with regions_ updated in place and
  // every moved member recorded for the allocator's disturbance report.
  changed_.clear();
  u32 cursor = frontier_;
  u32 share_total = 0;
  for (std::size_t i = 0; i < elastic_.size(); ++i) {
    const Interval region{cursor, cursor + share[i]};
    auto [it, inserted] = regions_.try_emplace(elastic_[i].id, region);
    if (!inserted) {
      if (it->second != region) {
        it->second = region;
        changed_.push_back(elastic_[i].id);
      }
    } else {
      changed_.push_back(elastic_[i].id);
    }
    cursor += share[i];
    share_total += share[i];
  }
  layout_end_ = cursor;
  elastic_share_total_ = share_total;
  std::sort(changed_.begin(), changed_.end());
}

}  // namespace artmt::alloc

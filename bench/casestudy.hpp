// Shared testbed for the case-study figures (9 and 10): an event-driven
// network with one switch, one application server, and N cache tenants
// issuing Zipf-distributed object requests. Collects windowed hit rates.
#pragma once

#include <cstdio>
#include <memory>
#include <vector>

#include "apps/cache_service.hpp"
#include "apps/hh_service.hpp"
#include "apps/server_node.hpp"
#include "client/client_node.hpp"
#include "controller/switch_node.hpp"
#include "workload/zipf.hpp"

namespace artmt::bench {

constexpr packet::MacAddr kSwitchMac = 0x0000aa;
constexpr packet::MacAddr kServerMac = 0x0000bb;
constexpr packet::MacAddr kClientMacBase = 0x000100;

// One tenant: a client node with a cache service and a Zipf request
// stream over a private key space.
class Tenant {
 public:
  Tenant(netsim::Network& net, controller::SwitchNode& sw, u32 index,
         u32 universe, double alpha, double requests_per_second, u64 seed)
      : net_(&net),
        index_(index),
        zipf_(universe, alpha),
        rng_(seed),
        gap_ns_(static_cast<SimTime>(1e9 / requests_per_second)) {
    client_ = std::make_shared<client::ClientNode>(
        "tenant" + std::to_string(index), kClientMacBase + index, kSwitchMac);
    net.attach(client_);
    net.connect(sw, index + 1, *client_, 0);
    sw.bind(kClientMacBase + index, index + 1);

    cache_ = std::make_shared<apps::CacheService>(
        "cache" + std::to_string(index), kServerMac);
    client_->register_service(cache_);
    client_->on_passive = [this](netsim::Frame& frame) {
      const auto msg = apps::KvMessage::parse(std::span<const u8>(frame).subspan(
          packet::EthernetHeader::kWireSize));
      if (msg) cache_->handle_server_reply(*msg);
    };
    cache_->on_result = [this](u32, u64, u32, bool hit) {
      record(hit);
    };
  }

  // Keys are private to the tenant (disjoint cache contents).
  u64 key_for_rank(u32 rank) const {
    return (static_cast<u64>(index_ + 1) << 40) ^
           workload::ZipfGenerator::key_for_rank(rank);
  }

  // Starts the request stream (continues until stop_time).
  void start_traffic(SimTime stop_time) {
    stop_time_ = stop_time;
    tick();
  }

  // Seeds the authoritative store for this tenant's keys.
  void seed_server(apps::ServerNode& server) const {
    for (u32 rank = 0; rank < zipf_.universe(); ++rank) {
      server.put(key_for_rank(rank), rank + 1);
    }
  }

  // The ideal hot set: the top-k most popular keys, ordered least-popular
  // first so that on bucket collisions the LAST write -- the most popular
  // key -- wins (the "most-frequent key per bucket" policy of Section
  // 3.4's cache-management discussion).
  std::vector<std::pair<u64, u32>> hot_set(u32 k) const {
    k = std::min(k, zipf_.universe());
    std::vector<std::pair<u64, u32>> out;
    out.reserve(k);
    for (u32 rank = k; rank-- > 0;) {
      out.emplace_back(key_for_rank(rank), rank + 1);
    }
    return out;
  }

  // As much of the hot set as the current allocation can hold.
  std::vector<std::pair<u64, u32>> hot_set_for_allocation() const {
    return hot_set(cache_->bucket_count());
  }

  // Windowed hit-rate series: one point per window_ns of traffic.
  void set_window(SimTime window_ns) { window_ns_ = window_ns; }
  [[nodiscard]] const std::vector<std::pair<double, double>>& windows()
      const {
    return windows_;
  }

  apps::CacheService& cache() { return *cache_; }
  client::ClientNode& client() { return *client_; }
  const workload::ZipfGenerator& zipf() const { return zipf_; }

 private:
  void tick() {
    if (net_->now() >= stop_time_) return;
    const u32 rank = zipf_.next_rank(rng_);
    cache_->get(key_for_rank(rank));
    net_->simulator().schedule_after(gap_ns_, [this] { tick(); });
  }

  void record(bool hit) {
    const SimTime now = net_->now();
    if (window_start_ < 0) window_start_ = now;
    if (now - window_start_ >= window_ns_) {
      windows_.emplace_back(window_start_ / 1e9, window_hits_ > 0 || window_total_ > 0
                                                     ? static_cast<double>(window_hits_) /
                                                           std::max<u64>(1, window_total_)
                                                     : 0.0);
      window_start_ = now;
      window_hits_ = 0;
      window_total_ = 0;
    }
    ++window_total_;
    if (hit) ++window_hits_;
  }

  netsim::Network* net_;
  u32 index_;
  workload::ZipfGenerator zipf_;
  Rng rng_;
  SimTime gap_ns_;
  SimTime stop_time_ = 0;
  std::shared_ptr<client::ClientNode> client_;
  std::shared_ptr<apps::CacheService> cache_;

  SimTime window_ns_ = 100 * kMillisecond;
  SimTime window_start_ = -1;
  u64 window_hits_ = 0;
  u64 window_total_ = 0;
  std::vector<std::pair<double, double>> windows_;
};

struct CaseStudyBed {
  explicit CaseStudyBed(u32 tenants, u32 universe = 10'000,
                        double alpha = 1.2,
                        double requests_per_second = 5'000)
      : net(0) {
    controller::SwitchNode::Config cfg;
    cfg.policy = alloc::MutantPolicy::most_constrained();
    sw = std::make_shared<controller::SwitchNode>("switch", cfg);
    net.attach(sw);
    server = std::make_shared<apps::ServerNode>("server", kServerMac);
    net.attach(server);
    net.connect(*sw, 0, *server, 0);
    sw->bind(kServerMac, 0);
    for (u32 i = 0; i < tenants; ++i) {
      tenant.push_back(std::make_unique<Tenant>(
          net, *sw, i, universe, alpha, requests_per_second, 77 + i));
      tenant.back()->seed_server(*server);
    }
  }

  netsim::Network net;
  std::shared_ptr<controller::SwitchNode> sw;
  std::shared_ptr<apps::ServerNode> server;
  std::vector<std::unique_ptr<Tenant>> tenant;
};

inline void print_windows(const char* label, const Tenant& tenant,
                          std::size_t stride = 1) {
  std::printf("# %s: time_s,hit_rate\n", label);
  const auto& windows = tenant.windows();
  for (std::size_t i = 0; i < windows.size(); i += stride) {
    std::printf("%.2f,%.3f\n", windows[i].first, windows[i].second);
  }
}

}  // namespace artmt::bench

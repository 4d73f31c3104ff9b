// Scenario building blocks: the single-switch testbed of the paper's
// case study (Section 6.3, Figs. 9-10), its leaf-spine twin, the cache
// tenant that runs on either, and the leaf-spine failure drill. Tests, benches, tools and examples
// build their runs from these instead of wiring nodes by hand, so every
// run of the scenario shares one set of conventions (MACs, ports, attach
// order, key spaces, reply digests).
//
// Conventions (see docs/ARCHITECTURE.md, "Scenario building blocks"):
//   Star       switch "switch", attach index 0, pinned to shard 0;
//              clients address control capsules to kSwitchMac. Server
//              "server", kServerMac, switch port 0, attach index 1. The
//              k-th add_client(): switch port k + 1, MAC kClientMacBase + k.
//   LeafSpine  fabric::Topology's nodes first; server "server",
//              kServerMac, on its leaf, attached next. The k-th
//              add_client(name, leaf): MAC kClientMacBase + k, control
//              capsules to the global controller, the next host port of
//              `leaf` (host ports count up from `spines`), pinned to
//              shard leaf % shards.
// Hosts attach in call order, so attach indices (and with them fault
// keys and span ids) follow the order of the builder calls.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/cache_service.hpp"
#include "apps/server_node.hpp"
#include "client/client_node.hpp"
#include "common/digest.hpp"
#include "common/rng.hpp"
#include "controller/cost_model.hpp"
#include "controller/switch_node.hpp"
#include "fabric/global_controller.hpp"
#include "fabric/topology.hpp"
#include "faults/fault_plan.hpp"
#include "netsim/network.hpp"
#include "rmt/pipeline.hpp"
#include "workload/zipf.hpp"

namespace artmt::scenario {

// Control-plane costs shrunk so multi-tenant runs converge in
// milliseconds of virtual time, with realistic ratios (table updates
// dominate): 100 us per table entry, 1 us per snapshot or cleared block.
// Every other cost, extraction_timeout included, keeps its default.
[[nodiscard]] controller::CostModel shrunk_costs();

// One switch, the authoritative server on port 0, clients on ports 1, 2,
// ... -- the star every single-switch run uses.
class Star {
 public:
  static constexpr packet::MacAddr kSwitchMac = 0x0000aa;
  static constexpr packet::MacAddr kServerMac = 0x0000bb;
  static constexpr packet::MacAddr kClientMacBase = 0x000100;

  // Builds the switch from `config(net)`, so the configuration may point
  // into the network it will run on (e.g. `cfg.metrics =
  // &net.metrics(0)`). The star never edits the configuration.
  using ConfigFor =
      std::function<controller::SwitchNode::Config(netsim::Network&)>;
  Star(u32 shards, const ConfigFor& config);
  Star(u32 shards, const controller::SwitchNode::Config& config);

  Star(const Star&) = delete;
  Star& operator=(const Star&) = delete;

  // Attaches the next client: switch port k + 1, MAC kClientMacBase + k,
  // control capsules addressed to kSwitchMac.
  client::ClientNode& add_client(std::string name);

  // Attaches `node` on switch `port` (its own port 0) and binds `mac` to
  // that port.
  void attach_host(std::shared_ptr<netsim::Node> node, u32 port,
                   packet::MacAddr mac);

  // Runs `duration` of virtual time past now().
  void run_for(SimTime duration);

  netsim::Network net;
  std::shared_ptr<controller::SwitchNode> sw;
  std::shared_ptr<apps::ServerNode> server;
  std::vector<std::shared_ptr<client::ClientNode>> clients;
};

// The leaf-spine twin of Star: fabric::Topology (leaves, spines, the
// global controller), the authoritative server on one leaf, clients on
// any leaf. `topo` stays open for hosts with a second uplink:
// `topo.attach_host(node, 1, leaf, mac)` adds a backup.
class LeafSpine {
 public:
  static constexpr packet::MacAddr kServerMac = 0x5E00;
  static constexpr packet::MacAddr kClientMacBase = 0xC100;

  // TopologyConfig's fabric (4 leaves, 2 spines, 2-ms health epochs,
  // death after 3 silent ones) with every switch on shrunk_costs(), a
  // 50-ms extraction timeout and modeled allocator compute.
  [[nodiscard]] static fabric::TopologyConfig config();

  // Builds the fabric on a Network(shards) and attaches the server on
  // `server_leaf`, pinned to that leaf's shard.
  LeafSpine(u32 shards, const fabric::TopologyConfig& config,
            u32 server_leaf);

  LeafSpine(const LeafSpine&) = delete;
  LeafSpine& operator=(const LeafSpine&) = delete;

  // Attaches the next client on `leaf`: MAC kClientMacBase + k, control
  // capsules addressed to the global controller, pinned to the leaf's
  // shard.
  client::ClientNode& add_client(std::string name, u32 leaf);

  netsim::Network net;
  fabric::Topology topo;
  std::shared_ptr<apps::ServerNode> server;
  std::vector<std::shared_ptr<client::ClientNode>> clients;
};

// Routes server replies arriving on `client`'s passive path to `cache`
// (misses come back as plain KV frames, not capsules).
void route_cache_replies(client::ClientNode& client, apps::CacheService& cache);

// Digest of every register word of every stage: equal digests mean
// byte-identical switch state.
u64 register_digest(rmt::Pipeline& pipeline);

// One cache tenant over an attached client: a CacheService ("cache<i>")
// issuing Zipf-distributed GETs, one every `request_gap`, over a key
// space private to tenant `index`. Hit/miss bookkeeping, the reply
// digest and the windowed hit-rate series are kept per tenant, on the
// client's shard; callers chain their own counters through on_result.
// join() installs the case-study lifecycle; a caller that needs another
// on_ready or on_relocated sets it after join (or instead of it).
class CacheTenant {
 public:
  CacheTenant(client::ClientNode& client, u32 index,
              packet::MacAddr server_mac, workload::ZipfGenerator zipf,
              u64 seed, SimTime request_gap);

  CacheTenant(const CacheTenant&) = delete;
  CacheTenant& operator=(const CacheTenant&) = delete;

  // Tenant i's keys: ZipfGenerator::key_for_rank tagged with (i+1) << 40.
  [[nodiscard]] u64 key_for_rank(u32 rank) const;

  // Stores rank + 1 for every key on `server` and remembers the values,
  // so hits are checked without reading the server (which may live on
  // another shard).
  void seed(apps::ServerNode& server);

  // The top-k keys for the current allocation's k buckets, least popular
  // first: on a bucket collision the last write -- the more popular key
  // -- wins (Section 3.4's most-frequent-key-per-bucket policy).
  [[nodiscard]] std::vector<std::pair<u64, u32>> hot_set_for_allocation()
      const;

  // Issues GETs until the client's clock reaches `stop`.
  void start_traffic(SimTime stop);

  // The case-study lifecycle: requests an allocation at `at` on the
  // client's shard; once it is ready, populates the hot set and issues
  // GETs until `stop`; on every relocation, repopulates the hot set for
  // the new allocation.
  void join(SimTime at, SimTime stop);

  // Windowed hit rate: one (window start in s, hit rate) point per
  // `window` of results (default 100 ms).
  void set_window(SimTime window) { window_ = window; }
  [[nodiscard]] const std::vector<std::pair<double, double>>& windows()
      const {
    return windows_;
  }

  // Called after the tenant's own bookkeeping for every result.
  std::function<void(u32 seq, u64 key, u32 value, bool hit)> on_result;

  [[nodiscard]] apps::CacheService& cache() { return *cache_; }
  [[nodiscard]] const apps::CacheService& cache() const { return *cache_; }
  [[nodiscard]] client::ClientNode& client() { return *client_; }
  [[nodiscard]] u64 hits() const { return cache_->cache_stats().hits; }
  [[nodiscard]] u64 misses() const { return cache_->cache_stats().misses; }
  // Hits whose value differs from the seeded one.
  [[nodiscard]] u64 bad_values() const { return bad_values_; }
  // Every result, in order: now, seq, key, value, hit.
  [[nodiscard]] u64 digest() const { return replies_.h; }

 private:
  void tick();
  void record(u32 seq, u64 key, u32 value, bool hit);

  client::ClientNode* client_;
  u32 index_;
  workload::ZipfGenerator zipf_;
  Rng rng_;
  SimTime gap_;
  SimTime stop_ = 0;
  std::shared_ptr<apps::CacheService> cache_;
  std::vector<std::pair<u64, u32>> seeded_;  // sorted by key
  u64 bad_values_ = 0;
  Digest replies_;

  SimTime window_ = 100 * kMillisecond;
  SimTime window_start_ = -1;
  u64 window_hits_ = 0;
  u64 window_total_ = 0;
  std::vector<std::pair<double, double>> windows_;
};

// The leaf-spine failure drill: a LeafSpine (shrunk costs) with the
// server on `server_leaf` and one CacheTenant per entry of `client_leaf`
// (tenant i on that leaf, keys seeded, joining at (i + 1) * 100 ms and
// sending until stop - 300 ms); the controller's health epochs run from
// 1 ms to `stop` and the run ends 500 ms after `stop`. The fault plan,
// the migration engine (20 ms interval) and the leaf0 register wipe are
// off unless set.
struct FabricDrill {
  u32 shards = 1;
  std::vector<u32> client_leaf = {0, 1, 2, 3};
  u32 server_leaf = 3;
  const faults::FaultPlan* plan = nullptr;
  bool migration = false;
  SimTime wipe_leaf0_at = 0;  // brownout up-edge: zero leaf0's registers
  SimTime mark = 0;           // results after this instant count as "late"
  SimTime stop = 1'500 * kMillisecond;
};

struct FabricDrillOut {
  fabric::FabricReport report;
  std::vector<u64> leaf_digests;  // register_digest per leaf
  u64 reply_digest = 0;           // every tenant's digest, in order
  // Per tenant:
  std::vector<Fid> fids;
  std::vector<packet::MacAddr> owners;    // owner_of(fid)
  std::vector<packet::MacAddr> steering;  // steering_of(fid)
  std::vector<bool> operational;
  std::vector<u64> hits;
  std::vector<u64> late_hits;     // hits after `mark`
  std::vector<u64> late_results;  // any result (hit or miss) after `mark`
  u64 bad_values = 0;             // summed over tenants
  SimTime completed_at = 0;
};

FabricDrillOut run_fabric_drill(const FabricDrill& drill);

}  // namespace artmt::scenario

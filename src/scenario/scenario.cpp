#include "scenario/scenario.hpp"

#include <algorithm>

#include "apps/kv.hpp"
#include "faults/injector.hpp"
#include "packet/ethernet.hpp"

namespace artmt::scenario {

controller::CostModel shrunk_costs() {
  controller::CostModel costs;
  costs.table_entry_update = 100 * kMicrosecond;
  costs.snapshot_per_block = 1 * kMicrosecond;
  costs.clear_per_block = 1 * kMicrosecond;
  return costs;
}

Star::Star(u32 shards, const ConfigFor& config)
    : net(shards),
      sw(std::make_shared<controller::SwitchNode>("switch", config(net))),
      server(std::make_shared<apps::ServerNode>("server", kServerMac)) {
  net.attach(sw);
  net.pin(*sw, 0);
  attach_host(server, 0, kServerMac);
}

Star::Star(u32 shards, const controller::SwitchNode::Config& config)
    : Star(shards, [&config](netsim::Network&) { return config; }) {}

client::ClientNode& Star::add_client(std::string name) {
  const auto k = static_cast<u32>(clients.size());
  auto client = std::make_shared<client::ClientNode>(
      std::move(name), kClientMacBase + k, kSwitchMac);
  attach_host(client, k + 1, kClientMacBase + k);
  clients.push_back(std::move(client));
  return *clients.back();
}

void Star::attach_host(std::shared_ptr<netsim::Node> node, u32 port,
                       packet::MacAddr mac) {
  netsim::Node& host = *node;
  net.attach(std::move(node));
  net.connect(*sw, port, host, 0);
  sw->bind(mac, port);
}

void Star::run_for(SimTime duration) { net.run_until(net.now() + duration); }

fabric::TopologyConfig LeafSpine::config() {
  fabric::TopologyConfig config;
  config.switch_config.costs = shrunk_costs();
  config.switch_config.costs.extraction_timeout = 50 * kMillisecond;
  config.switch_config.compute_model = alloc::ComputeModel::deterministic();
  return config;
}

LeafSpine::LeafSpine(u32 shards, const fabric::TopologyConfig& config,
                     u32 server_leaf)
    : net(shards),
      topo(net, config),
      server(std::make_shared<apps::ServerNode>("server", kServerMac)) {
  net.attach(server);
  topo.attach_host(*server, 0, server_leaf, kServerMac);
  net.pin(*server, server_leaf % net.shards());
}

client::ClientNode& LeafSpine::add_client(std::string name, u32 leaf) {
  const auto k = static_cast<u32>(clients.size());
  auto client = std::make_shared<client::ClientNode>(
      std::move(name), kClientMacBase + k, topo.controller_mac());
  net.attach(client);
  topo.attach_host(*client, 0, leaf, kClientMacBase + k);
  net.pin(*client, leaf % net.shards());
  clients.push_back(std::move(client));
  return *clients.back();
}

void route_cache_replies(client::ClientNode& client,
                         apps::CacheService& cache) {
  client.on_passive = [&cache](netsim::Frame& frame) {
    const auto msg = apps::KvMessage::parse(std::span<const u8>(frame).subspan(
        packet::EthernetHeader::kWireSize));
    if (msg) cache.handle_server_reply(*msg);
  };
}

u64 register_digest(rmt::Pipeline& pipeline) {
  Digest digest;
  for (u32 s = 0; s < pipeline.stage_count(); ++s) {
    rmt::RegisterArray& memory = pipeline.stage(s).memory();
    for (const Word w : memory.dump(0, memory.size())) digest.mix(w);
  }
  return digest.h;
}

CacheTenant::CacheTenant(client::ClientNode& client, u32 index,
                         packet::MacAddr server_mac,
                         workload::ZipfGenerator zipf, u64 seed,
                         SimTime request_gap)
    : client_(&client),
      index_(index),
      zipf_(std::move(zipf)),
      rng_(seed),
      gap_(request_gap),
      cache_(std::make_shared<apps::CacheService>(
          "cache" + std::to_string(index), server_mac)) {
  client.register_service(cache_);
  route_cache_replies(client, *cache_);
  cache_->on_result = [this](u32 seq, u64 key, u32 value, bool hit) {
    record(seq, key, value, hit);
    if (on_result) on_result(seq, key, value, hit);
  };
}

u64 CacheTenant::key_for_rank(u32 rank) const {
  return (static_cast<u64>(index_ + 1) << 40) ^
         workload::ZipfGenerator::key_for_rank(rank);
}

void CacheTenant::seed(apps::ServerNode& server) {
  seeded_.reserve(zipf_.universe());
  for (u32 rank = 0; rank < zipf_.universe(); ++rank) {
    server.put(key_for_rank(rank), rank + 1);
    seeded_.emplace_back(key_for_rank(rank), rank + 1);
  }
  std::sort(seeded_.begin(), seeded_.end());
}

std::vector<std::pair<u64, u32>> CacheTenant::hot_set_for_allocation() const {
  const u32 k = std::min(cache_->bucket_count(), zipf_.universe());
  std::vector<std::pair<u64, u32>> out;
  out.reserve(k);
  for (u32 rank = k; rank-- > 0;) {
    out.emplace_back(key_for_rank(rank), rank + 1);
  }
  return out;
}

void CacheTenant::start_traffic(SimTime stop) {
  stop_ = stop;
  tick();
}

void CacheTenant::join(SimTime at, SimTime stop) {
  cache_->on_relocated = [this] {
    cache_->populate(hot_set_for_allocation());
  };
  cache_->on_ready = [this, stop] {
    cache_->populate(hot_set_for_allocation());
    start_traffic(stop);
  };
  client_->network().schedule_on(*client_, at,
                                 [this] { cache_->request_allocation(); });
}

// Always through network().simulator(): it resolves to the client's shard
// clock and queue from worker context.
void CacheTenant::tick() {
  netsim::Simulator& sim = client_->network().simulator();
  if (sim.now() >= stop_) return;
  cache_->get(key_for_rank(zipf_.next_rank(rng_)));
  sim.schedule_after(gap_, [this] { tick(); });
}

void CacheTenant::record(u32 seq, u64 key, u32 value, bool hit) {
  const SimTime now = client_->network().simulator().now();
  if (hit) {
    const auto it = std::lower_bound(
        seeded_.begin(), seeded_.end(), std::pair<u64, u32>{key, 0});
    if (it == seeded_.end() || it->first != key || it->second != value) {
      ++bad_values_;
    }
  }
  replies_.mix(static_cast<u64>(now));
  replies_.mix(seq);
  replies_.mix(key);
  replies_.mix(value);
  replies_.mix(hit ? 1 : 0);

  if (window_start_ < 0) window_start_ = now;
  if (now - window_start_ >= window_) {
    windows_.emplace_back(
        window_start_ / 1e9,
        static_cast<double>(window_hits_) / std::max<u64>(1, window_total_));
    window_start_ = now;
    window_hits_ = 0;
    window_total_ = 0;
  }
  ++window_total_;
  if (hit) ++window_hits_;
}

FabricDrillOut run_fabric_drill(const FabricDrill& drill) {
  fabric::TopologyConfig tcfg = LeafSpine::config();
  if (drill.migration) {
    tcfg.switch_config.migration.enabled = true;
    tcfg.switch_config.migration.interval = 20 * kMillisecond;
  }
  LeafSpine bed(drill.shards, tcfg, drill.server_leaf);
  netsim::Network& net = bed.net;
  fabric::Topology& topo = bed.topo;
  std::unique_ptr<faults::FaultInjector> injector;
  if (drill.plan != nullptr) {
    injector = std::make_unique<faults::FaultInjector>(*drill.plan,
                                                       drill.shards);
    net.set_transmit_hook(injector.get());
  }

  const auto n = static_cast<u32>(drill.client_leaf.size());
  std::vector<std::unique_ptr<CacheTenant>> tenants;
  // Results after drill.mark, per tenant (entry i: tenant i's shard only).
  std::vector<u64> late_hits(n, 0);
  std::vector<u64> late_results(n, 0);
  for (u32 i = 0; i < n; ++i) {
    tenants.push_back(std::make_unique<CacheTenant>(
        bed.add_client("tenant" + std::to_string(i), drill.client_leaf[i]),
        i, LeafSpine::kServerMac, workload::ZipfGenerator(512, 1.2), 1000 + i,
        500 * kMicrosecond));
    CacheTenant& t = *tenants.back();
    t.seed(*bed.server);
    t.on_result = [&net, &drill, &late_hit = late_hits[i],
                   &late_result = late_results[i]](u32, u64, u32, bool hit) {
      if (drill.mark == 0 || net.simulator().now() < drill.mark) return;
      ++late_result;
      if (hit) ++late_hit;
    };
    t.join((i + 1) * 100 * kMillisecond, drill.stop - 300 * kMillisecond);
  }

  if (drill.wipe_leaf0_at != 0) {
    net.schedule_on(topo.leaf(0), drill.wipe_leaf0_at,
                    [&topo] { topo.leaf(0).wipe_registers(); });
  }

  topo.start(1 * kMillisecond, drill.stop);
  net.run_until(drill.stop + 500 * kMillisecond);

  FabricDrillOut out;
  out.report = topo.controller().report();
  for (u32 i = 0; i < topo.leaves(); ++i) {
    out.leaf_digests.push_back(register_digest(topo.leaf(i).pipeline()));
  }
  Digest combined;
  for (u32 i = 0; i < n; ++i) {
    CacheTenant& t = *tenants[i];
    combined.mix(t.digest());
    const Fid fid = t.cache().fid();
    out.fids.push_back(fid);
    out.owners.push_back(topo.controller().owner_of(fid));
    out.steering.push_back(t.client().steering_of(fid));
    out.operational.push_back(t.cache().operational());
    out.hits.push_back(t.hits());
    out.bad_values += t.bad_values();
  }
  out.late_hits = late_hits;
  out.late_results = late_results;
  out.reply_digest = combined.h;
  out.completed_at = net.now();
  return out;
}

}  // namespace artmt::scenario

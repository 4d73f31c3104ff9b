// kv_multiget and kv_sharded: KV capsule serving through one switch.
//
// Eight cache tenants (a ClientNode + CacheService each, private Zipf key
// space) and one heavy-hitter monitor share a switch at the paper geometry
// (20 stages x 368 blocks); one ServerNode holds every tenant's keys.
// During the measured window four newcomer cache tenants ask for memory at
// fixed virtual times, so the elastic residents shrink and go through
// extract -> reallocate -> repopulate while traffic flows.
//
//   kv_multiget  serial Simulator; every tenant sends a 16-key multiget at
//                the same virtual instant each period, so ~128 capsules
//                reach the switch together and the batched stage sweep
//                (runtime::ExecBatch) does the work.
//   kv_sharded   ShardedSimulator with 2 shards (switch + server on 0,
//                tenants on 1); each tenant sends single GETs with seeded
//                Poisson gaps at the same offered rate. Batches stay ~1
//                lane; the epoch barrier is the blocking step.
//
// The virtual length of the measured window is a fixed multiple of
// --seconds, so one (seed, seconds) pair always simulates exactly the same
// requests: every virtual-time number and the result digest repeat.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "apps/cache_service.hpp"
#include "apps/hh_service.hpp"
#include "apps/kv.hpp"
#include "apps/server_node.hpp"
#include "bench.hpp"
#include "client/client_node.hpp"
#include "common/rng.hpp"
#include "controller/switch_node.hpp"
#include "netsim/sharded.hpp"
#include "packet/program_view.hpp"
#include "proto/wire.hpp"
#include "runtime/exec_batch.hpp"
#include "workload/zipf.hpp"

namespace perfbench {
namespace {

using namespace artmt;

constexpr u32 kTenants = 8;
constexpr u32 kNewcomers = 4;
constexpr u32 kUniverse = 4096;  // keys per tenant
constexpr double kAlpha = 1.2;
constexpr u32 kMultiget = 16;
constexpr u32 kHotItems = 512;  // populated hot set per cache
constexpr SimTime kPeriod = 16 * kMillisecond;
constexpr SimTime kWarmup = 192 * kMillisecond;  // a multiple of kPeriod
// Newcomer requests, relative to the start of the measured window. One is
// scheduled only when the window leaves it kNewcomerSettle to finish.
constexpr SimTime kNewcomerAt[kNewcomers] = {
    500 * kMillisecond, 1200 * kMillisecond, 1900 * kMillisecond,
    2600 * kMillisecond};
constexpr SimTime kNewcomerSettle = 800 * kMillisecond;
constexpr u32 kSlices = 36;
constexpr u32 kSetupReps = 5;
// Virtual seconds of measured traffic per second of --seconds, chosen so a
// run takes about --seconds of host time on a 4-core x86 host.
constexpr double kVirtualPerHostSecond[2] = {20.0, 0.5};  // serial, sharded
constexpr std::size_t kMaxCaptured = 120'000;  // replayed switch frames

constexpr packet::MacAddr kSwitchMac = 0xaa;
constexpr packet::MacAddr kServerMac = 0xbb;
constexpr packet::MacAddr kClientBase = 0x100;
constexpr u32 kMonitorSlot = kTenants + kNewcomers;

u64 key_of(u32 tenant, u32 rank) {
  return (static_cast<u64>(tenant + 1) << 40) ^
         workload::ZipfGenerator::key_for_rank(rank);
}

u32 value_of(u64 key) {
  u64 x = key + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return static_cast<u32>(x ^ (x >> 31)) | 1u;
}

// Span request id: (tenant, KvMessage request id). Frames carry the
// KvMessage as their last bytes; the tenant comes from a client MAC.
u64 request_tag(u32 tenant, u32 request_id) {
  return (static_cast<u64>(tenant) << 32) | request_id;
}

u64 frame_tag(const netsim::Frame& frame) {
  if (frame.size() < packet::EthernetHeader::kWireSize + apps::KvMessage::kWireSize) {
    return 0;
  }
  const std::span<const u8> bytes(frame.data(), frame.size());
  const auto msg = apps::KvMessage::parse(
      bytes.subspan(bytes.size() - apps::KvMessage::kWireSize));
  if (!msg) return 0;
  const auto mac_at = [&](std::size_t off) {
    u64 mac = 0;
    for (std::size_t i = 0; i < 6; ++i) mac = mac << 8 | bytes[off + i];
    return mac;
  };
  u64 tenant = 0;
  for (const u64 mac : {mac_at(0), mac_at(6)}) {
    if (mac >= kClientBase && mac < kClientBase + kMonitorSlot + 1) {
      tenant = mac - kClientBase;
    }
  }
  return request_tag(static_cast<u32>(tenant), msg->request_id);
}

// Nodes that time their own frame handling when the run is traced.
class BenchSwitch final : public controller::SwitchNode {
 public:
  using SwitchNode::SwitchNode;
  void on_frame(netsim::Frame frame, u32 port) override {
    Span span("controller.switch.on_frame", g_tracer ? frame_tag(frame) : 0);
    SwitchNode::on_frame(std::move(frame), port);
  }
};

class BenchClient final : public client::ClientNode {
 public:
  using ClientNode::ClientNode;
  void on_frame(netsim::Frame frame, u32 port) override {
    Span span("client.on_frame", g_tracer ? frame_tag(frame) : 0);
    ClientNode::on_frame(std::move(frame), port);
  }
};

class BenchServer final : public apps::ServerNode {
 public:
  using ServerNode::ServerNode;
  void on_frame(netsim::Frame frame, u32 port) override {
    Span span("apps.server.on_frame", g_tracer ? frame_tag(frame) : 0);
    ServerNode::on_frame(std::move(frame), port);
  }
};

// Copies every program capsule sent to the switch during the measured
// window, for the per-layer replay. Buffers are per sending shard (the
// hook runs on every shard's worker).
class CaptureHook final : public netsim::TransmitHook {
 public:
  struct Captured {
    SimTime at = 0;
    std::vector<u8> bytes;
  };
  CaptureHook(const netsim::Node& sw, u32 shards)
      : switch_(&sw), per_shard_(shards) {}

  Verdict on_transmit(const netsim::Node& from, const netsim::Node& to,
                      SimTime now, u64, netsim::Frame& frame,
                      FramePool&) override {
    if (!armed || &to != switch_) return {};
    const std::span<const u8> bytes(frame.data(), frame.size());
    auto& out = per_shard_[from.shard()];
    if (out.size() < kMaxCaptured && packet::ProgramView::is_program_frame(bytes)) {
      out.push_back({now, std::vector<u8>(bytes.begin(), bytes.end())});
    }
    return {};
  }

  // Every capture, in send-time order (stable across shards).
  [[nodiscard]] std::vector<Captured> take() {
    std::vector<Captured> all;
    for (auto& v : per_shard_) {
      for (auto& c : v) all.push_back(std::move(c));
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const Captured& a, const Captured& b) { return a.at < b.at; });
    if (all.size() > kMaxCaptured) all.resize(kMaxCaptured);
    return all;
  }

  bool armed = false;

 private:
  const netsim::Node* switch_;
  std::vector<std::vector<Captured>> per_shard_;
};

struct Pending {
  u64 key = 0;
  SimTime sent = 0;
};

struct Tenant {
  u32 index = 0;
  std::shared_ptr<BenchClient> node;
  std::shared_ptr<apps::CacheService> cache;
  Rng keys{0};
  Rng gaps{0};
  u32 next_id = 1;  // mirrors CacheService's request-id sequence
  std::unordered_map<u32, Pending> outstanding;
  bool active = false;  // populated and sending
  u64 issued = 0;
  u64 completed = 0;
  u64 measured_completed = 0;
  u64 measured_hits = 0;
  u64 wrong = 0;    // value or key differs from the server's
  u64 unknown = 0;  // a result or reply for no outstanding GET
  std::vector<double> rtt_us;
  Digest digest;
};

struct Newcomer {
  bool scheduled = false;
  SimTime requested = 0;
  SimTime ready = -1;
  SimTime repopulated = -1;  // latest repopulate of a tenant it disturbed
  u32 disturbed = 0;
};

struct Counters {
  u64 events = 0;
  u64 frames = 0;
  runtime::RuntimeStats rt;
  u64 server_gets = 0;
  u64 retransmits = 0;
  u64 epochs = 0;
  u64 barrier_ns = 0;
  u64 cross_frames = 0;
};

class Scenario {
 public:
  Scenario(bool sharded, u64 seed, bool capture) : sharded_(sharded) {
    if (sharded_) {
      ssim_ = std::make_unique<netsim::ShardedSimulator>(2);
      net_ = std::make_unique<netsim::Network>(*ssim_);
    } else {
      sim_ = std::make_unique<netsim::Simulator>();
      net_ = std::make_unique<netsim::Network>(*sim_);
    }
    controller::SwitchNode::Config cfg;
    cfg.compute_model = alloc::ComputeModel::deterministic();
    sw_ = std::make_shared<BenchSwitch>("switch", cfg);
    server_ = std::make_shared<BenchServer>("server", kServerMac);
    net_->attach(sw_);
    net_->attach(server_);
    net_->connect(*sw_, 0, *server_, 0);
    sw_->bind(kServerMac, 0);

    for (u32 i = 0; i < kTenants + kNewcomers; ++i) {
      auto t = std::make_unique<Tenant>();
      t->index = i;
      t->keys = Rng::substream(seed, 2 * i + 1);
      t->gaps = Rng::substream(seed, 2 * i + 2);
      t->node = std::make_shared<BenchClient>("tenant" + std::to_string(i),
                                              kClientBase + i, kSwitchMac);
      t->cache = std::make_shared<apps::CacheService>(
          "cache" + std::to_string(i), kServerMac);
      attach_client(t->node, i);
      t->node->register_service(t->cache);
      for (u32 rank = 0; rank < kUniverse; ++rank) {
        const u64 key = key_of(i, rank);
        server_->put(key, value_of(key));
      }
      wire_tenant(*t);
      tenants_.push_back(std::move(t));
    }

    mon_keys_ = Rng::substream(seed, 2 * kMonitorSlot + 1);
    mon_gaps_ = Rng::substream(seed, 2 * kMonitorSlot + 2);
    mon_node_ = std::make_shared<BenchClient>(
        "monitor", kClientBase + kMonitorSlot, kSwitchMac);
    monitor_ = std::make_shared<apps::FrequentItemService>("hh", kServerMac);
    attach_client(mon_node_, kMonitorSlot);
    mon_node_->register_service(monitor_);
    for (u32 rank = 0; rank < kUniverse; ++rank) {
      const u64 key = key_of(kMonitorSlot, rank);
      server_->put(key, value_of(key));
    }
    mon_node_->on_passive = [this](netsim::Frame& frame) {
      const auto msg = apps::KvMessage::parse(
          std::span<const u8>(frame.data(), frame.size())
              .subspan(packet::EthernetHeader::kWireSize));
      if (!msg || msg->type != apps::KvMessage::Type::kReply) {
        ++mon_unknown_;
        return;
      }
      ++mon_replies_;
      if (msg->value != value_of(msg->key)) ++mon_wrong_;
    };

    if (sharded_) {
      ssim_->pin(*sw_, 0);
      ssim_->pin(*server_, 0);
      for (auto& t : tenants_) ssim_->pin(*t->node, 1);
      ssim_->pin(*mon_node_, 1);
    }
    if (capture) {
      capture_ = std::make_unique<CaptureHook>(*sw_, sharded_ ? 2 : 1);
      net_->set_transmit_hook(capture_.get());
    }
  }

  // Admits the initial tenants, populates them, and runs the warm-up.
  void setup() {
    for (u32 i = 0; i < kTenants; ++i) {
      Tenant& t = *tenants_[i];
      at(*t.node, (i + 1) * kMicrosecond, [&t] { t.cache->request_allocation(); });
    }
    at(*mon_node_, (kTenants + 1) * kMicrosecond,
       [this] { monitor_->request_allocation(); });
    const auto settled = [this] {
      for (u32 i = 0; i < kTenants; ++i) {
        if (!tenants_[i]->active) return false;
      }
      return monitor_->operational();
    };
    SimTime t = 0;
    while (!settled()) {
      t += 200 * kMillisecond;
      if (t > 60 * kSecond) throw std::runtime_error("kv setup did not settle");
      run_until(t);
    }
    const SimTime start = (now() / kPeriod + 1) * kPeriod;
    for (auto& tp : tenants_) {
      Tenant* tenant = tp.get();
      at(*tenant->node, start, [this, tenant] { tick(*tenant); });
    }
    at(*mon_node_, start, [this] { monitor_tick(); });
    measure_start_ = start + kWarmup;
    run_until(measure_start_);
  }

  // The measured window: kSlices equal slices of virtual time, each timed
  // on the host, then a drain with no new requests.
  void measure(SimTime length) {
    stop_ = measure_start_ + length;
    for (u32 k = 0; k < kNewcomers; ++k) {
      if (kNewcomerAt[k] + kNewcomerSettle > length) continue;
      newcomers_[k].scheduled = true;
      Tenant& t = *tenants_[kTenants + k];
      at(*t.node, measure_start_ + kNewcomerAt[k], [this, k, &t] {
        current_newcomer_ = static_cast<int>(k);
        newcomers_[k].requested = now();
        t.cache->request_allocation();
      });
    }
    before_ = counters();
    if (capture_) capture_->armed = true;
    for (u32 k = 1; k <= kSlices; ++k) {
      const u64 done_before = completed();
      const u64 start = host_ns();
      const u64 cpu_start = cpu_ns();
      {
        Span span("netsim.run");
        run_until(measure_start_ + length * k / kSlices);
      }
      const u64 wall = host_ns() - start;
      const u64 cpu = cpu_ns() - cpu_start;
      slice_wall_ns_.push_back(wall);
      const double done = static_cast<double>(completed() - done_before);
      slice_rate_.push_back(done / (static_cast<double>(wall) / 1e9));
      slice_cpu_rate_.push_back(done / (static_cast<double>(cpu) / 1e9));
      measured_requests_ += completed() - done_before;
    }
    if (capture_) capture_->armed = false;
    after_ = counters();
    if (sharded_) {
      ssim_->run();
    } else {
      sim_->run();
    }
  }

  void report(Outcome& out, double setup_s) const;
  void report_layers(Outcome& out, const Tracer& tracer);
  [[nodiscard]] u64 digest() const {
    Digest d;
    for (const auto& t : tenants_) d.add(t->digest.value());
    return d.value();
  }
  [[nodiscard]] double req_per_s() const { return median(slice_rate_); }
  [[nodiscard]] double ops_per_cpu_s() const { return median(slice_cpu_rate_); }

 private:
  // Client `slot` hangs off switch port slot + 1 (port 0 is the server).
  void attach_client(const std::shared_ptr<BenchClient>& node, u32 slot) {
    net_->attach(node);
    net_->connect(*sw_, slot + 1, *node, 0);
    sw_->bind(kClientBase + slot, slot + 1);
  }

  void at(const netsim::Node& node, SimTime when, netsim::Simulator::Action fn) {
    if (sharded_) {
      ssim_->schedule_on(node, when, std::move(fn));
    } else {
      sim_->schedule_at(when, std::move(fn));
    }
  }
  void run_until(SimTime when) {
    if (sharded_) {
      ssim_->run_until(when);
    } else {
      sim_->run_until(when);
    }
  }
  [[nodiscard]] SimTime now() const { return net_->simulator().now(); }
  [[nodiscard]] u64 completed() const {
    u64 n = 0;
    for (const auto& t : tenants_) n += t->completed;
    return n;
  }

  void wire_tenant(Tenant& t);
  void populate(Tenant& t, std::function<void()> done);
  void issue(Tenant& t);
  void tick(Tenant& t);
  void monitor_tick();
  [[nodiscard]] SimTime next_gap(Rng& gaps) const {
    if (!sharded_) return kPeriod;
    const double mean = static_cast<double>(kPeriod) / kMultiget;
    return 1 + static_cast<SimTime>(gaps.exponential(1.0) * mean);
  }
  [[nodiscard]] Counters counters() const;

  bool sharded_;
  std::unique_ptr<netsim::Simulator> sim_;
  std::unique_ptr<netsim::ShardedSimulator> ssim_;
  std::unique_ptr<netsim::Network> net_;
  std::unique_ptr<CaptureHook> capture_;
  std::shared_ptr<BenchSwitch> sw_;
  std::shared_ptr<BenchServer> server_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::shared_ptr<BenchClient> mon_node_;
  std::shared_ptr<apps::FrequentItemService> monitor_;
  Rng mon_keys_{0};
  Rng mon_gaps_{0};
  u64 mon_observes_ = 0;
  u64 mon_replies_ = 0;
  u64 mon_wrong_ = 0;
  u64 mon_unknown_ = 0;
  workload::ZipfGenerator zipf_{kUniverse, kAlpha};
  SimTime measure_start_ = 0;
  SimTime stop_ = std::numeric_limits<SimTime>::max();
  int current_newcomer_ = -1;
  Newcomer newcomers_[kNewcomers];
  std::vector<double> slice_rate_;
  std::vector<double> slice_cpu_rate_;
  std::vector<u64> slice_wall_ns_;
  u64 measured_requests_ = 0;
  Counters before_;
  Counters after_;
};

void Scenario::wire_tenant(Tenant& t) {
  t.node->on_passive = [this, &t](netsim::Frame& frame) {
    const auto msg = apps::KvMessage::parse(
        std::span<const u8>(frame.data(), frame.size())
            .subspan(packet::EthernetHeader::kWireSize));
    // Only a reply to one of this tenant's outstanding GETs reaches its
    // cache; anything else is an error, never a silent miss.
    if (!msg || msg->type != apps::KvMessage::Type::kReply ||
        !t.outstanding.contains(msg->request_id)) {
      ++t.unknown;
      return;
    }
    t.cache->handle_server_reply(*msg);
  };
  t.cache->on_result = [this, &t](u32 id, u64 key, u32 value, bool hit) {
    const auto it = t.outstanding.find(id);
    if (it == t.outstanding.end()) {
      ++t.unknown;
      return;
    }
    if (it->second.key != key || value != value_of(key)) ++t.wrong;
    const SimTime when = now();
    if (it->second.sent >= measure_start_) {
      t.rtt_us.push_back(static_cast<double>(when - it->second.sent) / 1e3);
      ++t.measured_completed;
      if (hit) ++t.measured_hits;
    }
    t.digest.add(id);
    t.digest.add(value);
    t.digest.add(hit ? 1 : 0);
    t.digest.add(static_cast<u64>(when));
    t.outstanding.erase(it);
    ++t.completed;
  };
  t.cache->on_ready = [this, &t] {
    if (t.index >= kTenants) newcomers_[t.index - kTenants].ready = now();
    populate(t, [&t] { t.active = true; });
  };
  t.cache->on_relocated = [this, &t] {
    const int k = current_newcomer_;
    if (k >= 0) ++newcomers_[k].disturbed;
    populate(t, [this, k] {
      if (k >= 0) newcomers_[k].repopulated = std::max(newcomers_[k].repopulated, now());
    });
  };
}

void Scenario::populate(Tenant& t, std::function<void()> done) {
  const u32 n = std::min(kHotItems, t.cache->bucket_count());
  std::vector<std::pair<u64, u32>> items;
  items.reserve(n);
  // Coldest first, so the hottest key wins a shared bucket.
  for (u32 rank = n; rank-- > 0;) {
    const u64 key = key_of(t.index, rank);
    items.emplace_back(key, value_of(key));
  }
  t.next_id += n;
  if (items.empty()) {
    done();
    return;
  }
  Span span("apps.cache.populate", request_tag(t.index, 0));
  t.cache->populate(std::move(items), std::move(done));
}

void Scenario::issue(Tenant& t) {
  const u64 key = key_of(t.index, zipf_.next_rank(t.keys));
  const u32 id = t.next_id++;
  t.outstanding.emplace(id, Pending{key, now()});
  ++t.issued;
  Span span("client.send", request_tag(t.index, id));
  t.cache->get(key);
}

void Scenario::tick(Tenant& t) {
  if (now() >= stop_) return;
  if (t.active) {
    const u32 burst = sharded_ ? 1 : kMultiget;
    for (u32 i = 0; i < burst; ++i) issue(t);
  }
  net_->simulator().schedule_after(next_gap(t.gaps), [this, &t] { tick(t); });
}

void Scenario::monitor_tick() {
  if (now() >= stop_) return;
  if (monitor_->operational()) {
    const u32 burst = sharded_ ? 1 : kMultiget;
    for (u32 i = 0; i < burst; ++i) {
      const u64 key = key_of(kMonitorSlot, zipf_.next_rank(mon_keys_));
      ++mon_observes_;
      Span span("apps.monitor.observe", request_tag(kMonitorSlot, 0));
      monitor_->observe(key);
    }
  }
  net_->simulator().schedule_after(next_gap(mon_gaps_), [this] { monitor_tick(); });
}

Counters Scenario::counters() const {
  Counters c;
  if (sharded_) {
    c.epochs = ssim_->epochs();
    for (u32 s = 0; s < ssim_->shards(); ++s) {
      const netsim::ShardStats& st = ssim_->shard_stats(s);
      c.events += st.events_dispatched;
      c.barrier_ns += st.barrier_wait_ns;
      c.cross_frames += st.frames_out;
    }
  } else {
    c.events = sim_->events_dispatched();
  }
  c.frames = net_->frames_delivered();
  c.rt = sw_->runtime().stats();
  c.server_gets = server_->stats().gets_served;
  for (const auto& t : tenants_) {
    c.retransmits += t->cache->populate_reliability().stats().retransmits +
                     t->cache->handshake_reliability().stats().retransmits;
  }
  return c;
}

void Scenario::report(Outcome& out, double setup_s) const {
  std::vector<double> rtt;
  u64 issued = 0, outstanding = 0, wrong = 0, unknown = 0;
  u64 measured = 0, hits = 0, give_ups = 0;
  for (const auto& t : tenants_) {
    rtt.insert(rtt.end(), t->rtt_us.begin(), t->rtt_us.end());
    issued += t->issued;
    outstanding += t->outstanding.size();
    wrong += t->wrong;
    unknown += t->unknown;
    measured += t->measured_completed;
    hits += t->measured_hits;
    give_ups += t->cache->populate_reliability().stats().give_ups +
                t->cache->handshake_reliability().stats().give_ups;
    out.check(t->issued == t->completed + t->outstanding.size(),
              "tenant " + std::to_string(t->index) +
                  ": issued != completed + failed");
    if (t->index < kTenants || newcomers_[t->index - kTenants].scheduled) {
      out.check(t->cache->operational(),
                "tenant " + std::to_string(t->index) + " not operational at end");
    }
  }
  out.check(wrong == 0, std::to_string(wrong) + " GETs returned a wrong value");
  out.check(unknown == 0,
            std::to_string(unknown) + " results matched no outstanding GET");
  out.check(mon_wrong_ == 0 && mon_unknown_ == 0,
            "monitor saw wrong or unmatched server replies");
  out.check(mon_replies_ == mon_observes_,
            "monitor: " + std::to_string(mon_observes_) + " observes, " +
                std::to_string(mon_replies_) + " replies");
  const u64 protection = sw_->runtime().stats().drops_protection;
  out.check(protection == 0,
            std::to_string(protection) + " runtime.drops_protection");

  std::vector<double> grant_ms;
  std::vector<double> realloc_ms;
  for (const Newcomer& n : newcomers_) {
    if (!n.scheduled) continue;
    out.check(n.ready >= 0, "a newcomer was never granted memory");
    if (n.ready < 0) continue;
    grant_ms.push_back(static_cast<double>(n.ready - n.requested) / 1e6);
    const SimTime settled = std::max(n.ready, n.repopulated);
    realloc_ms.push_back(static_cast<double>(settled - n.requested) / 1e6);
  }

  out.attempted = issued;
  out.failed = outstanding + give_ups;
  out.digest = digest();
  const double rps = req_per_s();
  out.e2e("setup_s", setup_s, "s", kSetupReps);
  out.e2e("req_per_s", rps, "1/s", slice_rate_.size());
  out.e2e("ops_per_cpu_s", ops_per_cpu_s(), "1/s", slice_cpu_rate_.size());


  out.e2e("rtt_p50_us", percentile(rtt, 0.50), "us", rtt.size());
  out.e2e("rtt_p99_us", percentile(rtt, 0.99), "us", rtt.size());
  out.e2e("hit_rate", measured == 0 ? 0.0 : static_cast<double>(hits) / measured,
          "ratio", measured);
  out.e2e("fail_frac",
          issued == 0 ? 0.0 : static_cast<double>(out.failed) / issued, "ratio",
          issued);
  out.e2e("grant_ms_p50", median(grant_ms), "ms", grant_ms.size());
  out.e2e("realloc_ms_p50", median(realloc_ms), "ms", realloc_ms.size());
}

// Replays the captured switch ingress through the packet, active, runtime
// and proto layers on a copy of the switch pipeline (every tenant's regions
// installed), grouping frames sent at one virtual instant into one
// ExecBatch, and times each layer on its own.
struct ReplayTimes {
  std::vector<double> parse_ns;
  std::vector<double> exec_ns;  // per capsule: batch time / lanes
  std::vector<double> encode_ns;
  active::ProgramCache::Stats cache;
  u64 malformed = 0;
};

ReplayTimes replay(const std::vector<CaptureHook::Captured>& frames,
                   const rmt::Pipeline& live) {
  ReplayTimes r;
  rmt::Pipeline pipeline = live;
  runtime::ActiveRuntime rt(pipeline);
  active::ProgramCache cache;
  FramePool pool;
  runtime::ExecBatch batch(rt);
  std::vector<FrameBuf> bufs;
  std::vector<packet::ProgramView> views;
  std::vector<runtime::ExecContext> ctx;
  std::vector<active::ExecCursor> cursors;
  std::vector<runtime::PacketMeta> meta;
  for (std::size_t b = 0; b < frames.size();) {
    std::size_t e = b;
    while (e < frames.size() && frames[e].at == frames[b].at) ++e;
    bufs.clear();
    views.clear();
    for (std::size_t i = b; i < e; ++i) {
      FrameBuf buf = pool.copy(frames[i].bytes);
      const u64 t0 = host_ns();
      try {
        packet::ProgramView view = packet::ProgramView::parse(
            std::span<const u8>(buf.data(), buf.size()), cache);
        r.parse_ns.push_back(static_cast<double>(host_ns() - t0));
        views.push_back(std::move(view));
        bufs.push_back(std::move(buf));
      } catch (const std::exception&) {
        ++r.malformed;
      }
    }
    const std::size_t n = views.size();
    ctx.assign(n, {});
    cursors.assign(n, {});
    meta.assign(n, {});
    batch.clear();
    const u64 t0 = host_ns();
    for (std::size_t i = 0; i < n; ++i) {
      ctx[i].args = &views[i].arguments.args;
      ctx[i].fid = views[i].initial.fid;
      ctx[i].flags = views[i].initial.flags;
      ctx[i].eth_src = &views[i].ethernet.src;
      ctx[i].eth_dst = &views[i].ethernet.dst;
      batch.add(*views[i].compiled, ctx[i], cursors[i], meta[i], frames[b].at);
    }
    batch.execute();
    for (std::size_t i = 0; i < n; ++i) (void)batch.result(i);
    const double per_lane =
        n == 0 ? 0.0 : static_cast<double>(host_ns() - t0) / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) r.exec_ns.push_back(per_lane);
    for (std::size_t i = 0; i < n; ++i) {
      const u64 t1 = host_ns();
      FrameBuf reply =
          proto::encode_executed(views[i], cursors[i], std::move(bufs[i]), pool);
      r.encode_ns.push_back(static_cast<double>(host_ns() - t1));
    }
    b = e;
  }
  r.cache = cache.stats();
  return r;
}

void Scenario::report_layers(Outcome& out, const Tracer& tracer) {
  const auto spans = tracer.stats();
  const auto pct = [&](const char* name, double p) {
    const SpanStats* st = tracer.find(spans, name);
    return st == nullptr ? 0.0 : st->duration.percentile(p);
  };
  const auto count_of = [&](const char* name) -> u64 {
    const SpanStats* st = tracer.find(spans, name);
    return st == nullptr ? 0 : st->count;
  };
  const double reqs = static_cast<double>(std::max<u64>(1, measured_requests_));
  const Counters& a = before_;
  const Counters& b = after_;
  const double events = static_cast<double>(b.events - a.events);
  const double capsules =
      static_cast<double>(std::max<u64>(1, b.rt.packets - a.rt.packets));

  out.layer("netsim.events_per_req", events / reqs, "count");
  out.layer("netsim.frames_per_req", static_cast<double>(b.frames - a.frames) / reqs,
            "count");
  double run_self = 0.0;
  if (const SpanStats* st = tracer.find(spans, "netsim.run")) {
    run_self = static_cast<double>(st->self_ns);
  }
  // Node spans run on worker threads under the sharded engine, so the
  // run span's self time is only meaningful on the serial engine.
  out.layer("netsim.self_ns_per_event",
            sharded_ || events == 0 ? 0.0 : run_self / events, "ns");
  double wall_ns = 0.0;
  for (const u64 w : slice_wall_ns_) wall_ns += static_cast<double>(w);
  const double shards = sharded_ ? 2.0 : 1.0;
  out.layer("netsim.shard.epochs_per_req",
            static_cast<double>(b.epochs - a.epochs) / reqs, "count");
  out.layer("netsim.shard.barrier_wait_frac",
            wall_ns == 0.0 ? 0.0
                           : static_cast<double>(b.barrier_ns - a.barrier_ns) /
                                 (shards * wall_ns),
            "ratio");
  out.layer("netsim.shard.cross_shard_frames_per_req",
            static_cast<double>(b.cross_frames - a.cross_frames) / reqs, "count");

  const u64 on_frames = count_of("controller.switch.on_frame");
  out.layer("controller.switch.on_frame_ns_p50",
            pct("controller.switch.on_frame", 0.50), "ns", on_frames);
  out.layer("controller.switch.on_frame_ns_p99",
            pct("controller.switch.on_frame", 0.99), "ns", on_frames);
  const telemetry::Histogram* lanes =
      sw_->metrics().find_histogram("switch", "batch_size");
  out.layer("controller.switch.batch_lanes_mean",
            lanes == nullptr || lanes->count() == 0
                ? 0.0
                : static_cast<double>(lanes->sum()) / lanes->count(),
            "count", lanes == nullptr ? 0 : lanes->count());
  out.layer("controller.switch.forwarded_unprocessed_frac",
            static_cast<double>(b.rt.forwarded_unprocessed -
                                a.rt.forwarded_unprocessed) /
                capsules,
            "ratio");

  const ReplayTimes r = replay(capture_->take(), sw_->pipeline());
  out.check(r.malformed == 0, "replay: captured frames failed to parse");
  out.layer("packet.parse_ns_p50", host_percentile(r.parse_ns, 0.50), "ns",
            r.parse_ns.size());
  const u64 lookups = r.cache.hits + r.cache.misses;
  out.layer("active.program_cache_hit_ratio",
            lookups == 0 ? 0.0 : static_cast<double>(r.cache.hits) / lookups,
            "ratio", lookups);
  out.layer("runtime.exec_ns_p50", host_percentile(r.exec_ns, 0.50), "ns",
            r.exec_ns.size());
  out.layer("runtime.exec_ns_p99", host_percentile(r.exec_ns, 0.99), "ns",
            r.exec_ns.size());
  out.layer("runtime.flatops_per_capsule",
            static_cast<double>(b.rt.instructions - a.rt.instructions) / capsules,
            "count");
  out.layer("runtime.recirc_per_capsule",
            static_cast<double>(b.rt.recirculations - a.rt.recirculations) /
                capsules,
            "count");
  const auto drops = [](const runtime::RuntimeStats& s) {
    return s.drops_protection + s.drops_no_allocation + s.drops_recirc_limit +
           s.drops_recirc_budget + s.drops_privilege + s.drops_explicit;
  };
  out.layer("runtime.drops_per_capsule",
            static_cast<double>(drops(b.rt) - drops(a.rt)) / capsules, "count");
  out.layer("proto.encode_ns_p50", host_percentile(r.encode_ns, 0.50), "ns",
            r.encode_ns.size());

  out.layer("client.send_ns_p50", pct("client.send", 0.50), "ns",
            count_of("client.send"));
  out.layer("client.send_ns_p99", pct("client.send", 0.99), "ns",
            count_of("client.send"));
  out.layer("client.recv_ns_p50", pct("client.on_frame", 0.50), "ns",
            count_of("client.on_frame"));
  out.layer("client.recv_ns_p99", pct("client.on_frame", 0.99), "ns",
            count_of("client.on_frame"));
  out.layer("client.retransmits_per_req",
            static_cast<double>(b.retransmits - a.retransmits) / reqs, "count");
  out.layer("apps.server.on_frame_ns_p50", pct("apps.server.on_frame", 0.50),
            "ns", count_of("apps.server.on_frame"));
  out.layer("apps.server.gets_per_req",
            static_cast<double>(b.server_gets - a.server_gets) / reqs, "count");

  const controller::ControllerStats& cs = sw_->controller().stats();
  const double admits = static_cast<double>(std::max<u64>(1, cs.admissions));
  out.layer("controller.table_entries_per_admit",
            static_cast<double>(cs.table_entry_updates) / admits, "count",
            cs.admissions);
  out.layer("controller.disturbed_per_admit",
            static_cast<double>(cs.reallocations) / admits, "count",
            cs.admissions);
  out.layer("controller.snapshot_blocks_per_admit",
            static_cast<double>(cs.blocks_snapshotted) / admits, "count",
            cs.admissions);
}

std::unique_ptr<Scenario> build(bool sharded, const RunParams& params,
                                bool capture, double* setup_s) {
  std::unique_ptr<Scenario> scenario;
  std::vector<double> setups;
  const u32 reps = capture ? 1 : kSetupReps;
  for (u32 i = 0; i < reps; ++i) {
    scenario.reset();
    const u64 start = cpu_ns();
    scenario = std::make_unique<Scenario>(sharded, params.seed, capture);
    scenario->setup();
    setups.push_back(static_cast<double>(cpu_ns() - start) / 1e9);
  }
  *setup_s = median(setups);
  return scenario;
}

}  // namespace

Outcome run_kv(const RunParams& params, bool sharded) {
  const SimTime length = static_cast<SimTime>(
      params.seconds * kVirtualPerHostSecond[sharded ? 1 : 0] * kSecond);
  Outcome out;
  double setup_s = 0.0;
  auto scenario = build(sharded, params, false, &setup_s);
  scenario->measure(length);
  scenario->report(out, setup_s);
  if (!params.traced) return out;

  // Traced run: the same seed again with spans and frame capture on. It
  // must simulate exactly what the untraced run did.
  const double untraced = scenario->ops_per_cpu_s();
  scenario.reset();
  Tracer tracer;
  g_tracer = &tracer;
  double traced_setup = 0.0;
  auto traced = build(sharded, params, true, &traced_setup);
  traced->measure(length);
  g_tracer = nullptr;
  out.check(traced->digest() == out.digest,
            "traced run diverged from the untraced run");
  traced->report_layers(out, tracer);
  out.layer("trace.overhead_frac",
            untraced == 0.0 ? 0.0 : (untraced - traced->ops_per_cpu_s()) / untraced,
            "ratio");
  for (const auto& st : tracer.stats()) {
    std::printf("span %-28s count %10llu  p50 %8.0f ns  self %9.3f ms\n",
                st.name.c_str(), static_cast<unsigned long long>(st.count),
                st.duration.percentile(0.5), static_cast<double>(st.self_ns) / 1e6);
  }
  if (!params.span_dump.empty()) {
    out.check(tracer.dump(params.span_dump), "cannot write " + params.span_dump);
  }
  return out;
}

}  // namespace perfbench

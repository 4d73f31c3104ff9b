// Federated control plane for a multi-switch fabric. The GlobalController
// is a netsim::Node that fronts every switch's local controller:
//
//  * Admission proxy -- clients address their control capsules
//    (kAllocRequest / kDealloc / kExtractComplete) to the global
//    controller's MAC. Allocation requests are re-sequenced into a
//    private range and forwarded to the best switch by scoreboard
//    (free blocks, contiguity, hotness pressure); a denial falls through
//    to the next-best candidate before the client ever sees it. The
//    winning switch's response is forwarded back with the client's own
//    sequence number restored and the switch's source MAC preserved, so
//    the client learns data-plane steering (ClientNode::steering_)
//    without any extra protocol.
//
//  * Health epochs -- every `epoch` of virtual time the controller
//    probes each placement switch (kHealthProbe); the ack carries a
//    fabric::Scoreboard. `miss_threshold` consecutive silent epochs
//    declare the switch dead.
//
//  * Failure-driven re-placement -- a death evacuates every service the
//    dead switch owned, in ascending-FID order, by replaying the
//    recorded allocation request onto the best surviving sibling. The
//    re-placement response reaches the client as an ordinary allocation
//    response matched by the service's original sequence number; the
//    client's service accepts the new (different-FID) grant, re-steers,
//    and re-populates its memory -- content recovery is client-driven,
//    exactly like the paper's reallocation handshake. Services with no
//    feasible sibling are parked (counted as state loss) and retried
//    every epoch. An ack from a dead switch revives it; stale residents
//    the fabric no longer places there are reconciled away with
//    deallocations.
//
// Everything is deterministic: switch scan order is registration order,
// evacuations run in FID order, probes ride the simulated clock.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "alloc/request.hpp"
#include "fabric/scoreboard.hpp"
#include "netsim/network.hpp"
#include "packet/active_packet.hpp"

namespace artmt::telemetry {
class MetricsRegistry;
}  // namespace artmt::telemetry

namespace artmt::fabric {

struct FabricMetrics;  // telemetry handle bundle (global_controller.cpp)

// Aggregate fabric outcome for tools and benches (built per call).
struct FabricReport {
  u64 placements = 0;        // successful admissions (incl. re-placements)
  u64 evacuations = 0;       // services whose owner died
  u64 replaced = 0;          // evacuations re-placed on a sibling
  u64 unplaced = 0;          // currently parked (no feasible sibling)
  u64 state_loss_services = 0;  // evacuations that ever sat parked
  u64 switch_deaths = 0;
  u64 revivals = 0;
  std::vector<SimTime> downtimes;  // per re-placed service: death -> grant
};

class GlobalController : public netsim::Node {
 public:
  struct Config {
    packet::MacAddr mac = 0xCC00;
    SimTime epoch = 2 * kMillisecond;   // health-probe period
    u32 miss_threshold = 3;             // silent epochs before "dead"
    // Re-send a re-placement grant for this many epochs after the
    // evacuation: the client may itself be mid-failover when the first
    // copy goes out. Accepting a duplicate grant is idempotent.
    u32 resend_epochs = 1;
    // Evacuation admissions that draw no response within this many
    // epochs (the target died too) are retried on the next candidate.
    u32 evac_timeout_epochs = 2;
    telemetry::MetricsRegistry* metrics = nullptr;
  };

  GlobalController(std::string name, const Config& config);
  ~GlobalController() override;

  // Registers a placement-capable switch (transit-only spines are not
  // registered). Order defines the deterministic scan order. `port` is
  // this node's egress port toward the fabric (one uplink: always 0).
  void add_switch(packet::MacAddr mac, std::string name, u32 port = 0);

  // Seeds a switch's scoreboard before any ack has arrived, so the very
  // first admissions already rank by real capacity instead of piling
  // onto the first registered switch. fabric::Topology seeds every
  // switch it builds at construction time.
  void seed_scoreboard(packet::MacAddr sw, Scoreboard board);

  // Starts the health-epoch train; probes stop once the virtual clock
  // passes `until` (so bounded runs drain). Must run on this node's
  // shard: schedule via Network::schedule_on (Topology::start does).
  void start(SimTime until);

  void on_frame(netsim::Frame frame, u32 port) override;

  // --- queries (quiescent) ---
  [[nodiscard]] packet::MacAddr mac() const { return mac_; }
  [[nodiscard]] u32 switch_count() const {
    return static_cast<u32>(switches_.size());
  }
  [[nodiscard]] bool alive(packet::MacAddr sw) const;
  [[nodiscard]] const Scoreboard* scoreboard_of(packet::MacAddr sw) const;
  // Owning switch of a placed FID (0 = unknown/parked).
  [[nodiscard]] packet::MacAddr owner_of(Fid fid) const;
  [[nodiscard]] u32 placed_count() const {
    return static_cast<u32>(placements_.size());
  }
  [[nodiscard]] u32 unplaced_count() const {
    return static_cast<u32>(unplaced_.size());
  }
  [[nodiscard]] FabricReport report() const;

 private:
  struct SwitchState {
    packet::MacAddr mac = 0;
    std::string name;
    u32 port = 0;
    bool alive = true;
    bool seen = false;  // acked at least once
    bool acked_this_epoch = false;
    u32 misses = 0;
    SimTime last_ack = 0;
    Scoreboard board;
  };

  // One admission in flight toward a switch, keyed by the controller's
  // private sequence number.
  struct PendingAdmit {
    packet::MacAddr client = 0;
    u32 client_seq = 0;
    alloc::AllocationRequest request;
    std::vector<packet::MacAddr> tried;  // switches already asked
    bool evacuation = false;
    SimTime death_time = 0;  // evacuations: owner's declared-dead instant
    bool counted_loss = false;  // this service's park already counted
    u64 issued_epoch = 0;       // evacuation re-try deadline bookkeeping
  };

  // A live service placement.
  struct Placement {
    packet::MacAddr sw = 0;
    packet::MacAddr client = 0;
    u32 client_seq = 0;
    alloc::AllocationRequest request;
  };

  // A service waiting for a feasible sibling (its request is replayed
  // every epoch until one admits it).
  struct Parked {
    packet::MacAddr client = 0;
    u32 client_seq = 0;
    alloc::AllocationRequest request;
    SimTime death_time = 0;
  };

  // A re-placement grant re-sent for a few epochs (client failover race).
  struct Resend {
    packet::ActivePacket pkt;
    u32 epochs_left = 0;
  };

  SwitchState* find_switch(packet::MacAddr mac);
  [[nodiscard]] const SwitchState* find_switch(packet::MacAddr mac) const;
  // Best alive, untried switch for `request` (nullptr = none). Ranking:
  // scoreboard-feasible first, then most free blocks, then least hotness
  // pressure, then registration order.
  SwitchState* pick_switch(const alloc::AllocationRequest& request,
                           const std::vector<packet::MacAddr>& tried);
  void forward_admission(u32 fseq);
  void handle_admission(packet::ActivePacket pkt);
  void handle_response(packet::ActivePacket pkt);
  void handle_health_ack(const packet::ActivePacket& pkt);
  void epoch_tick();
  void declare_dead(SwitchState& sw);
  void evacuate(SwitchState& dead);
  // Queues one evacuation admission for (client, seq, request).
  void replay(packet::MacAddr client, u32 client_seq,
              alloc::AllocationRequest request, SimTime death_time,
              bool counted_loss = false);
  void reconcile(SwitchState& sw);
  void park(PendingAdmit&& admit);
  void send_control(packet::MacAddr dst, packet::ActivePacket pkt);
  // Forwards a packet verbatim except for addressing (src preserved when
  // nonzero, so steering survives the hop).
  void forward(packet::MacAddr dst, packet::ActivePacket pkt);

  packet::MacAddr mac_;
  Config config_;
  u32 port_ = 0;  // fabric uplink
  SimTime until_ = 0;
  bool started_ = false;
  u64 epoch_count_ = 0;
  u32 probe_seq_ = 0;
  u32 next_fseq_;  // private admission sequence range

  std::vector<SwitchState> switches_;
  std::map<u32, PendingAdmit> pending_;   // fseq -> in-flight admission
  std::map<Fid, Placement> placements_;   // fid -> owner
  std::deque<Parked> unplaced_;
  std::vector<Resend> resends_;
  std::vector<SimTime> downtimes_;
  u64 evacuated_total_ = 0;
  u64 replaced_total_ = 0;
  u64 state_loss_total_ = 0;
  u64 deaths_total_ = 0;
  u64 revivals_total_ = 0;
  u64 placements_total_ = 0;

  std::unique_ptr<telemetry::MetricsRegistry> own_registry_;
  std::unique_ptr<FabricMetrics> metrics_;
};

}  // namespace artmt::fabric

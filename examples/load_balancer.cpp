// Cheetah load-balancer demo (Appendix B.2): the client installs a VIP
// pool on the switch over the data plane, opens flows with SYN capsules
// (round-robin server selection + cookie stamping), and routes data
// packets statelessly by cookie.
//
// Build & run:  ./build/examples/load_balancer
#include <cstdio>

#include "apps/lb_service.hpp"
#include "apps/server_node.hpp"
#include "client/client_node.hpp"
#include "common/logging.hpp"
#include "controller/switch_node.hpp"

using namespace artmt;

int main() {
  set_log_level(LogLevel::kInfo);

  netsim::Network net(0);  // 0 shards: the serial reference engine
  auto sw = std::make_shared<controller::SwitchNode>(
      "switch", controller::SwitchNode::Config{});
  auto client = std::make_shared<client::ClientNode>("client", 0x100, 0xaa);
  net.attach(sw);
  net.attach(client);
  net.connect(*sw, 1, *client, 0);
  sw->bind(0x100, 1);

  // Four backends on switch ports 4..7.
  std::vector<std::shared_ptr<apps::ServerNode>> backends;
  for (u32 i = 0; i < 4; ++i) {
    auto backend = std::make_shared<apps::ServerNode>(
        "backend" + std::to_string(i), 0xdd00 + i);
    net.attach(backend);
    net.connect(*sw, 4 + i, *backend, 0);
    sw->bind(0xdd00 + i, 4 + i);
    backends.push_back(std::move(backend));
  }

  auto lb = std::make_shared<apps::CheetahLbService>("cheetah");
  client->register_service(lb);
  client->on_passive = [&lb](netsim::Frame& frame) {
    const auto msg = apps::KvMessage::parse(std::span<const u8>(frame).subspan(
        packet::EthernetHeader::kWireSize));
    if (msg) lb->handle_cookie_reply(*msg);
  };

  constexpr u32 kFlows = 32;
  u32 opened = 0;
  lb->on_flow_opened = [&](u32 flow, u32 cookie) {
    ++opened;
    if (flow <= 4) {
      std::printf("flow %u opened, cookie=0x%08x\n", flow, cookie);
    }
    // Each flow then sends 10 data packets routed by its cookie.
    for (int i = 0; i < 10; ++i) lb->send_data(flow);
  };
  lb->on_ready = [&] {
    lb->configure({4, 5, 6, 7}, [&] {
      std::printf("[t=%.3fs] VIP pool installed (4 servers)\n",
                  net.now() / 1e9);
      for (u32 flow = 1; flow <= kFlows; ++flow) lb->open_flow(flow);
    });
  };
  lb->request_allocation();

  net.run();

  std::printf("\nflows opened: %u/%u\n", opened, kFlows);
  u64 total_data = 0;
  for (u32 i = 0; i < 4; ++i) {
    std::printf("backend %u: %llu SYNs, %llu data packets\n", i,
                static_cast<unsigned long long>(backends[i]->stats().syns_answered),
                static_cast<unsigned long long>(backends[i]->stats().data_packets));
    total_data += backends[i]->stats().data_packets;
  }
  std::printf("data packets delivered: %llu (each flow pinned to the server "
              "its SYN selected)\n",
              static_cast<unsigned long long>(total_data));
  return 0;
}

// In-network cache demo over the event-driven testbed (the Section 3.4 /
// 6.3 scenario): a client negotiates a cache allocation, populates hot
// objects, and issues Zipf-distributed GETs -- hot keys come back from
// the switch, cold ones from the server.
//
// Build & run:  ./build/examples/cache_demo
#include <cstdio>

#include "apps/cache_service.hpp"
#include "apps/server_node.hpp"
#include "client/client_node.hpp"
#include "common/logging.hpp"
#include "controller/switch_node.hpp"
#include "workload/zipf.hpp"

using namespace artmt;

int main() {
  set_log_level(LogLevel::kInfo);

  netsim::Network net(0);  // 0 shards: the serial reference engine

  auto sw = std::make_shared<controller::SwitchNode>(
      "switch", controller::SwitchNode::Config{});
  auto server = std::make_shared<apps::ServerNode>("server", 0xbb);
  auto client = std::make_shared<client::ClientNode>("client", 0x100, 0xaa);
  net.attach(sw);
  net.attach(server);
  net.attach(client);
  net.connect(*sw, 0, *server, 0);
  net.connect(*sw, 1, *client, 0);
  sw->bind(0xbb, 0);
  sw->bind(0x100, 1);

  // Workload: 10k keys, Zipf(1.1); the server is authoritative.
  workload::ZipfGenerator zipf(10'000, 1.1);
  Rng rng(7);
  auto key_of = [](u32 rank) {
    return workload::ZipfGenerator::key_for_rank(rank);
  };
  for (u32 rank = 0; rank < zipf.universe(); ++rank) {
    server->put(key_of(rank), rank + 1);
  }

  auto cache = std::make_shared<apps::CacheService>("cache", 0xbb);
  client->register_service(cache);
  client->on_passive = [&cache](netsim::Frame& frame) {
    const auto msg = apps::KvMessage::parse(std::span<const u8>(frame).subspan(
        packet::EthernetHeader::kWireSize));
    if (msg) cache->handle_server_reply(*msg);
  };

  u64 hits = 0;
  u64 misses = 0;
  cache->on_result = [&](u32, u64, u32, bool hit) {
    (hit ? hits : misses)++;
  };

  // Once operational: populate the 500 hottest keys, then fire requests.
  cache->on_ready = [&] {
    std::vector<std::pair<u64, u32>> hot;
    for (u32 rank = 500; rank-- > 0;) hot.emplace_back(key_of(rank), rank + 1);
    const std::size_t count = hot.size();
    cache->populate(std::move(hot), [&net, &cache, count] {
      std::printf("[t=%.3fs] cache populated with %zu objects (%u buckets)\n",
                  net.now() / 1e9, count, cache->bucket_count());
    });
  };
  cache->request_allocation();

  // 20k requests at 10k/s after a 2 s warmup for allocation + population.
  // (The driver lives at main scope: scheduled continuations reference it.)
  std::function<void(u32)> fire = [&](u32 remaining) {
    if (remaining == 0) return;
    cache->get(key_of(zipf.next_rank(rng)));
    net.simulator().schedule_after(
        100 * 1000, [&fire, remaining] { fire(remaining - 1); });
  };
  net.schedule_on(*client, 2 * kSecond, [&fire] { fire(20'000); });

  net.run();
  std::printf("\nresults: %llu hits, %llu misses (hit rate %.1f%%)\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses),
              100.0 * hits / std::max<u64>(1, hits + misses));
  std::printf("ideal (top-500 popularity mass): %.1f%%\n",
              100.0 * zipf.top_mass(500));
  std::printf("switch processed %llu capsules, returned %llu from cache\n",
              static_cast<unsigned long long>(sw->runtime().stats().packets),
              static_cast<unsigned long long>(sw->node_stats().returned));
  return 0;
}

// Multi-tenancy demo (the Figure 9b/10 scenario in miniature): three
// cache tenants arrive in sequence; the third cannot get exclusive
// stages and forces a reallocation of the first -- watch the handshake
// (deactivate, snapshot, extract, re-layout, repopulate) play out without
// disrupting the other tenants.
//
// Build & run:  ./build/examples/multi_tenant
#include <cstdio>

#include "apps/cache_service.hpp"
#include "apps/server_node.hpp"
#include "client/client_node.hpp"
#include "common/logging.hpp"
#include "controller/switch_node.hpp"

using namespace artmt;

int main() {
  set_log_level(LogLevel::kInfo);

  netsim::Network net(0);  // 0 shards: the serial reference engine
  controller::SwitchNode::Config cfg;
  cfg.scheme = alloc::Scheme::kFirstFit;  // forces early sharing
  auto sw = std::make_shared<controller::SwitchNode>("switch", cfg);
  auto server = std::make_shared<apps::ServerNode>("server", 0xbb);
  net.attach(sw);
  net.attach(server);
  net.connect(*sw, 0, *server, 0);
  sw->bind(0xbb, 0);

  std::vector<std::shared_ptr<client::ClientNode>> clients;
  std::vector<std::shared_ptr<apps::CacheService>> caches;
  for (u32 i = 0; i < 3; ++i) {
    auto client = std::make_shared<client::ClientNode>(
        "tenant" + std::to_string(i), 0x100 + i, 0xaa);
    net.attach(client);
    net.connect(*sw, i + 1, *client, 0);
    sw->bind(0x100 + i, i + 1);
    auto cache = std::make_shared<apps::CacheService>(
        "cache" + std::to_string(i), 0xbb);
    client->register_service(cache);
    clients.push_back(std::move(client));
    caches.push_back(std::move(cache));
  }

  for (u32 i = 0; i < 3; ++i) {
    const u32 index = i;
    caches[i]->on_ready = [&, index] {
      std::printf("[t=%.3fs] tenant %u operational: %u buckets across its "
                  "stages\n",
                  net.now() / 1e9, index, caches[index]->bucket_count());
      caches[index]->populate({{0x1000 + index, index + 1}});
    };
    caches[i]->on_relocated = [&, index] {
      std::printf("[t=%.3fs] tenant %u RELOCATED: now %u buckets; "
                  "repopulating hot set\n",
                  net.now() / 1e9, index, caches[index]->bucket_count());
      caches[index]->populate({{0x1000 + index, index + 1}});
    };
    net.schedule_on(*clients[i], i * 2 * kSecond, [&, index] {
      std::printf("[t=%.3fs] tenant %u requesting allocation\n",
                  net.now() / 1e9, index);
      caches[index]->request_allocation();
    });
  }

  net.run_until(10 * kSecond);

  std::printf("\nfinal state:\n");
  for (u32 i = 0; i < 3; ++i) {
    std::printf("  tenant %u: %s, %u buckets\n", i,
                caches[i]->operational() ? "operational" : "NOT operational",
                caches[i]->bucket_count());
  }
  const auto& stats = sw->controller().stats();
  std::printf("controller: %llu admissions, %llu reallocations, %llu table "
              "updates, %llu blocks snapshotted\n",
              static_cast<unsigned long long>(stats.admissions),
              static_cast<unsigned long long>(stats.reallocations),
              static_cast<unsigned long long>(stats.table_entry_updates),
              static_cast<unsigned long long>(stats.blocks_snapshotted));
  return 0;
}

// Network-telemetry demo: the frequent-item (heavy-hitter) monitor of
// Appendix B.1 rides on a Zipf request stream; afterwards the client
// extracts the per-bucket (key, count) tables over the data plane and
// prints the detected heavy hitters.
//
// Build & run:  ./build/examples/telemetry
#include <cstdio>

#include "apps/hh_service.hpp"
#include "common/logging.hpp"
#include "scenario/scenario.hpp"

using namespace artmt;

int main() {
  set_log_level(LogLevel::kInfo);

  // The single-switch star on the serial reference engine (0 shards).
  scenario::Star star(0, controller::SwitchNode::Config{});
  netsim::Network& net = star.net;
  client::ClientNode& client = star.add_client("client");

  auto monitor = std::make_shared<apps::FrequentItemService>(
      "monitor", scenario::Star::kServerMac);
  client.register_service(monitor);

  // 30k observations from a skewed distribution.
  workload::ZipfGenerator zipf(5'000, 1.3);
  Rng rng(123);
  // The stream driver lives at main scope so scheduled continuations can
  // safely reference it.
  std::function<void(u32)> observe = [&](u32 remaining) {
    if (remaining == 0) {
      // Stream done: pull the tables and report.
      monitor->extract(
          [&net](std::vector<std::pair<u64, u32>> items) {
            std::printf("\n[t=%.3fs] %zu heavy hitters detected:\n",
                        net.now() / 1e9, items.size());
            for (std::size_t i = 0; i < items.size() && i < 10; ++i) {
              std::printf("  #%zu key=0x%016llx count>=%u\n", i + 1,
                          static_cast<unsigned long long>(items[i].first),
                          items[i].second);
            }
            std::printf("(true top key: 0x%016llx)\n",
                        static_cast<unsigned long long>(
                            workload::ZipfGenerator::key_for_rank(0)));
          },
          /*min_count=*/20);
      return;
    }
    monitor->observe(
        workload::ZipfGenerator::key_for_rank(zipf.next_rank(rng)));
    net.simulator().schedule_after(
        50 * 1000, [&observe, remaining] { observe(remaining - 1); });
  };
  monitor->on_ready = [&] {
    std::printf("[t=%.3fs] monitor allocated (%u table slots)\n",
                net.now() / 1e9, monitor->table_words());
    observe(30'000);
  };
  monitor->request_allocation();

  net.run();
  std::printf("\nswitch stats: %llu capsules, %llu recirculations\n",
              static_cast<unsigned long long>(
                  star.sw->runtime().stats().packets),
              static_cast<unsigned long long>(
                  star.sw->runtime().stats().recirculations));
  return 0;
}

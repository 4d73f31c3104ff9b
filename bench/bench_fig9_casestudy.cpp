// Figure 9: the full in-network cache case study.
//   (a) one client runs the frequent-item monitor on its object requests
//       for two seconds, extracts the computed hot set over the data
//       plane, context-switches the allocation to the cache service,
//       populates it, and watches the hit rate stabilize.
//   (b) four tenants repeat the exercise staggered by five seconds
//       (monitor phase omitted, hot set known a priori, as in the paper);
//       the first three get disjoint stages, the fourth shares with the
//       first and both settle at an equal, lower hit rate.
#include <algorithm>
#include <cstdio>

#include "apps/hh_service.hpp"
#include "casestudy.hpp"

namespace artmt::bench {
namespace {

void fig9a() {
  std::printf("\n## Fig 9a: monitor -> extract -> context switch -> cache\n");
  CaseStudyBed bed(1);
  Tenant& tenant = *bed.tenant[0];
  tenant.set_window(100 * kMillisecond);

  // Phase 1: deploy the frequent-item monitor and activate the object
  // requests with it. All requests are served by the server (hit rate 0).
  auto monitor = std::make_shared<apps::FrequentItemService>(
      "monitor", kServerMac, /*cms_blocks=*/16, /*table_blocks=*/2);
  tenant.client().register_service(monitor);

  // Replace the tenant's request stream with monitor-activated requests
  // until the context switch.
  bool use_monitor = true;
  workload::ZipfGenerator zipf(10'000, 1.2);
  Rng rng(4242);
  std::function<void()> drive = [&] {
    if (bed.net.now() >= 10 * kSecond) return;
    const u32 rank = zipf.next_rank(rng);
    const u64 key = tenant.key_for_rank(rank);
    if (use_monitor && monitor->operational()) {
      monitor->observe(key);
    } else {
      tenant.cache().get(key);
    }
    bed.net.simulator().schedule_after(200'000, drive);  // 5k requests/s
  };

  monitor->request_allocation();
  bed.net.simulator().schedule_after(0, drive);

  // Phase 2 at T=2s: extract the hot set, release the monitor, allocate
  // the cache, populate, and switch the request stream over.
  SimTime switch_started = 0;
  SimTime populate_done_at = 0;
  bed.net.simulator().schedule_at(2 * kSecond, [&] {
    monitor->extract([&](std::vector<std::pair<u64, u32>> items) {
      switch_started = bed.net.now();
      std::printf("extracted %zu frequent items at t=%.2fs\n", items.size(),
                  switch_started / 1e9);
      monitor->release();
      tenant.cache().on_ready = [&, items] {
        std::vector<std::pair<u64, u32>> hot(items.begin(),
                                             items.end());
        const std::size_t cap = std::min<std::size_t>(hot.size(), 600);
        hot.resize(cap);
        tenant.cache().populate(hot, [&] {
          populate_done_at = bed.net.now();
          std::printf("cache populated at t=%.2fs (context switch %.0f ms)\n",
                      populate_done_at / 1e9,
                      (populate_done_at - switch_started) / 1e6);
        });
        use_monitor = false;
      };
      tenant.cache().request_allocation();
    }, /*min_count=*/3);
  });

  bed.net.run_until(10 * kSecond);
  print_windows("fig9a hit rate", tenant);
  const auto& windows = tenant.windows();
  double steady = 0.0;
  u32 tail = 0;
  for (auto it = windows.rbegin(); it != windows.rend() && tail < 20;
       ++it, ++tail) {
    steady += it->second;
  }
  std::printf("steady-state hit rate (last 2 s): %.3f\n",
              tail ? steady / tail : 0.0);
}

void fig9b() {
  std::printf("\n## Fig 9b: four staggered tenants (5 s apart)\n");
  // Memory must bind for sharing to show: a wide, mildly skewed universe
  // whose hot set exceeds a shared allocation.
  CaseStudyBed bed(4, /*universe=*/500'000, /*alpha=*/0.8);
  constexpr SimTime kStop = 30 * kSecond;

  for (u32 i = 0; i < 4; ++i) {
    Tenant& tenant = *bed.tenant[i];
    tenant.set_window(250 * kMillisecond);
    bed.net.simulator().schedule_at(i * 5 * kSecond, [&bed, &tenant, kStop] {
      tenant.cache().on_ready = [&bed, &tenant, kStop] {
        tenant.cache().populate(tenant.hot_set_for_allocation());
        tenant.start_traffic(kStop);
      };
      // Repopulate to the (smaller) new allocation when squeezed.
      tenant.cache().on_relocated = [&tenant] {
        tenant.cache().populate(tenant.hot_set_for_allocation());
      };
      tenant.cache().request_allocation();
    });
  }
  bed.net.run_until(kStop);

  for (u32 i = 0; i < 4; ++i) {
    std::printf("\n### tenant %u\n", i);
    print_windows(("tenant " + std::to_string(i)).c_str(), *bed.tenant[i],
                  4);
    const auto& windows = bed.tenant[i]->windows();
    double steady = 0.0;
    u32 tail = 0;
    for (auto it = windows.rbegin(); it != windows.rend() && tail < 10;
         ++it, ++tail) {
      steady += it->second;
    }
    std::printf("tenant %u steady-state hit rate: %.3f  buckets=%u\n", i,
                tail ? steady / tail : 0.0,
                bed.tenant[i]->cache().bucket_count());
  }
  std::printf(
      "\nexpectation: tenants 0 and 3 share stages (equal, lower share); "
      "tenants 1 and 2 keep exclusive stages.\n");
}

}  // namespace
}  // namespace artmt::bench

int main() {
  std::printf("=== Figure 9: in-network cache case study ===\n");
  artmt::bench::fig9a();
  artmt::bench::fig9b();
  return 0;
}

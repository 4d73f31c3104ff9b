// Figure 10: fine-grained view of the multi-tenant scenario -- each
// tenant's hit rate from its own arrival (provisioning gap, population
// ramp, steady state), and the disruption the first tenant suffers when
// the fourth arrives and forces a reallocation of its memory.
#include <cstdio>

#include "casestudy.hpp"

namespace artmt::bench {
namespace {

void fig10() {
  Star star(0, controller::SwitchNode::Config{});
  const auto tenants =
      add_tenants(star, 4, /*universe=*/500'000, /*alpha=*/0.8);
  constexpr SimTime kStop = 28 * kSecond;

  std::vector<double> requested_at(4, 0.0);
  std::vector<double> operational_at(4, 0.0);
  double tenant0_moved_at = -1.0;
  double tenant0_repopulated_at = -1.0;

  for (u32 i = 0; i < 4; ++i) {
    CacheTenant& tenant = *tenants[i];
    tenant.set_window(50 * kMillisecond);  // finer than Fig 9
    star.net.schedule_on(tenant.client(), i * 5 * kSecond,
                         [&star, &tenant, &requested_at, &operational_at, i,
                          kStop] {
      requested_at[i] = star.net.now() / 1e9;
      tenant.cache().on_ready = [&star, &tenant, &operational_at, i, kStop] {
        operational_at[i] = star.net.now() / 1e9;
        tenant.cache().populate(tenant.hot_set_for_allocation());
        tenant.start_traffic(kStop);
      };
      tenant.cache().request_allocation();
    });
  }
  // Instrument tenant 0's reallocation when tenant 3 arrives.
  tenants[0]->cache().on_relocated = [&] {
    tenant0_moved_at = star.net.now() / 1e9;
    tenants[0]->cache().populate(
        tenants[0]->hot_set_for_allocation(), [&] {
          tenant0_repopulated_at = star.net.now() / 1e9;
        });
  };

  star.net.run_until(kStop);

  for (u32 i = 0; i < 4; ++i) {
    std::printf("\n### tenant %u (requested t=%.2fs, operational t=%.2fs, "
                "provisioning %.0f ms)\n",
                i, requested_at[i], operational_at[i],
                (operational_at[i] - requested_at[i]) * 1e3);
    // Print the first three seconds after arrival plus the window around
    // the fourth arrival (t = 15 s).
    const auto& windows = tenants[i]->windows();
    std::printf("# time_s,hit_rate\n");
    for (const auto& [t, rate] : windows) {
      const bool after_arrival =
          t >= requested_at[i] && t <= requested_at[i] + 3.0;
      const bool around_fourth = t >= 14.5 && t <= 17.5;
      if (after_arrival || around_fourth) {
        std::printf("%.2f,%.3f\n", t, rate);
      }
    }
  }

  // Disruption of tenant 0: zero-hit-rate span around tenant 3's arrival.
  const auto& w0 = tenants[0]->windows();
  double disruption_start = -1.0;
  double disruption_end = -1.0;
  for (const auto& [t, rate] : w0) {
    if (t < 15.0 || t > 20.0) continue;
    if (rate < 0.05) {
      if (disruption_start < 0) disruption_start = t;
      disruption_end = t;
    }
  }
  std::printf("\ntenant 0 relocation: notice at t=%.2fs, repopulated at "
              "t=%.2fs\n",
              tenant0_moved_at, tenant0_repopulated_at);
  if (disruption_start >= 0) {
    std::printf(
        "tenant 0 zero-hit disruption: %.2fs .. %.2fs (~%.0f ms; paper "
        "reports ~150 ms)\n",
        disruption_start, disruption_end,
        (disruption_end - disruption_start + 0.05) * 1e3);
  } else {
    std::printf("tenant 0 saw no zero-hit window (disruption below the "
                "50 ms sampling window)\n");
  }
}

}  // namespace
}  // namespace artmt::bench

int main() {
  std::printf(
      "=== Figure 10: per-tenant hit rates at arrival + reallocation "
      "disruption ===\n");
  artmt::bench::fig10();
  return 0;
}

// Shared testbed for the case-study figures (9 and 10): N cache tenants on
// the single-switch star, each issuing 5k Zipf-distributed object
// requests per second over a private key space, with windowed hit rates.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"

namespace artmt::bench {

using scenario::CacheTenant;
using scenario::Star;

// Adds `n` seeded tenants ("tenant<i>", workload seed 77 + i) to `star`.
inline std::vector<std::unique_ptr<CacheTenant>> add_tenants(
    Star& star, u32 n, u32 universe, double alpha) {
  std::vector<std::unique_ptr<CacheTenant>> tenants;
  for (u32 i = 0; i < n; ++i) {
    tenants.push_back(std::make_unique<CacheTenant>(
        star.add_client("tenant" + std::to_string(i)), i, Star::kServerMac,
        workload::ZipfGenerator(universe, alpha), 77 + i,
        200 * kMicrosecond));
    tenants.back()->seed(*star.server);
  }
  return tenants;
}

inline void print_windows(const char* label, const CacheTenant& tenant,
                          std::size_t stride = 1) {
  std::printf("# %s: time_s,hit_rate\n", label);
  const auto& windows = tenant.windows();
  for (std::size_t i = 0; i < windows.size(); i += stride) {
    std::printf("%.2f,%.3f\n", windows[i].first, windows[i].second);
  }
}

}  // namespace artmt::bench

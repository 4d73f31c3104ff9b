// The single-switch bed the end-to-end tests share.
#pragma once

#include <memory>
#include <string>

#include "controller/switch_node.hpp"
#include "scenario/scenario.hpp"

namespace artmt {

// The single-switch star with `clients` clients ("client<i>"); control
// costs shrunk so tests converge quickly (ratios stay realistic: table
// updates dominate) and a 200-ms extraction timeout. Faults, if any, are
// installed per test.
inline std::unique_ptr<scenario::Star> make_bed(
    u32 clients = 1, alloc::Scheme scheme = alloc::Scheme::kWorstFit) {
  controller::SwitchNode::Config cfg;
  cfg.scheme = scheme;
  cfg.costs = scenario::shrunk_costs();
  cfg.costs.extraction_timeout = 200 * kMillisecond;
  auto bed = std::make_unique<scenario::Star>(0, cfg);
  for (u32 i = 0; i < clients; ++i) {
    bed->add_client("client" + std::to_string(i));
  }
  return bed;
}

}  // namespace artmt

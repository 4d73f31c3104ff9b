// Sequencer + flow-telemetry demo: two of the "extra" services that
// show the instruction set generalizes beyond the paper's three
// exemplars (Section 7.1). Runs directly against the modeled switch.
//
// Build & run:  ./build/examples/sequencer_demo
#include <cstdio>

#include "apps/extra_services.hpp"
#include "client/compiler.hpp"
#include "controller/controller.hpp"

using namespace artmt;

int main() {
  rmt::Pipeline pipeline{rmt::PipelineConfig{}};
  runtime::ActiveRuntime runtime(pipeline);
  controller::Controller controller(pipeline, runtime);

  // --- a NOPaxos-style sequencer over 4 groups ---
  const auto seq_spec = apps::sequencer_spec();
  const auto seq = controller.admit(client::build_request(seq_spec));
  const auto seq_prog = client::synthesize(
      seq_spec, *controller.mutant_of(seq.fid),
      controller.response_for(seq.fid), 20);
  std::printf("sequencer deployed (fid=%u)\n", seq.fid);
  // Each capsule runs the way the switch runs it: the compiled program is
  // shared, the headers and the execution cursor are the capsule's own.
  active::ExecCursor cursor;
  const auto seq_code = active::CompiledProgram::compile(seq_prog.program);
  for (u32 group = 0; group < 2; ++group) {
    for (int i = 0; i < 3; ++i) {
      packet::ArgumentHeader args;
      args.args[0] = seq_prog.access_base[0] + group;
      auto ctx = runtime::ExecContext::over({.fid = seq.fid}, args);
      runtime.execute(seq_code, ctx, cursor);
      std::printf("  group %u -> seq %u\n", group, args.args[1]);
    }
  }

  // --- per-flow telemetry beside it ---
  const auto flow_spec = apps::flow_counter_spec();
  const auto flow = controller.admit(client::build_request(flow_spec));
  if (controller.has_pending()) {
    controller.timeout_pending();
    controller.apply_pending();
  }
  const auto count_prog = client::synthesize(
      flow_spec, *controller.mutant_of(flow.fid),
      controller.response_for(flow.fid), 20);
  client::ServiceSpec probe_spec = flow_spec;
  probe_spec.program = apps::flow_probe_program();
  const auto probe_prog = client::synthesize(
      probe_spec, *controller.mutant_of(flow.fid),
      controller.response_for(flow.fid), 20);

  runtime::PacketMeta flow_meta;
  flow_meta.five_tuple = {10, 20, 30, 40};
  const auto count_code = active::CompiledProgram::compile(count_prog.program);
  for (int i = 0; i < 5; ++i) {
    packet::ArgumentHeader args;
    auto ctx = runtime::ExecContext::over({.fid = flow.fid}, args);
    runtime.execute(count_code, ctx, cursor, flow_meta);
  }
  packet::ArgumentHeader probe;
  auto probe_ctx = runtime::ExecContext::over({.fid = flow.fid}, probe);
  const auto res = runtime.execute(
      active::CompiledProgram::compile(probe_prog.program), probe_ctx, cursor,
      flow_meta);
  std::printf("flow counter deployed (fid=%u): probe says %u packets "
              "(verdict %s)\n",
              flow.fid, probe.args[1],
              res.verdict == runtime::Verdict::kReturnToSender
                  ? "returned-to-sender"
                  : "forward");

  std::printf("switch now hosts %u services; utilization %.2f\n",
              controller.allocator().resident_count(),
              controller.allocator().utilization());
  return 0;
}

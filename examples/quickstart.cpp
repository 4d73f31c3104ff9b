// Quickstart: the smallest complete ActiveRMT round trip, no network.
//
//  1. stand up a modeled RMT pipeline with the shared runtime,
//  2. admit a service (memory allocation + table installation),
//  3. assemble an active program, synthesize it for the granted
//     placement, and execute capsules of it through the pipeline,
//  4. observe the result the switch wrote back into the capsule's
//     argument header.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "active/assembler.hpp"
#include "client/compiler.hpp"
#include "controller/controller.hpp"

using namespace artmt;

int main() {
  // --- 1. the switch: pipeline + data-plane runtime + control plane ---
  rmt::PipelineConfig config;  // 20 stages, 94K words each, 1-KB blocks
  rmt::Pipeline pipeline(config);
  runtime::ActiveRuntime runtime(pipeline);
  controller::Controller controller(pipeline, runtime);

  // --- 2. a tiny counting service: one counter bumped per packet ---
  client::ServiceSpec spec;
  spec.program = active::assemble(R"(
      MAR_LOAD $0      // counter slot (client-translated physical address)
      MEM_INCREMENT    // bump it; the new count lands in MBR
      MBR_STORE $1     // report the count back in the packet
      RTS              // return to sender
      RETURN
  )");
  spec.demands = {1};  // one block of one stage
  spec.elastic = false;

  const auto request = client::build_request(spec);
  const auto admission = controller.admit(request);
  if (!admission.admitted) {
    std::printf("admission failed\n");
    return 1;
  }
  std::printf("admitted fid=%u; memory in stage %u\n", admission.fid,
              admission.outcome.chosen[0] % config.logical_stages);

  // --- 3. client-side synthesis: mutate + link to the granted region ---
  const auto synthesized = client::synthesize(
      spec, *controller.mutant_of(admission.fid),
      controller.response_for(admission.fid), config.logical_stages);

  // --- 4. send a few capsules and watch the counter grow ---
  // The switch compiles a program once and runs each capsule over its own
  // headers; the execution cursor holds the per-capsule state.
  const auto compiled = active::CompiledProgram::compile(synthesized.program);
  for (int i = 0; i < 3; ++i) {
    packet::ArgumentHeader args;
    args.args[0] = synthesized.access_base[0];  // counter address
    auto ctx = runtime::ExecContext::over({.fid = admission.fid}, args);
    active::ExecCursor cursor;
    const auto result = runtime.execute(compiled, ctx, cursor);
    std::printf("capsule %d: verdict=%s count=%u latency=%lldns\n", i,
                result.verdict == runtime::Verdict::kReturnToSender
                    ? "returned-to-sender"
                    : "other",
                args.args[1], static_cast<long long>(result.latency));
  }

  controller.release(admission.fid);
  std::printf("released; resident services: %u\n",
              controller.allocator().resident_count());
  return 0;
}

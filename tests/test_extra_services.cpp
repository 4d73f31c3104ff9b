// Semantics tests for the additional services (sequencer, Bloom filter,
// flow counter) executed against a live pipeline + controller -- the
// generality check Section 7.1 asks for.
#include <gtest/gtest.h>

#include "apps/extra_services.hpp"
#include "apps/kv.hpp"
#include "apps/programs.hpp"
#include "capsule_run.hpp"
#include "client/compiler.hpp"
#include "controller/controller.hpp"

namespace artmt::apps {
namespace {

using client::ServiceSpec;
using client::SynthesizedProgram;
using packet::ActivePacket;
using packet::ArgumentHeader;
using runtime::Verdict;

class ExtraServices : public ::testing::Test {
 protected:
  ExtraServices()
      : pipeline_(rmt::PipelineConfig{}), runtime_(pipeline_),
        controller_(pipeline_, runtime_) {}

  struct Deployed {
    Fid fid;
    SynthesizedProgram synth;
  };

  Deployed deploy(const ServiceSpec& spec) {
    const auto result = controller_.admit(client::build_request(spec));
    EXPECT_TRUE(result.admitted);
    if (controller_.has_pending()) {
      controller_.timeout_pending();
      controller_.apply_pending();
    }
    return {result.fid,
            client::synthesize(spec, *controller_.mutant_of(result.fid),
                               controller_.response_for(result.fid), 20)};
  }

  // Synthesizes a sibling program of an already-deployed service.
  SynthesizedProgram synthesize_sibling(const ServiceSpec& spec, Fid fid) {
    return client::synthesize(spec, *controller_.mutant_of(fid),
                              controller_.response_for(fid), 20);
  }

  // Deploys a two-program service under one composite allocation.
  struct DeployedPair {
    Fid fid;
    SynthesizedProgram primary;
    SynthesizedProgram sibling;
  };
  DeployedPair deploy_pair(const ServiceSpec& primary,
                           const ServiceSpec& sibling) {
    const ServiceSpec members[] = {primary, sibling};
    const auto result =
        controller_.admit(client::compose_request(members));
    EXPECT_TRUE(result.admitted);
    if (controller_.has_pending()) {
      controller_.timeout_pending();
      controller_.apply_pending();
    }
    return {result.fid, synthesize_sibling(primary, result.fid),
            synthesize_sibling(sibling, result.fid)};
  }

  DeployedPair deploy_bloom() {
    ServiceSpec insert_spec = bloom_spec();
    insert_spec.program = bloom_insert_program();
    return deploy_pair(bloom_spec(), insert_spec);
  }

  runtime::ExecutionResult run(Fid fid, const active::Program& program,
                               ArgumentHeader& args,
                               const runtime::PacketMeta& meta = {}) {
    CapsuleRun run = run_capsule(
        runtime_, ActivePacket::make_program(fid, args, program), meta);
    args = *run.reply.arguments;
    return run.result;
  }

  rmt::Pipeline pipeline_;
  runtime::ActiveRuntime runtime_;
  controller::Controller controller_;
};

// ---------- sequencer ----------

TEST_F(ExtraServices, SequencerMonotonePerGroup) {
  const auto seq = deploy(sequencer_spec());
  for (u32 expected = 1; expected <= 5; ++expected) {
    ArgumentHeader args;
    args.args[0] = seq.synth.access_base[0];  // group 0
    const auto res = run(seq.fid, seq.synth.program, args);
    EXPECT_EQ(res.verdict, Verdict::kForward);
    EXPECT_EQ(args.args[1], expected);
  }
}

TEST_F(ExtraServices, SequencerGroupsIndependent) {
  const auto seq = deploy(sequencer_spec());
  ArgumentHeader a;
  a.args[0] = seq.synth.access_base[0];
  ArgumentHeader b;
  b.args[0] = seq.synth.access_base[0] + 1;  // another group slot
  run(seq.fid, seq.synth.program, a);
  run(seq.fid, seq.synth.program, a);
  run(seq.fid, seq.synth.program, b);
  EXPECT_EQ(a.args[1], 2u);
  EXPECT_EQ(b.args[1], 1u);
}

TEST_F(ExtraServices, SequencerSingleStageSinglePass) {
  const auto seq = deploy(sequencer_spec());
  ArgumentHeader args;
  args.args[0] = seq.synth.access_base[0];
  const auto res = run(seq.fid, seq.synth.program, args);
  EXPECT_EQ(res.passes, 1u);
  EXPECT_EQ(controller_.regions_of(seq.fid).size(), 1u);
}

// ---------- Bloom filter ----------

TEST_F(ExtraServices, BloomMembership) {
  const auto bloom = deploy_bloom();

  auto args_for = [](u64 key) {
    ArgumentHeader args;
    args.args[0] = key_half0(key);
    args.args[1] = key_half1(key);
    args.args[2] = 1;  // the written bit
    return args;
  };

  // Not a member yet: forwards.
  ArgumentHeader q = args_for(0xfeed);
  EXPECT_EQ(run(bloom.fid, bloom.primary.program, q).verdict,
            Verdict::kForward);
  EXPECT_EQ(q.args[3], 0u);

  // Insert, then test again: member, returned to sender.
  ArgumentHeader ins = args_for(0xfeed);
  EXPECT_EQ(run(bloom.fid, bloom.sibling.program, ins).verdict,
            Verdict::kForward);
  q = args_for(0xfeed);
  const auto res = run(bloom.fid, bloom.primary.program, q);
  EXPECT_EQ(res.verdict, Verdict::kReturnToSender);
  EXPECT_EQ(q.args[3], 1u);
}

TEST_F(ExtraServices, BloomNoFalseNegatives) {
  const auto bloom = deploy_bloom();

  std::vector<u64> keys;
  for (u64 k = 1; k <= 200; ++k) keys.push_back(k * 0x9e3779b9ULL);
  for (const u64 key : keys) {
    ArgumentHeader args;
    args.args[0] = key_half0(key);
    args.args[1] = key_half1(key);
    args.args[2] = 1;
    run(bloom.fid, bloom.sibling.program, args);
  }
  for (const u64 key : keys) {
    ArgumentHeader args;
    args.args[0] = key_half0(key);
    args.args[1] = key_half1(key);
    const auto res = run(bloom.fid, bloom.primary.program, args);
    EXPECT_EQ(res.verdict, Verdict::kReturnToSender) << key;
  }
}

TEST_F(ExtraServices, BloomFalsePositiveRateReasonable) {
  const auto bloom = deploy_bloom();

  for (u64 k = 1; k <= 100; ++k) {
    ArgumentHeader args;
    args.args[0] = key_half0(k);
    args.args[1] = key_half1(k);
    args.args[2] = 1;
    run(bloom.fid, bloom.sibling.program, args);
  }
  // The filter got whole elastic stages (tens of thousands of slots):
  // 100 inserted keys should rarely collide for fresh keys.
  u32 false_positives = 0;
  for (u64 k = 1'000'000; k < 1'001'000; ++k) {
    ArgumentHeader args;
    args.args[0] = key_half0(k);
    args.args[1] = key_half1(k);
    if (run(bloom.fid, bloom.primary.program, args).verdict ==
        Verdict::kReturnToSender) {
      ++false_positives;
    }
  }
  EXPECT_LT(false_positives, 10u);
}

TEST_F(ExtraServices, BloomRequestSkipsRtsConstraint) {
  const auto request = client::build_request(bloom_spec());
  EXPECT_FALSE(request.rts_position.has_value());  // best-effort RTS
  // And a membership hit indeed pays the egress-RTS recirculation.
  const auto bloom = deploy_bloom();
  ArgumentHeader args;
  args.args[0] = 1;
  args.args[1] = 2;
  args.args[2] = 1;
  run(bloom.fid, bloom.sibling.program, args);
  ArgumentHeader q;
  q.args[0] = 1;
  q.args[1] = 2;
  const auto res = run(bloom.fid, bloom.primary.program, q);
  EXPECT_EQ(res.verdict, Verdict::kReturnToSender);
  EXPECT_GT(res.passes, 1u);
}

// ---------- flow counter ----------

TEST_F(ExtraServices, FlowCounterCountsPerFlow) {
  const auto spec = flow_counter_spec();
  const auto deployed = deploy(spec);
  ServiceSpec probe_spec = spec;
  probe_spec.program = flow_probe_program();
  const auto probe = synthesize_sibling(probe_spec, deployed.fid);

  runtime::PacketMeta flow_a;
  flow_a.five_tuple = {1, 2, 3, 4};
  runtime::PacketMeta flow_b;
  flow_b.five_tuple = {5, 6, 7, 8};

  for (int i = 0; i < 7; ++i) {
    ArgumentHeader args;
    run(deployed.fid, deployed.synth.program, args, flow_a);
  }
  for (int i = 0; i < 2; ++i) {
    ArgumentHeader args;
    run(deployed.fid, deployed.synth.program, args, flow_b);
  }

  ArgumentHeader probe_args;
  auto res = run(deployed.fid, probe.program, probe_args, flow_a);
  EXPECT_EQ(res.verdict, Verdict::kReturnToSender);
  EXPECT_EQ(probe_args.args[1], 7u);
  res = run(deployed.fid, probe.program, probe_args, flow_b);
  EXPECT_EQ(probe_args.args[1], 2u);
}

TEST_F(ExtraServices, FlowProbeRtsStaysAtIngress) {
  const auto spec = flow_counter_spec();
  const auto deployed = deploy(spec);
  ServiceSpec probe_spec = spec;
  probe_spec.program = flow_probe_program();
  const auto probe = synthesize_sibling(probe_spec, deployed.fid);
  runtime::PacketMeta meta;
  meta.five_tuple = {1, 1, 1, 1};
  ArgumentHeader args;
  const auto res = run(deployed.fid, probe.program, args, meta);
  EXPECT_EQ(res.passes, 1u);  // probe fits the ingress pipeline
}

// All three extra services coexist with the paper's three on one switch.
TEST_F(ExtraServices, SixServicesCoexist) {
  auto admit_and_apply = [&](const alloc::AllocationRequest& request) {
    const auto result = controller_.admit(request);
    if (controller_.has_pending()) {
      controller_.timeout_pending();
      controller_.apply_pending();
    }
    return result.admitted;
  };
  EXPECT_TRUE(admit_and_apply(client::build_request(sequencer_spec())));
  EXPECT_TRUE(admit_and_apply(client::build_request(bloom_spec())));
  EXPECT_TRUE(admit_and_apply(client::build_request(flow_counter_spec())));
  EXPECT_TRUE(admit_and_apply(apps::cache_request()));
  EXPECT_TRUE(admit_and_apply(apps::hh_request()));
  EXPECT_TRUE(admit_and_apply(apps::lb_request()));
  EXPECT_EQ(controller_.allocator().resident_count(), 6u);
}

}  // namespace
}  // namespace artmt::apps

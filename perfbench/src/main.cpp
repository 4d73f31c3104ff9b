// artmt_perfbench -- the ActiveRMT benchmark executable.
//
//   artmt_perfbench --workload kv_multiget|kv_sharded|churn|all
//                   --seed N --seconds S --trace 0|1 [--span-dump DIR]
//
// Prints a host block, then for each workload every metric by name with
// its unit and sample count, the result digest, one FAIL line per failed
// correctness check, and a `result` line. run.py turns these lines into
// the JSON result, with the metrics BENCHMARK.json lists. Exits 1 when a
// correctness check fails, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/logging.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr const char* kWorkloads[] = {"kv_multiget", "kv_sharded", "churn"};

int usage() {
  std::fprintf(stderr,
               "usage: artmt_perfbench --workload kv_multiget|kv_sharded|churn|all "
               "--seed N --seconds S --trace 0|1 [--span-dump DIR]\n");
  return 2;
}

Outcome run_workload(const std::string& name, const RunParams& params) {
  if (name == "kv_multiget") return run_kv(params, false);
  if (name == "kv_sharded") return run_kv(params, true);
  return run_churn(params);
}

// Every digit of the value: run.py passes it on as measured.
void print_metric(const std::string& workload, const Metric& m) {
  std::printf("metric %-12s %-46s %-24.17g %-6s n=%llu\n", workload.c_str(),
              m.name.c_str(), m.value, m.unit.c_str(),
              static_cast<unsigned long long>(m.samples));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  RunParams params;
  std::string span_dir;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        params.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        params.seconds = std::stod(value);
        have_seconds = params.seconds > 0.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage();
        params.traced = value == "1";
        have_trace = true;
      } else if (flag == "--span-dump") {
        span_dir = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace) return usage();
  std::vector<std::string> names;
  if (workload == "all") {
    names.assign(std::begin(kWorkloads), std::end(kWorkloads));
  } else {
    for (const char* w : kWorkloads) {
      if (workload == w) names.push_back(w);
    }
  }
  if (names.empty()) return usage();

  artmt::set_log_level(artmt::LogLevel::kError);
  std::printf(
      "host {\"nproc\": %u, \"build_type\": \"%s\", \"compiler\": \"g++ %s\"}\n",
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE, __VERSION__);

  bool correct = true;
  for (const std::string& name : names) {
    RunParams p = params;
    if (params.traced && !span_dir.empty()) {
      p.span_dump = span_dir + "/" + name + ".jsonl";
    }
    const double probe_before = capacity_probe_ms();
    Outcome out;
    try {
      out = run_workload(name, p);
    } catch (const std::exception& e) {
      out.check(false, std::string("exception: ") + e.what());
    }
    out.e2e("rss_mb", peak_rss_mb(), "MB");
    const double probe_after = capacity_probe_ms();
    std::printf("probe %s before_ms %.3f after_ms %.3f\n", name.c_str(),
                probe_before, probe_after);
    for (const auto* list : {&out.end_to_end, &out.layers}) {
      for (const Metric& m : *list) {
        out.check(std::isfinite(m.value), m.name + " is not a finite number");
        print_metric(name, m);
      }
    }
    std::printf("digest %s %016llx\n", name.c_str(),
                static_cast<unsigned long long>(out.digest));
    for (const std::string& err : out.errors) {
      std::printf("FAIL %s: %s\n", name.c_str(), err.c_str());
    }
    std::printf("result %s correct %d attempted %llu failed %llu\n", name.c_str(),
                out.correct ? 1 : 0, static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    correct = correct && out.correct;
  }
  return correct ? 0 : 1;
}

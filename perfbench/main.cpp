// The repository benchmark: runs one workload for a time budget, checks its
// outputs, and prints one JSON result as the last line of stdout.
//
//   perfbench --workload <sim_bulk|sim_committee|cluster_free> --seed <n>
//             --seconds <s> --trace <0|1> --node-bin <path> --work-dir <dir>
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same inputs
// with spans and reports the per-layer metrics. perfbench/run.py builds the
// binaries and passes --node-bin and --work-dir.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <sim_bulk|sim_committee|"
               "cluster_free> --seed <n> --seconds <s> --trace <0|1> "
               "--node-bin <path> --work-dir <dir>\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string v = argv[++i];
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = v == "1";
    } else if (arg == "--node-bin") {
      o.node_bin = v;
    } else if (arg == "--work-dir") {
      o.work_dir = v;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (o.workload.empty() || o.seconds <= 0.0 || o.work_dir.empty()) {
    usage("--workload, --seconds and --work-dir are required");
  }
  return o;
}

void print(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), r.metrics.json().c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  Result res;
  try {
    if (opts.workload == "cluster_free") {
      if (opts.node_bin.empty()) usage("cluster_free needs --node-bin");
      run_cluster(opts, res);
    } else if (opts.workload == "sim_bulk" || opts.workload == "sim_committee") {
      run_sim(opts, res);
    } else {
      usage("unknown workload " + opts.workload);
    }
  } catch (const CheckFailed& f) {
    // A failed check fails every transaction of the run.
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.what.c_str());
    res.correct = false;
    res.attempted = std::max<std::uint64_t>(res.attempted, 1);
    res.failed = res.attempted;
    res.metrics = Metrics{};
    print(res);
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
  print(res);
  return 0;
}

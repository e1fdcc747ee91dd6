// perfbench: the repository benchmark.
//
//   perfbench --workload broadcast-c7|serve-mix --seed N
//             --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs the workload's traced pass and reports the per-layer metrics.
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Human-readable progress goes to stderr.  Exit status 0 iff the run
// completed (a failed check still exits 0 with "correct": false).

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "broadcast-c7|serve-mix --seed N --seconds S --trace 0|1\n",
               msg);
  std::exit(2);
}

perfbench::RunArgs parse(int argc, char** argv) {
  perfbench::RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') usage("--seed must be a non-negative integer");
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 600.0) {
        usage("--seconds must be in (0, 600]");
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace must be 0 or 1");
      args.trace = val == "1";
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (args.workload != "broadcast-c7" && args.workload != "serve-mix") {
    usage(("unknown workload " + args.workload).c_str());
  }
  return args;
}

void print_result(const perfbench::Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              out.failed == 0 && out.attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::RunArgs args = parse(argc, argv);
  try {
    const perfbench::Outcome out = args.workload == "serve-mix"
                                       ? perfbench::run_serve_mix(args)
                                       : perfbench::run_broadcast_c7(args);
    print_result(out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}

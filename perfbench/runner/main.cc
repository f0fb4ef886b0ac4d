// perfbench_runner: runs one seeded benchmark workload against the engine's
// public API and prints the raw report (sample series, values, operation
// tally) as one JSON line on stdout. run.py builds this binary, runs it and
// turns the report into the benchmark's metrics.
//
//   perfbench_runner --workload micro_serial --seed 1 --seconds 10
//                    --trace 0 [--trace-out trace.json]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload "
               "<micro_serial|tpch_parallel|wire_mixed> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      args.trace_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !(args.seconds > 0.0)) return Usage();

  perfbench::Report report;
  int rc = 0;
  if (args.workload == "micro_serial") {
    rc = perfbench::RunMicroSerial(args, &report);
  } else if (args.workload == "tpch_parallel") {
    rc = perfbench::RunTpchParallel(args, &report);
  } else if (args.workload == "wire_mixed") {
    rc = perfbench::RunWireMixed(args, &report);
  } else {
    return Usage();
  }
  if (rc != 0) return rc;
  std::printf("%s\n", report.ToJson(args).c_str());
  return 0;
}

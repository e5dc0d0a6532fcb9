// Benchmark driver: runs one named workload against the engine and prints
// every metric by name with its unit; the last line of standard output is
// the JSON result. Exit code 0 only when every reply matched the oracle.
//
//   uot_perfbench --workload <tpch-materialize|tpch-pipeline|serve-mix>
//                 --seed <n> --seconds <s> --trace <0|1> [--smoke]
//                 [--out <dir>] [--git <commit>] [--src-digest <digest>]
#include <cstdio>

#include "common.h"

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseOptions(argc, argv, &options)) return 2;
  perfbench::Report report(options);
  perfbench::AddMachineMeta(&report);
  report.Meta("git_commit", options.git_commit);
  report.Meta("src_digest", options.src_digest);
  report.Meta("seconds", options.seconds);
  report.Meta("trace", options.trace ? 1 : 0);
  report.Meta("smoke", options.smoke ? 1 : 0);

  int code = 2;
  if (options.workload == "serve-mix") {
    code = perfbench::RunServeWorkload(options, &report);
  } else if (options.workload == "tpch-materialize" ||
             options.workload == "tpch-pipeline") {
    code = perfbench::RunTpchWorkload(options, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
  }
  if (code != 0) return code;
  return report.Finish();
}

// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <batch_large|batch_dist|serve_stream> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end list, with --trace 1 the per-layer list (see
// README.md). Exits 1 without a result line on bad arguments or an error.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.h"

namespace perfbench {
void RunBatchLarge(const Args& args, Report& report);
void RunBatchDist(const Args& args, Report& report);
void RunServeStream(const Args& args, Report& report);
}  // namespace perfbench

namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <batch_large|batch_dist|"
               "serve_stream> --seed <n> --seconds <s> --trace <0|1>\n";
  std::exit(1);
}

perfbench::Args Parse(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = Parse(argc, argv);
  perfbench::Report report(args.trace);
  try {
    if (args.workload == "batch_large") {
      perfbench::RunBatchLarge(args, report);
    } else if (args.workload == "batch_dist") {
      perfbench::RunBatchDist(args, report);
    } else if (args.workload == "serve_stream") {
      perfbench::RunServeStream(args, report);
    } else {
      Usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 1;
  }
  report.Set("load.ops_attempted", static_cast<double>(report.Attempted()));
  report.Set("load.ops_failed", static_cast<double>(report.Failed()));
  report.Print();
  return 0;
}

// perfbench — the end-to-end benchmark binary. perfbench/run.py
// builds it and runs it; see perfbench/README.md.
//
//   perfbench --workload <tpch_files|tpch_advise|serve_appends> --seed <n>
//             --seconds <s> --trace <0|1> --cli <samplecf_cli> --data-dir <dir>
//
// Prints a per-workload report by metric name, then one JSON line:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer table.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "common/trace.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "<tpch_files|tpch_advise|serve_appends> --seed <n> "
               "--seconds <s> --trace <0|1> --cli <path> --data-dir <dir>\n",
               why);
  return 2;
}

std::string Number(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

void PrintResult(const Options& options, const RunResult& result) {
  std::printf("== %s seed %llu (%s)\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? "traced: per-layer" : "untraced: end-to-end");
  for (const Metric& m : result.report) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : result.metrics) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  %-34s %14.6g ratio (%llu of %llu ops)\n", "fail_ratio",
              static_cast<double>(result.failed) /
                  static_cast<double>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  for (const std::string& flag : result.flags) {
    std::printf("  FLAG: %s\n", flag.c_str());
  }
  std::string metrics = "{";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              metrics.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--cli") {
      options.cli = value;
    } else if (flag == "--data-dir") {
      options.data_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !(options.seconds > 0)) {
    return Usage("--seed and a positive --seconds are required");
  }
  // Room for every span of a traced run; spans beyond it would be dropped
  // from the folded program-span totals.
  if (options.trace) cfest::trace::SetRingCapacity(1 << 16);
  RunResult result;
  if (options.workload == "tpch_files") {
    if (options.cli.empty() || options.data_dir.empty()) {
      return Usage("tpch_files needs --cli and --data-dir");
    }
    result = RunTpchFiles(options);
  } else if (options.workload == "tpch_advise") {
    result = RunTpchAdvise(options);
  } else if (options.workload == "serve_appends") {
    result = RunServeAppends(options);
  } else {
    return Usage(("unknown workload \"" + options.workload + "\"").c_str());
  }
  if (options.trace) {
    const uint64_t kept = cfest::trace::CollectRecords().size();
    const uint64_t started = cfest::trace::TotalStarted();
    if (started > kept) {
      result.flags.push_back(std::to_string(started - kept) +
                             " spans wrapped out of the trace ring; the "
                             "engine.* and lazy.* totals are low");
    }
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "error: no request completed\n");
    return 1;
  }
  PrintResult(options, result);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

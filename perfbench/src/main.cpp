// alidrone_perfbench — one workload per invocation:
//
//   alidrone_perfbench --workload <fleet_sorties|submit_open|tesla_stream>
//       --seed N --seconds S --trace 0|1 [--quick]
//       [--nominal-rate R --ladder R1,R2,... --limit-ms L]
//       [--trace-out PATH] [--scratch DIR]
//
// perfbench/run.py builds this binary and passes the submit_open schedule
// it reads from BENCHMARK.json. The last stdout line is the JSON result;
// the exit code is non-zero when any output check failed.
#include <csignal>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "workloads.h"

namespace perfbench {

void emit_end_to_end(Report& report, double setup_s, double rss_mb,
                     double verdicts_per_s, double msgs_per_s,
                     double latency_p50_ms, double latency_p90_ms) {
  report.metric("setup_s", setup_s, "s");
  report.metric("peak_rss_mb", rss_mb, "MB");
  report.metric("verdicts_per_s", verdicts_per_s, "1/s");
  report.metric("msgs_per_s", msgs_per_s, "1/s");
  report.metric("latency_p50_ms", latency_p50_ms, "ms");
  report.metric("latency_p90_ms", latency_p90_ms, "ms");
}

namespace {

int usage() {
  std::cerr << "usage: alidrone_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--quick] [--nominal-rate R --ladder R1,R2,.. "
               "--limit-ms L] [--trace-out PATH] [--scratch DIR]\n";
  return 2;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has = i + 1 < argc;
    if (arg == "--quick") {
      o.quick = true;
    } else if (!has) {
      return false;
    } else if (arg == "--workload") {
      o.workload = argv[++i];
    } else if (arg == "--seed") {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      o.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--nominal-rate") {
      o.nominal_rate = std::strtod(argv[++i], nullptr);
    } else if (arg == "--limit-ms") {
      o.limit_ms = std::strtod(argv[++i], nullptr);
    } else if (arg == "--ladder") {
      std::stringstream list(argv[++i]);
      std::string item;
      while (std::getline(list, item, ',')) o.ladder_rates.push_back(std::stod(item));
    } else if (arg == "--trace-out") {
      o.trace_out = argv[++i];
    } else if (arg == "--scratch") {
      o.scratch_dir = argv[++i];
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0.0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::signal(SIGPIPE, SIG_IGN);
  Options options;
  if (!parse(argc, argv, options)) return usage();
  Report report;
  stamp(report, options);
  // A traced run measures half of --seconds untraced (the baseline for the
  // tracing overhead) and half traced, so it takes as long as an untraced
  // run.
  if (options.trace) options.seconds /= 2.0;
  try {
    if (options.workload == "fleet_sorties") {
      run_fleet_sorties(options, report);
    } else if (options.workload == "submit_open") {
      if (options.nominal_rate <= 0.0 || options.ladder_rates.empty() ||
          options.limit_ms <= 0.0) {
        std::cerr << "submit_open needs --nominal-rate, --ladder and --limit-ms\n";
        return 2;
      }
      run_submit_open(options, report);
    } else if (options.workload == "tesla_stream") {
      run_tesla_stream(options, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "alidrone_perfbench: " << e.what() << "\n";
    return 1;
  }
  report.check(report.attempted() > 0, "no operation was attempted");
  report.print();
  return report.correct() ? 0 : 1;
}

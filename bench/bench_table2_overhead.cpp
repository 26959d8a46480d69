// Regenerates Table II: CPU utilization, power and memory of the AliDrone
// client on the Raspberry Pi 3, for fixed 2/3/5 Hz sampling and for the
// two field-study replays, with 1024- and 2048-bit TEE sign keys.
//
// The Pi 3 and its power meter are not available here; utilization is
// computed from the calibrated per-operation cost model
// (resource::CostProfile::raspberry_pi3, see DESIGN.md), power from the
// Kaup et al. model the paper uses (eq. 4), and memory from the measured
// resident set. Sample counts for the field rows come from actually
// running the adaptive sampler over the synthetic scenario routes.
//
// Paper values for comparison:
//   1024-bit: 2Hz 2.17% | 3Hz 3.17% | 5Hz 5.59% | airport 0.024% | res. 1.567%
//   2048-bit: 2Hz 10.94% | 3Hz 16.81% | 5Hz  -   | airport 0.122% | res.  -
//   memory: 3.27 MB (0.3%)
#include <cstdio>

#include "bench_util.h"
#include "resilience/sim_clock.h"

namespace alidrone::bench {
namespace {

using resource::CostProfile;
using resource::CpuAccountant;
using resource::MemoryAccountant;
using resource::PowerModel;

struct Row {
  std::string label;
  bool sustainable = true;
  double cpu_percent = 0.0;  // of the whole 4-core CPU, like `top`
  double power_watts = 0.0;
};

/// Laboratory fixed-rate run: `rate` authenticated samples per second for
/// five minutes, no NFZ logic.
Row fixed_rate_row(const CostProfile& profile, double rate_hz, std::size_t key_bits) {
  constexpr double kDuration = 300.0;  // the paper's 5-minute runs
  // Wall time comes from the shared obs::Clock authority (a SimClock
  // here), the same way the resilience layer keeps time.
  resilience::SimClock clock;
  CpuAccountant cpu(4);
  cpu.bind_clock(&clock);
  clock.advance(kDuration);
  cpu.sync_wall();
  const double samples = rate_hz * kDuration;
  cpu.charge(samples * profile.per_sample_cost(key_bits));

  Row row;
  row.label = std::to_string(static_cast<int>(rate_hz)) + " Hz fixed";
  row.sustainable = cpu.sustainable();
  row.cpu_percent = cpu.system_utilization_percent();
  row.power_watts = PowerModel{}.power_watts(row.cpu_percent / 100.0);
  return row;
}

/// Field replay: adaptive sampling over a scenario; CPU charged per the
/// recorded sample/update counts. The run is declared unsustainable when
/// the densest one-second burst of authenticated samples exceeds one core
/// (the paper omits those cells).
Row field_row(const CostProfile& profile, const sim::Scenario& scenario,
              std::size_t key_bits) {
  core::AdaptiveSampler policy(scenario.frame, scenario.local_zones(),
                               geo::kFaaMaxSpeedMps, 5.0);
  const ScenarioRun run = run_scenario(scenario, 5.0, policy);

  CpuAccountant cpu(4);
  cpu.advance_wall(run.duration);
  cpu.charge(static_cast<double>(run.result.poa_samples.size()) *
             profile.per_sample_cost(key_bits));
  // The Adapter's normal-world poll reads a cached fix and evaluates the
  // Algorithm 1 conditions — orders of magnitude cheaper than a sample.
  cpu.charge(static_cast<double>(run.result.gps_updates) * profile.ellipse_check);

  // Peak-burst sustainability: near zones the adaptive sampler needs the
  // full 5 Hz; if a few seconds of that exceed one core, the key size
  // cannot support the flight (the paper leaves those cells blank).
  constexpr double kWindow = 3.0;
  std::vector<double> times;
  for (const core::SignedSample& s : run.result.poa_samples) {
    if (const auto f = s.fix()) times.push_back(f->unix_time);
  }
  std::size_t peak = 0;
  for (std::size_t i = 0, j = 0; i < times.size(); ++i) {
    while (times[i] - times[j] > kWindow) ++j;
    peak = std::max(peak, i - j + 1);
  }
  const bool peak_sustainable =
      static_cast<double>(peak) * profile.per_sample_cost(key_bits) <= kWindow;

  Row row;
  row.label = scenario.name + " (adaptive)";
  row.sustainable = cpu.sustainable() && peak_sustainable;
  row.cpu_percent = cpu.system_utilization_percent();
  row.power_watts = PowerModel{}.power_watts(row.cpu_percent / 100.0);
  return row;
}

void print_row(const Row& row, double paper_cpu, const char* paper_note) {
  if (row.sustainable) {
    std::printf("  %-22s %8.3f %%   %8.4f W      paper: %s\n", row.label.c_str(),
                row.cpu_percent, row.power_watts, paper_note);
  } else {
    std::printf("  %-22s %8s     %8s        paper: %s\n", row.label.c_str(), "-",
                "-", paper_note);
  }
  (void)paper_cpu;
}

}  // namespace
}  // namespace alidrone::bench

int main() {
  using namespace alidrone;
  using namespace alidrone::bench;

  const CostProfile profile = CostProfile::raspberry_pi3();
  const sim::Scenario airport = sim::make_airport_scenario(kStartTime);
  const sim::Scenario residential = sim::make_residential_scenario(kStartTime);

  print_header("Table II: CPU, power and memory benchmarks (Pi 3 cost model)");

  std::printf("\nKey size 1024 bits\n");
  print_rule();
  print_row(fixed_rate_row(profile, 2.0, 1024), 2.17, "2.17 %, 1.5817 W");
  print_row(fixed_rate_row(profile, 3.0, 1024), 3.17, "3.17 %, 1.5835 W");
  print_row(fixed_rate_row(profile, 5.0, 1024), 5.59, "5.59 %, 1.5879 W");
  print_row(field_row(profile, airport, 1024), 0.024, "0.024 %, 1.5778 W");
  print_row(field_row(profile, residential, 1024), 1.567, "1.567 %, 1.5806 W");

  std::printf("\nKey size 2048 bits\n");
  print_rule();
  print_row(fixed_rate_row(profile, 2.0, 2048), 10.94, "10.94 %, 1.5976 W");
  print_row(fixed_rate_row(profile, 3.0, 2048), 16.81, "16.81 %, 1.6082 W");
  print_row(fixed_rate_row(profile, 5.0, 2048), -1, "- (cannot sustain 5 Hz)");
  print_row(field_row(profile, airport, 2048), 0.122, "0.122 %, 1.5780 W");
  print_row(field_row(profile, residential, 2048), -1, "- (cannot sustain bursts)");

  const MemoryAccountant mem = MemoryAccountant::alidrone_client();
  std::printf("\nMemory: %.2f MB (%.1f %% of 1 GB)      paper: 3.27 MB (0.3 %%)\n",
              mem.resident_mb(), mem.percent_of_pi3());

  // Shape checks.
  const Row f5_2048 = fixed_rate_row(profile, 5.0, 2048);
  const Row res_2048 = field_row(profile, residential, 2048);
  const Row f5_1024 = fixed_rate_row(profile, 5.0, 1024);
  const Row res_1024 = field_row(profile, residential, 1024);
  const Row air_1024 = field_row(profile, airport, 1024);
  const bool shape_ok = !f5_2048.sustainable && !res_2048.sustainable &&
                        f5_1024.sustainable &&
                        res_1024.cpu_percent < f5_1024.cpu_percent &&
                        air_1024.cpu_percent < res_1024.cpu_percent;
  std::printf("shape vs paper: %s\n", shape_ok ? "OK" : "MISMATCH");
  return shape_ok ? 0 : 1;
}

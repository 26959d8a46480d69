// Shared helpers for the figure/table regeneration benches.
#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/flight.h"
#include "core/sampler.h"
#include "geo/units.h"
#include "sim/scenarios.h"
#include "tee/secure_monitor.h"

namespace alidrone::bench {

inline constexpr double kStartTime = 1528400000.0;

/// A fast TEE for simulation-driven benches: 512-bit keys keep the real
/// crypto cheap; Table II numbers come from the calibrated Pi 3 cost
/// model, not from x86 wall-clock time.
inline tee::DroneTee make_bench_tee(const std::string& seed = "bench-device") {
  tee::DroneTee::Config config;
  config.key_bits = 512;
  config.manufacturing_seed = seed;
  return tee::DroneTee(config);
}

struct ScenarioRun {
  core::FlightResult result;
  double duration = 0.0;
  std::size_t scheduled_misses = 0;
};

/// Run one sampling policy over a scenario at the given GPS update rate.
inline ScenarioRun run_scenario(const sim::Scenario& scenario, double gps_rate_hz,
                                core::SamplingPolicy& policy,
                                std::vector<double> scheduled_miss_times = {}) {
  tee::DroneTee tee = make_bench_tee();

  gps::GpsReceiverSim::Config rc;
  rc.update_rate_hz = gps_rate_hz;
  rc.start_time = scenario.route.start_time();
  rc.scheduled_miss_times = std::move(scheduled_miss_times);
  gps::GpsReceiverSim receiver(rc, scenario.route.as_position_source());

  core::FlightConfig config;
  config.end_time = scenario.route.end_time();
  config.frame = scenario.frame;
  config.local_zones = scenario.local_zones();

  ScenarioRun run;
  run.result = core::run_flight(tee, receiver, policy, config);
  run.duration = scenario.route.duration();
  run.scheduled_misses = static_cast<std::size_t>(receiver.missed_updates());
  return run;
}

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void print_rule() {
  std::printf("-------------------------------------------------------------------\n");
}

}  // namespace alidrone::bench

// Regenerates Figure 6: airport scenario — cumulative number of GPS
// samples in the PoA vs distance to the no-fly-zone boundary, for 1 Hz
// Fix Rate Sampling and for Adaptive Sampling.
//
// Paper result: 649 samples at 1 Hz fixed vs 14 samples adaptive over a
// ~12 minute drive receding from a 5-mile airport NFZ. The shape to
// reproduce: the fixed-rate curve grows linearly with time regardless of
// distance, while the adaptive curve flattens out almost immediately —
// an order-of-magnitude-plus reduction.
#include <cstdio>

#include "bench_util.h"
#include "core/sufficiency.h"

namespace alidrone::bench {
namespace {

struct Series {
  std::string name;
  std::size_t total_samples = 0;
  // (distance_to_nfz_ft, cumulative_samples) at regular distance stops.
  std::vector<std::pair<double, std::size_t>> points;
};

Series run_series(const sim::Scenario& scenario, const std::string& name,
                  bool adaptive) {
  const double gps_rate = 5.0;  // receiver max rate; sampler decides usage
  std::unique_ptr<core::SamplingPolicy> policy;
  if (adaptive) {
    policy = std::make_unique<core::AdaptiveSampler>(
        scenario.frame, scenario.local_zones(), geo::kFaaMaxSpeedMps, gps_rate);
  } else {
    policy = std::make_unique<core::FixedRateSampler>(1.0, kStartTime);
  }
  const ScenarioRun run = run_scenario(scenario, gps_rate, *policy);

  Series series;
  series.name = name;
  series.total_samples = run.result.poa_samples.size();

  double next_stop_ft = 0.0;
  for (const core::FlightLogEntry& e : run.result.log) {
    const double dist_ft = geo::meters_to_feet(e.nearest_zone_distance);
    if (dist_ft >= next_stop_ft) {
      series.points.push_back({dist_ft, e.cumulative_samples});
      next_stop_ft += 1000.0;
    }
  }
  return series;
}

}  // namespace
}  // namespace alidrone::bench

int main() {
  using namespace alidrone;
  using namespace alidrone::bench;

  const sim::Scenario scenario = sim::make_airport_scenario(kStartTime);

  print_header("Figure 6: airport scenario (NFZ radius 5 mi, receding drive)");
  std::printf("route: %.2f miles in %.1f minutes, start %.1f ft outside the NFZ\n",
              geo::meters_to_miles(scenario.route.length_m()),
              scenario.route.duration() / 60.0,
              geo::meters_to_feet(geo::to_local(scenario.frame, scenario.zones[0])
                                      .boundary_distance(scenario.route.local_position_at(
                                          scenario.route.start_time()))));

  const Series fixed = run_series(scenario, "1Hz Fix Rate Sampling", false);
  const Series adaptive = run_series(scenario, "Adaptive Sampling", true);

  print_rule();
  std::printf("%-22s | cumulative #samples vs distance to NFZ boundary\n", "");
  std::printf("%-22s |", "distance (ft)");
  for (const auto& [dist, n] : fixed.points) std::printf(" %7.0f", dist);
  std::printf("\n");
  std::printf("%-22s |", fixed.name.c_str());
  for (const auto& [dist, n] : fixed.points) std::printf(" %7zu", n);
  std::printf("\n");
  std::printf("%-22s |", adaptive.name.c_str());
  for (const auto& [dist, n] : adaptive.points) std::printf(" %7zu", n);
  std::printf("\n");
  print_rule();

  std::printf("TOTALS   fixed 1Hz: %zu samples   adaptive: %zu samples   "
              "reduction: %.1fx\n",
              fixed.total_samples, adaptive.total_samples,
              static_cast<double>(fixed.total_samples) /
                  static_cast<double>(std::max<std::size_t>(1, adaptive.total_samples)));
  std::printf("paper    fixed 1Hz: 649 samples   adaptive: 14 samples   "
              "reduction: 46.4x\n");

  // Sanity: the adaptive PoA must still be sufficient.
  std::vector<gps::GpsFix> fixes;
  {
    std::unique_ptr<core::SamplingPolicy> policy =
        std::make_unique<core::AdaptiveSampler>(scenario.frame, scenario.local_zones(),
                                                geo::kFaaMaxSpeedMps, 5.0);
    const ScenarioRun run = run_scenario(scenario, 5.0, *policy);
    for (const core::SignedSample& s : run.result.poa_samples) {
      if (const auto f = s.fix()) fixes.push_back(*f);
    }
  }
  const core::SufficiencyReport report =
      core::check_sufficiency(fixes, scenario.zones, geo::kFaaMaxSpeedMps);
  std::printf("adaptive PoA sufficiency (eq. 1): %s\n",
              report.sufficient ? "SUFFICIENT" : "INSUFFICIENT");
  return report.sufficient ? 0 : 1;
}

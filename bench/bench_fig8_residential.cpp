// Regenerates Figure 8 (and stands in for the Figure 7 map): residential
// scenario — a ~1 mile drive past 94 dense house NFZs (radius 20 ft).
//
//  (a) distance to the nearest NFZ over time  (50-100 ft band tightening
//      to 20-70 ft, closest approach ~21 ft);
//  (b) instantaneous PoA sampling rate for 2/3/5 Hz Fix Rate Sampling vs
//      Adaptive Sampling (adaptive stays below 2 Hz in the sparse stretch
//      and pushes toward max rate in the dense stretch);
//  (c) cumulative count of insufficient PoA pairs (paper: 39 at 2 Hz,
//      9 at 3 Hz, and a single insufficiency for 5 Hz/adaptive caused by
//      a missed GPS hardware update at the 25 ft closest approach).
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "core/sufficiency.h"

namespace alidrone::bench {
namespace {

struct PolicyOutcome {
  std::string name;
  std::size_t samples = 0;
  int insufficient = 0;
  std::vector<std::pair<double, double>> rate_series;  // (t, inst. rate)
  std::vector<std::pair<double, int>> insufficiency_series;
};

PolicyOutcome evaluate(const sim::Scenario& scenario,
                       std::unique_ptr<core::SamplingPolicy> policy,
                       const std::string& name, double gps_rate,
                       const std::vector<double>& miss_times) {
  const ScenarioRun run = run_scenario(scenario, gps_rate, *policy, miss_times);

  PolicyOutcome out;
  out.name = name;
  out.samples = run.result.poa_samples.size();

  // Decode the recorded PoA.
  std::vector<gps::GpsFix> fixes;
  for (const core::SignedSample& s : run.result.poa_samples) {
    if (const auto f = s.fix()) fixes.push_back(*f);
  }

  // (b) instantaneous rate = 1/gap between consecutive PoA samples.
  for (std::size_t i = 1; i < fixes.size(); ++i) {
    const double gap = fixes[i].unix_time - fixes[i - 1].unix_time;
    if (gap > 0.0) {
      out.rate_series.push_back({fixes[i].unix_time - kStartTime, 1.0 / gap});
    }
  }

  // (c) cumulative insufficiency (the Fig. 8(c) counting rule).
  core::InsufficiencyCounter counter(scenario.frame, scenario.local_zones(),
                                     geo::kFaaMaxSpeedMps);
  for (const gps::GpsFix& f : fixes) {
    counter.add_sample(f);
    out.insufficiency_series.push_back({f.unix_time - kStartTime, counter.count()});
  }
  out.insufficient = counter.count();
  return out;
}

double series_at(const std::vector<std::pair<double, double>>& series, double t) {
  double value = 0.0;
  for (const auto& [time, v] : series) {
    if (time > t) break;
    value = v;
  }
  return value;
}

int count_at(const std::vector<std::pair<double, int>>& series, double t) {
  int value = 0;
  for (const auto& [time, v] : series) {
    if (time > t) break;
    value = v;
  }
  return value;
}

}  // namespace
}  // namespace alidrone::bench

int main() {
  using namespace alidrone;
  using namespace alidrone::bench;

  const sim::Scenario scenario = sim::make_residential_scenario(kStartTime);
  const auto zones = scenario.local_zones();

  // ---- Figure 7 stand-in: route & zone layout summary ----
  print_header("Figure 7 (stand-in): residential route and NFZ layout");
  std::printf("route: %.2f miles in %.0f s; %zu house NFZs of radius %.0f ft\n",
              geo::meters_to_miles(scenario.route.length_m()),
              scenario.route.duration(), scenario.zones.size(),
              geo::meters_to_feet(scenario.zones[0].radius_m));
  std::printf("leg 1: %.0f m east along street 1 (sparser, deeper setbacks)\n", 800.0);
  std::printf("leg 2: %.0f m north along street 2 (dense, shallow setbacks)\n", 810.0);

  // ---- (a) distance to the nearest NFZ + closest approach ----
  print_header("Figure 8(a): distance to the nearest NFZ over time");
  double min_dist = 1e18;
  double min_dist_time = 0.0;
  for (double t = scenario.route.start_time(); t <= scenario.route.end_time();
       t += 0.1) {
    const double d = core::nearest_zone_boundary_distance(
        scenario.route.local_position_at(t), zones);
    if (d < min_dist) {
      min_dist = d;
      min_dist_time = t;
    }
  }
  std::printf("t(s):        ");
  for (double t = 0; t <= scenario.route.duration(); t += 15.0) std::printf(" %6.0f", t);
  std::printf("\ndistance(ft):");
  for (double t = 0; t <= scenario.route.duration(); t += 15.0) {
    const double d = core::nearest_zone_boundary_distance(
        scenario.route.local_position_at(kStartTime + t), zones);
    std::printf(" %6.1f", geo::meters_to_feet(d));
  }
  std::printf("\nclosest approach: %.1f ft at t=%.1f s  (paper: 21 ft)\n",
              geo::meters_to_feet(min_dist), min_dist_time - kStartTime);

  // A missed hardware update is injected at the closest approach, as
  // observed in the paper's field study.
  const std::vector<double> miss_times{min_dist_time};

  // ---- run all four policies ----
  std::vector<PolicyOutcome> outcomes;
  outcomes.push_back(evaluate(
      scenario, std::make_unique<core::FixedRateSampler>(2.0, kStartTime),
      "2Hz Fix Rate", 5.0, miss_times));
  outcomes.push_back(evaluate(
      scenario, std::make_unique<core::FixedRateSampler>(3.0, kStartTime),
      "3Hz Fix Rate", 5.0, miss_times));
  outcomes.push_back(evaluate(
      scenario, std::make_unique<core::FixedRateSampler>(5.0, kStartTime),
      "5Hz Fix Rate", 5.0, miss_times));
  outcomes.push_back(evaluate(
      scenario,
      std::make_unique<core::AdaptiveSampler>(scenario.frame, zones,
                                              geo::kFaaMaxSpeedMps, 5.0),
      "Adaptive", 5.0, miss_times));

  // ---- (b) instantaneous sampling rate ----
  print_header("Figure 8(b): instantaneous sampling rate (Hz)");
  std::printf("%-14s", "t(s):");
  for (double t = 10; t <= scenario.route.duration(); t += 15.0) std::printf(" %6.0f", t);
  std::printf("\n");
  for (const PolicyOutcome& o : outcomes) {
    std::printf("%-14s", o.name.c_str());
    for (double t = 10; t <= scenario.route.duration(); t += 15.0) {
      std::printf(" %6.2f", series_at(o.rate_series, t));
    }
    std::printf("\n");
  }

  // ---- (c) cumulative insufficient PoAs ----
  print_header("Figure 8(c): total number of insufficient PoA pairs");
  std::printf("%-14s", "t(s):");
  for (double t = 15; t <= scenario.route.duration(); t += 15.0) std::printf(" %6.0f", t);
  std::printf("\n");
  for (const PolicyOutcome& o : outcomes) {
    std::printf("%-14s", o.name.c_str());
    for (double t = 15; t <= scenario.route.duration(); t += 15.0) {
      std::printf(" %6d", count_at(o.insufficiency_series, t));
    }
    std::printf("\n");
  }

  print_rule();
  std::printf("%-14s %10s %14s    (paper: 2Hz=39, 3Hz=9, 5Hz~=adaptive~=1 due to\n",
              "policy", "#samples", "#insufficient");
  std::printf("%-14s %10s %14s     a missed GPS update at 25 ft)\n", "", "", "");
  for (const PolicyOutcome& o : outcomes) {
    std::printf("%-14s %10zu %14d\n", o.name.c_str(), o.samples, o.insufficient);
  }

  // Shape checks: who wins and in what order.
  const bool shape_ok =
      outcomes[0].insufficient > outcomes[1].insufficient &&   // 2Hz worst
      outcomes[1].insufficient > outcomes[3].insufficient &&   // 3Hz worse than adaptive
      outcomes[3].insufficient <= outcomes[2].insufficient + 1 &&  // adaptive ~ 5Hz
      outcomes[3].samples < outcomes[2].samples;               // with fewer samples
  std::printf("shape vs paper: %s\n", shape_ok ? "OK" : "MISMATCH");
  return shape_ok ? 0 : 1;
}

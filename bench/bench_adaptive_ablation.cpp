// Ablation A3: sensitivity of the adaptive sampling algorithm — how the
// number of PoA samples scales with zone distance, zone density, the
// assumed v_max, and the GPS update rate. These are the design knobs
// Section IV-C3 trades off; none are swept in the paper's evaluation, so
// this bench documents the behaviour the design implies.
#include <cstdio>

#include "bench_util.h"
#include "core/sufficiency.h"
#include "geo/ellipse.h"

namespace alidrone::bench {
namespace {

const geo::GeoPoint kAnchor{40.1100, -88.2200};

/// Straight 1 km drive at 10 m/s past `zone_count` zones of radius 6.1 m
/// (20 ft) at lateral `offset_m` from the road, spaced 30 m apart around
/// the midpoint.
sim::Scenario lateral_scenario(double offset_m, int zone_count) {
  const geo::LocalFrame frame(kAnchor);
  std::vector<geo::GeoZone> zones;
  zones.reserve(static_cast<std::size_t>(zone_count));
  for (int i = 0; i < zone_count; ++i) {
    const double along = 500.0 + (i - zone_count / 2) * 30.0;
    zones.push_back({frame.to_geo({along, offset_m}), 6.1});
  }
  const sim::Route route(frame, {{{0, 0}, 10.0}, {{1000, 0}, 10.0}}, kStartTime);
  return sim::Scenario{"lateral", route, std::move(zones), frame};
}

struct AblationResult {
  std::size_t samples = 0;
  std::size_t violations = 0;
};

AblationResult run_case(const sim::Scenario& scenario, double vmax, double gps_rate) {
  core::AdaptiveSampler policy(scenario.frame, scenario.local_zones(), vmax,
                               gps_rate);
  const ScenarioRun run = run_scenario(scenario, gps_rate, policy);

  std::vector<gps::GpsFix> fixes;
  for (const core::SignedSample& s : run.result.poa_samples) {
    if (const auto f = s.fix()) fixes.push_back(*f);
  }
  const core::SufficiencyReport report =
      core::check_sufficiency(fixes, scenario.zones, vmax);
  return {run.result.poa_samples.size(), report.violations.size()};
}

}  // namespace
}  // namespace alidrone::bench

int main() {
  using namespace alidrone;
  using namespace alidrone::bench;
  using sim::Route;

  print_header("Adaptive-sampling ablation: samples vs zone distance");
  std::printf("  (1 km drive at 10 m/s past one 20 ft zone; GPS 5 Hz, v_max 100 mph)\n");
  std::printf("  %-18s %10s %12s\n", "lateral offset", "#samples", "#violations");
  std::vector<std::size_t> by_distance;
  for (const double offset : {15.0, 30.0, 60.0, 120.0, 250.0, 500.0, 1000.0}) {
    const auto r = run_case(bench::lateral_scenario(offset, 1),
                            geo::kFaaMaxSpeedMps, 5.0);
    by_distance.push_back(r.samples);
    std::printf("  %15.0f m %10zu %12zu\n", offset, r.samples, r.violations);
  }

  print_header("Adaptive-sampling ablation: samples vs zone density");
  std::printf("  (zones 30 m apart at 40 m lateral offset)\n");
  std::printf("  %-18s %10s %12s\n", "#zones", "#samples", "#violations");
  std::vector<std::size_t> by_density;
  for (const int count : {1, 2, 4, 8, 16, 30}) {
    const auto r =
        run_case(bench::lateral_scenario(40.0, count), geo::kFaaMaxSpeedMps, 5.0);
    by_density.push_back(r.samples);
    std::printf("  %18d %10zu %12zu\n", count, r.samples, r.violations);
  }

  print_header("Adaptive-sampling ablation: samples vs assumed v_max");
  std::printf("  (one zone at 40 m; smaller v_max bounds the drone tighter -> fewer samples)\n");
  std::printf("  %-18s %10s %12s\n", "v_max (mph)", "#samples", "#violations");
  std::vector<std::size_t> by_vmax;
  for (const double vmax_mph : {30.0, 60.0, 100.0, 150.0, 300.0}) {
    const auto r = run_case(bench::lateral_scenario(40.0, 1),
                            geo::mph_to_mps(vmax_mph), 5.0);
    by_vmax.push_back(r.samples);
    std::printf("  %18.0f %10zu %12zu\n", vmax_mph, r.samples, r.violations);
  }

  print_header("Adaptive-sampling ablation: samples vs GPS update rate");
  std::printf("  (one zone at 40 m; condition (3) widens its window at low rates)\n");
  std::printf("  %-18s %10s %12s\n", "GPS rate (Hz)", "#samples", "#violations");
  for (const double rate : {1.0, 2.0, 3.0, 5.0}) {
    const auto r = run_case(bench::lateral_scenario(40.0, 1),
                            geo::kFaaMaxSpeedMps, rate);
    std::printf("  %18.0f %10zu %12zu\n", rate, r.samples, r.violations);
  }

  // How conservative is the paper's focal-distance test (eq. 2) relative
  // to exact ellipse/circle disjointness? Sweep random geometries and
  // count the cases where only the exact test can certify the alibi —
  // the sampling-rate headroom a more expensive verifier would buy.
  print_header("Focal test (eq. 2) conservatism vs exact disjointness");
  crypto::DeterministicRandom rng("conservatism");
  int disjoint_exact = 0;
  int certified_focal = 0;
  int total = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    const geo::Vec2 f1{rng.uniform_double() * 200.0 - 100.0,
                       rng.uniform_double() * 200.0 - 100.0};
    const geo::Vec2 f2{rng.uniform_double() * 200.0 - 100.0,
                       rng.uniform_double() * 200.0 - 100.0};
    const double slack = 1.0 + rng.uniform_double() * 100.0;
    const geo::TravelEllipse e(f1, f2, geo::distance(f1, f2) + slack);
    const geo::Circle z{{rng.uniform_double() * 400.0 - 200.0,
                         rng.uniform_double() * 400.0 - 200.0},
                        5.0 + rng.uniform_double() * 40.0};
    ++total;
    const bool exact = e.exactly_disjoint(z);
    const bool focal = e.focal_test_disjoint(z);
    if (exact) ++disjoint_exact;
    if (focal) ++certified_focal;
    if (focal && !exact) {
      std::printf("  UNSOUND focal certification found (bug!)\n");
      return 1;
    }
  }
  std::printf("  %d random geometries: exact disjoint %d, focal certified %d\n",
              total, disjoint_exact, certified_focal);
  std::printf("  focal test misses %.1f%% of provable alibis (the price of a\n"
              "  closed-form check the drone can afford per GPS update)\n",
              100.0 * (disjoint_exact - certified_focal) /
                  std::max(1, disjoint_exact));

  // Shape: samples decrease with distance, increase with density and vmax.
  const bool shape_ok = by_distance.front() > by_distance.back() &&
                        by_density.front() < by_density.back() &&
                        by_vmax.front() < by_vmax.back() &&
                        certified_focal <= disjoint_exact;
  std::printf("\nshape (monotone trends): %s\n", shape_ok ? "OK" : "MISMATCH");
  return shape_ok ? 0 : 1;
}

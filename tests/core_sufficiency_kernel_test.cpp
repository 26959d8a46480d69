// Differential test of FocalPairKernel: every caller of eq. (1) against
// the separate loops it replaced, kept here as test-only reference copies.
// Planar inputs must give identical violation lists (pair index, zone
// index, focal sum and allowed distance bit for bit), identical thinning
// and identical sampler decisions. Cylinder inputs must match too whenever
// no sample lies inside a cylinder — the one place the kernel differs, by
// design.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "core/attacks.h"
#include "core/sampler.h"
#include "core/sufficiency.h"
#include "core/thinning.h"
#include "crypto/random.h"
#include "geo/units.h"
#include "sim/scenarios.h"

namespace alidrone::core {
namespace {

constexpr double kT0 = 1528400000.0;
constexpr double kVmax = geo::kFaaMaxSpeedMps;

// ---- Reference copies of the loops the kernel replaced ----

namespace reference {

SufficiencyReport check_sufficiency(const std::vector<gps::GpsFix>& samples,
                                    const std::vector<geo::GeoZone>& zones,
                                    double vmax_mps) {
  SufficiencyReport report;
  if (samples.empty()) return report;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    if (samples[i].unix_time < samples[i - 1].unix_time) return report;
  }
  report.well_formed = true;

  const geo::LocalFrame frame(samples.front().position);
  std::vector<geo::Circle> local_zones;
  for (const geo::GeoZone& z : zones) local_zones.push_back(geo::to_local(frame, z));

  for (std::size_t i = 0; i < samples.size(); ++i) {
    const geo::Vec2 p = frame.to_local(samples[i].position);
    for (std::size_t zi = 0; zi < local_zones.size(); ++zi) {
      const double d = local_zones[zi].boundary_distance(p);
      if (d < 0.0) report.violations.push_back({i, zi, d, 0.0});
    }
  }
  for (std::size_t i = 0; i + 1 < samples.size(); ++i) {
    const geo::Vec2 p1 = frame.to_local(samples[i].position);
    const geo::Vec2 p2 = frame.to_local(samples[i + 1].position);
    const double allowed = vmax_mps * (samples[i + 1].unix_time - samples[i].unix_time);
    double min_focal = std::numeric_limits<double>::infinity();
    std::size_t min_zone = 0;
    for (std::size_t zi = 0; zi < local_zones.size(); ++zi) {
      const double focal = local_zones[zi].boundary_distance(p1) +
                           local_zones[zi].boundary_distance(p2);
      if (focal < min_focal) {
        min_focal = focal;
        min_zone = zi;
      }
    }
    if (!local_zones.empty() && min_focal < allowed) {
      report.violations.push_back({i, min_zone, min_focal, allowed});
    }
  }
  report.sufficient = report.violations.empty();
  return report;
}

/// The unsigned distance the 3D check used: 0 inside the solid.
double cylinder_distance(const geo::Cylinder& c, geo::Vec3 p) {
  const double radial = std::max(0.0, geo::distance(geo::Vec2{p.x, p.y}, c.center) - c.radius);
  double axial = 0.0;
  if (p.z < 0.0) {
    axial = -p.z;
  } else if (p.z > c.height) {
    axial = p.z - c.height;
  }
  return std::hypot(radial, axial);
}

SufficiencyReport check_sufficiency_3d(const std::vector<gps::GpsFix>& samples,
                                       const std::vector<geo::GeoZone3>& zones,
                                       double vmax_mps) {
  SufficiencyReport report;
  if (samples.empty()) return report;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    if (samples[i].unix_time < samples[i - 1].unix_time) return report;
  }
  report.well_formed = true;

  const geo::LocalFrame frame(samples.front().position);
  std::vector<geo::Cylinder> cylinders;
  for (const geo::GeoZone3& z : zones) {
    cylinders.push_back({frame.to_local(z.center), z.radius_m, z.ceiling_m});
  }
  for (std::size_t i = 0; i + 1 < samples.size(); ++i) {
    const geo::Vec2 q1 = frame.to_local(samples[i].position);
    const geo::Vec2 q2 = frame.to_local(samples[i + 1].position);
    const geo::Vec3 p1{q1.x, q1.y, samples[i].altitude_m};
    const geo::Vec3 p2{q2.x, q2.y, samples[i + 1].altitude_m};
    const double allowed = vmax_mps * (samples[i + 1].unix_time - samples[i].unix_time);
    double min_focal = std::numeric_limits<double>::infinity();
    std::size_t min_zone = 0;
    for (std::size_t zi = 0; zi < cylinders.size(); ++zi) {
      const double focal =
          cylinder_distance(cylinders[zi], p1) + cylinder_distance(cylinders[zi], p2);
      if (focal < min_focal) {
        min_focal = focal;
        min_zone = zi;
      }
    }
    if (!cylinders.empty() && min_focal < allowed) {
      report.violations.push_back({i, min_zone, min_focal, allowed});
    }
  }
  report.sufficient = report.violations.empty();
  return report;
}

/// Thinning's old pair test and greedy argmax.
std::vector<std::size_t> thin_indices(const std::vector<gps::GpsFix>& samples,
                                      const std::vector<geo::GeoZone>& zones,
                                      double vmax) {
  if (samples.empty()) return {};
  const geo::LocalFrame frame(samples.front().position);
  std::vector<geo::Vec2> positions;
  for (const gps::GpsFix& s : samples) positions.push_back(frame.to_local(s.position));
  std::vector<geo::Circle> local_zones;
  for (const geo::GeoZone& z : zones) local_zones.push_back(geo::to_local(frame, z));

  const auto pair_sufficient = [&](std::size_t i, std::size_t j) {
    if (local_zones.empty()) return true;
    const double allowed = vmax * (samples[j].unix_time - samples[i].unix_time);
    double min_focal = std::numeric_limits<double>::infinity();
    for (const geo::Circle& z : local_zones) {
      min_focal = std::min(min_focal, z.boundary_distance(positions[i]) +
                                          z.boundary_distance(positions[j]));
    }
    return min_focal >= allowed;
  };

  std::vector<std::size_t> kept{0};
  std::size_t i = 0;
  while (i + 1 < samples.size()) {
    std::size_t best = i + 1;
    for (std::size_t j = i + 1; j < samples.size(); ++j) {
      if (pair_sufficient(i, j)) best = j;
    }
    kept.push_back(best);
    i = best;
  }
  return kept;
}

/// Algorithm 1's old conditions (2)/(3).
class AdaptiveSampler {
 public:
  AdaptiveSampler(geo::LocalFrame frame, std::vector<geo::Circle> zones, double vmax,
                  double rate_hz)
      : frame_(frame), zones_(std::move(zones)), vmax_(vmax), period_(1.0 / rate_hz) {}

  bool should_authenticate(const gps::GpsFix& fix) const {
    if (!has_last_) return true;
    if (zones_.empty()) return false;
    const geo::Vec2 pos = frame_.to_local(fix.position);
    double focal = std::numeric_limits<double>::infinity();
    for (const geo::Circle& z : zones_) {
      focal = std::min(focal, z.boundary_distance(last_pos_) + z.boundary_distance(pos));
    }
    const double elapsed = fix.unix_time - last_time_;
    if (!(focal >= vmax_ * elapsed)) return true;
    return focal < vmax_ * (elapsed + 2.0 * period_);
  }

  void on_recorded(const gps::GpsFix& fix) {
    has_last_ = true;
    last_pos_ = frame_.to_local(fix.position);
    last_time_ = fix.unix_time;
  }

 private:
  geo::LocalFrame frame_;
  std::vector<geo::Circle> zones_;
  double vmax_;
  double period_;
  bool has_last_ = false;
  geo::Vec2 last_pos_{};
  double last_time_ = 0.0;
};

}  // namespace reference

// ---- Comparison helpers ----

void expect_same_violations(const SufficiencyReport& kernel,
                            const SufficiencyReport& ref) {
  EXPECT_EQ(kernel.well_formed, ref.well_formed);
  EXPECT_EQ(kernel.sufficient, ref.sufficient);
  ASSERT_EQ(kernel.violations.size(), ref.violations.size());
  for (std::size_t k = 0; k < ref.violations.size(); ++k) {
    const InsufficientPair& a = kernel.violations[k];
    const InsufficientPair& b = ref.violations[k];
    EXPECT_EQ(a.first_index, b.first_index) << "violation " << k;
    EXPECT_EQ(a.zone_index, b.zone_index) << "violation " << k;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.focal_sum_m),
              std::bit_cast<std::uint64_t>(b.focal_sum_m))
        << "violation " << k;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.allowed_m),
              std::bit_cast<std::uint64_t>(b.allowed_m))
        << "violation " << k;
  }
}

/// Decisions of the kernel-backed and reference samplers over `trace`,
/// recording exactly when each says so; they must never diverge.
void expect_same_sampling(const std::vector<gps::GpsFix>& trace,
                          const geo::LocalFrame& frame,
                          const std::vector<geo::Circle>& zones) {
  AdaptiveSampler sampler(frame, zones, kVmax, 5.0);
  reference::AdaptiveSampler ref(frame, zones, kVmax, 5.0);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const bool record = sampler.should_authenticate(trace[i]);
    ASSERT_EQ(record, ref.should_authenticate(trace[i])) << "fix " << i;
    if (record) {
      sampler.on_recorded(trace[i]);
      ref.on_recorded(trace[i]);
    }
  }
}

void expect_planar_agreement(const std::vector<gps::GpsFix>& trace,
                             const std::vector<geo::GeoZone>& zones) {
  expect_same_violations(check_sufficiency(trace, zones, kVmax),
                         reference::check_sufficiency(trace, zones, kVmax));
  EXPECT_EQ(thin_samples(trace, zones, kVmax).kept_indices,
            reference::thin_indices(trace, zones, kVmax));
  if (trace.empty()) return;
  const geo::LocalFrame frame(trace.front().position);
  std::vector<geo::Circle> local;
  for (const geo::GeoZone& z : zones) local.push_back(geo::to_local(frame, z));
  expect_same_sampling(trace, frame, local);
}

bool any_sample_inside(const std::vector<gps::GpsFix>& trace,
                       const std::vector<geo::GeoZone3>& zones) {
  const geo::LocalFrame frame(trace.front().position);
  for (const gps::GpsFix& f : trace) {
    const geo::Vec2 q = frame.to_local(f.position);
    for (const geo::GeoZone3& z : zones) {
      if (geo::to_local(frame, z).boundary_distance({q.x, q.y, f.altitude_m}) < 0.0) {
        return true;
      }
    }
  }
  return false;
}

/// No sample inside: identical lists. Some sample inside: the kernel
/// flags it, so the trace cannot be sufficient.
void expect_cylinder_agreement(const std::vector<gps::GpsFix>& trace,
                               const std::vector<geo::GeoZone3>& zones) {
  const SufficiencyReport kernel = check_sufficiency_3d(trace, zones, kVmax);
  if (!trace.empty() && any_sample_inside(trace, zones)) {
    EXPECT_TRUE(kernel.well_formed);
    EXPECT_FALSE(kernel.sufficient);
    return;
  }
  expect_same_violations(kernel, reference::check_sufficiency_3d(trace, zones, kVmax));
}

// ---- Scenario corpus ----

std::vector<gps::GpsFix> sample_route(const gps::PositionSource& source, double start,
                                      double end, double rate_hz) {
  std::vector<gps::GpsFix> out;
  for (double t = start; t <= end; t += 1.0 / rate_hz) out.push_back(source(t));
  return out;
}

std::vector<gps::GpsFix> at_altitude(std::vector<gps::GpsFix> trace, double altitude_m) {
  for (gps::GpsFix& f : trace) f.altitude_m = altitude_m;
  return trace;
}

std::vector<geo::GeoZone3> as_cylinders(const std::vector<geo::GeoZone>& zones,
                                        double ceiling_m) {
  std::vector<geo::GeoZone3> out;
  for (const geo::GeoZone& z : zones) out.push_back({z.center, z.radius_m, ceiling_m});
  return out;
}

/// Every n-th fix plus the last: the thinning-abuse attack's sparse trace.
std::vector<gps::GpsFix> every_nth(const std::vector<gps::GpsFix>& trace, std::size_t n) {
  std::vector<gps::GpsFix> out;
  for (std::size_t i = 0; i < trace.size(); i += n) out.push_back(trace[i]);
  if (!trace.empty() && (trace.size() - 1) % n != 0) out.push_back(trace.back());
  return out;
}

std::vector<std::vector<gps::GpsFix>> scenario_traces(const sim::Scenario& s) {
  const gps::PositionSource truth = s.route.as_position_source();
  std::vector<std::vector<gps::GpsFix>> traces;
  for (const double rate : {1.0, 2.0, 5.0}) {
    traces.push_back(sample_route(truth, s.route.start_time(), s.route.end_time(), rate));
  }
  traces.push_back(every_nth(traces.back(), 40));  // thinning abuse
  return traces;
}

TEST(FocalPairKernelDifferential, AirportScenario) {
  const sim::Scenario s = sim::make_airport_scenario(kT0);
  for (const auto& trace : scenario_traces(s)) {
    SCOPED_TRACE(trace.size());
    expect_planar_agreement(trace, s.zones);
    expect_cylinder_agreement(at_altitude(trace, 120.0), as_cylinders(s.zones, 60.0));
  }
}

TEST(FocalPairKernelDifferential, ResidentialScenario) {
  const sim::Scenario s = sim::make_residential_scenario(kT0);
  for (const auto& trace : scenario_traces(s)) {
    SCOPED_TRACE(trace.size());
    expect_planar_agreement(trace, s.zones);
    // Ground-level flight beside 10 m houses: close approaches, no entry.
    expect_cylinder_agreement(at_altitude(trace, 0.0), as_cylinders(s.zones, 10.0));
    expect_cylinder_agreement(at_altitude(trace, 40.0), as_cylinders(s.zones, 10.0));
  }
}

TEST(FocalPairKernelDifferential, AttackTraces) {
  const sim::Scenario s = sim::make_residential_scenario(kT0);
  // Spoofed drift into house #10: the trace enters the zone, so the
  // inside-sample pass runs.
  const gps::PositionSource drifted = attacks::spoofed_drift_source(
      s.route.as_position_source(), s.frame, s.frame.to_local(s.zones[10].center),
      s.route.start_time() + 10.0, 15.0);
  const std::vector<gps::GpsFix> drift =
      sample_route(drifted, s.route.start_time(), s.route.end_time(), 5.0);
  ASSERT_FALSE(check_sufficiency(drift, s.zones, kVmax).sufficient);
  expect_planar_agreement(drift, s.zones);
  expect_cylinder_agreement(at_altitude(drift, 0.0), as_cylinders(s.zones, 10.0));

  // Dropped window: a 60 s gap cut out of an honest 5 Hz trace.
  std::vector<gps::GpsFix> dropped = sample_route(
      s.route.as_position_source(), s.route.start_time(), s.route.end_time(), 5.0);
  dropped.erase(dropped.begin() + 100, dropped.begin() + 400);
  expect_planar_agreement(dropped, s.zones);
  expect_planar_agreement(every_nth(dropped, 1000), s.zones);  // endpoints only
}

// ---- Seeded random geometry ----

struct RandomCase {
  std::vector<gps::GpsFix> trace;
  std::vector<geo::GeoZone3> zones;  ///< planar cases use center and radius
};

RandomCase random_case(crypto::DeterministicRandom& rng) {
  const auto uniform = [&](double lo, double hi) {
    return lo + (hi - lo) * rng.uniform_double();
  };
  const geo::LocalFrame frame({uniform(-60.0, 60.0), uniform(-170.0, 170.0)});
  RandomCase c;
  const std::size_t zones = rng.uniform(12);  // zero zones included
  for (std::size_t i = 0; i < zones; ++i) {
    c.zones.push_back({frame.to_geo({uniform(-400, 400), uniform(-400, 400)}),
                       uniform(2.0, 120.0), uniform(5.0, 150.0)});
  }
  const std::size_t samples = 1 + rng.uniform(40);
  geo::Vec2 p{uniform(-300, 300), uniform(-300, 300)};
  double t = kT0 + uniform(0.0, 1000.0);
  for (std::size_t i = 0; i < samples; ++i) {
    gps::GpsFix f;
    f.position = frame.to_geo(p);
    f.altitude_m = uniform(0.0, 200.0);
    f.unix_time = t;
    c.trace.push_back(f);
    // Same-timestamp pairs, long gaps and teleports all show up.
    t += rng.uniform(6) == 0 ? 0.0 : uniform(0.05, 8.0);
    p = p + geo::Vec2{uniform(-150, 150), uniform(-150, 150)};
  }
  return c;
}

std::vector<geo::GeoZone> planar_of(const std::vector<geo::GeoZone3>& zones) {
  std::vector<geo::GeoZone> out;
  for (const geo::GeoZone3& z : zones) out.push_back({z.center, z.radius_m});
  return out;
}

TEST(FocalPairKernelDifferential, SeededRandomPlanarGeometry) {
  crypto::DeterministicRandom rng("focal-kernel-planar");
  for (int n = 0; n < 300; ++n) {
    SCOPED_TRACE(n);
    const RandomCase c = random_case(rng);
    expect_planar_agreement(c.trace, planar_of(c.zones));
  }
}

TEST(FocalPairKernelDifferential, SeededRandomCylinderGeometry) {
  crypto::DeterministicRandom rng("focal-kernel-3d");
  int outside_cases = 0;
  for (int n = 0; n < 300; ++n) {
    SCOPED_TRACE(n);
    const RandomCase c = random_case(rng);
    if (!any_sample_inside(c.trace, c.zones)) ++outside_cases;
    expect_cylinder_agreement(c.trace, c.zones);
  }
  EXPECT_GT(outside_cases, 100);  // the bit-exact comparison ran often
}

}  // namespace
}  // namespace alidrone::core

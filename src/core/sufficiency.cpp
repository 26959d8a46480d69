#include "core/sufficiency.h"

namespace alidrone::core {

namespace {

geo::Vec2 locate(const geo::LocalFrame& frame, const gps::GpsFix& fix, geo::Vec2) {
  return frame.to_local(fix.position);
}

geo::Vec3 locate(const geo::LocalFrame& frame, const gps::GpsFix& fix, geo::Vec3) {
  const geo::Vec2 q = frame.to_local(fix.position);
  return {q.x, q.y, fix.altitude_m};
}

/// Eq. (1) over time-ordered samples against geodetic zones of one shape.
template <class GeoShape>
SufficiencyReport check_shape(const std::vector<gps::GpsFix>& samples,
                              const std::vector<GeoShape>& zones, double vmax_mps) {
  SufficiencyReport report;
  if (samples.empty()) return report;

  // Time ordering is part of well-formedness.
  for (std::size_t i = 1; i < samples.size(); ++i) {
    if (samples[i].unix_time < samples[i - 1].unix_time) return report;
  }
  report.well_formed = true;

  const geo::LocalFrame frame(samples.front().position);
  FocalPairKernel kernel(geo::to_local(frame, zones));
  using Point = decltype(kernel)::Point;

  // A sample recorded inside a zone is a violation on its own (the drone
  // was provably there), independent of any pair; those are listed first.
  std::vector<InsufficientPair> pairs;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto probe = kernel.probe(locate(frame, samples[i], Point{}));
    if (probe.inside) {
      const std::span<const double> d = kernel.probe_distances();
      for (std::size_t zi = 0; zi < d.size(); ++zi) {
        if (d[zi] < 0.0) report.violations.push_back({i, zi, d[zi], 0.0});
      }
    }
    if (i > 0) {
      const double allowed = vmax_mps * (samples[i].unix_time - samples[i - 1].unix_time);
      if (kernel.insufficient(probe, allowed)) {
        pairs.push_back({i - 1, probe.zone_index, probe.focal_sum_m, allowed});
      }
    }
    kernel.advance();
  }
  report.violations.insert(report.violations.end(), pairs.begin(), pairs.end());

  report.sufficient = report.violations.empty();
  return report;
}

}  // namespace

SufficiencyReport check_sufficiency(const std::vector<gps::GpsFix>& samples,
                                    const std::vector<geo::GeoZone>& zones,
                                    double vmax_mps) {
  return check_shape(samples, zones, vmax_mps);
}

SufficiencyReport check_sufficiency_3d(const std::vector<gps::GpsFix>& samples,
                                       const std::vector<geo::GeoZone3>& zones,
                                       double vmax_mps) {
  return check_shape(samples, zones, vmax_mps);
}

InsufficiencyCounter::InsufficiencyCounter(const geo::LocalFrame& frame,
                                           std::vector<geo::Circle> local_zones,
                                           double vmax_mps)
    : frame_(frame), kernel_(std::move(local_zones)), vmax_(vmax_mps) {}

InsufficiencyCounter::Step InsufficiencyCounter::add_sample(const gps::GpsFix& fix) {
  const auto probe = kernel_.probe(frame_.to_local(fix.position));
  Step step{probe.inside, false};
  if (has_prev_ && kernel_.insufficient(probe, vmax_ * (fix.unix_time - prev_time_))) {
    step.insufficient = true;
    ++count_;
  }
  kernel_.advance();
  has_prev_ = true;
  prev_time_ = fix.unix_time;
  return step;
}

double nearest_zone_boundary_distance(const geo::Vec2& position,
                                      const std::vector<geo::Circle>& zones) {
  double best = std::numeric_limits<double>::infinity();
  for (const geo::Circle& z : zones) {
    best = std::min(best, z.boundary_distance(position));
  }
  return best;
}

}  // namespace alidrone::core

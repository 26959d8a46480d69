// Alibi sufficiency — equation (1) of the paper.
//
// An alibi {S_0..S_n} is sufficient w.r.t. zones Z iff every consecutive
// sample pair's possible-traveling-range ellipse is disjoint from every
// zone. The protocol (and Fig. 8(c)'s counting rule) uses the focal-
// distance criterion: the pair (S_i, S_{i+1}) is insufficient for zone z
// when  min_z (d_{i,z} + d_{i+1,z}) < v_max * (t_{i+1} - t_i), with d the
// distance to the zone *boundary*. Only the nearest zone matters.
//
// The 3D variant (Section VII-B1) replaces ellipses with ellipsoids and
// zones with cylinders.
#pragma once

#include <vector>

#include "geo/ellipse.h"
#include "geo/ellipsoid.h"
#include "geo/geopoint.h"
#include "geo/zone.h"
#include "gps/fix.h"

namespace alidrone::core {

/// One insufficient consecutive pair, for diagnostics.
struct InsufficientPair {
  std::size_t first_index = 0;       ///< i of (S_i, S_{i+1})
  std::size_t zone_index = 0;        ///< nearest violating zone
  double focal_sum_m = 0.0;          ///< D1 + D2 for that zone
  double allowed_m = 0.0;            ///< v_max * (t_{i+1} - t_i)
};

struct SufficiencyReport {
  bool sufficient = false;
  bool well_formed = false;          ///< decodable, time-ordered samples
  std::vector<InsufficientPair> violations;
};

/// Check equation (1) over decoded samples, in a local planar frame.
/// Zones are geodetic; the frame is derived from the first sample.
SufficiencyReport check_sufficiency(const std::vector<gps::GpsFix>& samples,
                                    const std::vector<geo::GeoZone>& zones,
                                    double vmax_mps);

/// Incremental counter of insufficient pairs, as tracked live in the
/// residential field study (Fig. 8(c)). Feed samples in time order.
class InsufficiencyCounter {
 public:
  InsufficiencyCounter(const geo::LocalFrame& frame,
                       std::vector<geo::Circle> local_zones, double vmax_mps);

  /// Returns true if the pair (previous, this sample) was insufficient.
  bool add_sample(const gps::GpsFix& fix);

  int count() const { return count_; }
  const geo::LocalFrame& frame() const { return frame_; }
  const std::vector<geo::Circle>& zones() const { return zones_; }

 private:
  geo::LocalFrame frame_;
  std::vector<geo::Circle> zones_;
  double vmax_;
  bool has_prev_ = false;
  geo::Vec2 prev_pos_{};
  double prev_time_ = 0.0;
  int count_ = 0;
};

/// 3D sufficiency (Section VII-B1): samples carry altitude; zones are
/// cylinders from the ground to their ceiling.
SufficiencyReport check_sufficiency_3d(const std::vector<gps::GpsFix>& samples,
                                       const std::vector<geo::GeoZone3>& zones,
                                       double vmax_mps);

/// Distance from a position to the nearest zone boundary (meters);
/// +infinity when no zones. Negative inside a zone.
double nearest_zone_boundary_distance(const geo::Vec2& position,
                                      const std::vector<geo::Circle>& zones);

}  // namespace alidrone::core

// Alibi sufficiency — equation (1) of the paper.
//
// An alibi {S_0..S_n} is sufficient w.r.t. zones Z iff every consecutive
// sample pair's possible-traveling-range ellipse is disjoint from every
// zone. The protocol (and Fig. 8(c)'s counting rule) uses the focal-
// distance criterion: the pair (S_i, S_{i+1}) is insufficient for zone z
// when  min_z (d_{i,z} + d_{i+1,z}) < v_max * (t_{i+1} - t_i), with d the
// signed distance to the zone *boundary* (negative inside). Only the
// nearest zone matters. A sample recorded inside a zone is a violation on
// its own.
//
// FocalPairKernel is the one implementation of that min over zones. It is
// templated on the zone shape: geo::Circle in the plane (Section IV-C1)
// and geo::Cylinder for the altitude extension (Section VII-B1), where
// ellipses become ellipsoids. Every caller goes through it: the batch
// checks below, InsufficiencyCounter (and so StreamingVerifier), PoA
// thinning, the adaptive sampler's conditions (2)/(3) and the Auditor's
// accusations.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "geo/geopoint.h"
#include "geo/zone.h"
#include "gps/fix.h"

namespace alidrone::core {

/// Min-over-zones focal sums of eq. (1) for any zone shape with a signed
/// `boundary_distance(Shape::Point)`. The kernel holds the boundary
/// distances of an anchor sample, so pairing a new sample with it
/// measures every zone once. Buffers are sized at construction; no call
/// allocates.
template <class Shape>
class FocalPairKernel {
 public:
  using Point = typename Shape::Point;

  /// One probe paired with the anchor.
  struct Probe {
    double focal_sum_m = 0.0;     ///< min over zones of D(anchor) + D(probe)
    std::size_t zone_index = 0;   ///< lowest zone index attaining it
    bool inside = false;          ///< the probe lies inside some zone
  };

  explicit FocalPairKernel(std::vector<Shape> zones)
      : zones_(std::move(zones)), anchor_(zones_.size()), probe_(zones_.size()) {}

  /// Measure every zone from `p` as the pair's anchor.
  void anchor(Point p) {
    for (std::size_t zi = 0; zi < zones_.size(); ++zi) {
      anchor_[zi] = zones_[zi].boundary_distance(p);
    }
  }

  /// Measure every zone from `p` and pair it with the anchor. Only the
  /// nearest zone can violate (its focal sum is minimal); ties go to the
  /// lowest index.
  Probe probe(Point p) {
    Probe best{std::numeric_limits<double>::infinity(), 0, false};
    for (std::size_t zi = 0; zi < zones_.size(); ++zi) {
      const double d = zones_[zi].boundary_distance(p);
      probe_[zi] = d;
      best.inside = best.inside || d < 0.0;
      const double focal = anchor_[zi] + d;
      if (focal < best.focal_sum_m) best = {focal, zi, best.inside};
    }
    return best;
  }

  /// The last probe becomes the anchor (consecutive pairs).
  void advance() { anchor_.swap(probe_); }

  /// Eq. (1)'s test: with no zones no pair is insufficient.
  bool insufficient(const Probe& probe, double allowed_m) const {
    return !zones_.empty() && probe.focal_sum_m < allowed_m;
  }

  /// Signed boundary distances of the last probe, by zone index.
  std::span<const double> probe_distances() const { return probe_; }

 private:
  std::vector<Shape> zones_;
  std::vector<double> anchor_;
  std::vector<double> probe_;
};

/// One violation: an insufficient consecutive pair, or a sample inside a
/// zone (then `first_index` is that sample, `focal_sum_m` its signed
/// boundary distance and `allowed_m` 0).
struct InsufficientPair {
  std::size_t first_index = 0;       ///< i of (S_i, S_{i+1})
  std::size_t zone_index = 0;        ///< nearest violating zone
  double focal_sum_m = 0.0;          ///< D1 + D2 for that zone
  double allowed_m = 0.0;            ///< v_max * (t_{i+1} - t_i)
};

struct SufficiencyReport {
  bool sufficient = false;
  bool well_formed = false;          ///< decodable, time-ordered samples
  /// Inside-zone samples first (by sample, then zone), then insufficient
  /// pairs (by pair).
  std::vector<InsufficientPair> violations;
};

/// Check equation (1) over decoded samples, in a local planar frame.
/// Zones are geodetic; the frame is derived from the first sample.
SufficiencyReport check_sufficiency(const std::vector<gps::GpsFix>& samples,
                                    const std::vector<geo::GeoZone>& zones,
                                    double vmax_mps);

/// 3D sufficiency (Section VII-B1): samples carry altitude; zones are
/// cylinders from the ground to their ceiling.
SufficiencyReport check_sufficiency_3d(const std::vector<gps::GpsFix>& samples,
                                       const std::vector<geo::GeoZone3>& zones,
                                       double vmax_mps);

/// Incremental counter of insufficient pairs, as tracked live in the
/// residential field study (Fig. 8(c)). Feed samples in time order.
class InsufficiencyCounter {
 public:
  InsufficiencyCounter(const geo::LocalFrame& frame,
                       std::vector<geo::Circle> local_zones, double vmax_mps);

  struct Step {
    bool inside = false;        ///< this sample is inside a zone
    bool insufficient = false;  ///< the pair (previous, this) is insufficient
  };
  Step add_sample(const gps::GpsFix& fix);

  int count() const { return count_; }

 private:
  geo::LocalFrame frame_;
  FocalPairKernel<geo::Circle> kernel_;
  double vmax_;
  bool has_prev_ = false;
  double prev_time_ = 0.0;
  int count_ = 0;
};

/// Distance from a position to the nearest zone boundary (meters);
/// +infinity when no zones. Negative inside a zone.
double nearest_zone_boundary_distance(const geo::Vec2& position,
                                      const std::vector<geo::Circle>& zones);

}  // namespace alidrone::core

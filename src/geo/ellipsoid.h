// 3D possible-traveling-range ellipsoid and cylindrical no-fly regions
// (paper Section VII-B1, the altitude extension).
//
// With 4-tuple samples S = (lat, lon, alt, t), the travel range between two
// samples is the prolate spheroid { p : |p-f1| + |p-f2| <= v_max (t2-t1) },
// and an NFZ z' = (lat, lon, alt, r) is a solid upright cylinder from the
// ground to altitude `alt` with base radius `r`. The pair proves alibi iff
// the spheroid and cylinder are disjoint.
#pragma once

#include <algorithm>

#include "geo/vec2.h"

namespace alidrone::geo {

/// A solid upright cylinder: base disk of `radius` centered at (center.x,
/// center.y, 0), extending from altitude 0 up to `height`.
struct Cylinder {
  using Point = Vec3;

  Vec2 center;
  double radius = 0.0;
  double height = 0.0;

  bool contains(Vec3 p) const {
    if (p.z < 0.0 || p.z > height) return false;
    const Vec2 q{p.x, p.y};
    return distance2(q, center) <= radius * radius;
  }

  /// Signed distance from `p` to the cylinder's boundary: the Euclidean
  /// distance outside; inside, minus the distance to the side wall or the
  /// ceiling, whichever is nearer (the ground is not an exit).
  double boundary_distance(Vec3 p) const;

  /// Euclidean distance from `p` to the (closed, solid) cylinder; 0 inside.
  double distance_to(Vec3 p) const { return std::max(0.0, boundary_distance(p)); }

  /// Closest point of the cylinder to `p` (is `p` itself when inside).
  Vec3 project(Vec3 p) const;
};

/// The 3D travel-range region between two timestamped 3D positions.
class TravelEllipsoid {
 public:
  TravelEllipsoid(Vec3 f1, Vec3 f2, double focal_sum);

  static TravelEllipsoid from_samples(Vec3 p1, double t1, Vec3 p2, double t2,
                                      double vmax);

  Vec3 focus1() const { return f1_; }
  Vec3 focus2() const { return f2_; }
  double focal_sum() const { return focal_sum_; }
  bool feasible() const { return focal_sum_ >= distance(f1_, f2_); }

  double focal_distance_sum(Vec3 p) const;
  bool contains(Vec3 p) const { return focal_distance_sum(p) <= focal_sum_; }

  /// Conservative focal test against a cylinder: disjoint when
  /// dist(f1, cyl) + dist(f2, cyl) >= focal_sum (cf. eq. 2 in 2D).
  bool focal_test_disjoint(const Cylinder& z) const;

  /// Exact disjointness by minimizing the (convex) focal-distance sum over
  /// the (convex) cylinder via projected subgradient descent.
  bool exactly_disjoint(const Cylinder& z) const;

  /// Minimum focal-distance sum over the solid cylinder.
  double min_focal_sum_over_cylinder(const Cylinder& z) const;

 private:
  Vec3 f1_;
  Vec3 f2_;
  double focal_sum_;
};

}  // namespace alidrone::geo

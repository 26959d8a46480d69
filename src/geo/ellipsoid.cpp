#include "geo/ellipsoid.h"

#include <algorithm>
#include <cmath>

namespace alidrone::geo {

double Cylinder::boundary_distance(Vec3 p) const {
  const Vec2 q{p.x, p.y};
  const double wall = distance(q, center) - radius;
  if (wall <= 0.0 && p.z >= 0.0 && p.z <= height) {
    return -std::min(-wall, height - p.z);
  }
  const double radial = std::max(0.0, wall);
  double axial = 0.0;
  if (p.z < 0.0) {
    axial = -p.z;
  } else if (p.z > height) {
    axial = p.z - height;
  }
  return std::hypot(radial, axial);
}

Vec3 Cylinder::project(Vec3 p) const {
  const double z = std::clamp(p.z, 0.0, height);
  Vec2 q{p.x, p.y};
  const double d = distance(q, center);
  if (d > radius) {
    q = d > 0.0 ? center + (q - center) * (radius / d)
                : center + Vec2{radius, 0.0};
  }
  return {q.x, q.y, z};
}

TravelEllipsoid::TravelEllipsoid(Vec3 f1, Vec3 f2, double focal_sum)
    : f1_(f1), f2_(f2), focal_sum_(std::max(0.0, focal_sum)) {}

TravelEllipsoid TravelEllipsoid::from_samples(Vec3 p1, double t1, Vec3 p2,
                                              double t2, double vmax) {
  return TravelEllipsoid(p1, p2, vmax * (t2 - t1));
}

double TravelEllipsoid::focal_distance_sum(Vec3 p) const {
  return distance(p, f1_) + distance(p, f2_);
}

bool TravelEllipsoid::focal_test_disjoint(const Cylinder& z) const {
  const double d1 = z.distance_to(f1_);
  const double d2 = z.distance_to(f2_);
  if (d1 <= 0.0 || d2 <= 0.0) return false;
  return d1 + d2 >= focal_sum_;
}

double TravelEllipsoid::min_focal_sum_over_cylinder(const Cylinder& z) const {
  // g(p) = |p - f1| + |p - f2| is convex; the cylinder is convex. Projected
  // subgradient descent therefore converges to the global minimum.
  const auto subgrad = [&](Vec3 p) {
    Vec3 g{0, 0, 0};
    const Vec3 a = p - f1_;
    const Vec3 b = p - f2_;
    const double na = a.norm();
    const double nb = b.norm();
    if (na > 1e-12) g = g + a * (1.0 / na);
    if (nb > 1e-12) g = g + b * (1.0 / nb);
    return g;
  };

  // Start from the projection of the segment midpoint (unconstrained
  // minimizer region) onto the cylinder.
  Vec3 p = z.project((f1_ + f2_) * 0.5);
  double best = focal_distance_sum(p);

  // Diminishing step sizes scaled by problem extent.
  const double scale =
      std::max({distance(f1_, f2_), z.radius, z.height, 1.0});
  for (int k = 1; k <= 600; ++k) {
    const Vec3 g = subgrad(p);
    const double gn = g.norm();
    if (gn < 1e-12) break;  // at the unconstrained minimum
    const double step = 0.5 * scale / (gn * std::sqrt(static_cast<double>(k)));
    p = z.project(p - g * step);
    best = std::min(best, focal_distance_sum(p));
  }
  return best;
}

bool TravelEllipsoid::exactly_disjoint(const Cylinder& z) const {
  if (!feasible()) return true;
  // Small tolerance: the subgradient minimum is approached from above.
  return min_focal_sum_over_cylinder(z) > focal_sum_ + 1e-9;
}

}  // namespace alidrone::geo

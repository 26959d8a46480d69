// Circles and segment/circle predicates in the local planar frame.
#pragma once

#include <algorithm>

#include "geo/vec2.h"

namespace alidrone::geo {

/// A disk in the local frame: the paper's planar no-fly-zone shape.
struct Circle {
  using Point = Vec2;

  Vec2 center;
  double radius = 0.0;

  bool contains(Vec2 p) const { return distance2(p, center) <= radius * radius; }

  /// Signed distance from `p` to the circle boundary: negative inside.
  double boundary_distance(Vec2 p) const { return distance(p, center) - radius; }

  constexpr bool operator==(const Circle&) const = default;
};

/// Distance from point `p` to segment [a, b].
inline double point_segment_distance(Vec2 p, Vec2 a, Vec2 b) {
  const Vec2 ab = b - a;
  const double len2 = ab.norm2();
  if (len2 == 0.0) return distance(p, a);
  const double t = std::clamp((p - a).dot(ab) / len2, 0.0, 1.0);
  return distance(p, a + ab * t);
}

/// True if segment [a, b] passes through (or touches) the disk.
inline bool segment_intersects_circle(Vec2 a, Vec2 b, const Circle& c) {
  return point_segment_distance(c.center, a, b) <= c.radius;
}

}  // namespace alidrone::geo

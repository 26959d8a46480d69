// Geodetic coordinates and conversion to a local planar frame.
//
// The paper represents GPS samples as (latitude, longitude, timestamp)
// tuples. All alibi geometry (travel-range ellipses, NFZ circles) is done
// in a local East-North frame anchored near the operating area; at the
// ranges drones cover in one flight (a few miles) an equirectangular
// projection is accurate to well under a meter, far below GPS noise.
#pragma once

#include <tuple>

#include "geo/vec2.h"

namespace alidrone::geo {

/// Mean Earth radius (WGS-84 sphere approximation), meters.
inline constexpr double kEarthRadiusMeters = 6371008.8;

/// A WGS-84 geodetic position in decimal degrees.
struct GeoPoint {
  double lat_deg = 0.0;
  double lon_deg = 0.0;

  constexpr bool operator==(const GeoPoint&) const = default;
  /// Member order on the wire (net::wire field list).
  static constexpr auto fields(auto& m) { return std::tie(m.lat_deg, m.lon_deg); }
};

/// Great-circle distance between two geodetic points, in meters (haversine).
double haversine_distance(GeoPoint a, GeoPoint b);

/// Initial great-circle bearing from `a` to `b`, degrees clockwise from north
/// in [0, 360).
double initial_bearing_deg(GeoPoint a, GeoPoint b);

/// Point reached by traveling `distance_m` meters from `origin` along the
/// given bearing (degrees clockwise from north) on the great circle.
GeoPoint destination_point(GeoPoint origin, double bearing_deg, double distance_m);

/// A local tangent-plane frame anchored at a reference geodetic point.
///
/// to_local() maps geodetic coordinates to planar East/North meters;
/// to_geo() inverts the mapping. Uses the equirectangular approximation,
/// which is exact at the anchor and degrades quadratically with distance.
class LocalFrame {
 public:
  explicit LocalFrame(GeoPoint origin);

  Vec2 to_local(GeoPoint p) const;
  GeoPoint to_geo(Vec2 v) const;
  GeoPoint origin() const { return origin_; }

 private:
  GeoPoint origin_;
  double meters_per_deg_lat_;
  double meters_per_deg_lon_;
};

}  // namespace alidrone::geo

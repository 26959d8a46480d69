// Geodetic no-fly-zone records shared by the simulator and the protocol.
#pragma once

#include <cmath>
#include <vector>

#include "geo/circle.h"
#include "geo/ellipsoid.h"
#include "geo/geopoint.h"

namespace alidrone::geo {

/// A circular no-fly-zone in geodetic coordinates: the paper's
/// z = (lat, lon, r) (Section III-A).
struct GeoZone {
  GeoPoint center;
  double radius_m = 0.0;

  constexpr bool operator==(const GeoZone&) const = default;
  /// Member order on the wire (net::wire field list).
  static constexpr auto fields(auto& m) { return std::tie(m.center, m.radius_m); }
};

/// Project a geodetic zone into a local planar frame.
inline Circle to_local(const LocalFrame& frame, const GeoZone& z) {
  return {frame.to_local(z.center), z.radius_m};
}

/// Geometry the Auditor accepts: finite, on the globe, positive radius.
inline bool is_valid_zone(const GeoZone& z) {
  return std::isfinite(z.center.lat_deg) && std::isfinite(z.center.lon_deg) &&
         std::isfinite(z.radius_m) && z.radius_m > 0.0 &&
         std::abs(z.center.lat_deg) <= 90.0 && std::abs(z.center.lon_deg) <= 180.0;
}

/// A cylinder ceiling the Auditor accepts: finite and above the ground.
inline bool is_valid_ceiling(double ceiling_m) {
  return std::isfinite(ceiling_m) && ceiling_m > 0.0;
}

/// A cylindrical 3D zone for the altitude extension (Section VII-B1):
/// z' = (lat, lon, alt, r).
struct GeoZone3 {
  GeoPoint center;
  double radius_m = 0.0;
  double ceiling_m = 0.0;  ///< cylinder extends from ground to this altitude

  constexpr bool operator==(const GeoZone3&) const = default;
};

/// Project a cylindrical zone into a local frame (altitude is kept as z).
inline Cylinder to_local(const LocalFrame& frame, const GeoZone3& z) {
  return {frame.to_local(z.center), z.radius_m, z.ceiling_m};
}

/// Project every zone of a list into a local frame.
template <class GeoShape>
auto to_local(const LocalFrame& frame, const std::vector<GeoShape>& zones) {
  std::vector<decltype(to_local(frame, zones.front()))> out;
  out.reserve(zones.size());
  for (const GeoShape& z : zones) out.push_back(to_local(frame, z));
  return out;
}

}  // namespace alidrone::geo

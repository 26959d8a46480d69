// Geodetic no-fly-zone records shared by the simulator and the protocol.
#pragma once

#include "geo/circle.h"
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

/// A cylindrical 3D zone for the altitude extension (Section VII-B1):
/// z' = (lat, lon, alt, r).
struct GeoZone3 {
  GeoPoint center;
  double radius_m = 0.0;
  double ceiling_m = 0.0;  ///< cylinder extends from ground to this altitude

  constexpr bool operator==(const GeoZone3&) const = default;
};

}  // namespace alidrone::geo

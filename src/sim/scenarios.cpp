#include "sim/scenarios.h"

#include <cmath>

#include "crypto/random.h"
#include "geo/units.h"

namespace alidrone::sim {

std::vector<geo::Circle> Scenario::local_zones() const {
  return geo::to_local(frame, zones);
}

Scenario make_airport_scenario(double start_time) {
  // Anchor the local frame at the airport (the NFZ center).
  const geo::GeoPoint airport{40.0393, -88.2781};
  const geo::LocalFrame frame(airport);

  const double nfz_radius = geo::miles_to_meters(5.0);  // FAA airport rule

  // Start 30 ft outside the NFZ boundary, due east of the airport, then
  // drive away for ~3 miles over ~12 minutes on a gently bending road.
  const double start_r = nfz_radius + geo::feet_to_meters(30.0);
  std::vector<Waypoint> wps;
  wps.push_back({{start_r, 0.0}, 6.0});

  crypto::DeterministicRandom rng("airport-route");
  double x = start_r;
  double y = 0.0;
  const double total = geo::miles_to_meters(3.0);
  const int segments = 12;
  for (int i = 1; i <= segments; ++i) {
    const double leg = total / segments;
    // Mostly radial (east), with mild lateral drift like a county road.
    const double drift = (rng.uniform_double() - 0.5) * 0.3;
    x += leg * std::cos(drift);
    y += leg * std::sin(drift);
    // Car speed varies between ~5 and ~8.4 m/s (12-19 mph with stops),
    // giving ~12 minutes for the 3 miles.
    const double speed = 5.0 + 3.4 * rng.uniform_double();
    wps.push_back({{x, y}, speed});
  }

  Scenario s{
      "airport",
      Route(frame, std::move(wps), start_time),
      {geo::GeoZone{airport, nfz_radius}},
      frame,
  };
  return s;
}

Scenario make_residential_scenario(double start_time) {
  // Anchor at the start of the drive; streets run east then north.
  const geo::GeoPoint corner{40.1100, -88.2200};
  const geo::LocalFrame frame(corner);

  const double house_radius = geo::feet_to_meters(20.0);

  std::vector<geo::GeoZone> zones;
  crypto::DeterministicRandom rng("residential-houses");

  // Street 1: 800 m east, sparser houses with deeper setbacks.
  // Boundary distance when abreast = setback - radius, targeted at the
  // 50-100 ft band of Fig. 8(a)'s opening phase.
  const double street1_len = 800.0;
  const int street1_houses = 30;
  for (int i = 0; i < street1_houses; ++i) {
    const double along = (i + 0.5) * street1_len / street1_houses;
    const double setback_ft = 70.0 + 50.0 * rng.uniform_double();  // 70-120 ft
    const double side = (i % 2 == 0) ? 1.0 : -1.0;
    const geo::Vec2 center{along, side * geo::feet_to_meters(setback_ft)};
    zones.push_back({frame.to_geo(center), house_radius});
  }

  // Street 2: 810 m north, dense houses with shallow setbacks
  // (boundary 20-70 ft band). One house is placed at a 41 ft setback to
  // reproduce the paper's 21 ft closest approach.
  const double street2_len = 810.0;
  const int street2_houses = 64;
  const int closest_house = 40;
  for (int i = 0; i < street2_houses; ++i) {
    const double along = (i + 0.5) * street2_len / street2_houses;
    double setback_ft = 45.0 + 45.0 * rng.uniform_double();  // 45-90 ft
    if (i == closest_house) setback_ft = 41.0;               // min distance 21 ft
    const double side = (i % 2 == 0) ? 1.0 : -1.0;
    const geo::Vec2 center{street1_len + side * geo::feet_to_meters(setback_ft),
                           along};
    zones.push_back({frame.to_geo(center), house_radius});
  }

  // The drive: east along street 1 (~11 m/s), turn, north along street 2
  // (~9.5 m/s). Roughly one mile in ~155 s, matching Fig. 8's time axis.
  std::vector<Waypoint> wps;
  wps.push_back({{0.0, 0.0}, 11.0});
  wps.push_back({{street1_len * 0.5, 0.0}, 11.5});
  wps.push_back({{street1_len, 0.0}, 10.5});
  wps.push_back({{street1_len, street2_len * 0.3}, 9.5});
  wps.push_back({{street1_len, street2_len * 0.7}, 9.8});
  wps.push_back({{street1_len, street2_len}, 9.2});

  Scenario s{
      "residential",
      Route(frame, std::move(wps), start_time),
      std::move(zones),
      frame,
  };
  return s;
}

}  // namespace alidrone::sim

#include <gtest/gtest.h>

#include "core/poa.h"
#include "core/sufficiency.h"
#include "geo/units.h"
#include "tee/sample_codec.h"

namespace alidrone::core {
namespace {

constexpr double kT0 = 1528400000.0;
const geo::GeoPoint kAnchor{40.1100, -88.2200};

gps::GpsFix make_fix(double east_m, double north_m, double t) {
  const geo::LocalFrame frame(kAnchor);
  gps::GpsFix f;
  f.position = frame.to_geo({east_m, north_m});
  f.unix_time = t;
  return f;
}

SignedSample make_sample(double east_m, double north_m, double t) {
  return {tee::encode_sample(make_fix(east_m, north_m, t)), crypto::Bytes{0xAA}};
}

TEST(ProofOfAlibi, SerializeParseRoundTrip) {
  ProofOfAlibi poa;
  poa.drone_id = "drone-7";
  poa.mode = AuthMode::kHmacSession;
  poa.hash = crypto::HashAlgorithm::kSha256;
  poa.encrypted = true;
  poa.samples = {make_sample(0, 0, kT0), make_sample(10, 5, kT0 + 1)};
  poa.batch_signature = {1, 2, 3};
  poa.session_key_ciphertext = {4, 5};
  poa.session_key_signature = {6};

  const auto parsed = ProofOfAlibi::parse(poa.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->drone_id, "drone-7");
  EXPECT_EQ(parsed->mode, AuthMode::kHmacSession);
  EXPECT_EQ(parsed->hash, crypto::HashAlgorithm::kSha256);
  EXPECT_TRUE(parsed->encrypted);
  ASSERT_EQ(parsed->samples.size(), 2u);
  EXPECT_EQ(parsed->samples[0].sample, poa.samples[0].sample);
  EXPECT_EQ(parsed->samples[1].signature, poa.samples[1].signature);
  EXPECT_EQ(parsed->batch_signature, poa.batch_signature);
  EXPECT_EQ(parsed->session_key_ciphertext, poa.session_key_ciphertext);
}

TEST(ProofOfAlibi, ParseRejectsGarbage) {
  EXPECT_FALSE(ProofOfAlibi::parse({}).has_value());
  EXPECT_FALSE(ProofOfAlibi::parse(crypto::Bytes{1, 2, 3}).has_value());

  ProofOfAlibi poa;
  poa.drone_id = "d";
  crypto::Bytes bytes = poa.serialize();
  bytes.push_back(0x00);  // trailing garbage
  EXPECT_FALSE(ProofOfAlibi::parse(bytes).has_value());
}

TEST(ProofOfAlibi, ParseRejectsBadEnums) {
  ProofOfAlibi poa;
  poa.drone_id = "d";
  crypto::Bytes bytes = poa.serialize();
  // Byte layout: [len u32]["d"][mode][hash][encrypted]...
  bytes[5] = 7;  // invalid mode
  EXPECT_FALSE(ProofOfAlibi::parse(bytes).has_value());
}

TEST(ProofOfAlibi, StartEndTimes) {
  ProofOfAlibi poa;
  EXPECT_FALSE(poa.start_time().has_value());
  poa.samples = {make_sample(0, 0, kT0), make_sample(5, 0, kT0 + 30)};
  EXPECT_NEAR(*poa.start_time(), kT0, 1e-6);
  EXPECT_NEAR(*poa.end_time(), kT0 + 30, 1e-6);
}

TEST(Sufficiency, EmptyAlibiIsNotWellFormed) {
  const SufficiencyReport report = check_sufficiency({}, {}, geo::kFaaMaxSpeedMps);
  EXPECT_FALSE(report.well_formed);
  EXPECT_FALSE(report.sufficient);
}

TEST(Sufficiency, NoZonesAlwaysSufficient) {
  const std::vector<gps::GpsFix> samples{make_fix(0, 0, kT0),
                                         make_fix(5000, 0, kT0 + 1000)};
  const SufficiencyReport report = check_sufficiency(samples, {}, geo::kFaaMaxSpeedMps);
  EXPECT_TRUE(report.well_formed);
  EXPECT_TRUE(report.sufficient);
}

TEST(Sufficiency, OutOfOrderSamplesRejected) {
  const std::vector<gps::GpsFix> samples{make_fix(0, 0, kT0 + 10),
                                         make_fix(5, 0, kT0)};
  EXPECT_FALSE(check_sufficiency(samples, {}, geo::kFaaMaxSpeedMps).well_formed);
}

TEST(Sufficiency, FarZoneSufficientCloseZoneNot) {
  const geo::LocalFrame frame(kAnchor);
  const std::vector<gps::GpsFix> samples{make_fix(0, 0, kT0),
                                         make_fix(100, 0, kT0 + 10)};
  // 10 s at v_max covers 447 m of focal slack.
  const geo::GeoZone far_zone{frame.to_geo({0, 4000}), 50.0};
  EXPECT_TRUE(check_sufficiency(samples, {far_zone}, geo::kFaaMaxSpeedMps).sufficient);

  const geo::GeoZone near_zone{frame.to_geo({50, 150}), 50.0};
  const SufficiencyReport report =
      check_sufficiency(samples, {near_zone}, geo::kFaaMaxSpeedMps);
  EXPECT_FALSE(report.sufficient);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].first_index, 0u);
  EXPECT_LT(report.violations[0].focal_sum_m, report.violations[0].allowed_m);
}

TEST(Sufficiency, SampleInsideZoneIsViolation) {
  const geo::LocalFrame frame(kAnchor);
  const std::vector<gps::GpsFix> samples{make_fix(0, 0, kT0)};
  const geo::GeoZone zone{frame.to_geo({0, 0}), 100.0};  // sample inside
  const SufficiencyReport report =
      check_sufficiency(samples, {zone}, geo::kFaaMaxSpeedMps);
  EXPECT_TRUE(report.well_formed);
  EXPECT_FALSE(report.sufficient);
}

TEST(Sufficiency, PaperTangencyThreshold) {
  // Exactly at the boundary of eq. (2): D1 + D2 == vmax * dt is sufficient,
  // a hair under is not.
  const geo::LocalFrame frame(kAnchor);
  const double vmax = geo::kFaaMaxSpeedMps;
  const double dt = 2.0;
  // Zone north of the path; D1 = D2 = 300 m - radius. A millimeter of
  // slack absorbs the local-frame projection round trip.
  const double radius = 300.0 - vmax * dt / 2.0 - 0.001;
  const geo::GeoZone zone{frame.to_geo({0, 300}), radius};
  const std::vector<gps::GpsFix> at_threshold{make_fix(0, 0, kT0),
                                              make_fix(0, 0, kT0 + dt)};
  EXPECT_TRUE(check_sufficiency(at_threshold, {zone}, vmax).sufficient);

  const geo::GeoZone bigger{frame.to_geo({0, 300}), radius + 0.01};
  EXPECT_FALSE(check_sufficiency(at_threshold, {bigger}, vmax).sufficient);
}

TEST(Sufficiency, OnlyNearestZoneReported) {
  const geo::LocalFrame frame(kAnchor);
  const std::vector<gps::GpsFix> samples{make_fix(0, 0, kT0),
                                         make_fix(10, 0, kT0 + 5)};
  const std::vector<geo::GeoZone> zones{
      {frame.to_geo({0, 120}), 30.0},   // near (violating)
      {frame.to_geo({0, 200}), 30.0},   // farther (also violating alone)
  };
  const SufficiencyReport report = check_sufficiency(samples, zones, geo::kFaaMaxSpeedMps);
  ASSERT_EQ(report.violations.size(), 1u);  // one per pair, nearest zone
  EXPECT_EQ(report.violations[0].zone_index, 0u);
}

TEST(InsufficiencyCounter, MatchesBatchChecker) {
  const geo::LocalFrame frame(kAnchor);
  const geo::GeoZone zone{frame.to_geo({0, 100}), 40.0};
  std::vector<gps::GpsFix> samples;
  for (int i = 0; i < 30; ++i) {
    // Hovering near the zone with quadratically growing time gaps; later
    // pairs allow enough travel slack to become insufficient.
    samples.push_back(make_fix(0, 0, kT0 + i * i * 0.05));
  }
  const SufficiencyReport report =
      check_sufficiency(samples, {zone}, geo::kFaaMaxSpeedMps);

  InsufficiencyCounter counter(frame, {geo::to_local(frame, zone)},
                               geo::kFaaMaxSpeedMps);
  for (const gps::GpsFix& s : samples) counter.add_sample(s);
  EXPECT_EQ(static_cast<std::size_t>(counter.count()), report.violations.size());
  EXPECT_GT(counter.count(), 0);
}

TEST(Sufficiency3d, AltitudeProvidesAlibiThePlanarModelCannot) {
  const geo::LocalFrame frame(kAnchor);
  std::vector<gps::GpsFix> samples;
  for (int i = 0; i < 5; ++i) {
    gps::GpsFix f = make_fix(i * 20.0 - 40.0, 0, kT0 + i * 0.5);
    f.altitude_m = 300.0;  // well above the zone ceiling
    samples.push_back(f);
  }
  const geo::GeoZone planar{frame.to_geo({0, 2}), 10.0};
  const geo::GeoZone3 cylinder{frame.to_geo({0, 2}), 10.0, 60.0};

  // The 2D model flags the overflight...
  EXPECT_FALSE(check_sufficiency(samples, {planar}, geo::kFaaMaxSpeedMps).sufficient);
  // ...but in 3D the drone provably stayed above the 60 m ceiling.
  EXPECT_TRUE(check_sufficiency_3d(samples, {cylinder}, geo::kFaaMaxSpeedMps).sufficient);
}

TEST(Sufficiency3d, LowFlightThroughCylinderCaught) {
  const geo::LocalFrame frame(kAnchor);
  std::vector<gps::GpsFix> samples;
  for (int i = 0; i < 5; ++i) {
    gps::GpsFix f = make_fix(i * 20.0 - 40.0, 0, kT0 + i * 2.0);
    f.altitude_m = 30.0;  // below the ceiling
    samples.push_back(f);
  }
  const geo::GeoZone3 cylinder{frame.to_geo({0, 2}), 10.0, 60.0};
  EXPECT_FALSE(check_sufficiency_3d(samples, {cylinder}, geo::kFaaMaxSpeedMps).sufficient);
}

TEST(Sufficiency3d, SampleInsideCylinderIsViolation) {
  const geo::LocalFrame frame(kAnchor);
  gps::GpsFix f = make_fix(0, 0, kT0);
  f.altitude_m = 10.0;  // at the centre, under the 100 m ceiling
  const geo::GeoZone3 cylinder{frame.to_geo({0, 0}), 50.0, 100.0};
  const SufficiencyReport report =
      check_sufficiency_3d({f}, {cylinder}, geo::kFaaMaxSpeedMps);
  EXPECT_TRUE(report.well_formed);
  EXPECT_FALSE(report.sufficient);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].first_index, 0u);
  EXPECT_DOUBLE_EQ(report.violations[0].focal_sum_m, -50.0);  // nearest exit: the wall
}

TEST(Sufficiency3d, SameTimestampSamplesInsideCylinderInsufficient) {
  const geo::LocalFrame frame(kAnchor);
  gps::GpsFix f = make_fix(0, 0, kT0);
  f.altitude_m = 10.0;
  const std::vector<gps::GpsFix> samples{f, f};
  const geo::GeoZone3 cylinder{frame.to_geo({0, 0}), 50.0, 100.0};
  const SufficiencyReport volumetric =
      check_sufficiency_3d(samples, {cylinder}, geo::kFaaMaxSpeedMps);
  const SufficiencyReport planar = check_sufficiency(
      samples, {{cylinder.center, cylinder.radius_m}}, geo::kFaaMaxSpeedMps);
  EXPECT_FALSE(volumetric.sufficient);
  // Two inside samples plus the zero-slack pair, as in the plane.
  EXPECT_EQ(volumetric.violations.size(), 3u);
  EXPECT_EQ(volumetric.violations.size(), planar.violations.size());
}

TEST(NearestZoneDistance, InfinityWithoutZones) {
  EXPECT_TRUE(std::isinf(nearest_zone_boundary_distance({0, 0}, {})));
  const std::vector<geo::Circle> zones{{{30, 40}, 10.0}};
  EXPECT_DOUBLE_EQ(nearest_zone_boundary_distance({0, 0}, zones), 40.0);
}

}  // namespace
}  // namespace alidrone::core

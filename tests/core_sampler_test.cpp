#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/flight.h"
#include "core/sampler.h"
#include "core/sufficiency.h"
#include "geo/units.h"
#include "sim/scenarios.h"
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

TEST(AdaptiveSampler, AlwaysRecordsFirstFix) {
  const geo::LocalFrame frame(kAnchor);
  AdaptiveSampler sampler(frame, {}, geo::kFaaMaxSpeedMps, 5.0);
  EXPECT_TRUE(sampler.should_authenticate(make_fix(0, 0, kT0)));
}

TEST(AdaptiveSampler, NoZonesMeansNoFurtherSamples) {
  const geo::LocalFrame frame(kAnchor);
  AdaptiveSampler sampler(frame, {}, geo::kFaaMaxSpeedMps, 5.0);
  sampler.on_recorded(make_fix(0, 0, kT0));
  for (int i = 1; i <= 100; ++i) {
    EXPECT_FALSE(sampler.should_authenticate(make_fix(i * 5.0, 0, kT0 + i * 0.2)));
  }
}

TEST(AdaptiveSampler, FarFromZoneSkipsNearZoneSamples) {
  const geo::LocalFrame frame(kAnchor);
  // Zone 5 km north: the drone can idle for ~minutes before resampling.
  AdaptiveSampler sampler(frame, {{{0, 5000}, 50.0}}, geo::kFaaMaxSpeedMps, 5.0);
  sampler.on_recorded(make_fix(0, 0, kT0));
  EXPECT_FALSE(sampler.should_authenticate(make_fix(0, 0, kT0 + 10.0)));
  EXPECT_FALSE(sampler.should_authenticate(make_fix(0, 0, kT0 + 100.0)));
  // Eventually conditions (2)+(3) trip: the window is
  // (2*4950/v_max - 2/R, 2*4950/v_max] ~ (221.06 s, 221.46 s].
  EXPECT_TRUE(sampler.should_authenticate(make_fix(0, 0, kT0 + 221.3)));
}

TEST(AdaptiveSampler, ImplementsAlgorithmOneWindow) {
  const geo::LocalFrame frame(kAnchor);
  const double vmax = geo::kFaaMaxSpeedMps;
  const double rate = 5.0;
  AdaptiveSampler sampler(frame, {{{0, 1000}, 100.0}}, vmax, rate);
  const gps::GpsFix s1 = make_fix(0, 0, kT0);
  sampler.on_recorded(s1);

  // D1 + D2 = 1800 m while hovering. The sampling window is
  // (D/vmax - 2/R, D/vmax]: inside it -> record; before it -> skip.
  const double window_end = 1800.0 / vmax;           // ~40.26 s
  const double window_start = window_end - 2.0 / rate;  // 0.4 s earlier

  EXPECT_FALSE(sampler.should_authenticate(make_fix(0, 0, kT0 + window_start - 0.05)));
  EXPECT_TRUE(sampler.should_authenticate(make_fix(0, 0, kT0 + window_start + 0.05)));
  EXPECT_TRUE(sampler.should_authenticate(make_fix(0, 0, kT0 + window_end - 0.01)));
  // Past the window (missed update): record as best effort.
  EXPECT_TRUE(sampler.should_authenticate(make_fix(0, 0, kT0 + window_end + 5.0)));
}

TEST(AdaptiveSampler, ChecksCounterIncrements) {
  const geo::LocalFrame frame(kAnchor);
  AdaptiveSampler sampler(frame, {}, geo::kFaaMaxSpeedMps, 5.0);
  sampler.should_authenticate(make_fix(0, 0, kT0));
  sampler.should_authenticate(make_fix(0, 0, kT0 + 0.2));
  EXPECT_EQ(sampler.checks(), 2u);
}

TEST(FixedRateSampler, PaperExampleThreeHzOverFiveHzUpdates) {
  // Section VI-A1: sampler at 3 Hz over a 5 Hz receiver samples at
  // t = 0.0, 0.4, 0.8 (first update at/after each wake).
  FixedRateSampler sampler(3.0, kT0);
  std::vector<double> taken;
  for (int i = 0; i <= 5; ++i) {  // updates at 0, .2, .4, .6, .8, 1.0
    const gps::GpsFix fix = make_fix(0, 0, kT0 + i * 0.2);
    if (sampler.should_authenticate(fix)) {
      taken.push_back(fix.unix_time - kT0);
      sampler.on_recorded(fix);
    }
  }
  ASSERT_EQ(taken.size(), 3u);
  EXPECT_NEAR(taken[0], 0.0, 1e-6);
  EXPECT_NEAR(taken[1], 0.4, 1e-6);
  EXPECT_NEAR(taken[2], 0.8, 1e-6);
}

TEST(FixedRateSampler, MatchedRatesSampleEveryUpdate) {
  FixedRateSampler sampler(5.0, kT0);
  int taken = 0;
  for (int i = 0; i <= 24; ++i) {
    const gps::GpsFix fix = make_fix(0, 0, kT0 + i * 0.2);
    if (sampler.should_authenticate(fix)) {
      ++taken;
      sampler.on_recorded(fix);
    }
  }
  EXPECT_EQ(taken, 25);
}

TEST(FixedRateSampler, NameIncludesRate) {
  EXPECT_EQ(FixedRateSampler(2.0, kT0).name(), "fixed-2Hz");
}

// ---- The core correctness property of the paper ----
// At the receiver's maximum 5 Hz rate, Algorithm 1 yields a PoA that is
// *always* sufficient (eq. 1) in both field-study geometries, with far
// fewer samples than one per GPS update. At lower update rates even
// max-rate sampling cannot maintain sufficiency near dense zones (this is
// exactly why 2/3 Hz fixed-rate accumulate violations in Fig. 8(c)) — but
// adaptive sampling is never worse there than fixed-rate at the same
// rate, while still skipping samples when far from zones.
class AdaptiveSufficiencyProperty
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {
 protected:
  struct Outcome {
    std::size_t samples = 0;
    std::size_t gps_updates = 0;
    std::size_t violations = 0;
  };

  static Outcome run(const sim::Scenario& scenario, double gps_rate, bool adaptive) {
    tee::DroneTee::Config tee_config;
    tee_config.key_bits = 512;
    tee_config.manufacturing_seed = "sufficiency-prop";
    tee::DroneTee tee(tee_config);

    gps::GpsReceiverSim::Config rc;
    rc.update_rate_hz = gps_rate;
    rc.start_time = scenario.route.start_time();
    gps::GpsReceiverSim receiver(rc, scenario.route.as_position_source());

    std::unique_ptr<SamplingPolicy> policy;
    if (adaptive) {
      policy = std::make_unique<AdaptiveSampler>(
          scenario.frame, scenario.local_zones(), geo::kFaaMaxSpeedMps, gps_rate);
    } else {
      policy = std::make_unique<FixedRateSampler>(gps_rate, rc.start_time);
    }

    FlightConfig config;
    config.end_time = scenario.route.end_time();
    config.frame = scenario.frame;
    config.local_zones = scenario.local_zones();
    const FlightResult result = run_flight(tee, receiver, *policy, config);

    std::vector<gps::GpsFix> fixes;
    for (const SignedSample& s : result.poa_samples) {
      const auto f = s.fix();
      if (f) fixes.push_back(*f);
    }
    const SufficiencyReport report =
        check_sufficiency(fixes, scenario.zones, geo::kFaaMaxSpeedMps);
    return {result.poa_samples.size(), static_cast<std::size_t>(result.gps_updates),
            report.violations.size()};
  }
};

TEST_P(AdaptiveSufficiencyProperty, SufficientAtMaxRateNeverWorseBelow) {
  const auto [scenario_name, gps_rate] = GetParam();
  const sim::Scenario scenario = scenario_name == "airport"
                                     ? sim::make_airport_scenario(kT0)
                                     : sim::make_residential_scenario(kT0);

  const Outcome adaptive = run(scenario, gps_rate, /*adaptive=*/true);
  ASSERT_GT(adaptive.samples, 0u);

  const Outcome fixed = run(scenario, gps_rate, /*adaptive=*/false);

  // Never worse on sufficiency than burning every update through the TEE.
  EXPECT_LE(adaptive.violations, fixed.violations) << scenario.name;

  if (gps_rate >= 5.0) {
    // The paper's headline invariant (Goal G1 + G2): sufficient at max
    // rate, with strictly fewer TEE samples than fixed max-rate sampling.
    EXPECT_EQ(adaptive.violations, 0u) << scenario.name;
    EXPECT_LT(adaptive.samples, adaptive.gps_updates);
    EXPECT_LT(adaptive.samples, fixed.samples);
  } else {
    // Below the needed rate near dense zones the algorithm degenerates to
    // best-effort max-rate sampling — it may use every update, but never
    // more than one sample per update.
    EXPECT_LE(adaptive.samples, adaptive.gps_updates);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ScenariosAndRates, AdaptiveSufficiencyProperty,
    ::testing::Combine(::testing::Values(std::string("airport"), std::string("residential")),
                       ::testing::Values(2.0, 3.0, 5.0)));

TEST(RunFlight, LogCoversEveryUpdateAndCountsMatch) {
  const sim::Scenario scenario = sim::make_airport_scenario(kT0);
  tee::DroneTee::Config tee_config;
  tee_config.key_bits = 512;
  tee::DroneTee tee(tee_config);

  gps::GpsReceiverSim::Config rc;
  rc.update_rate_hz = 1.0;
  rc.start_time = scenario.route.start_time();
  gps::GpsReceiverSim receiver(rc, scenario.route.as_position_source());

  AdaptiveSampler policy(scenario.frame, scenario.local_zones(),
                         geo::kFaaMaxSpeedMps, 1.0);
  FlightConfig config;
  config.end_time = scenario.route.start_time() + 60.0;
  config.frame = scenario.frame;
  config.local_zones = scenario.local_zones();
  const FlightResult result = run_flight(tee, receiver, policy, config);

  EXPECT_EQ(result.log.size(), result.gps_updates);
  EXPECT_EQ(result.tee_failures, 0u);
  std::size_t recorded = 0;
  for (const FlightLogEntry& e : result.log) {
    if (e.recorded) ++recorded;
    EXPECT_GT(e.nearest_zone_distance, 0.0);
  }
  EXPECT_EQ(recorded, result.poa_samples.size());
}

TEST(RunFlight, EncryptionProducesCiphertextSamples) {
  const sim::Scenario scenario = sim::make_airport_scenario(kT0);
  tee::DroneTee::Config tee_config;
  tee_config.key_bits = 512;
  tee::DroneTee tee(tee_config);

  crypto::DeterministicRandom rng("auditor-key");
  const crypto::RsaKeyPair auditor = crypto::generate_rsa_keypair(512, rng);

  gps::GpsReceiverSim::Config rc;
  rc.update_rate_hz = 1.0;
  rc.start_time = scenario.route.start_time();
  gps::GpsReceiverSim receiver(rc, scenario.route.as_position_source());

  FixedRateSampler policy(1.0, scenario.route.start_time());
  FlightConfig config;
  config.end_time = scenario.route.start_time() + 10.0;
  config.auditor_encryption_key = auditor.pub;
  const FlightResult result = run_flight(tee, receiver, policy, config);

  ASSERT_GT(result.poa_samples.size(), 0u);
  for (const SignedSample& s : result.poa_samples) {
    // Ciphertext, not a 32-byte plaintext sample.
    EXPECT_EQ(s.sample.size(), auditor.pub.modulus_bytes());
    const auto plain = crypto::rsa_decrypt(auditor.priv, s.sample);
    ASSERT_TRUE(plain.has_value());
    EXPECT_TRUE(crypto::rsa_verify(tee.verification_key(), *plain, s.signature,
                                   crypto::HashAlgorithm::kSha1));
  }
}

}  // namespace
}  // namespace alidrone::core

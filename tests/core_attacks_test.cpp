// GPS forgery attacks (Section III-B) — every move a dishonest Drone
// Operator can make must be rejected by the Auditor (Goal G3).
#include <gtest/gtest.h>

#include <string>

#include "core/attacks.h"
#include "core/auditor.h"
#include "core/drone_client.h"
#include "core/zone_owner.h"
#include "geo/units.h"
#include "net/message_bus.h"
#include "sim/scenarios.h"

namespace alidrone::core {
namespace {

constexpr double kT0 = 1528400000.0;
constexpr std::size_t kTestKeyBits = 512;

class AttackFixture : public ::testing::Test {
 protected:
  AttackFixture()
      : auditor_rng_("attack-auditor"),
        owner_rng_("attack-owner"),
        operator_rng_("attack-operator"),
        attacker_rng_("attacker"),
        auditor_(kTestKeyBits, auditor_rng_),
        owner_(kTestKeyBits, owner_rng_),
        tee_(make_tee_config()),
        client_(tee_, kTestKeyBits, operator_rng_),
        scenario_(sim::make_residential_scenario(kT0)) {
    auditor_.bind(bus_);
    EXPECT_TRUE(client_.register_with_auditor(bus_));
    for (const geo::GeoZone& z : scenario_.zones) {
      owner_.register_zone(bus_, z, "house");
    }
  }

  static tee::DroneTee::Config make_tee_config() {
    tee::DroneTee::Config config;
    config.key_bits = kTestKeyBits;
    config.manufacturing_seed = "attack-test-device";
    return config;
  }

  ProofOfAlibi honest_flight() {
    gps::GpsReceiverSim::Config rc;
    rc.update_rate_hz = 5.0;
    rc.start_time = scenario_.route.start_time();
    gps::GpsReceiverSim receiver(rc, scenario_.route.as_position_source());
    AdaptiveSampler policy(scenario_.frame, scenario_.local_zones(),
                           geo::kFaaMaxSpeedMps, 5.0);
    FlightConfig config;
    config.end_time = scenario_.route.end_time();
    config.frame = scenario_.frame;
    config.local_zones = scenario_.local_zones();
    return client_.fly(receiver, policy, config);
  }

  crypto::DeterministicRandom auditor_rng_;
  crypto::DeterministicRandom owner_rng_;
  crypto::DeterministicRandom operator_rng_;
  crypto::DeterministicRandom attacker_rng_;
  net::MessageBus bus_;
  Auditor auditor_;
  ZoneOwner owner_;
  tee::DroneTee tee_;
  DroneClient client_;
  sim::Scenario scenario_;
};

TEST_F(AttackFixture, HonestBaselinePasses) {
  const PoaVerdict verdict = auditor_.verify_poa(honest_flight(), kT0 + 200);
  EXPECT_TRUE(verdict.accepted);
  EXPECT_TRUE(verdict.compliant);
}

TEST_F(AttackFixture, ForgedTraceRejectedSignatureMismatch) {
  // The attacker pre-computes an innocuous route far from every zone and
  // signs it with a key they generated — T- is out of reach.
  std::vector<gps::GpsFix> fake_route;
  const geo::LocalFrame frame(scenario_.frame);
  for (int i = 0; i < 20; ++i) {
    gps::GpsFix f;
    f.position = frame.to_geo({-5000.0 + i * 10.0, -5000.0});
    f.unix_time = kT0 + i * 0.2;
    fake_route.push_back(f);
  }
  const ProofOfAlibi forged = attacks::forge_trace(
      client_.id(), fake_route, crypto::HashAlgorithm::kSha1, kTestKeyBits,
      attacker_rng_);

  const PoaVerdict verdict = auditor_.verify_poa(forged, kT0 + 100);
  EXPECT_FALSE(verdict.accepted);
  EXPECT_NE(verdict.detail.find("signature invalid"), std::string::npos);
}

TEST_F(AttackFixture, RelayedPoaRejectedWrongTeeKey) {
  // A second drone with its own TEE flies honestly; our attacker presents
  // that drone's PoA under their own id.
  tee::DroneTee::Config other_config;
  other_config.key_bits = kTestKeyBits;
  other_config.manufacturing_seed = "accomplice-device";
  tee::DroneTee other_tee(other_config);
  crypto::DeterministicRandom other_rng("accomplice-operator");
  DroneClient accomplice(other_tee, kTestKeyBits, other_rng);
  ASSERT_TRUE(accomplice.register_with_auditor(bus_));

  gps::GpsReceiverSim::Config rc;
  rc.update_rate_hz = 5.0;
  rc.start_time = scenario_.route.start_time();
  gps::GpsReceiverSim receiver(rc, scenario_.route.as_position_source());
  AdaptiveSampler policy(scenario_.frame, scenario_.local_zones(),
                         geo::kFaaMaxSpeedMps, 5.0);
  FlightConfig config;
  config.end_time = scenario_.route.end_time();
  config.frame = scenario_.frame;
  config.local_zones = scenario_.local_zones();
  const ProofOfAlibi accomplice_poa = accomplice.fly(receiver, policy, config);

  // Sanity: the accomplice's own submission verifies.
  EXPECT_TRUE(auditor_.verify_poa(accomplice_poa, kT0 + 200).accepted);

  const ProofOfAlibi relayed = attacks::relay(accomplice_poa, client_.id());
  const PoaVerdict verdict = auditor_.verify_poa(relayed, kT0 + 200);
  EXPECT_FALSE(verdict.accepted);
}

TEST_F(AttackFixture, TamperedPositionRejected) {
  ProofOfAlibi poa = honest_flight();
  // Teleport sample 3 a kilometer west without re-signing.
  const auto fix = poa.samples[3].fix();
  ASSERT_TRUE(fix.has_value());
  const ProofOfAlibi tampered = attacks::tamper_position(
      poa, 3, {fix->position.lat_deg, fix->position.lon_deg - 0.01});
  const PoaVerdict verdict = auditor_.verify_poa(tampered, kT0 + 200);
  EXPECT_FALSE(verdict.accepted);
  EXPECT_NE(verdict.detail.find("sample 3"), std::string::npos);
}

TEST_F(AttackFixture, TamperedTimestampRejected) {
  const ProofOfAlibi tampered = attacks::tamper_time(honest_flight(), 5, 30.0);
  EXPECT_FALSE(auditor_.verify_poa(tampered, kT0 + 200).accepted);
}

TEST_F(AttackFixture, DroppedSamplesBreakSufficiencyNearZones) {
  // The operator cuts the middle of the trace (e.g. to hide a detour into
  // a backyard). Signatures remain valid but the time gap near dense NFZs
  // is insufficient under eq. (1).
  ProofOfAlibi poa = honest_flight();
  ASSERT_GT(poa.samples.size(), 30u);
  const std::size_t from = poa.samples.size() / 3;
  const std::size_t to = poa.samples.size() * 2 / 3;
  const ProofOfAlibi gapped = attacks::drop_samples(poa, from, to);

  const PoaVerdict verdict = auditor_.verify_poa(gapped, kT0 + 200);
  EXPECT_TRUE(verdict.accepted);       // nothing is forged...
  EXPECT_FALSE(verdict.compliant);     // ...but the alibi no longer holds
  EXPECT_GT(verdict.violation_count, 0u);
}

TEST_F(AttackFixture, ReplayedPoaCannotAnswerLaterIncident) {
  // The operator submits an honest PoA for flight 1, then flies into a
  // zone at a later time and replays the old PoA. The accusation at the
  // later incident time is not covered by the replayed flight window.
  const ProofOfAlibi poa = honest_flight();
  ASSERT_TRUE(auditor_.verify_poa(poa, kT0 + 200).compliant);

  const ZoneId accused_zone = "zone-11";
  const double later_incident = kT0 + 5000.0;  // a different flight entirely
  const AccusationRequest accusation =
      owner_.make_accusation(accused_zone, client_.id(), later_incident);
  const AccusationResponse response = auditor_.handle_accusation(accusation);
  EXPECT_TRUE(response.ok);
  EXPECT_FALSE(response.alibi_holds);
}

TEST_F(AttackFixture, ReorderedSamplesRejected) {
  ProofOfAlibi poa = honest_flight();
  ASSERT_GT(poa.samples.size(), 4u);
  std::swap(poa.samples[1], poa.samples[2]);
  const PoaVerdict verdict = auditor_.verify_poa(poa, kT0 + 200);
  EXPECT_FALSE(verdict.accepted);
  EXPECT_EQ(verdict.detail, "samples not time-ordered");
}

TEST_F(AttackFixture, SignatureSwapAcrossSamplesRejected) {
  ProofOfAlibi poa = honest_flight();
  ASSERT_GT(poa.samples.size(), 4u);
  std::swap(poa.samples[1].signature, poa.samples[2].signature);
  const PoaVerdict verdict = auditor_.verify_poa(poa, kT0 + 200);
  EXPECT_FALSE(verdict.accepted);
  EXPECT_EQ(verdict.detail, "sample 1 signature invalid");
}

TEST_F(AttackFixture, ForgedSignatureMidPoaReportsItsIndex) {
  // A valid signature from another sample, pasted mid-PoA: the verdict
  // names exactly the sample that carries it.
  ProofOfAlibi poa = honest_flight();
  ASSERT_GT(poa.samples.size(), 4u);
  const std::size_t victim = poa.samples.size() / 2;
  poa.samples[victim].signature = poa.samples[0].signature;
  const PoaVerdict verdict = auditor_.verify_poa(poa, kT0 + 200);
  EXPECT_FALSE(verdict.accepted);
  EXPECT_EQ(verdict.detail,
            "sample " + std::to_string(victim) + " signature invalid");
}

TEST_F(AttackFixture, TwoForgeriesReportTheLowerIndex) {
  ProofOfAlibi poa = honest_flight();
  ASSERT_GT(poa.samples.size(), 4u);
  const std::size_t victim = poa.samples.size() / 2;
  poa.samples[victim].signature = poa.samples[0].signature;
  poa.samples[victim + 1].signature = poa.samples[1].signature;
  const PoaVerdict verdict = auditor_.verify_poa(poa, kT0 + 200);
  EXPECT_FALSE(verdict.accepted);
  EXPECT_EQ(verdict.detail,
            "sample " + std::to_string(victim) + " signature invalid");
}

TEST_F(AttackFixture, MaliciousUartInjectionDocumentedLimitation) {
  // Section V-A: an attacker who wires a programmable UART into the GPS
  // port can make the TEE sign forged positions — the signatures then
  // verify. This test documents the acknowledged limitation (mitigation:
  // embedded GPS chips).
  const geo::LocalFrame frame(scenario_.frame);
  gps::GpsReceiverSim::Config rc;
  rc.update_rate_hz = 5.0;
  rc.start_time = kT0;
  // The "UART device" claims the drone is far away from everything.
  gps::GpsReceiverSim fake_receiver(rc, [&frame](double t) {
    gps::GpsFix f;
    f.position = frame.to_geo({-50000.0, -50000.0});
    f.unix_time = t;
    return f;
  });

  FixedRateSampler policy(1.0, kT0);
  FlightConfig config;
  config.end_time = kT0 + 30.0;
  const FlightResult result = run_flight(tee_, fake_receiver, policy, config);

  ProofOfAlibi poa;
  poa.drone_id = client_.id();
  poa.samples = result.poa_samples;
  const PoaVerdict verdict = auditor_.verify_poa(poa, kT0 + 100);
  EXPECT_TRUE(verdict.accepted);  // the TEE signed what the "hardware" said
  EXPECT_TRUE(verdict.compliant);
}

TEST_F(AttackFixture, NavigationDeviationDriftConvictedByItsOwnPoa) {
  // Gradual GPS spoofing drifts the vehicle into house #10's zone. The
  // attack defeats navigation, not the alibi: the TEE signs the deviated
  // fixes, so the PoA itself documents the zone entry.
  const geo::GeoZone target = scenario_.zones[10];
  gps::PositionSource source = attacks::spoofed_drift_source(
      scenario_.route.as_position_source(), scenario_.frame,
      scenario_.frame.to_local(target.center),
      scenario_.route.start_time() + 10.0, 15.0);

  gps::GpsReceiverSim::Config rc;
  rc.update_rate_hz = 5.0;
  rc.start_time = scenario_.route.start_time();
  gps::GpsReceiverSim receiver(rc, std::move(source));
  AdaptiveSampler policy(scenario_.frame, scenario_.local_zones(),
                         geo::kFaaMaxSpeedMps, 5.0);
  FlightConfig config;
  config.end_time = scenario_.route.end_time();
  config.frame = scenario_.frame;
  config.local_zones = scenario_.local_zones();
  const ProofOfAlibi poa = client_.fly(receiver, policy, config);

  const PoaVerdict verdict = auditor_.verify_poa(poa, kT0 + 500);
  EXPECT_TRUE(verdict.accepted) << verdict.detail;  // genuine TEE signatures
  EXPECT_FALSE(verdict.compliant);                  // ...over a zone entry
  EXPECT_GT(verdict.violation_count, 0u);
}

TEST_F(AttackFixture, SpoofedDriftIsIdentityBeforeOnset) {
  // Before the onset time (and with no drift budget) the wrapper must
  // pass the truth through untouched.
  const gps::PositionSource truth = scenario_.route.as_position_source();
  const gps::PositionSource wrapped = attacks::spoofed_drift_source(
      scenario_.route.as_position_source(), scenario_.frame, {0.0, 0.0},
      scenario_.route.start_time() + 50.0, 15.0);
  const double t = scenario_.route.start_time() + 20.0;
  EXPECT_EQ(wrapped(t), truth(t));
}

TEST_F(AttackFixture, ThinningAbuseFlaggedInsufficientNearZones) {
  const ProofOfAlibi honest = honest_flight();
  ASSERT_GT(honest.samples.size(), 2u);
  const ProofOfAlibi abused = attacks::thinning_abuse(honest, 2);
  ASSERT_EQ(abused.samples.size(), 2u);

  const PoaVerdict verdict = auditor_.verify_poa(abused, kT0 + 500);
  EXPECT_TRUE(verdict.accepted);   // the kept signatures are untouched
  EXPECT_FALSE(verdict.compliant); // the gap violates eq. (1) near houses
  EXPECT_GT(verdict.violation_count, 0u);
}

TEST_F(AttackFixture, ThinningAbuseKeepsEndpointsAndOrder) {
  const ProofOfAlibi honest = honest_flight();
  ASSERT_GE(honest.samples.size(), 5u);
  const ProofOfAlibi thinned = attacks::thinning_abuse(honest, 4);
  ASSERT_EQ(thinned.samples.size(), 4u);
  EXPECT_EQ(thinned.samples.front().sample, honest.samples.front().sample);
  EXPECT_EQ(thinned.samples.back().sample, honest.samples.back().sample);
  // keep >= size is a no-op.
  const ProofOfAlibi untouched =
      attacks::thinning_abuse(honest, honest.samples.size() + 3);
  EXPECT_EQ(untouched.samples.size(), honest.samples.size());
}

}  // namespace
}  // namespace alidrone::core

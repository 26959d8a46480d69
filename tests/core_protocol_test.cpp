// End-to-end protocol tests: registration, zone query, flight, PoA
// verification, accusations, and transport fault injection — the full
// workflow of Fig. 2 over the message bus.
#include <gtest/gtest.h>

#include "core/auditor.h"
#include "core/drone_client.h"
#include "core/zone_owner.h"
#include "geo/units.h"
#include "net/message_bus.h"
#include "sim/scenarios.h"

namespace alidrone::core {
namespace {

constexpr double kT0 = 1528400000.0;
constexpr std::size_t kTestKeyBits = 512;  // fast; realistic sizes in benches

class ProtocolFixture : public ::testing::Test {
 protected:
  ProtocolFixture()
      : auditor_rng_("auditor-seed"),
        owner_rng_("owner-seed"),
        operator_rng_("operator-seed"),
        auditor_(kTestKeyBits, auditor_rng_),
        owner_(kTestKeyBits, owner_rng_),
        tee_(make_tee_config()),
        client_(tee_, kTestKeyBits, operator_rng_) {
    auditor_.bind(bus_);
  }

  static tee::DroneTee::Config make_tee_config() {
    tee::DroneTee::Config config;
    config.key_bits = kTestKeyBits;
    config.manufacturing_seed = "protocol-test-device";
    return config;
  }

  /// Fly the given scenario adaptively and return the (plaintext) PoA.
  ProofOfAlibi fly_scenario(const sim::Scenario& scenario, bool encrypt = false) {
    gps::GpsReceiverSim::Config rc;
    rc.update_rate_hz = 5.0;
    rc.start_time = scenario.route.start_time();
    gps::GpsReceiverSim receiver(rc, scenario.route.as_position_source());

    AdaptiveSampler policy(scenario.frame, scenario.local_zones(),
                           geo::kFaaMaxSpeedMps, 5.0);
    FlightConfig config;
    config.end_time = scenario.route.end_time();
    config.frame = scenario.frame;
    config.local_zones = scenario.local_zones();
    if (encrypt) config.auditor_encryption_key = auditor_.encryption_key();
    return client_.fly(receiver, policy, config);
  }

  crypto::DeterministicRandom auditor_rng_;
  crypto::DeterministicRandom owner_rng_;
  crypto::DeterministicRandom operator_rng_;
  net::MessageBus bus_;
  Auditor auditor_;
  ZoneOwner owner_;
  tee::DroneTee tee_;
  DroneClient client_;
};

TEST_F(ProtocolFixture, DroneRegistrationIssuesId) {
  EXPECT_TRUE(client_.register_with_auditor(bus_));
  EXPECT_EQ(client_.id(), "drone-1");
  EXPECT_EQ(auditor_.drone_count(), 1u);
}

TEST_F(ProtocolFixture, SameTeeCannotRegisterTwice) {
  ASSERT_TRUE(client_.register_with_auditor(bus_));
  DroneClient second(tee_, kTestKeyBits, operator_rng_);
  EXPECT_FALSE(second.register_with_auditor(bus_));
  EXPECT_EQ(auditor_.drone_count(), 1u);
}

TEST_F(ProtocolFixture, ZoneRegistrationRequiresValidOwnershipProof) {
  const geo::GeoZone zone{{40.111, -88.221}, 50.0};
  EXPECT_EQ(owner_.register_zone(bus_, zone, "my backyard"), "zone-1");
  EXPECT_EQ(auditor_.zone_count(), 1u);

  // Forged proof: signature by a different key.
  crypto::DeterministicRandom other_rng("other-owner");
  const ZoneOwner impostor(kTestKeyBits, other_rng);
  RegisterZoneRequest request = impostor.make_zone_request(zone, "not mine");
  request.owner_key_n = owner_.public_key().n.to_bytes();  // claims to be owner_
  request.owner_key_e = owner_.public_key().e.to_bytes();
  EXPECT_FALSE(auditor_.register_zone(request).ok);
  EXPECT_EQ(auditor_.zone_count(), 1u);
}

TEST_F(ProtocolFixture, ZoneRegistrationValidatesGeometry) {
  EXPECT_FALSE(
      auditor_.register_zone(owner_.make_zone_request({{40.0, -88.0}, -5.0}, "bad")).ok);
  EXPECT_FALSE(
      auditor_.register_zone(owner_.make_zone_request({{95.0, -88.0}, 5.0}, "bad")).ok);
}

TEST_F(ProtocolFixture, ZoneQueryReturnsOnlyZonesInRectangle) {
  ASSERT_TRUE(client_.register_with_auditor(bus_));
  owner_.register_zone(bus_, {{40.111, -88.221}, 30.0}, "inside");
  owner_.register_zone(bus_, {{41.500, -88.221}, 30.0}, "outside");

  const QueryRect rect{{40.0, -88.4}, {40.3, -88.0}};
  const auto zones = client_.query_zones(bus_, rect);
  ASSERT_TRUE(zones.has_value());
  ASSERT_EQ(zones->size(), 1u);
  EXPECT_EQ((*zones)[0].id, "zone-1");
}

TEST_F(ProtocolFixture, ZoneQueryRejectsUnregisteredDroneAndBadSignature) {
  // Unregistered drone.
  ZoneQueryRequest request;
  request.drone_id = "drone-99";
  request.nonce = crypto::Bytes(16, 1);
  request.nonce_signature = crypto::Bytes(64, 0);
  EXPECT_FALSE(auditor_.query_zones(request).ok);

  // Registered drone, corrupted signature.
  ASSERT_TRUE(client_.register_with_auditor(bus_));
  ZoneQueryRequest bad = client_.make_zone_query({{40.0, -89.0}, {41.0, -88.0}});
  bad.nonce_signature[0] ^= 0x01;
  EXPECT_FALSE(auditor_.query_zones(bad).ok);
  EXPECT_EQ(auditor_.query_zones(bad).error, "bad nonce signature");
}

TEST_F(ProtocolFixture, ZoneQueryNonceReplayRejected) {
  ASSERT_TRUE(client_.register_with_auditor(bus_));
  const ZoneQueryRequest request =
      client_.make_zone_query({{40.0, -89.0}, {41.0, -88.0}});
  EXPECT_TRUE(auditor_.query_zones(request).ok);
  const ZoneQueryResponse replayed = auditor_.query_zones(request);
  EXPECT_FALSE(replayed.ok);
  EXPECT_EQ(replayed.error, "replayed nonce");
}

TEST_F(ProtocolFixture, ZoneQueryShortNonceRejected) {
  ASSERT_TRUE(client_.register_with_auditor(bus_));
  ZoneQueryRequest request = client_.make_zone_query({{40.0, -89.0}, {41.0, -88.0}});
  request.nonce = crypto::Bytes(4, 9);
  EXPECT_EQ(auditor_.query_zones(request).error, "nonce too short");
}

TEST_F(ProtocolFixture, CompliantFlightEndToEnd) {
  ASSERT_TRUE(client_.register_with_auditor(bus_));
  const sim::Scenario scenario = sim::make_residential_scenario(kT0);
  for (const geo::GeoZone& z : scenario.zones) {
    ASSERT_FALSE(owner_.register_zone(bus_, z, "house").empty());
  }
  ASSERT_EQ(auditor_.zone_count(), 94u);

  const ProofOfAlibi poa = fly_scenario(scenario);
  ASSERT_GT(poa.samples.size(), 1u);

  const auto verdict = client_.submit_poa(bus_, poa);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_TRUE(verdict->accepted) << verdict->detail;
  EXPECT_TRUE(verdict->compliant) << verdict->detail;
  EXPECT_EQ(auditor_.retained_poa_count(), 1u);
}

TEST_F(ProtocolFixture, EncryptedPoaVerifiesAfterDecryption) {
  ASSERT_TRUE(client_.register_with_auditor(bus_));
  const sim::Scenario scenario = sim::make_airport_scenario(kT0);
  owner_.register_zone(bus_, scenario.zones[0], "airport");

  const ProofOfAlibi poa = fly_scenario(scenario, /*encrypt=*/true);
  ASSERT_TRUE(poa.encrypted);
  const auto verdict = client_.submit_poa(bus_, poa);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_TRUE(verdict->accepted) << verdict->detail;
  EXPECT_TRUE(verdict->compliant);
}

TEST_F(ProtocolFixture, UnknownDronePoaRejected) {
  const sim::Scenario scenario = sim::make_airport_scenario(kT0);
  ProofOfAlibi poa = fly_scenario(scenario);
  poa.drone_id = "drone-404";
  const PoaVerdict verdict = auditor_.verify_poa(poa, kT0);
  EXPECT_FALSE(verdict.accepted);
  EXPECT_EQ(verdict.detail, "unknown drone");
}

TEST_F(ProtocolFixture, EmptyPoaRejected) {
  ASSERT_TRUE(client_.register_with_auditor(bus_));
  ProofOfAlibi poa;
  poa.drone_id = client_.id();
  EXPECT_FALSE(auditor_.verify_poa(poa, kT0).accepted);
}

TEST_F(ProtocolFixture, UnparseablePoaBytesRejected) {
  const PoaVerdict verdict = auditor_.verify_poa_bytes(crypto::Bytes{1, 2, 3}, kT0);
  EXPECT_FALSE(verdict.accepted);
  EXPECT_EQ(verdict.detail, "unparseable PoA");
}

TEST_F(ProtocolFixture, NonCompliantFlightDetected) {
  ASSERT_TRUE(client_.register_with_auditor(bus_));
  // Zone directly on the flight path: the honest PoA cannot prove alibi.
  const sim::Scenario scenario = sim::make_airport_scenario(kT0);
  const geo::Vec2 mid = scenario.route.local_position_at(kT0 + 300.0);
  const geo::GeoZone on_path{scenario.frame.to_geo(mid), 80.0};
  owner_.register_zone(bus_, on_path, "on the route");

  const ProofOfAlibi poa = fly_scenario(scenario);
  const auto verdict = client_.submit_poa(bus_, poa);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_TRUE(verdict->accepted);          // signatures are genuine
  EXPECT_FALSE(verdict->compliant);        // but the alibi fails
  EXPECT_GT(verdict->violation_count, 0u);
}

TEST_F(ProtocolFixture, AccusationAdjudicatedFromRetainedPoa) {
  ASSERT_TRUE(client_.register_with_auditor(bus_));
  const sim::Scenario scenario = sim::make_residential_scenario(kT0);
  const ZoneId zone_id = owner_.register_zone(bus_, scenario.zones[10], "house 10");
  ASSERT_FALSE(zone_id.empty());

  const ProofOfAlibi poa = fly_scenario(scenario);
  ASSERT_TRUE(client_.submit_poa(bus_, poa)->compliant);

  // Owner accuses for a time inside the flight: the retained PoA clears it.
  const AccusationRequest accusation =
      owner_.make_accusation(zone_id, client_.id(), kT0 + 60.0);
  const AccusationResponse response = auditor_.handle_accusation(accusation);
  EXPECT_TRUE(response.ok);
  EXPECT_TRUE(response.alibi_holds) << response.detail;
}

TEST_F(ProtocolFixture, AccusationWithoutPoaOnRecordFails) {
  ASSERT_TRUE(client_.register_with_auditor(bus_));
  const ZoneId zone_id = owner_.register_zone(bus_, {{40.111, -88.221}, 30.0}, "z");
  const AccusationRequest accusation =
      owner_.make_accusation(zone_id, client_.id(), kT0 + 60.0);
  const AccusationResponse response = auditor_.handle_accusation(accusation);
  EXPECT_TRUE(response.ok);
  EXPECT_FALSE(response.alibi_holds);  // burden of proof on the operator
}

TEST_F(ProtocolFixture, AccusationOutsideFlightWindowFails) {
  ASSERT_TRUE(client_.register_with_auditor(bus_));
  const sim::Scenario scenario = sim::make_residential_scenario(kT0);
  const ZoneId zone_id = owner_.register_zone(bus_, scenario.zones[0], "house");
  client_.submit_poa(bus_, fly_scenario(scenario));

  const AccusationRequest accusation =
      owner_.make_accusation(zone_id, client_.id(), kT0 + 9999.0);
  const AccusationResponse response = auditor_.handle_accusation(accusation);
  EXPECT_TRUE(response.ok);
  EXPECT_FALSE(response.alibi_holds);
}

TEST_F(ProtocolFixture, AccusationSignatureChecked) {
  ASSERT_TRUE(client_.register_with_auditor(bus_));
  const ZoneId zone_id = owner_.register_zone(bus_, {{40.111, -88.221}, 30.0}, "z");

  AccusationRequest forged = owner_.make_accusation(zone_id, client_.id(), kT0);
  forged.incident_time += 1.0;  // payload changed after signing
  const AccusationResponse response = auditor_.handle_accusation(forged);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.detail, "bad owner signature");
}

TEST_F(ProtocolFixture, PoaRetentionExpires) {
  ASSERT_TRUE(client_.register_with_auditor(bus_));
  const sim::Scenario scenario = sim::make_airport_scenario(kT0);
  const ProofOfAlibi poa = fly_scenario(scenario);
  auditor_.verify_poa(poa, kT0);
  EXPECT_EQ(auditor_.retained_poa_count(), 1u);

  auditor_.expire_poas(kT0 + auditor_.params().poa_retention_seconds + 1.0);
  EXPECT_EQ(auditor_.retained_poa_count(), 0u);
}

TEST_F(ProtocolFixture, PolygonZoneReducedToSmallestEnclosingCircle) {
  // A 100 m square lot: the covering circle has radius ~70.7 m.
  const geo::LocalFrame frame(geo::GeoPoint{40.111, -88.221});
  std::vector<geo::GeoPoint> vertices;
  for (const geo::Vec2 v :
       {geo::Vec2{0, 0}, geo::Vec2{100, 0}, geo::Vec2{100, 100}, geo::Vec2{0, 100}}) {
    vertices.push_back(frame.to_geo(v));
  }
  const crypto::Bytes sig = owner_.sign_polygon(vertices, "square lot");
  const RegisterZoneResponse response =
      auditor_.register_polygon_zone(vertices, owner_.public_key(), sig, "square lot");
  ASSERT_TRUE(response.ok);

  const ZoneRecord& record = auditor_.zones().at(response.zone_id);
  EXPECT_NEAR(record.zone.radius_m, 70.71, 0.1);
  // Center near the square's middle.
  EXPECT_NEAR(frame.to_local(record.zone.center).x, 50.0, 0.5);
  EXPECT_NEAR(frame.to_local(record.zone.center).y, 50.0, 0.5);
}

TEST_F(ProtocolFixture, PolygonZoneRejectsBadSignatureOrTooFewVertices) {
  const std::vector<geo::GeoPoint> two{{40.0, -88.0}, {40.1, -88.0}};
  EXPECT_FALSE(
      auditor_.register_polygon_zone(two, owner_.public_key(), {}, "x").ok);

  std::vector<geo::GeoPoint> tri{{40.0, -88.0}, {40.1, -88.0}, {40.0, -88.1}};
  crypto::Bytes sig = owner_.sign_polygon(tri, "lot");
  sig[0] ^= 1;
  EXPECT_FALSE(
      auditor_.register_polygon_zone(tri, owner_.public_key(), sig, "lot").ok);
}

TEST_F(ProtocolFixture, PolygonZoneRejectsCoverRegistrationWouldRefuse) {
  // Three identical vertices cover a zero-radius circle, which a restarted
  // Auditor's registry load would refuse.
  const std::vector<geo::GeoPoint> point{{40.0, -88.0}, {40.0, -88.0}, {40.0, -88.0}};
  const crypto::Bytes sig = owner_.sign_polygon(point, "lot");
  EXPECT_FALSE(
      auditor_.register_polygon_zone(point, owner_.public_key(), sig, "lot").ok);
}

TEST_F(ProtocolFixture, TransportDropSurfacesAsTimeout) {
  ASSERT_TRUE(client_.register_with_auditor(bus_));
  net::MessageBus::FaultConfig faults;
  faults.drop_probability = 1.0;
  faults.seed = 3;
  bus_.set_faults(faults);
  EXPECT_THROW(client_.query_zones(bus_, {{40.0, -89.0}, {41.0, -88.0}}),
               net::TimeoutError);
}

TEST_F(ProtocolFixture, DuplicatedRegistrationIsSafeViaTeeKeyCheck) {
  // The bus may duplicate a registration request; the TEE-key uniqueness
  // rule keeps the database consistent (one drone, first id wins).
  net::MessageBus::FaultConfig faults;
  faults.duplicate_probability = 1.0;
  faults.seed = 5;
  bus_.set_faults(faults);
  EXPECT_TRUE(client_.register_with_auditor(bus_));
  EXPECT_EQ(auditor_.drone_count(), 1u);
}

}  // namespace
}  // namespace alidrone::core

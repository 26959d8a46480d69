// End-to-end tests of the Section VII extensions wired through the full
// protocol: HMAC-session and batch-signature PoA modes (VII-A1), 3D
// cylinder zones (VII-B1) and file-backed PoA retention.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>

#include "core/auditor.h"
#include "core/drone_client.h"
#include "core/poa_store.h"
#include "core/zone_owner.h"
#include "geo/units.h"
#include "net/message_bus.h"
#include "sim/scenarios.h"

namespace alidrone::core {
namespace {

constexpr double kT0 = 1528400000.0;
constexpr std::size_t kTestKeyBits = 512;

class ExtensionFixture : public ::testing::Test {
 protected:
  ExtensionFixture()
      : auditor_rng_("ext-auditor"),
        owner_rng_("ext-owner"),
        operator_rng_("ext-operator"),
        auditor_(kTestKeyBits, auditor_rng_),
        owner_(kTestKeyBits, owner_rng_),
        tee_(make_tee_config()),
        client_(tee_, kTestKeyBits, operator_rng_),
        scenario_(sim::make_airport_scenario(kT0)) {
    auditor_.bind(bus_);
    EXPECT_TRUE(client_.register_with_auditor(bus_));
    owner_.register_zone(bus_, scenario_.zones[0], "airport");
  }

  static tee::DroneTee::Config make_tee_config() {
    tee::DroneTee::Config config;
    config.key_bits = kTestKeyBits;
    config.manufacturing_seed = "extension-test-device";
    return config;
  }

  ProofOfAlibi fly_with_mode(AuthMode mode) {
    gps::GpsReceiverSim::Config rc;
    rc.update_rate_hz = 5.0;
    rc.start_time = scenario_.route.start_time();
    gps::GpsReceiverSim receiver(rc, scenario_.route.as_position_source());

    AdaptiveSampler policy(scenario_.frame, scenario_.local_zones(),
                           geo::kFaaMaxSpeedMps, 5.0);
    FlightConfig config;
    config.end_time = scenario_.route.start_time() + 120.0;
    config.frame = scenario_.frame;
    config.local_zones = scenario_.local_zones();
    config.auth_mode = mode;
    config.auditor_encryption_key = auditor_.encryption_key();
    return client_.fly(receiver, policy, config);
  }

  /// A 60 m cylinder on the airport route.
  ZoneId register_cylinder() {
    const geo::Vec2 mid = scenario_.route.local_position_at(kT0 + 60.0);
    const RegisterZoneRequest request = owner_.make_zone_request(
        {scenario_.frame.to_geo(mid), 30.0}, "low cylinder");
    const RegisterZoneResponse created = auditor_.register_zone_3d(request, 60.0);
    EXPECT_TRUE(created.ok);
    return created.zone_id;
  }

  /// A 5 Hz flight along the route at a fixed altitude (samples must be
  /// TEE-signed, so the receiver itself reports the altitude).
  ProofOfAlibi fly_at_altitude(double altitude_m) {
    gps::GpsReceiverSim::Config rc;
    rc.update_rate_hz = 5.0;
    rc.start_time = scenario_.route.start_time();
    rc.emit_gga = true;
    const sim::Route& route = scenario_.route;
    gps::GpsReceiverSim receiver(rc, [&route, altitude_m](double t) {
      gps::GpsFix f = route.state_at(t);
      f.altitude_m = altitude_m;
      return f;
    });
    FixedRateSampler policy(5.0, scenario_.route.start_time());
    FlightConfig config;
    config.end_time = scenario_.route.start_time() + 120.0;
    config.frame = scenario_.frame;
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
  sim::Scenario scenario_;
};

// ---- Section VII-A1a: HMAC session mode ----

TEST_F(ExtensionFixture, HmacSessionPoaVerifiesEndToEnd) {
  const ProofOfAlibi poa = fly_with_mode(AuthMode::kHmacSession);
  ASSERT_GT(poa.samples.size(), 0u);
  EXPECT_FALSE(poa.session_key_ciphertext.empty());
  EXPECT_FALSE(poa.session_key_signature.empty());
  EXPECT_EQ(poa.samples[0].signature.size(), 32u);  // HMAC-SHA256 tag

  const PoaVerdict verdict = auditor_.verify_poa(poa, kT0 + 200);
  EXPECT_TRUE(verdict.accepted) << verdict.detail;
  EXPECT_TRUE(verdict.compliant);
}

TEST_F(ExtensionFixture, HmacSessionTamperedTagRejected) {
  ProofOfAlibi poa = fly_with_mode(AuthMode::kHmacSession);
  poa.samples[0].signature[5] ^= 0x01;
  const PoaVerdict verdict = auditor_.verify_poa(poa, kT0 + 200);
  EXPECT_FALSE(verdict.accepted);
  EXPECT_NE(verdict.detail.find("MAC invalid"), std::string::npos);
}

TEST_F(ExtensionFixture, HmacSessionForgedKeyBlobRejected) {
  ProofOfAlibi poa = fly_with_mode(AuthMode::kHmacSession);
  poa.session_key_ciphertext[3] ^= 0x01;  // breaks the TEE's signature
  EXPECT_FALSE(auditor_.verify_poa(poa, kT0 + 200).accepted);
}

TEST_F(ExtensionFixture, HmacModeWithoutAuditorKeyThrows) {
  gps::GpsReceiverSim::Config rc;
  rc.update_rate_hz = 5.0;
  rc.start_time = kT0;
  gps::GpsReceiverSim receiver(rc, scenario_.route.as_position_source());
  AdaptiveSampler policy(scenario_.frame, {}, geo::kFaaMaxSpeedMps, 5.0);
  FlightConfig config;
  config.end_time = kT0 + 1.0;
  config.auth_mode = AuthMode::kHmacSession;  // no auditor key set
  EXPECT_THROW(run_flight(tee_, receiver, policy, config), std::invalid_argument);
}

// ---- Section VII-A1b: batch signature mode ----

TEST_F(ExtensionFixture, BatchPoaVerifiesEndToEnd) {
  const ProofOfAlibi poa = fly_with_mode(AuthMode::kBatchSignature);
  ASSERT_GT(poa.samples.size(), 0u);
  EXPECT_FALSE(poa.batch_signature.empty());
  EXPECT_TRUE(poa.samples[0].signature.empty());  // no per-sample sigs

  const PoaVerdict verdict = auditor_.verify_poa(poa, kT0 + 200);
  EXPECT_TRUE(verdict.accepted) << verdict.detail;
  EXPECT_TRUE(verdict.compliant);
}

TEST_F(ExtensionFixture, BatchTamperedSampleRejected) {
  ProofOfAlibi poa = fly_with_mode(AuthMode::kBatchSignature);
  // Note samples are encrypted; flipping ciphertext breaks decryption or
  // the batch signature over the decrypted concatenation.
  poa.samples[1].sample[7] ^= 0x01;
  EXPECT_FALSE(auditor_.verify_poa(poa, kT0 + 200).accepted);
}

TEST_F(ExtensionFixture, BatchDroppedSampleBreaksBatchSignature) {
  // Unlike per-sample mode, dropping any sample invalidates the whole
  // batch signature — a side benefit of VII-A1b.
  ProofOfAlibi poa = fly_with_mode(AuthMode::kBatchSignature);
  ASSERT_GT(poa.samples.size(), 2u);
  poa.samples.erase(poa.samples.begin() + 1);
  EXPECT_FALSE(auditor_.verify_poa(poa, kT0 + 200).accepted);
}

// ---- Section VII-B1: cylinder zones through the Auditor ----

TEST_F(ExtensionFixture, OverflightAboveCylinderCeilingIsCompliant) {
  register_cylinder();
  const PoaVerdict verdict = auditor_.verify_poa(fly_at_altitude(300.0), kT0 + 200);
  EXPECT_TRUE(verdict.accepted) << verdict.detail;
  EXPECT_TRUE(verdict.compliant) << "altitude should clear the cylinder";
}

TEST_F(ExtensionFixture, LowFlightThroughCylinderIsViolation) {
  register_cylinder();
  // Under the 60 m ceiling.
  const PoaVerdict verdict = auditor_.verify_poa(fly_at_altitude(20.0), kT0 + 200);
  EXPECT_TRUE(verdict.accepted);
  EXPECT_FALSE(verdict.compliant);
}

TEST_F(ExtensionFixture, AccusationUsesTheRegisteredCylinder) {
  // The flight verification cleared above the ceiling also answers an
  // accusation against that cylinder, not against its planar footprint.
  const ZoneId zone_id = register_cylinder();
  ASSERT_TRUE(auditor_.verify_poa(fly_at_altitude(300.0), kT0 + 200).compliant);
  const AccusationResponse response = auditor_.handle_accusation(
      owner_.make_accusation(zone_id, client_.id(), kT0 + 60.0));
  EXPECT_TRUE(response.ok);
  EXPECT_TRUE(response.alibi_holds);
  EXPECT_EQ(response.detail, "retained PoA proves non-entrance");
}

TEST_F(ExtensionFixture, AccusationAgainstCylinderStillCatchesLowFlight) {
  const ZoneId zone_id = register_cylinder();
  ASSERT_FALSE(auditor_.verify_poa(fly_at_altitude(20.0), kT0 + 200).compliant);
  const AccusationResponse response = auditor_.handle_accusation(
      owner_.make_accusation(zone_id, client_.id(), kT0 + 60.0));
  EXPECT_TRUE(response.ok);
  EXPECT_FALSE(response.alibi_holds);
}

TEST_F(ExtensionFixture, Register3dRejectsNonPositiveCeiling) {
  RegisterZoneRequest request =
      owner_.make_zone_request({{40.1, -88.2}, 30.0}, "bad");
  EXPECT_FALSE(auditor_.register_zone_3d(request, 0.0).ok);
  EXPECT_FALSE(auditor_.register_zone_3d(request, -5.0).ok);
}

TEST_F(ExtensionFixture, Register3dRejectsNanCeiling) {
  const RegisterZoneRequest request =
      owner_.make_zone_request({{40.1, -88.2}, 30.0}, "bad");
  EXPECT_FALSE(auditor_.register_zone_3d(request, std::nan("")).ok);
}

TEST_F(ExtensionFixture, Register3dRejectsInfiniteCeiling) {
  const RegisterZoneRequest request =
      owner_.make_zone_request({{40.1, -88.2}, 30.0}, "bad");
  EXPECT_FALSE(auditor_.register_zone_3d(
                   request, std::numeric_limits<double>::infinity()).ok);
}

TEST_F(ExtensionFixture, RegisterZoneRejectsNanLatitude) {
  EXPECT_FALSE(auditor_.register_zone(
      owner_.make_zone_request({{std::nan(""), -88.2}, 30.0}, "bad")).ok);
}

TEST_F(ExtensionFixture, RegisterZoneRejectsNanRadius) {
  EXPECT_FALSE(auditor_.register_zone(
      owner_.make_zone_request({{40.1, -88.2}, std::nan("")}, "bad")).ok);
}

TEST_F(ExtensionFixture, RegisterZoneRejectsInfiniteRadius) {
  const geo::GeoZone everywhere{{40.1, -88.2}, std::numeric_limits<double>::infinity()};
  EXPECT_FALSE(auditor_.register_zone(owner_.make_zone_request(everywhere, "bad")).ok);
  // Accepted, it would have made every flight non-compliant.
  const PoaVerdict verdict = auditor_.verify_poa(fly_with_mode(AuthMode::kRsaPerSample),
                                                 kT0 + 200);
  EXPECT_TRUE(verdict.compliant) << verdict.violation_count;
}

// ---- File-backed PoA retention ----

class PoaStoreTest : public ExtensionFixture {
 protected:
  PoaStoreTest()
      : dir_(std::filesystem::temp_directory_path() /
             ("alidrone_poa_store_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(dir_);
  }
  ~PoaStoreTest() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(PoaStoreTest, SaveLoadRoundTrip) {
  PoaStore store(dir_);
  const ProofOfAlibi poa = fly_with_mode(AuthMode::kRsaPerSample);
  store.save(client_.id(), kT0 + 200, poa);
  store.save(client_.id(), kT0 + 400, poa);
  EXPECT_EQ(store.count(), 2u);

  const auto loaded = store.load_all();
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].drone_id, client_.id());
  EXPECT_DOUBLE_EQ(loaded[0].submission_time, kT0 + 200);
  EXPECT_EQ(loaded[0].poa.samples.size(), poa.samples.size());
  EXPECT_EQ(loaded[0].poa.samples[0].sample, poa.samples[0].sample);

  // Loaded PoAs still verify at the Auditor.
  EXPECT_TRUE(auditor_.verify_poa(loaded[0].poa, kT0 + 500).accepted);
}

TEST_F(PoaStoreTest, PersistsAcrossReopen) {
  {
    PoaStore store(dir_);
    store.save(client_.id(), kT0 + 200, fly_with_mode(AuthMode::kRsaPerSample));
  }
  PoaStore reopened(dir_);
  EXPECT_EQ(reopened.count(), 1u);
  EXPECT_EQ(reopened.load_for_drone(client_.id()).size(), 1u);
  EXPECT_TRUE(reopened.load_for_drone("drone-unknown").empty());
  // New saves continue the sequence without clobbering old files.
  reopened.save(client_.id(), kT0 + 600, fly_with_mode(AuthMode::kRsaPerSample));
  EXPECT_EQ(reopened.count(), 2u);
}

TEST_F(PoaStoreTest, ExpireBeforeDeletesOldSubmissions) {
  PoaStore store(dir_);
  const ProofOfAlibi poa = fly_with_mode(AuthMode::kRsaPerSample);
  store.save(client_.id(), kT0 + 100, poa);
  store.save(client_.id(), kT0 + 5000, poa);
  EXPECT_EQ(store.expire_before(kT0 + 1000), 1u);
  EXPECT_EQ(store.count(), 1u);
  EXPECT_DOUBLE_EQ(store.load_all()[0].submission_time, kT0 + 5000);
}

TEST_F(PoaStoreTest, CorruptFilesSkippedNotFatal) {
  PoaStore store(dir_);
  store.save(client_.id(), kT0 + 100, fly_with_mode(AuthMode::kRsaPerSample));
  {
    std::ofstream bad(dir_ / "poa-999.poa", std::ios::binary);
    bad << "not a poa file";
  }
  const auto loaded = store.load_all();
  EXPECT_EQ(loaded.size(), 1u);
  EXPECT_GE(store.corrupt_files_seen(), 1u);
}

TEST(PoaStoreStandalone, RejectsFileAsDirectory) {
  const auto path = std::filesystem::temp_directory_path() / "alidrone_not_a_dir";
  {
    std::ofstream f(path);
    f << "x";
  }
  EXPECT_THROW(PoaStore{path}, std::runtime_error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace alidrone::core

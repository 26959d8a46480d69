#include <gtest/gtest.h>

#include "crypto/hmac.h"
#include "gps/receiver_sim.h"
#include "obs/metrics.h"
#include "tee/gps_sampler_ta.h"
#include "tee/sample_codec.h"
#include "tee/secure_monitor.h"

namespace alidrone::tee {
namespace {

constexpr double kT0 = 1528395200.0;

/// A DroneTee with a small (fast) key, fed one fix.
class TeeFixture : public ::testing::Test {
 protected:
  TeeFixture() : tee_(make_config()) {}

  static DroneTee::Config make_config() {
    DroneTee::Config config;
    config.key_bits = 512;  // fast for tests; protocol-realistic sizes in benches
    config.manufacturing_seed = "tee-test-device";
    return config;
  }

  void feed_fix(geo::GeoPoint p, double t) {
    gps::GpsReceiverSim::Config rc;
    rc.update_rate_hz = 5.0;
    rc.start_time = t;
    gps::GpsReceiverSim sim(rc, [p](double tt) {
      gps::GpsFix f;
      f.position = p;
      f.unix_time = tt;
      return f;
    });
    for (const std::string& s : sim.advance_to(t)) tee_.feed_gps(s);
  }

  InvokeResult invoke(SamplerCommand cmd, std::span<const crypto::Bytes> params = {}) {
    return tee_.monitor().invoke(tee_.sampler_uuid(), static_cast<std::uint32_t>(cmd),
                                 params);
  }

  DroneTee tee_;
};

TEST(Uuid, DeterministicFromName) {
  const Uuid a = Uuid::from_name("alidrone.gps_sampler");
  const Uuid b = Uuid::from_name("alidrone.gps_sampler");
  const Uuid c = Uuid::from_name("other.ta");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.to_string().size(), 36u);
}

TEST(SampleCodec, RoundTripPreservesPrecision) {
  gps::GpsFix fix;
  fix.position = {40.116412345, -88.243498765};
  fix.altitude_m = 123.456;
  fix.unix_time = kT0 + 0.123456;

  const crypto::Bytes encoded = encode_sample(fix);
  EXPECT_EQ(encoded.size(), kEncodedSampleSize);
  const auto decoded = decode_sample(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_NEAR(decoded->position.lat_deg, fix.position.lat_deg, 1e-9);
  EXPECT_NEAR(decoded->position.lon_deg, fix.position.lon_deg, 1e-9);
  EXPECT_NEAR(decoded->altitude_m, fix.altitude_m, 1e-3);
  EXPECT_NEAR(decoded->unix_time, fix.unix_time, 1e-6);
}

TEST(SampleCodec, EncodeDecodeEncodeIsIdentity) {
  gps::GpsFix fix;
  fix.position = {-33.8688, 151.2093};
  fix.unix_time = kT0;
  const crypto::Bytes once = encode_sample(fix);
  const auto decoded = decode_sample(once);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(encode_sample(*decoded), once);  // signatures stay verifiable
}

TEST(SampleCodec, RejectsWrongSize) {
  EXPECT_FALSE(decode_sample(crypto::Bytes(31, 0)).has_value());
  EXPECT_FALSE(decode_sample(crypto::Bytes(33, 0)).has_value());
  EXPECT_FALSE(decode_sample({}).has_value());
}

TEST(SecureStorage, PutGetEraseAndCapacity) {
  SecureStorage storage(100);
  EXPECT_TRUE(storage.put("a", crypto::Bytes(60, 1)));
  EXPECT_EQ(storage.used_bytes(), 60u);
  EXPECT_FALSE(storage.put("b", crypto::Bytes(60, 2)));  // over capacity
  EXPECT_TRUE(storage.put("a", crypto::Bytes(30, 3)));   // replace shrinks
  EXPECT_EQ(storage.used_bytes(), 30u);
  EXPECT_EQ(storage.get("a"), crypto::Bytes(30, 3));
  EXPECT_TRUE(storage.erase("a"));
  EXPECT_FALSE(storage.erase("a"));
  EXPECT_EQ(storage.used_bytes(), 0u);
  EXPECT_FALSE(storage.get("missing").has_value());
}

TEST(KeyVault, SignaturesVerifyWithExportedKey) {
  crypto::DeterministicRandom rng("vault-test");
  const KeyVault vault = KeyVault::manufacture(512, rng);
  const crypto::Bytes msg = crypto::to_bytes("sample");
  const crypto::Bytes sig = vault.sign(msg, crypto::HashAlgorithm::kSha256);
  EXPECT_TRUE(crypto::rsa_verify(vault.verification_key(), msg, sig,
                                 crypto::HashAlgorithm::kSha256));
  EXPECT_EQ(vault.key_bits(), 512u);
}

TEST(KeyVault, EveryPrivateKeyOperationIsCounted) {
  // sign, decrypt and sign_fast all use T-; each is one private op.
  crypto::DeterministicRandom rng("vault-count-test");
  obs::MetricsRegistry registry;
  const KeyVault vault = KeyVault::manufacture(512, rng, &registry);
  const crypto::Bytes msg = crypto::to_bytes("sample");
  vault.sign(msg, crypto::HashAlgorithm::kSha256);
  EXPECT_EQ(vault.plan_stats().private_ops, 1u);
  const crypto::Bytes ciphertext =
      crypto::rsa_encrypt(vault.verification_key(), msg, rng);
  const auto plain = vault.decrypt(ciphertext);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(*plain, msg);
  EXPECT_EQ(vault.plan_stats().private_ops, 2u);
  vault.sign_fast(msg, crypto::HashAlgorithm::kSha256, rng);
  EXPECT_EQ(vault.plan_stats().private_ops, 3u);
}

TEST_F(TeeFixture, GetGpsAuthBeforeAnyFixIsNotReady) {
  const InvokeResult result = invoke(SamplerCommand::kGetGpsAuth);
  EXPECT_EQ(result.status, TeeStatus::kNotReady);
}

TEST_F(TeeFixture, GetGpsAuthSignsTheCurrentFix) {
  feed_fix({40.1164, -88.2434}, kT0);
  const InvokeResult result = invoke(SamplerCommand::kGetGpsAuth);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.outputs.size(), 2u);

  const auto fix = decode_sample(result.outputs[0]);
  ASSERT_TRUE(fix.has_value());
  EXPECT_NEAR(fix->position.lat_deg, 40.1164, 1e-4);

  EXPECT_TRUE(crypto::rsa_verify(tee_.verification_key(), result.outputs[0],
                                 result.outputs[1], crypto::HashAlgorithm::kSha1));
}

TEST_F(TeeFixture, SignatureBreaksWhenSampleTampered) {
  feed_fix({40.1164, -88.2434}, kT0);
  InvokeResult result = invoke(SamplerCommand::kGetGpsAuth);
  ASSERT_TRUE(result.ok());
  result.outputs[0][5] ^= 0x01;
  EXPECT_FALSE(crypto::rsa_verify(tee_.verification_key(), result.outputs[0],
                                  result.outputs[1], crypto::HashAlgorithm::kSha1));
}

TEST_F(TeeFixture, UnknownCommandAndUuidRejected) {
  EXPECT_EQ(invoke(static_cast<SamplerCommand>(999)).status, TeeStatus::kBadCommand);
  const InvokeResult result =
      tee_.monitor().invoke(Uuid::from_name("no.such.ta"), 1, {});
  EXPECT_EQ(result.status, TeeStatus::kNotFound);
}

TEST_F(TeeFixture, MonitorCountsWorldSwitches) {
  feed_fix({40.0, -88.0}, kT0);
  const std::uint64_t before = tee_.monitor().world_switches();
  invoke(SamplerCommand::kGetGpsAuth);
  invoke(SamplerCommand::kGetPublicKey);
  EXPECT_EQ(tee_.monitor().world_switches(), before + 4);  // 2 per invocation
  EXPECT_GE(tee_.monitor().invocations(), 2u);
}

TEST_F(TeeFixture, GetPublicKeyMatchesVaultKey) {
  const InvokeResult result = invoke(SamplerCommand::kGetPublicKey);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.outputs.size(), 2u);
  EXPECT_EQ(crypto::BigInt::from_bytes(result.outputs[0]), tee_.verification_key().n);
  EXPECT_EQ(crypto::BigInt::from_bytes(result.outputs[1]), tee_.verification_key().e);
}

TEST_F(TeeFixture, HmacSessionFlow) {
  feed_fix({40.0, -88.0}, kT0);

  // Before a key is established, HMAC sampling is refused.
  EXPECT_EQ(invoke(SamplerCommand::kGetGpsHmac).status, TeeStatus::kNotReady);

  // The "Auditor's" keypair.
  crypto::DeterministicRandom rng("auditor-hmac-test");
  const crypto::RsaKeyPair auditor = crypto::generate_rsa_keypair(512, rng);
  const std::vector<crypto::Bytes> params{auditor.pub.n.to_bytes(),
                                          auditor.pub.e.to_bytes()};
  const InvokeResult establish = invoke(SamplerCommand::kEstablishHmacKey, params);
  ASSERT_TRUE(establish.ok());
  ASSERT_EQ(establish.outputs.size(), 2u);

  // The ciphertext is signed by the TEE and decryptable by the Auditor.
  EXPECT_TRUE(crypto::rsa_verify(tee_.verification_key(), establish.outputs[0],
                                 establish.outputs[1], crypto::HashAlgorithm::kSha1));
  const auto key = crypto::rsa_decrypt(auditor.priv, establish.outputs[0]);
  ASSERT_TRUE(key.has_value());
  ASSERT_EQ(key->size(), 32u);

  // HMAC samples verify under the shared key.
  const InvokeResult sampled = invoke(SamplerCommand::kGetGpsHmac);
  ASSERT_TRUE(sampled.ok());
  const auto tag = crypto::HmacSha256::mac(*key, sampled.outputs[0]);
  EXPECT_EQ(sampled.outputs[1], crypto::Bytes(tag.begin(), tag.end()));
}

TEST_F(TeeFixture, EstablishHmacKeyRejectsBadParams) {
  EXPECT_EQ(invoke(SamplerCommand::kEstablishHmacKey).status, TeeStatus::kBadParameters);
  const std::vector<crypto::Bytes> tiny{crypto::Bytes{1}, crypto::Bytes{3}};
  EXPECT_EQ(invoke(SamplerCommand::kEstablishHmacKey, tiny).status,
            TeeStatus::kBadParameters);
}

TEST_F(TeeFixture, BatchModeSignsWholeTraceAtOnce) {
  // Section VII-A1b: cache samples, one signature at the end.
  ASSERT_TRUE(invoke(SamplerCommand::kBatchBegin).ok());

  crypto::Bytes expected_payload;
  for (int i = 0; i < 5; ++i) {
    feed_fix({40.0 + i * 0.001, -88.0}, kT0 + i);
    const InvokeResult appended = invoke(SamplerCommand::kBatchAppend);
    ASSERT_TRUE(appended.ok());
    expected_payload.insert(expected_payload.end(), appended.outputs[0].begin(),
                            appended.outputs[0].end());
  }

  const InvokeResult finalized = invoke(SamplerCommand::kBatchFinalize);
  ASSERT_TRUE(finalized.ok());
  ASSERT_EQ(finalized.outputs.size(), 2u);
  EXPECT_EQ(finalized.outputs[0], expected_payload);
  EXPECT_TRUE(crypto::rsa_verify(tee_.verification_key(), finalized.outputs[0],
                                 finalized.outputs[1], crypto::HashAlgorithm::kSha1));

  // Finalize closes the batch.
  EXPECT_EQ(invoke(SamplerCommand::kBatchFinalize).status, TeeStatus::kNotReady);
}

TEST_F(TeeFixture, BatchAppendWithoutBeginRefused) {
  feed_fix({40.0, -88.0}, kT0);
  EXPECT_EQ(invoke(SamplerCommand::kBatchAppend).status, TeeStatus::kNotReady);
}

TEST_F(TeeFixture, CostMeterChargesSignAndSwitches) {
  feed_fix({40.0, -88.0}, kT0);
  resource::CpuAccountant cpu(4);
  const resource::CostProfile profile = resource::CostProfile::raspberry_pi3();
  tee_.set_cost_meter(&cpu, profile);

  invoke(SamplerCommand::kGetGpsAuth);
  // 2 world switches + GPS read + one 1024-class signature (512-bit key
  // maps to the 1024 bucket).
  EXPECT_NEAR(cpu.busy_seconds(),
              2 * profile.world_switch + profile.gps_read_parse + profile.rsa_sign_1024,
              1e-12);
}

// ---- GlobalPlatform-style sessions ----

TEST_F(TeeFixture, OpenInvokeCloseSessionLifecycle) {
  const SessionId session = tee_.monitor().open_session(tee_.sampler_uuid());
  ASSERT_GE(session, 1u);
  EXPECT_EQ(tee_.monitor().open_session_count(), 1u);

  const InvokeResult key = tee_.monitor().invoke(
      session, static_cast<std::uint32_t>(SamplerCommand::kGetPublicKey));
  EXPECT_TRUE(key.ok());

  EXPECT_TRUE(tee_.monitor().close_session(session));
  EXPECT_FALSE(tee_.monitor().close_session(session));  // already closed
  EXPECT_EQ(tee_.monitor().open_session_count(), 0u);

  // Invoking a closed session is refused.
  const InvokeResult after = tee_.monitor().invoke(
      session, static_cast<std::uint32_t>(SamplerCommand::kGetPublicKey));
  EXPECT_EQ(after.status, TeeStatus::kAccessDenied);
}

TEST_F(TeeFixture, OpenSessionToUnknownTaFails) {
  EXPECT_EQ(tee_.monitor().open_session(Uuid::from_name("no.such.ta")), 0u);
}

TEST_F(TeeFixture, HmacKeysAreIsolatedBetweenSessions) {
  feed_fix({40.0, -88.0}, kT0);
  const SessionId s1 = tee_.monitor().open_session(tee_.sampler_uuid());
  const SessionId s2 = tee_.monitor().open_session(tee_.sampler_uuid());
  ASSERT_NE(s1, s2);

  crypto::DeterministicRandom rng("session-auditor");
  const crypto::RsaKeyPair auditor = crypto::generate_rsa_keypair(512, rng);
  const std::vector<crypto::Bytes> params{auditor.pub.n.to_bytes(),
                                          auditor.pub.e.to_bytes()};
  ASSERT_TRUE(tee_.monitor()
                  .invoke(s1,
                          static_cast<std::uint32_t>(SamplerCommand::kEstablishHmacKey),
                          params)
                  .ok());

  // Session 1 can MAC samples; session 2 has no key and is refused.
  EXPECT_TRUE(tee_.monitor()
                  .invoke(s1, static_cast<std::uint32_t>(SamplerCommand::kGetGpsHmac))
                  .ok());
  EXPECT_EQ(tee_.monitor()
                .invoke(s2, static_cast<std::uint32_t>(SamplerCommand::kGetGpsHmac))
                .status,
            TeeStatus::kNotReady);
}

TEST_F(TeeFixture, BatchesAreIsolatedBetweenSessions) {
  feed_fix({40.0, -88.0}, kT0);
  const SessionId s1 = tee_.monitor().open_session(tee_.sampler_uuid());
  const SessionId s2 = tee_.monitor().open_session(tee_.sampler_uuid());

  const auto cmd = [&](SessionId s, SamplerCommand c) {
    return tee_.monitor().invoke(s, static_cast<std::uint32_t>(c));
  };
  ASSERT_TRUE(cmd(s1, SamplerCommand::kBatchBegin).ok());
  ASSERT_TRUE(cmd(s1, SamplerCommand::kBatchAppend).ok());

  // Session 2 never began a batch.
  EXPECT_EQ(cmd(s2, SamplerCommand::kBatchAppend).status, TeeStatus::kNotReady);

  // Two independent batches can run concurrently.
  ASSERT_TRUE(cmd(s2, SamplerCommand::kBatchBegin).ok());
  feed_fix({40.001, -88.0}, kT0 + 1.0);
  ASSERT_TRUE(cmd(s2, SamplerCommand::kBatchAppend).ok());
  ASSERT_TRUE(cmd(s1, SamplerCommand::kBatchAppend).ok());

  const InvokeResult f1 = cmd(s1, SamplerCommand::kBatchFinalize);
  const InvokeResult f2 = cmd(s2, SamplerCommand::kBatchFinalize);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(f1.outputs[0].size(), 2 * kEncodedSampleSize);
  EXPECT_EQ(f2.outputs[0].size(), 1 * kEncodedSampleSize);
}

TEST_F(TeeFixture, CloseSessionReleasesBatchStorage) {
  feed_fix({40.0, -88.0}, kT0);
  const SessionId s = tee_.monitor().open_session(tee_.sampler_uuid());
  tee_.monitor().invoke(s, static_cast<std::uint32_t>(SamplerCommand::kBatchBegin));
  tee_.monitor().invoke(s, static_cast<std::uint32_t>(SamplerCommand::kBatchAppend));
  tee_.monitor().close_session(s);

  // A new session with the same numeric id cannot exist, and storage was
  // cleaned: a fresh session starts with no batch.
  const SessionId s2 = tee_.monitor().open_session(tee_.sampler_uuid());
  EXPECT_EQ(tee_.monitor()
                .invoke(s2, static_cast<std::uint32_t>(SamplerCommand::kBatchAppend))
                .status,
            TeeStatus::kNotReady);
}

TEST_F(TeeFixture, SessionOperationsCountWorldSwitches) {
  const std::uint64_t before = tee_.monitor().world_switches();
  const SessionId s = tee_.monitor().open_session(tee_.sampler_uuid());
  tee_.monitor().invoke(s, static_cast<std::uint32_t>(SamplerCommand::kGetPublicKey));
  tee_.monitor().close_session(s);
  EXPECT_EQ(tee_.monitor().world_switches(), before + 6);  // open+invoke+close
}

TEST(DroneTee, DistinctSeedsDistinctKeys) {
  DroneTee::Config a;
  a.key_bits = 512;
  a.manufacturing_seed = "device-a";
  DroneTee::Config b;
  b.key_bits = 512;
  b.manufacturing_seed = "device-b";
  EXPECT_NE(DroneTee(a).verification_key().n, DroneTee(b).verification_key().n);
}

}  // namespace
}  // namespace alidrone::tee

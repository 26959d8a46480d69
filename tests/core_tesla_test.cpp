// TESLA broadcast PoA mode (labelled `tsan` in ctest).
//
// Three layers of coverage:
//  1. the lossy-broadcast workload end to end — run_tesla_broadcast_flight
//     against a bus with and without chaos drop windows, finalized through
//     the standard verify/retain/accusation pipeline;
//  2. the security boundary, attack by attack (core/attacks.h): forged
//     tags, late samples crafted from overheard keys, the receive-clock
//     disclosure deadline, forged / replayed / reordered disclosures and
//     forked chain commitments — each rejected with its exact detail
//     string and audit event;
//  3. determinism: the same admission-ordered operation sequence through
//     AuditorIngest must produce byte-identical replies and audit logs
//     for any verify-thread and shard count; TESLA ops from many threads
//     stay correct while PoA batches commit beside them.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/attacks.h"
#include "core/audit_log.h"
#include "core/auditor.h"
#include "core/drone_client.h"
#include "core/ingest.h"
#include "core/poa_store.h"
#include "core/tesla.h"
#include "core/zone_owner.h"
#include "geo/units.h"
#include "net/message_bus.h"
#include "resilience/sim_clock.h"
#include "sim/route.h"
#include "tee/gps_sampler_ta.h"

namespace alidrone::core {
namespace {

constexpr double kT0 = 1528400000.0;
constexpr std::size_t kTestKeyBits = 512;  // fast; realistic sizes in benches
constexpr double kTick = 0.2;              // 5 Hz receiver
constexpr std::uint64_t kNonce = 1;

crypto::Bytes be_bytes(std::uint64_t v, std::size_t width) {
  crypto::Bytes out(width);
  for (std::size_t i = 0; i < width; ++i) {
    out[i] = static_cast<std::uint8_t>((v >> (8 * (width - 1 - i))) & 0xFF);
  }
  return out;
}

net::FaultWindow drop_window(const std::string& endpoint, double probability) {
  net::FaultWindow w;
  w.endpoint = endpoint;
  w.start = 0.0;
  w.end = 1e18;  // always armed; the drop dice decide
  w.kind = net::FaultKind::kOutage;
  w.probability = probability;
  return w;
}

// ---- Layer 1+: the broadcast flight end to end ----

struct FlightRig {
  explicit FlightRig(const std::string& suffix, const obs::Clock* clock = nullptr)
      : auditor_rng("tesla-auditor-" + suffix),
        operator_rng("tesla-operator-" + suffix),
        owner_rng("tesla-owner-" + suffix),
        auditor(kTestKeyBits, auditor_rng, make_params(clock)),
        owner(kTestKeyBits, owner_rng),
        tee(make_tee_config(suffix)),
        client(tee, kTestKeyBits, operator_rng),
        frame(geo::GeoPoint{40.0, -88.0}) {
    audit = std::make_shared<AuditLog>();
    auditor.attach_audit_log(audit);
    auditor.bind(bus);
  }

  static ProtocolParams make_params(const obs::Clock* clock) {
    ProtocolParams params;
    params.clock = clock;
    return params;
  }

  static tee::DroneTee::Config make_tee_config(const std::string& suffix) {
    tee::DroneTee::Config config;
    config.key_bits = kTestKeyBits;
    config.manufacturing_seed = "tesla-device-" + suffix;
    return config;
  }

  /// A 600 m corridor at 10 m/s with zones `zone_offset_m` off to the
  /// side. 400 m matches the chaos-test geometry; lossy runs push the
  /// zones out so eq.-(1) sufficiency survives the widened sample gaps.
  TeslaFlightResult fly(double duration, std::uint64_t bus_seed = 0,
                        std::vector<net::FaultWindow> faults = {},
                        double zone_offset_m = 400.0,
                        double fixed_rate_hz = 0.0) {
    for (double x : {100.0, 300.0, 500.0}) {
      zone_ids.push_back(owner.register_zone(
          bus, {frame.to_geo(geo::Vec2{x, zone_offset_m}), 30.0},
          "tesla zone"));
    }
    if (!faults.empty()) {
      net::MessageBus::FaultConfig config;
      config.seed = bus_seed;
      config.schedule = std::move(faults);
      bus.set_faults(config);
    }

    sim::Route route(frame, {{geo::Vec2{0.0, 0.0}, 10.0},
                             {geo::Vec2{600.0, 0.0}, 10.0}},
                     kT0);
    gps::GpsReceiverSim::Config rc;
    rc.update_rate_hz = 1.0 / kTick;
    rc.start_time = kT0;
    rc.seed = bus_seed;
    gps::GpsReceiverSim receiver(rc, route.as_position_source());

    std::vector<geo::Circle> local_zones;
    for (double x : {100.0, 300.0, 500.0}) {
      local_zones.push_back({geo::Vec2{x, zone_offset_m}, 30.0});
    }
    // Adaptive rides the sufficiency edge (fault-free runs); lossy runs
    // use a fixed rate instead so the drop dice decide which subset lands,
    // not whether anything is recorded at all.
    AdaptiveSampler adaptive(frame, local_zones, geo::kFaaMaxSpeedMps, 0.2);
    FixedRateSampler fixed(fixed_rate_hz > 0.0 ? fixed_rate_hz : 1.0, kT0);
    SamplingPolicy& policy =
        fixed_rate_hz > 0.0 ? static_cast<SamplingPolicy&>(fixed)
                            : static_cast<SamplingPolicy&>(adaptive);

    TeslaFlightConfig config;
    config.end_time = kT0 + duration;
    config.session_nonce = kNonce;
    config.disclosure_delay = 2;
    config.interval_s = 1.0;
    config.local_zones = local_zones;
    config.frame = frame;
    return run_tesla_broadcast_flight(tee, receiver, policy, bus,
                                      client.id(), config);
  }

  crypto::DeterministicRandom auditor_rng;
  crypto::DeterministicRandom operator_rng;
  crypto::DeterministicRandom owner_rng;
  Auditor auditor;
  ZoneOwner owner;
  tee::DroneTee tee;
  DroneClient client;
  net::MessageBus bus;
  geo::LocalFrame frame;
  std::shared_ptr<AuditLog> audit;
  std::vector<ZoneId> zone_ids;
};

TEST(TeslaFlight, BroadcastFlightEndToEnd) {
  FlightRig rig("e2e");
  ASSERT_TRUE(rig.client.register_with_auditor(rig.bus));

  const TeslaFlightResult run = rig.fly(30.0);
  EXPECT_TRUE(run.announced);
  ASSERT_TRUE(run.finalized);
  EXPECT_TRUE(run.verdict.accepted) << run.verdict.detail;
  EXPECT_TRUE(run.verdict.compliant) << run.verdict.detail;
  EXPECT_GT(run.samples_sent, 0u);
  EXPECT_EQ(run.samples_dropped, 0u);
  EXPECT_EQ(run.samples_rejected, 0u);
  EXPECT_EQ(run.tee_failures, 0u);
  EXPECT_GT(run.disclosures_sent, 0u);

  // Finalize drained the session and retained the proof.
  EXPECT_EQ(rig.auditor.tesla_session_count(), 0u);
  EXPECT_EQ(rig.auditor.retained_poa_count(), 1u);

  // The session open is on the audit trail at the flight epoch.
  const auto sessions = rig.audit->by_type(AuditEventType::kTeslaSession);
  ASSERT_FALSE(sessions.empty());
  EXPECT_TRUE(sessions.front().outcome_ok);
  EXPECT_EQ(sessions.front().subject, rig.client.id());
  EXPECT_NEAR(sessions.front().time, kT0, 1e-3);

  // The retained kTeslaChain proof answers accusations like any other:
  // mid-flight incident at a zone 400 m off the corridor -> alibi holds.
  const AccusationRequest accusation = rig.owner.make_accusation(
      rig.zone_ids.at(1), rig.client.id(), kT0 + 15.0);
  const AccusationResponse response = rig.auditor.handle_accusation(accusation);
  EXPECT_TRUE(response.ok) << response.detail;
  EXPECT_TRUE(response.alibi_holds) << response.detail;
}

TEST(TeslaFlight, LossyBroadcastStillVerifies) {
  // Drop 40% of sample broadcasts and 30% of disclosures. The chain
  // verifies whatever subset lands: a later disclosure settles every
  // interval a dropped one covered, and finalize still adjudicates.
  FlightRig rig("lossy");
  ASSERT_TRUE(rig.client.register_with_auditor(rig.bus));

  // Zones sit 2 km off the corridor: even a 30 s sample gap leaves the
  // time-feasible ellipse ~700 m short, so compliance depends only on
  // which subset of the broadcast actually landed.
  const TeslaFlightResult run =
      rig.fly(30.0, 7,
              {drop_window("auditor.tesla_sample", 0.4),
               drop_window("auditor.tesla_disclose", 0.3)},
              2000.0, /*fixed_rate_hz=*/1.0);
  EXPECT_GT(run.samples_dropped, 0u);  // the fault schedule must bite
  EXPECT_TRUE(run.announced);
  ASSERT_TRUE(run.finalized);
  EXPECT_TRUE(run.verdict.accepted) << run.verdict.detail;
  EXPECT_TRUE(run.verdict.compliant) << run.verdict.detail;
  EXPECT_EQ(run.samples_rejected, 0u);  // drops, never rejections
  EXPECT_EQ(rig.auditor.retained_poa_count(), 1u);
}

// ---- Layer 2: the security boundary, direct API ----

/// Drives the real TA by hand (feed fixes, invoke TESLA commands) so each
/// attack can be aimed at a genuine commitment.
class TeslaSecurityTest : public ::testing::Test {
 protected:
  TeslaSecurityTest()
      : clock_(kT0),
        rig_("security", &clock_),
        attacker_rng_("tesla-attacker"),
        route_(rig_.frame, {{geo::Vec2{0.0, 0.0}, 10.0},
                            {geo::Vec2{600.0, 0.0}, 10.0}},
               kT0) {
    gps::GpsReceiverSim::Config rc;
    rc.update_rate_hz = 1.0 / kTick;
    rc.start_time = kT0;
    receiver_.emplace(rc, route_.as_position_source());
    EXPECT_TRUE(rig_.client.register_with_auditor(rig_.bus));
  }

  void feed_to(double t) {
    for (const std::string& s : receiver_->advance_to(t)) rig_.tee.feed_gps(s);
  }

  tee::InvokeResult invoke(tee::SamplerCommand command,
                           const std::vector<crypto::Bytes>& params = {}) {
    return rig_.tee.monitor().invoke(
        rig_.tee.sampler_uuid(), static_cast<std::uint32_t>(command), params);
  }

  /// kTeslaBegin (chain 64, delay 2, tau = one receiver tick) + announce.
  void open_session() {
    feed_to(kT0);
    const std::vector<crypto::Bytes> params{
        be_bytes(64, 4), be_bytes(2, 4),
        be_bytes(static_cast<std::uint64_t>(kTick * 1e6), 8)};
    const tee::InvokeResult begun =
        invoke(tee::SamplerCommand::kTeslaBegin, params);
    ASSERT_TRUE(begun.ok());
    ASSERT_EQ(begun.outputs.size(), 2u);
    announce_.drone_id = rig_.client.id();
    announce_.session_nonce = kNonce;
    announce_.hash = crypto::HashAlgorithm::kSha1;
    announce_.commit_payload = begun.outputs[0];
    announce_.commit_signature = begun.outputs[1];
    const auto commit = tee::parse_tesla_commit(begun.outputs[0]);
    ASSERT_TRUE(commit.has_value());
    commit_ = *commit;
    const TeslaAck ack = rig_.auditor.tesla_announce(announce_);
    ASSERT_TRUE(ack.accepted) << ack.detail;
  }

  /// Honest tagged sample at receiver tick `tick` (interval tick + 1).
  TeslaSampleBroadcast honest_sample(std::uint64_t tick) {
    feed_to(kT0 + static_cast<double>(tick) * kTick);
    const tee::InvokeResult fix = invoke(tee::SamplerCommand::kGetGpsTesla);
    EXPECT_TRUE(fix.ok());
    EXPECT_EQ(fix.outputs.size(), 3u);
    TeslaSampleBroadcast sample;
    sample.drone_id = rig_.client.id();
    sample.session_nonce = kNonce;
    std::uint64_t interval = 0;
    for (const std::uint8_t b : fix.outputs[2]) interval = (interval << 8) | b;
    sample.interval = interval;
    sample.sample = fix.outputs[0];
    sample.tag = fix.outputs[1];
    return sample;
  }

  TeslaAck send(const TeslaSampleBroadcast& sample) {
    const crypto::Bytes frame = sample.encode();
    const auto view = TeslaSampleBroadcastView::decode(frame);
    EXPECT_TRUE(view.has_value());
    return rig_.auditor.tesla_sample(*view);
  }

  /// Feed the TA past K_index's maturity and fetch the genuine key.
  crypto::Bytes fetch_key(std::uint64_t index) {
    feed_to(kT0 + static_cast<double>(index + 2 + 1) * kTick);
    const std::vector<crypto::Bytes> params{be_bytes(index, 8)};
    const tee::InvokeResult disclosed =
        invoke(tee::SamplerCommand::kTeslaDisclose, params);
    EXPECT_TRUE(disclosed.ok());
    EXPECT_EQ(disclosed.outputs.size(), 1u);
    return disclosed.outputs[0];
  }

  TeslaAck disclose(std::uint64_t index, const crypto::Bytes& key) {
    TeslaDiscloseRequest request;
    request.drone_id = rig_.client.id();
    request.session_nonce = kNonce;
    request.index = index;
    request.key = key;
    const crypto::Bytes frame = request.encode();
    const auto view = TeslaDiscloseRequestView::decode(frame);
    EXPECT_TRUE(view.has_value());
    return rig_.auditor.tesla_disclose(*view);
  }

  gps::GpsFix some_fix() {
    const auto decoded = tee::decode_sample(honest_sample(1).sample);
    EXPECT_TRUE(decoded.has_value());
    return *decoded;
  }

  resilience::SimClock clock_;
  FlightRig rig_;
  crypto::DeterministicRandom attacker_rng_;
  sim::Route route_;
  std::optional<gps::GpsReceiverSim> receiver_;
  TeslaAnnounceRequest announce_;
  tee::TeslaCommit commit_;
};

TEST_F(TeslaSecurityTest, ForgedTagBuffersThenRejectsAtDisclosure) {
  open_session();
  // The attacker cannot know K_3 yet; a guessed tag is accepted into the
  // buffer (nothing is checkable) but must die when K_3 goes public.
  const TeslaSampleBroadcast forged = attacks::tesla_forge_tag(
      rig_.client.id(), kNonce, 3, commit_, some_fix(), attacker_rng_);
  EXPECT_TRUE(send(forged).accepted);

  const TeslaAck settled = disclose(3, fetch_key(3));
  EXPECT_TRUE(settled.accepted);
  EXPECT_EQ(settled.detail, "settled 0 samples");

  const auto rejects = rig_.audit->by_type(AuditEventType::kTeslaSampleRejected);
  ASSERT_EQ(rejects.size(), 1u);
  EXPECT_EQ(rejects[0].detail, "interval 3: tag invalid");
  EXPECT_EQ(rejects[0].subject, rig_.client.id());
}

TEST_F(TeslaSecurityTest, LiveOrderDisclosureSettlesMaturedIntervals) {
  open_session();
  // A live sender tags interval i + 1 before it discloses K_{i-2}, so
  // every disclosure finds higher intervals still buffered. It must settle
  // the interval its key covers now, not when the flight's last key is out.
  for (std::uint64_t tick = 0; tick < 8; ++tick) {
    const TeslaSampleBroadcast sample = honest_sample(tick);
    ASSERT_EQ(sample.interval, tick + 1);
    ASSERT_TRUE(send(sample).accepted);
    if (tick < 3) continue;
    // fetch_key(tick - 2) moves the TA's clock to the next tick.
    const TeslaAck ack = disclose(tick - 2, fetch_key(tick - 2));
    EXPECT_TRUE(ack.accepted) << ack.detail;
    EXPECT_EQ(ack.detail, "settled 1 samples") << "K_" << tick - 2;
  }
}

TEST_F(TeslaSecurityTest, LateSampleFromDisclosedKeyRejected) {
  open_session();
  const crypto::Bytes key5 = fetch_key(5);
  ASSERT_TRUE(disclose(5, key5).accepted);

  // An eavesdropper can derive K_3 from the public K_5 and compute a
  // perfectly valid tag — the defense is temporal, not cryptographic.
  crypto::ChainKey disclosed{};
  std::copy(key5.begin(), key5.end(), disclosed.begin());
  const TeslaSampleBroadcast late = attacks::tesla_late_sample(
      rig_.client.id(), kNonce, disclosed, 5, 3, commit_, some_fix());
  const TeslaAck ack = send(late);
  EXPECT_FALSE(ack.accepted);
  EXPECT_EQ(ack.detail, "late: key already disclosed");
  EXPECT_FALSE(rig_.audit->by_type(AuditEventType::kTeslaSampleRejected).empty());
}

TEST_F(TeslaSecurityTest, DisclosureDeadlineEnforcedByReceiveClock) {
  open_session();
  const TeslaSampleBroadcast sample = honest_sample(1);
  // The Auditor's receive clock is past K_interval's scheduled disclosure
  // time: even an honestly tagged sample must be refused (its key may be
  // public without the frontier having seen a disclosure yet).
  clock_.advance(10.0);
  const TeslaAck ack = send(sample);
  EXPECT_FALSE(ack.accepted);
  EXPECT_EQ(ack.detail, "late: past disclosure deadline");
}

TEST_F(TeslaSecurityTest, ForgedDisclosureRejectedWithoutFrontierAdvance) {
  open_session();
  const TeslaSampleBroadcast honest = honest_sample(1);
  ASSERT_TRUE(send(honest).accepted);

  const TeslaDiscloseRequest forged = attacks::tesla_forge_disclosure(
      rig_.client.id(), kNonce, honest.interval, attacker_rng_);
  const TeslaAck bad = disclose(forged.index, forged.key);
  EXPECT_FALSE(bad.accepted);
  EXPECT_EQ(bad.detail, "key does not chain to committed anchor");
  const auto key_rejects = rig_.audit->by_type(AuditEventType::kTeslaKeyRejected);
  ASSERT_EQ(key_rejects.size(), 1u);
  EXPECT_FALSE(key_rejects[0].outcome_ok);

  // The frontier did not move: the genuine key still settles the sample.
  const TeslaAck good = disclose(honest.interval, fetch_key(honest.interval));
  EXPECT_TRUE(good.accepted);
  EXPECT_EQ(good.detail, "settled 1 samples");
}

TEST_F(TeslaSecurityTest, ReplayedAndReorderedDisclosuresRejected) {
  open_session();
  const crypto::Bytes key4 = fetch_key(4);
  ASSERT_TRUE(disclose(4, key4).accepted);

  // Verbatim replay.
  const TeslaAck replay = disclose(4, key4);
  EXPECT_FALSE(replay.accepted);
  EXPECT_EQ(replay.detail, "out-of-order disclosure (replayed index)");

  // A reordered (older) disclosure arriving after a newer one is already
  // settled by the frontier — accepting it would rewind verified state.
  const TeslaAck stale = disclose(2, fetch_key(2));
  EXPECT_FALSE(stale.accepted);
  EXPECT_EQ(stale.detail, "out-of-order disclosure (replayed index)");

  // Skipping forward over a gap is fine (lossy links drop disclosures).
  EXPECT_TRUE(disclose(9, fetch_key(9)).accepted);
}

TEST_F(TeslaSecurityTest, ForkedChainCommitmentRejected) {
  open_session();
  // Byte-identical re-announce: idempotent (lossy links re-send).
  const TeslaAck dup = rig_.auditor.tesla_announce(announce_);
  EXPECT_TRUE(dup.accepted);
  EXPECT_EQ(dup.detail, "duplicate announce");

  // A second kTeslaBegin builds a fresh chain; its (validly signed)
  // commitment under the SAME session nonce is a forked chain.
  const std::vector<crypto::Bytes> params{
      be_bytes(64, 4), be_bytes(2, 4),
      be_bytes(static_cast<std::uint64_t>(kTick * 1e6), 8)};
  const tee::InvokeResult second =
      invoke(tee::SamplerCommand::kTeslaBegin, params);
  ASSERT_TRUE(second.ok());
  TeslaAnnounceRequest fork = announce_;
  fork.commit_payload = second.outputs[0];
  fork.commit_signature = second.outputs[1];
  const TeslaAck ack = rig_.auditor.tesla_announce(fork);
  EXPECT_FALSE(ack.accepted);
  EXPECT_EQ(ack.detail, "forked chain commitment");

  const auto sessions = rig_.audit->by_type(AuditEventType::kTeslaSession);
  ASSERT_EQ(sessions.size(), 2u);  // the open + the rejected fork
  EXPECT_TRUE(sessions[0].outcome_ok);
  EXPECT_FALSE(sessions[1].outcome_ok);
}

TEST_F(TeslaSecurityTest, UnknownSessionAndMalformedInputsRejected) {
  open_session();
  TeslaSampleBroadcast stray = honest_sample(1);
  stray.session_nonce = 99;
  EXPECT_EQ(send(stray).detail, "unknown tesla session");

  TeslaSampleBroadcast truncated = honest_sample(2);
  truncated.tag.pop_back();
  EXPECT_EQ(send(truncated).detail, "malformed sample or tag");

  TeslaSampleBroadcast shifted = honest_sample(3);
  shifted.interval += 1;  // claimed interval no longer matches sample time
  EXPECT_EQ(send(shifted).detail, "interval does not match sample time");

  TeslaSampleBroadcast outside = honest_sample(4);
  outside.interval = 65;  // past the committed chain length
  EXPECT_EQ(send(outside).detail, "interval out of range");
}

TEST_F(TeslaSecurityTest, TamperedRetainedProofRejectedWithExactDetail) {
  // One honest session: samples in intervals 1..8, K_9 disclosed, then
  // finalized and retained. A durable store hands back the retained
  // kTeslaChain proof so each row can tamper with one part of it.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("alidrone_tesla_tamper_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  rig_.auditor.attach_store(std::make_shared<PoaStore>(dir));
  open_session();
  for (std::uint64_t tick = 0; tick < 8; ++tick) {
    ASSERT_TRUE(send(honest_sample(tick)).accepted);
  }
  ASSERT_EQ(disclose(9, fetch_key(9)).detail, "settled 8 samples");
  TeslaFinalizeRequest finalize;
  finalize.drone_id = rig_.client.id();
  finalize.session_nonce = kNonce;
  finalize.end_time = kT0 + 8.0 * kTick;
  const PoaVerdict honest = rig_.auditor.tesla_finalize(finalize);
  ASSERT_TRUE(honest.accepted) << honest.detail;
  const auto stored = PoaStore(dir).load_for_drone(rig_.client.id());
  rig_.auditor.attach_store(nullptr);
  std::filesystem::remove_all(dir);
  ASSERT_EQ(stored.size(), 1u);
  const ProofOfAlibi& retained = stored[0].poa;
  ASSERT_EQ(retained.samples.size(), 8u);

  // The frontier field is BE64(index) || K_index.
  const auto set_frontier_index = [](ProofOfAlibi& poa, std::uint64_t index) {
    const crypto::Bytes be = be_bytes(index, 8);
    std::copy(be.begin(), be.end(), poa.session_key_ciphertext.begin());
  };
  struct Row {
    const char* what;
    std::function<void(ProofOfAlibi&)> tamper;
    std::string detail;
  };
  const std::vector<Row> rows = {
      {"encrypted flag", [](ProofOfAlibi& p) { p.encrypted = true; },
       "encrypted TESLA PoA unsupported"},
      {"truncated commitment", [](ProofOfAlibi& p) { p.batch_signature.pop_back(); },
       "tesla commitment malformed"},
      {"chain too long",
       [](ProofOfAlibi& p) {
         auto commit = tee::parse_tesla_commit(p.batch_signature);
         commit->chain_length = ProtocolParams{}.tesla_max_chain_length + 1;
         p.batch_signature = tee::tesla_commit_payload(*commit);
       },
       "tesla chain too long"},
      {"flipped commitment signature",
       [](ProofOfAlibi& p) { p.session_key_signature[0] ^= 0x01; },
       "tesla commitment signature invalid"},
      {"frontier of the wrong size",
       [](ProofOfAlibi& p) { p.session_key_ciphertext.pop_back(); },
       "tesla frontier malformed"},
      {"frontier index above the chain length",
       [&](ProofOfAlibi& p) { set_frontier_index(p, commit_.chain_length + 1); },
       "tesla frontier out of range"},
      {"sample past the frontier",
       [&](ProofOfAlibi& p) { set_frontier_index(p, 5); },
       "sample 5 key undisclosed"},
      {"frontier key off the chain",
       [](ProofOfAlibi& p) { p.session_key_ciphertext.back() ^= 0x01; },
       "tesla frontier does not chain to anchor"},
      {"flipped tag byte",
       [](ProofOfAlibi& p) { p.samples[2].signature[0] ^= 0x01; },
       "sample 2 tag invalid"},
  };
  for (const Row& row : rows) {
    ProofOfAlibi tampered = retained;
    row.tamper(tampered);
    const PoaVerdict verdict = rig_.auditor.verify_poa(tampered, finalize.end_time);
    EXPECT_FALSE(verdict.accepted) << row.what;
    EXPECT_EQ(verdict.detail, row.detail) << row.what;
  }
  EXPECT_TRUE(rig_.auditor.verify_poa(retained, finalize.end_time).accepted);
}

// ---- Layer 3: determinism across ingest thread and shard counts ----

struct RecordedOp {
  Auditor::WireMethod kind{};
  crypto::Bytes frame;
};

/// One deterministic TESLA session recorded as wire frames: honest
/// samples, a forged tag, a forged disclosure, a replayed disclosure and
/// the finalize — the full mix of accept and reject paths.
std::vector<RecordedOp> record_session_ops(tee::DroneTee& tee,
                                           const DroneId& drone_id) {
  using Kind = Auditor::WireMethod;
  std::vector<RecordedOp> ops;

  const geo::LocalFrame frame(geo::GeoPoint{40.0, -88.0});
  sim::Route route(frame, {{geo::Vec2{0.0, 0.0}, 10.0},
                           {geo::Vec2{600.0, 0.0}, 10.0}},
                   kT0);
  gps::GpsReceiverSim::Config rc;
  rc.update_rate_hz = 1.0 / kTick;
  rc.start_time = kT0;
  gps::GpsReceiverSim receiver(rc, route.as_position_source());
  const auto feed_to = [&](double t) {
    for (const std::string& s : receiver.advance_to(t)) tee.feed_gps(s);
  };
  const auto invoke = [&](tee::SamplerCommand command,
                          const std::vector<crypto::Bytes>& params =
                              std::vector<crypto::Bytes>{}) {
    return tee.monitor().invoke(tee.sampler_uuid(),
                                static_cast<std::uint32_t>(command), params);
  };

  feed_to(kT0);
  const std::vector<crypto::Bytes> begin_params{
      be_bytes(64, 4), be_bytes(2, 4),
      be_bytes(static_cast<std::uint64_t>(kTick * 1e6), 8)};
  const tee::InvokeResult begun =
      invoke(tee::SamplerCommand::kTeslaBegin, begin_params);
  EXPECT_TRUE(begun.ok());
  const auto commit = tee::parse_tesla_commit(begun.outputs[0]);
  EXPECT_TRUE(commit.has_value());

  TeslaAnnounceRequest announce;
  announce.drone_id = drone_id;
  announce.session_nonce = kNonce;
  announce.hash = crypto::HashAlgorithm::kSha1;
  announce.commit_payload = begun.outputs[0];
  announce.commit_signature = begun.outputs[1];
  ops.push_back({Kind::kTeslaAnnounce, announce.encode()});

  // Twelve honest samples (intervals 2..13) …
  gps::GpsFix a_fix{};
  for (std::uint64_t tick = 1; tick <= 12; ++tick) {
    feed_to(kT0 + static_cast<double>(tick) * kTick);
    const tee::InvokeResult fix = invoke(tee::SamplerCommand::kGetGpsTesla);
    EXPECT_TRUE(fix.ok());
    TeslaSampleBroadcast sample;
    sample.drone_id = drone_id;
    sample.session_nonce = kNonce;
    std::uint64_t interval = 0;
    for (const std::uint8_t b : fix.outputs[2]) interval = (interval << 8) | b;
    sample.interval = interval;
    sample.sample = fix.outputs[0];
    sample.tag = fix.outputs[1];
    if (const auto decoded = tee::decode_sample(sample.sample)) a_fix = *decoded;
    ops.push_back({Kind::kTeslaSample, sample.encode()});
  }

  // … a forged tag for interval 5 and a forged disclosure for index 3.
  crypto::DeterministicRandom attacker_rng("tesla-ingest-attacker");
  ops.push_back({Kind::kTeslaSample,
                 attacks::tesla_forge_tag(drone_id, kNonce, 5, *commit, a_fix,
                                          attacker_rng)
                     .encode()});
  ops.push_back({Kind::kTeslaDisclose,
                 attacks::tesla_forge_disclosure(drone_id, kNonce, 3,
                                                 attacker_rng)
                     .encode()});

  // Honest disclosures: K_6, K_6 replayed, K_13 (settles the rest).
  const auto disclose_frame = [&](std::uint64_t index) {
    feed_to(kT0 + static_cast<double>(index + 2 + 1) * kTick);
    const std::vector<crypto::Bytes> params{be_bytes(index, 8)};
    const tee::InvokeResult disclosed =
        invoke(tee::SamplerCommand::kTeslaDisclose, params);
    EXPECT_TRUE(disclosed.ok());
    TeslaDiscloseRequest request;
    request.drone_id = drone_id;
    request.session_nonce = kNonce;
    request.index = index;
    request.key = disclosed.outputs[0];
    return request.encode();
  };
  const crypto::Bytes k6 = disclose_frame(6);
  ops.push_back({Kind::kTeslaDisclose, k6});
  ops.push_back({Kind::kTeslaDisclose, k6});  // verbatim replay
  ops.push_back({Kind::kTeslaDisclose, disclose_frame(13)});

  TeslaFinalizeRequest finalize;
  finalize.drone_id = drone_id;
  finalize.session_nonce = kNonce;
  finalize.end_time = kT0 + 13.0 * kTick;
  ops.push_back({Kind::kTeslaFinalize, finalize.encode()});
  return ops;
}

struct IngestRun {
  std::vector<crypto::Bytes> replies;
  std::vector<std::string> audit_lines;
};

IngestRun run_through_ingest(const std::vector<RecordedOp>& ops,
                             std::size_t verify_threads, std::size_t shards) {
  // A fresh Auditor per run; the shared manufacturing seed reproduces the
  // same TEE key, so the recorded commitment signature verifies under the
  // same registered T+ and the drone gets the same id.
  crypto::DeterministicRandom auditor_rng("tesla-ingest-auditor");
  crypto::DeterministicRandom operator_rng("tesla-ingest-operator");
  ProtocolParams params;
  params.auditor_shards = shards;
  Auditor auditor(kTestKeyBits, auditor_rng, params);
  auto audit = std::make_shared<AuditLog>();
  auditor.attach_audit_log(audit);

  tee::DroneTee::Config tee_config;
  tee_config.key_bits = kTestKeyBits;
  tee_config.manufacturing_seed = "tesla-ingest-device";
  tee::DroneTee tee(tee_config);
  DroneClient client(tee, kTestKeyBits, operator_rng);
  net::MessageBus bus;
  auditor.bind(bus);
  EXPECT_TRUE(client.register_with_auditor(bus));

  AuditorIngest::Config config;
  config.verify_threads = verify_threads;
  AuditorIngest ingest(auditor, config);

  IngestRun run;
  for (const RecordedOp& op : ops) {
    run.replies.push_back(ingest.submit_tesla(op.kind, op.frame));
  }
  ingest.stop();
  for (const AuditEvent& event : audit->events()) {
    run.audit_lines.push_back(event.to_line());
  }
  return run;
}

TEST(TeslaIngestDeterminism, ByteIdenticalAcrossThreadAndShardCounts) {
  tee::DroneTee::Config tee_config;
  tee_config.key_bits = kTestKeyBits;
  tee_config.manufacturing_seed = "tesla-ingest-device";
  tee::DroneTee tee(tee_config);
  const std::vector<RecordedOp> ops = record_session_ops(tee, "drone-1");
  ASSERT_GE(ops.size(), 18u);

  const IngestRun baseline = run_through_ingest(ops, 0, 8);

  // The baseline itself must exercise both accept and reject paths.
  const auto finalize_reply = PoaVerdict::decode(baseline.replies.back());
  ASSERT_TRUE(finalize_reply.has_value());
  EXPECT_TRUE(finalize_reply->accepted) << finalize_reply->detail;
  bool saw_reject = false;
  for (const std::string& line : baseline.audit_lines) {
    if (line.find("tesla-sample-rejected") != std::string::npos) saw_reject = true;
  }
  EXPECT_TRUE(saw_reject);

  for (const auto& [threads, shards] :
       std::vector<std::pair<std::size_t, std::size_t>>{{4, 8}, {4, 1}, {0, 1}}) {
    const IngestRun run = run_through_ingest(ops, threads, shards);
    EXPECT_EQ(run.replies, baseline.replies)
        << "replies diverged at threads=" << threads << " shards=" << shards;
    EXPECT_EQ(run.audit_lines, baseline.audit_lines)
        << "audit log diverged at threads=" << threads << " shards=" << shards;
  }
}

/// `count` valid RSA per-sample PoA submissions of 3 fixes each, signed by
/// `tee` through kGetGpsAuth.
std::vector<crypto::Bytes> signed_poa_frames(tee::DroneTee& tee,
                                             const DroneId& drone_id,
                                             std::size_t count) {
  gps::GpsReceiverSim::Config rc;
  rc.update_rate_hz = 1.0 / kTick;
  rc.start_time = kT0;
  gps::GpsReceiverSim receiver(rc, [](double t) {
    gps::GpsFix f;
    f.position = {40.0, -88.0 + 1e-6 * (t - kT0)};
    f.unix_time = t;
    return f;
  });
  std::vector<crypto::Bytes> frames;
  double t = kT0;
  for (std::size_t n = 0; n < count; ++n) {
    ProofOfAlibi poa;
    poa.drone_id = drone_id;
    poa.mode = AuthMode::kRsaPerSample;
    poa.hash = crypto::HashAlgorithm::kSha1;
    for (int s = 0; s < 3; ++s) {
      t += kTick;
      for (const std::string& line : receiver.advance_to(t)) tee.feed_gps(line);
      const tee::InvokeResult fix = tee.monitor().invoke(
          tee.sampler_uuid(),
          static_cast<std::uint32_t>(tee::SamplerCommand::kGetGpsAuth), {});
      EXPECT_TRUE(fix.ok());
      if (fix.outputs.size() == 2) {
        poa.samples.push_back({fix.outputs[0], fix.outputs[1]});
      }
    }
    SubmitPoaRequest request;
    request.poa = poa.serialize();
    frames.push_back(request.encode());
  }
  return frames;
}

/// One Auditor with `drones` registered drones, each with its own TEE.
struct IngestRig {
  explicit IngestRig(std::size_t drones)
      : auditor_rng("tesla-concurrent-auditor"),
        operator_rng("tesla-concurrent-operator"),
        auditor(kTestKeyBits, auditor_rng) {
    auditor.bind(bus);
    for (std::size_t d = 0; d < drones; ++d) {
      tee::DroneTee::Config config;
      config.key_bits = kTestKeyBits;
      config.manufacturing_seed = "tesla-concurrent-device-" + std::to_string(d);
      tees.push_back(std::make_unique<tee::DroneTee>(config));
      clients.push_back(
          std::make_unique<DroneClient>(*tees.back(), kTestKeyBits, operator_rng));
      EXPECT_TRUE(clients.back()->register_with_auditor(bus));
    }
  }

  crypto::DeterministicRandom auditor_rng;
  crypto::DeterministicRandom operator_rng;
  Auditor auditor;
  net::MessageBus bus;
  std::vector<std::unique_ptr<tee::DroneTee>> tees;
  std::vector<std::unique_ptr<DroneClient>> clients;
};

TEST(TeslaIngestConcurrency, SessionsFromManyThreadsFinalizeWhilePoaBatchesCommit) {
  // Drone 0 submits PoAs from two threads; drones 1..4 each run a TESLA
  // session (forged tag and disclosure included) from their own thread.
  constexpr std::size_t kSessions = 4;
  IngestRig rig(1 + kSessions);
  const std::vector<crypto::Bytes> poas =
      signed_poa_frames(*rig.tees[0], rig.clients[0]->id(), 16);
  std::vector<std::vector<RecordedOp>> sessions;
  for (std::size_t d = 1; d <= kSessions; ++d) {
    sessions.push_back(record_session_ops(*rig.tees[d], rig.clients[d]->id()));
  }

  AuditorIngest::Config config;
  config.verify_threads = 4;
  config.max_batch = 4;
  AuditorIngest ingest(rig.auditor, config);
  std::vector<crypto::Bytes> poa_replies(poas.size());
  std::vector<crypto::Bytes> finalize_replies(kSessions);
  {
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < 2; ++p) {
      threads.emplace_back([&, p] {
        for (std::size_t i = p; i < poas.size(); i += 2) {
          poa_replies[i] = ingest.submit(poas[i]);
        }
      });
    }
    for (std::size_t s = 0; s < kSessions; ++s) {
      threads.emplace_back([&, s] {
        for (const RecordedOp& op : sessions[s]) {
          finalize_replies[s] = ingest.submit_tesla(op.kind, op.frame);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  ingest.stop();

  for (std::size_t s = 0; s < kSessions; ++s) {
    const auto verdict = PoaVerdict::decode(finalize_replies[s]);
    ASSERT_TRUE(verdict.has_value()) << "session " << s;
    EXPECT_TRUE(verdict->accepted) << "session " << s << ": " << verdict->detail;
  }
  for (std::size_t i = 0; i < poas.size(); ++i) {
    const auto verdict = PoaVerdict::decode(poa_replies[i]);
    ASSERT_TRUE(verdict.has_value()) << "PoA " << i;
    EXPECT_TRUE(verdict->accepted) << "PoA " << i << ": " << verdict->detail;
  }
  EXPECT_EQ(rig.auditor.tesla_session_count(), 0u);
  EXPECT_EQ(ingest.counters().committed, poas.size());
}

TEST(TeslaIngestConcurrency, FullPoaQueueDoesNotTurnTeslaOpsAway) {
  IngestRig rig(1);
  const std::vector<crypto::Bytes> poas =
      signed_poa_frames(*rig.tees[0], rig.clients[0]->id(), 3);
  AuditorIngest::Config config;
  config.queue_capacity = 2;
  AuditorIngest ingest(rig.auditor, config);

  // One PoA held at the paused gate, two more filling the queue.
  ingest.pause();
  std::vector<std::thread> blocked;
  blocked.emplace_back([&] { ingest.submit(poas[0]); });
  while (ingest.counters().gate_waits == 0) std::this_thread::yield();
  blocked.emplace_back([&] { ingest.submit(poas[1]); });
  blocked.emplace_back([&] { ingest.submit(poas[2]); });
  while (ingest.counters().admitted < 3) std::this_thread::yield();

  TeslaFinalizeRequest finalize;
  finalize.drone_id = rig.clients[0]->id();
  finalize.session_nonce = kNonce;
  const crypto::Bytes reply = ingest.submit_tesla(
      Auditor::WireMethod::kTeslaFinalize, finalize.encode());
  EXPECT_FALSE(net::is_retry_later(reply));
  const auto verdict = PoaVerdict::decode(reply);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->detail, "unknown tesla session");

  ingest.resume();
  for (std::thread& t : blocked) t.join();
}

TEST(TeslaIngestConcurrency, SubmitTeslaAfterStopAnswersRetryLater) {
  IngestRig rig(1);
  AuditorIngest ingest(rig.auditor);
  ingest.stop();
  TeslaFinalizeRequest finalize;
  finalize.drone_id = rig.clients[0]->id();
  finalize.session_nonce = kNonce;
  EXPECT_TRUE(net::is_retry_later(ingest.submit_tesla(
      Auditor::WireMethod::kTeslaFinalize, finalize.encode())));
  EXPECT_EQ(ingest.counters().retry_later, 1u);
}

}  // namespace
}  // namespace alidrone::core

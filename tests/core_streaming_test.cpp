// Real-time auditing (the paper's deferred alternative in Section IV-B):
// incremental verification at the Auditor and the radio-energy tradeoff
// that justifies the paper's end-of-flight choice.
#include <gtest/gtest.h>

#include <memory>

#include "core/auditor.h"
#include "core/drone_client.h"
#include "core/flight.h"
#include "core/sampler.h"
#include "core/streaming.h"
#include "core/zone_owner.h"
#include "geo/units.h"
#include "gps/receiver_sim.h"
#include "net/codec.h"
#include "net/message_bus.h"
#include "sim/scenarios.h"
#include "tee/gps_sampler_ta.h"
#include "tee/sample_codec.h"
#include "tee/secure_monitor.h"

namespace alidrone::core {
namespace {

constexpr double kT0 = 1528400000.0;
const geo::GeoPoint kAnchor{40.1100, -88.2200};

/// A TEE plus helper to produce genuine signed samples at given positions.
struct SignedSampleFactory {
  tee::DroneTee tee;

  SignedSampleFactory() : tee(make_config()) {}

  static tee::DroneTee::Config make_config() {
    tee::DroneTee::Config config;
    config.key_bits = 512;
    config.manufacturing_seed = "streaming-device";
    return config;
  }

  SignedSample make(double east_m, double north_m, double t) {
    const geo::LocalFrame frame(kAnchor);
    const geo::GeoPoint p = frame.to_geo({east_m, north_m});
    gps::GpsReceiverSim::Config rc;
    rc.update_rate_hz = 5.0;
    rc.start_time = t;
    gps::GpsReceiverSim sim(rc, [p](double tt) {
      gps::GpsFix f;
      f.position = p;
      f.unix_time = tt;
      return f;
    });
    for (const std::string& s : sim.advance_to(t)) tee.feed_gps(s);
    const tee::InvokeResult result = tee.monitor().invoke(
        tee.sampler_uuid(),
        static_cast<std::uint32_t>(tee::SamplerCommand::kGetGpsAuth));
    return {result.outputs[0], result.outputs[1]};
  }
};

SignedSampleFactory& factory() {
  static SignedSampleFactory f;
  return f;
}

std::vector<geo::GeoZone> one_zone(double east_m, double north_m, double r) {
  const geo::LocalFrame frame(kAnchor);
  return {{frame.to_geo({east_m, north_m}), r}};
}

TEST(StreamingVerifier, AcceptsCleanStream) {
  StreamingVerifier verifier(factory().tee.verification_key(),
                             crypto::HashAlgorithm::kSha1,
                             one_zone(0, 5000, 50.0), geo::kFaaMaxSpeedMps);
  for (int i = 0; i < 10; ++i) {
    const auto status = verifier.ingest(factory().make(i * 10.0, 0, kT0 + i));
    EXPECT_EQ(status, StreamingVerifier::SampleStatus::kAccepted) << i;
  }
  EXPECT_EQ(verifier.accepted(), 10u);
  EXPECT_TRUE(verifier.compliant_so_far());
}

TEST(StreamingVerifier, FlagsInsufficientGapTheMomentItArrives) {
  StreamingVerifier verifier(factory().tee.verification_key(),
                             crypto::HashAlgorithm::kSha1,
                             one_zone(50, 100, 40.0), geo::kFaaMaxSpeedMps);
  EXPECT_EQ(verifier.ingest(factory().make(0, 0, kT0)),
            StreamingVerifier::SampleStatus::kAccepted);
  // 60 s gap while ~60 m from the zone: the travel ellipse swallows it.
  EXPECT_EQ(verifier.ingest(factory().make(100, 0, kT0 + 60.0)),
            StreamingVerifier::SampleStatus::kInsufficientPair);
  EXPECT_FALSE(verifier.compliant_so_far());
  EXPECT_EQ(verifier.violations(), 1u);
}

TEST(StreamingVerifier, FlagsSampleInsideZone) {
  StreamingVerifier verifier(factory().tee.verification_key(),
                             crypto::HashAlgorithm::kSha1,
                             one_zone(50, 0, 40.0), geo::kFaaMaxSpeedMps);
  EXPECT_EQ(verifier.ingest(factory().make(50, 0, kT0)),
            StreamingVerifier::SampleStatus::kInsideZone);
  EXPECT_EQ(verifier.violations(), 1u);
}

TEST(StreamingVerifier, RejectsForgedAndMalformedSamples) {
  StreamingVerifier verifier(factory().tee.verification_key(),
                             crypto::HashAlgorithm::kSha1, {}, geo::kFaaMaxSpeedMps);
  SignedSample genuine = factory().make(0, 0, kT0);

  SignedSample tampered = genuine;
  tampered.sample[3] ^= 1;
  EXPECT_EQ(verifier.ingest(tampered),
            StreamingVerifier::SampleStatus::kBadSignature);

  SignedSample bad_sig = genuine;
  bad_sig.signature[3] ^= 1;
  EXPECT_EQ(verifier.ingest(bad_sig),
            StreamingVerifier::SampleStatus::kBadSignature);

  EXPECT_EQ(verifier.accepted(), 0u);  // rejected samples never count
}

TEST(StreamingVerifier, RejectsOutOfOrderTimestamps) {
  StreamingVerifier verifier(factory().tee.verification_key(),
                             crypto::HashAlgorithm::kSha1, {}, geo::kFaaMaxSpeedMps);
  EXPECT_EQ(verifier.ingest(factory().make(0, 0, kT0 + 100)),
            StreamingVerifier::SampleStatus::kAccepted);
  EXPECT_EQ(verifier.ingest(factory().make(10, 0, kT0 + 50)),
            StreamingVerifier::SampleStatus::kOutOfOrder);
}

TEST(StreamingUplink, TransmitsAndTracksEnergy) {
  net::MessageBus bus;
  std::size_t packets = 0;
  bus.register_endpoint("auditor.stream", [&](const crypto::Bytes&) {
    ++packets;
    return crypto::Bytes{};
  });

  StreamingUplink uplink(bus, "auditor.stream");
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(uplink.send(factory().make(i * 10.0, 0, kT0 + 200 + i)));
  }
  EXPECT_EQ(packets, 5u);
  EXPECT_EQ(uplink.transmissions(), 5u);
  EXPECT_EQ(uplink.queued(), 0u);
  EXPECT_GT(uplink.energy_joules(), 5 * 0.030);  // at least the wake cost
}

TEST(StreamingUplink, DroppedPacketsAreQueuedAndRetransmitted) {
  net::MessageBus bus;
  std::size_t received = 0;
  bus.register_endpoint("auditor.stream", [&](const crypto::Bytes& payload) {
    net::Reader r(payload);
    received += *r.u32();
    return crypto::Bytes{};
  });
  net::MessageBus::FaultConfig faults;
  faults.drop_probability = 0.5;  // half the packets vanish
  faults.seed = 9;
  bus.set_faults(faults);

  StreamingUplink uplink(bus, "auditor.stream");
  for (int i = 0; i < 20; ++i) {
    uplink.send(factory().make(i * 10.0, 0, kT0 + 300 + i));
  }
  while (uplink.queued() > 0) uplink.flush();
  EXPECT_EQ(received, 20u);  // every sample eventually arrives
  EXPECT_GT(uplink.transmissions(), 20u);  // at the cost of retries
}

TEST(StreamingUplink, StreamingCostsMoreEnergyThanBatchUpload) {
  // The quantified version of the paper's G2 argument for end-of-flight
  // submission: per-sample radio wakes dominate.
  net::MessageBus bus;
  bus.register_endpoint("auditor.stream",
                        [](const crypto::Bytes&) { return crypto::Bytes{}; });
  StreamingUplink uplink(bus, "auditor.stream");

  constexpr int kSamples = 50;
  std::size_t sample_bytes = 0;
  std::size_t sig_bytes = 0;
  for (int i = 0; i < kSamples; ++i) {
    const SignedSample s = factory().make(i * 10.0, 0, kT0 + 400 + i);
    sample_bytes = s.sample.size();
    sig_bytes = s.signature.size();
    uplink.send(s);
  }
  const double streaming = uplink.energy_joules();
  const double batch = uplink.batch_upload_energy_j(kSamples, sample_bytes, sig_bytes);
  EXPECT_GT(streaming, 5.0 * batch);  // an order of magnitude more
}

// Equivalence: streaming the samples of a full flight through the
// incremental verifier reaches the Auditor's verdict on the same PoA, for
// both field-study scenarios at 2 Hz, 5 Hz and adaptive sampling. No
// sample enters a zone on these routes, so the violation counts of the
// stream, the batch checker (eq. 1) and the Auditor agree too.
TEST(StreamingVerifier, AgreesWithBatchSufficiencyChecker) {
  tee::DroneTee::Config config;
  config.key_bits = 512;
  config.manufacturing_seed = "streaming-equivalence-device";
  tee::DroneTee tee(config);

  const struct {
    std::string name;
    sim::Scenario scenario;
  } cases[] = {{"residential", sim::make_residential_scenario(kT0 + 10000)},
               {"airport", sim::make_airport_scenario(kT0 + 20000)}};
  for (const auto& [name, scenario] : cases) {
    crypto::DeterministicRandom auditor_rng("streaming-equivalence-auditor");
    crypto::DeterministicRandom owner_rng("streaming-equivalence-owner");
    crypto::DeterministicRandom operator_rng("streaming-equivalence-operator");
    net::MessageBus bus;
    Auditor auditor(512, auditor_rng);
    auditor.bind(bus);
    ZoneOwner owner(512, owner_rng);
    for (const geo::GeoZone& z : scenario.zones) {
      ASSERT_FALSE(owner.register_zone(bus, z, name).empty());
    }
    DroneClient client(tee, 512, operator_rng);
    ASSERT_TRUE(client.register_with_auditor(bus));

    for (const std::string rate : {"2", "5", "adaptive"}) {
      SCOPED_TRACE(name + " " + rate);
      gps::GpsReceiverSim::Config rc;
      rc.update_rate_hz = 5.0;
      rc.start_time = scenario.route.start_time();
      gps::GpsReceiverSim receiver(rc, scenario.route.as_position_source());
      std::unique_ptr<SamplingPolicy> policy;
      if (rate == "adaptive") {
        policy = std::make_unique<AdaptiveSampler>(scenario.frame, scenario.local_zones(),
                                                   geo::kFaaMaxSpeedMps, 5.0);
      } else {
        policy = std::make_unique<FixedRateSampler>(std::stod(rate), rc.start_time);
      }
      FlightConfig flight;
      flight.end_time = scenario.route.end_time();
      flight.frame = scenario.frame;
      flight.local_zones = scenario.local_zones();
      const ProofOfAlibi poa = client.fly(receiver, *policy, flight);

      StreamingVerifier verifier(tee.verification_key(), poa.hash, scenario.zones,
                                 geo::kFaaMaxSpeedMps);
      std::vector<gps::GpsFix> fixes;
      for (const SignedSample& s : poa.samples) {
        verifier.ingest(s);
        if (const auto f = s.fix()) fixes.push_back(*f);
      }
      const SufficiencyReport batch =
          check_sufficiency(fixes, scenario.zones, geo::kFaaMaxSpeedMps);
      const PoaVerdict verdict = auditor.verify_poa(poa, scenario.route.end_time() + 100);

      ASSERT_TRUE(verdict.accepted) << verdict.detail;
      EXPECT_EQ(verifier.accepted(), poa.samples.size());
      EXPECT_EQ(verifier.compliant_so_far(), verdict.compliant);
      EXPECT_EQ(verifier.compliant_so_far(), batch.sufficient);
      EXPECT_EQ(verifier.violations(), batch.violations.size());
      EXPECT_EQ(verifier.violations(), verdict.violation_count);
      if (name == "residential" && rate == "2") {
        EXPECT_GT(verifier.violations(), 0u);  // the 2 Hz undersampling shows up
      }
    }
  }
}

}  // namespace
}  // namespace alidrone::core

// Robustness property tests: every parser that consumes attacker-
// controlled bytes (PoA, protocol messages, NMEA sentences, codec) must
// never crash, hang or mis-accept on mutated or random input. These are
// deterministic fuzz sweeps — seeds are fixed, failures reproduce.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "core/auditor.h"
#include "core/messages.h"
#include "core/poa.h"
#include "core/sampler.h"
#include "crypto/random.h"
#include "geo/units.h"
#include "gps/driver.h"
#include "net/codec.h"
#include "net/message_bus.h"
#include "nmea/gga.h"
#include "nmea/rmc.h"
#include "nmea/sentence.h"
#include "tee/sample_codec.h"

namespace alidrone {
namespace {

using crypto::Bytes;
using crypto::DeterministicRandom;

Bytes mutate(const Bytes& input, DeterministicRandom& rng) {
  Bytes out = input;
  if (out.empty()) return out;
  switch (rng.uniform(4)) {
    case 0: {  // flip random bits
      const int flips = 1 + static_cast<int>(rng.uniform(8));
      for (int i = 0; i < flips; ++i) {
        out[rng.uniform(out.size())] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));
      }
      break;
    }
    case 1:  // truncate
      out.resize(rng.uniform(out.size()));
      break;
    case 2: {  // insert garbage
      const std::size_t at = rng.uniform(out.size() + 1);
      const Bytes junk = rng.bytes(1 + rng.uniform(16));
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(at), junk.begin(),
                 junk.end());
      break;
    }
    default: {  // overwrite a window
      const std::size_t at = rng.uniform(out.size());
      const std::size_t len = std::min(out.size() - at, 1 + rng.uniform(8));
      const Bytes junk = rng.bytes(len);
      std::copy(junk.begin(), junk.end(),
                out.begin() + static_cast<std::ptrdiff_t>(at));
      break;
    }
  }
  return out;
}

core::ProofOfAlibi sample_poa() {
  core::ProofOfAlibi poa;
  poa.drone_id = "drone-7";
  poa.mode = core::AuthMode::kRsaPerSample;
  for (int i = 0; i < 10; ++i) {
    gps::GpsFix f;
    f.position = {40.0 + i * 1e-4, -88.0};
    f.unix_time = 1528400000.0 + i;
    poa.samples.push_back({tee::encode_sample(f), Bytes(64, 0xAB)});
  }
  return poa;
}

class FuzzSeed : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSeed, PoaParserNeverCrashesOnMutations) {
  DeterministicRandom rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  const Bytes original = sample_poa().serialize();
  for (int i = 0; i < 200; ++i) {
    const Bytes corrupted = mutate(original, rng);
    const auto parsed = core::ProofOfAlibi::parse(corrupted);
    if (parsed) {
      // If it parses, re-serialization must be stable (no hidden state).
      EXPECT_EQ(core::ProofOfAlibi::parse(parsed->serialize()).has_value(), true);
    }
  }
}

TEST_P(FuzzSeed, PoaParserRejectsPureRandomBytes) {
  DeterministicRandom rng(static_cast<std::uint64_t>(GetParam()) * 97 + 1);
  for (int i = 0; i < 200; ++i) {
    const Bytes random = rng.bytes(rng.uniform(300));
    core::ProofOfAlibi::parse(random);  // must not crash; result irrelevant
  }
  SUCCEED();
}

/// One wire type under mutation: its owning decode followed by a
/// re-encode, and whether its borrowing decoder (if any) accepts a frame.
struct WireType {
  const char* name;
  Bytes frame;
  std::function<std::optional<Bytes>(std::span<const std::uint8_t>)> reencode;
  std::function<bool(std::span<const std::uint8_t>)> view_accepts;
};

template <class M>
WireType wire_type(const char* name, const M& m,
                   std::function<bool(std::span<const std::uint8_t>)> view = {}) {
  return {name, m.encode(),
          [](std::span<const std::uint8_t> f) -> std::optional<Bytes> {
            const auto decoded = M::decode(f);
            if (!decoded) return std::nullopt;
            return decoded->encode();
          },
          std::move(view)};
}

std::vector<WireType> wire_types(DeterministicRandom& rng) {
  using namespace core;
  const auto key = rng.bytes(64);
  WireType poa{"ProofOfAlibi", sample_poa().serialize(),
               [](std::span<const std::uint8_t> f) -> std::optional<Bytes> {
                 const auto parsed = ProofOfAlibi::parse(f);
                 if (!parsed) return std::nullopt;
                 return parsed->serialize();
               },
               [](std::span<const std::uint8_t> f) {
                 PoaView view;
                 return PoaView::parse_into(f, view);
               }};
  return {
      wire_type("RegisterDroneRequest", RegisterDroneRequest{key, {1, 0, 1}, key, {3}}),
      wire_type("RegisterDroneResponse", RegisterDroneResponse{true, "drone-1"}),
      wire_type("RegisterZoneRequest",
                RegisterZoneRequest{{{40.0, -88.0}, 30.0}, "prop", key, {1, 0, 1},
                                    rng.bytes(64)}),
      wire_type("RegisterZoneResponse", RegisterZoneResponse{true, "zone-1"}),
      wire_type("ZoneQueryRequest",
                ZoneQueryRequest{"drone-1", {{40.0, -89.0}, {41.0, -88.0}},
                                 rng.bytes(16), rng.bytes(64)},
                [](std::span<const std::uint8_t> f) {
                  return ZoneQueryRequestView::decode(f).has_value();
                }),
      wire_type("ZoneQueryResponse",
                ZoneQueryResponse{true, "", {{"zone-1", {{40.0, -88.0}, 30.0}},
                                             {"zone-2", {{40.1, -88.1}, 45.0}}}}),
      wire_type("SubmitPoaRequest", SubmitPoaRequest{sample_poa().serialize()},
                [](std::span<const std::uint8_t> f) {
                  return SubmitPoaRequest::decode_view(f).has_value();
                }),
      wire_type("PoaVerdict", PoaVerdict{true, true, 2, "compliant"}),
      wire_type("TeslaAnnounceRequest",
                TeslaAnnounceRequest{"drone-1", 7, crypto::HashAlgorithm::kSha256,
                                     rng.bytes(61), key}),
      wire_type("TeslaAck", TeslaAck{true, "ok"}),
      wire_type("TeslaSampleBroadcast",
                TeslaSampleBroadcast{"drone-1", 7, 3, rng.bytes(32), rng.bytes(32)},
                [](std::span<const std::uint8_t> f) {
                  return TeslaSampleBroadcastView::decode(f).has_value();
                }),
      wire_type("TeslaDiscloseRequest",
                TeslaDiscloseRequest{"drone-1", 7, 2, rng.bytes(32)},
                [](std::span<const std::uint8_t> f) {
                  return TeslaDiscloseRequestView::decode(f).has_value();
                }),
      wire_type("TeslaFinalizeRequest", TeslaFinalizeRequest{"drone-1", 7, 1528400100.0}),
      wire_type("AccusationRequest", AccusationRequest{"z", "d", 1.0, rng.bytes(64)}),
      wire_type("AccusationResponse", AccusationResponse{true, true, "alibi holds"}),
      std::move(poa),
  };
}

// Decoders are strict and canonical: any frame a decoder accepts — a
// mutated frame of its own type or of any other — re-encodes to exactly
// the same bytes, and the owning and borrowing decoders of a type accept
// and reject the same frames.
TEST_P(FuzzSeed, ProtocolMessageDecodersSurviveMutations) {
  DeterministicRandom rng(static_cast<std::uint64_t>(GetParam()) * 131 + 3);
  const std::vector<WireType> types = wire_types(rng);
  ASSERT_EQ(types.size(), 16u);  // 15 protocol messages + the PoA

  for (const WireType& source : types) {
    for (int i = 0; i < 100; ++i) {
      const Bytes corrupted = mutate(source.frame, rng);
      for (const WireType& t : types) {
        const auto reencoded = t.reencode(corrupted);
        if (reencoded) {
          EXPECT_EQ(*reencoded, corrupted) << t.name << " accepted a " << source.name
                                           << " mutation non-canonically";
        }
        if (t.view_accepts) {
          EXPECT_EQ(t.view_accepts(corrupted), reencoded.has_value())
              << t.name << " owning/view disagree on a " << source.name << " mutation";
        }
      }
    }
  }
}

TEST_P(FuzzSeed, AuditorEndpointsSurviveGarbageOverTheBus) {
  DeterministicRandom rng(static_cast<std::uint64_t>(GetParam()) * 17 + 11);
  DeterministicRandom key_rng("fuzz-auditor");
  core::Auditor auditor(512, key_rng);
  net::MessageBus bus;
  auditor.bind(bus);

  for (const char* endpoint :
       {"auditor.register_drone", "auditor.register_zone", "auditor.query_zones",
        "auditor.submit_poa", "auditor.accuse"}) {
    for (int i = 0; i < 50; ++i) {
      const Bytes garbage = rng.bytes(rng.uniform(200));
      EXPECT_NO_THROW(bus.request(endpoint, garbage)) << endpoint;
    }
  }
  EXPECT_EQ(auditor.drone_count(), 0u);
  EXPECT_EQ(auditor.zone_count(), 0u);
}

TEST_P(FuzzSeed, NmeaParsersSurviveLineNoise) {
  DeterministicRandom rng(static_cast<std::uint64_t>(GetParam()) * 53 + 29);
  const std::string valid =
      nmea::frame("GPRMC,123519.000,A,4807.0380,N,01131.0000,E,022.4,084.4,230394,,,A");

  for (int i = 0; i < 300; ++i) {
    std::string noisy = valid;
    const int mutations = 1 + static_cast<int>(rng.uniform(5));
    for (int m = 0; m < mutations; ++m) {
      if (noisy.empty()) break;
      const std::size_t at = rng.uniform(noisy.size());
      noisy[at] = static_cast<char>(rng.uniform(256));
    }
    nmea::parse_rmc(noisy);
    nmea::parse_gga(noisy);
    nmea::unframe(noisy);
  }
  // Pure random "sentences".
  for (int i = 0; i < 300; ++i) {
    const Bytes junk = rng.bytes(rng.uniform(90));
    const std::string line(junk.begin(), junk.end());
    nmea::parse_rmc(line);
    nmea::parse_gga(line);
  }
  SUCCEED();
}

TEST_P(FuzzSeed, SampleCodecNeverCrashes) {
  DeterministicRandom rng(static_cast<std::uint64_t>(GetParam()) * 71 + 5);
  for (int i = 0; i < 500; ++i) {
    const Bytes data = rng.bytes(rng.uniform(64));
    const auto fix = tee::decode_sample(data);
    if (fix) {
      // Any successfully decoded 32-byte buffer must re-encode to itself.
      EXPECT_EQ(tee::encode_sample(*fix), data);
    }
  }
}

TEST_P(FuzzSeed, CodecReaderTerminatesOnRandomBytes) {
  DeterministicRandom rng(static_cast<std::uint64_t>(GetParam()) * 41 + 13);
  for (int i = 0; i < 300; ++i) {
    const Bytes data = rng.bytes(rng.uniform(100));
    net::Reader r(data);
    // Drain with a mixed read pattern; must terminate.
    while (!r.at_end()) {
      const auto choice = rng.uniform(4);
      bool progressed = false;
      switch (choice) {
        case 0: progressed = r.u8().has_value(); break;
        case 1: progressed = r.u32().has_value(); break;
        case 2: progressed = r.f64().has_value(); break;
        default: progressed = r.bytes().has_value(); break;
      }
      if (!progressed) break;  // reader refused: stop
    }
  }
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Corrupted-NMEA corpus through the GpsDriver -> sampler path. A real UART
// delivers arbitrary byte chunks; the secure driver must reject every
// damaged sentence (bad checksum, truncation, empty mandatory fields, line
// noise) without ever fabricating a fix, and intact sentences must survive
// no matter how the stream is chunked.

/// An intact framed $GPRMC on a straight northbound track; each index moves
/// 0.01 NMEA-minutes of latitude and one second of flight time.
std::string intact_rmc(int i) {
  char body[96];
  std::snprintf(body, sizeof body,
                "GPRMC,1235%02d.000,A,%09.4f,N,01131.0000,E,022.4,084.4,"
                "230394,,,A",
                i % 60, 4807.0380 + 0.01 * i);
  return nmea::frame(body);
}

/// One damaged variant of `framed`. Every variant keeps its own "\r\n"
/// terminator so corruption stays confined to a single line — the corpus
/// counts rejections per sentence, and a swallowed terminator would merge
/// two entries into one.
std::string corrupt_nmea(const std::string& framed, DeterministicRandom& rng) {
  switch (rng.uniform(4)) {
    case 0: {  // checksum mismatch: flip one payload character
      std::string bad = framed;
      const std::size_t star = bad.find('*');
      const std::size_t at = 1 + rng.uniform(star - 1);
      bad[at] = (bad[at] == '9') ? '0' : static_cast<char>(bad[at] + 1);
      return bad;
    }
    case 1: {  // truncated mid-sentence (dropped UART burst)
      const std::size_t keep = 1 + rng.uniform(framed.size() - 3);
      return framed.substr(0, keep) + "\r\n";
    }
    case 2: {  // correctly checksummed but mandatory fields missing/bad
      static const char* const kMalformed[] = {
          "GPRMC,,,,,,,,,,,",
          "GPRMC,123519.000,A,,N,01131.0000,E,022.4,084.4,230394,,,A",
          "GPRMC,123519.000,Q,4807.0380,N,01131.0000,E,022.4,084.4,230394,,,A",
          "GPRMC,123519.000,A,4807.0380,N,01131.0000,E",
      };
      return nmea::frame(kMalformed[rng.uniform(4)]);
    }
    default: {  // pure line noise
      std::string junk;
      const std::size_t len = 1 + rng.uniform(40);
      for (std::size_t i = 0; i < len; ++i) {
        char c = static_cast<char>(rng.uniform(256));
        if (c == '\n') c = 'x';
        junk.push_back(c);
      }
      return junk + "\r\n";
    }
  }
}

struct NmeaCorpus {
  std::string bytes;
  int intact = 0;
  int corrupted = 0;
};

NmeaCorpus build_corpus(DeterministicRandom& rng, int sentences) {
  NmeaCorpus corpus;
  for (int i = 0; i < sentences; ++i) {
    corpus.bytes += intact_rmc(i);
    ++corpus.intact;
    const int bad = static_cast<int>(rng.uniform(3));
    for (int j = 0; j < bad; ++j) {
      corpus.bytes += corrupt_nmea(intact_rmc(i), rng);
      ++corpus.corrupted;
    }
  }
  return corpus;
}

/// Feed `bytes` to `driver` in seeded chunks of 1..`max_chunk` bytes,
/// exercising sentence reassembly across arbitrary split frames.
void feed_chunked(gps::GpsDriver& driver, const std::string& bytes,
                  DeterministicRandom& rng, std::size_t max_chunk,
                  const std::function<void()>& after_chunk = {}) {
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const std::size_t n =
        std::min(bytes.size() - pos, 1 + rng.uniform(max_chunk));
    driver.feed_bytes(std::string_view(bytes).substr(pos, n));
    pos += n;
    if (after_chunk) after_chunk();
  }
}

TEST_P(FuzzSeed, GpsDriverRejectsEveryCorruptedSentence) {
  DeterministicRandom rng(static_cast<std::uint64_t>(GetParam()) * 211 + 19);
  const NmeaCorpus corpus = build_corpus(rng, 40);

  gps::GpsDriver driver;
  feed_chunked(driver, corpus.bytes, rng, 16);

  // Every intact sentence produced exactly one fresh fix; every corrupted
  // one was counted and dropped, never parsed into a fix.
  EXPECT_EQ(driver.sequence(), static_cast<std::uint64_t>(corpus.intact));
  EXPECT_EQ(driver.accepted_sentences(),
            static_cast<std::uint64_t>(corpus.intact));
  EXPECT_EQ(driver.rejected_sentences(),
            static_cast<std::uint64_t>(corpus.corrupted));

  const auto fix = driver.get_gps();
  ASSERT_TRUE(fix.has_value());
  EXPECT_TRUE(fix->valid);
  // Latest fix is the last intact sentence, unperturbed by the corruption
  // interleaved around it.
  EXPECT_NEAR(fix->position.lat_deg, 48.0 + (7.0380 + 0.01 * 39) / 60.0, 1e-9);
  EXPECT_NEAR(fix->position.lon_deg, 11.0 + 31.0 / 60.0, 1e-9);
}

TEST_P(FuzzSeed, ChunkedDeliveryMatchesWholeStreamDelivery) {
  DeterministicRandom rng(static_cast<std::uint64_t>(GetParam()) * 233 + 7);
  const NmeaCorpus corpus = build_corpus(rng, 30);

  gps::GpsDriver whole;
  whole.feed_bytes(corpus.bytes);

  gps::GpsDriver chunked;  // byte-at-a-time worst case included
  feed_chunked(chunked, corpus.bytes, rng, 1 + rng.uniform(5));

  EXPECT_EQ(whole.sequence(), chunked.sequence());
  EXPECT_EQ(whole.accepted_sentences(), chunked.accepted_sentences());
  EXPECT_EQ(whole.rejected_sentences(), chunked.rejected_sentences());
  ASSERT_TRUE(whole.get_gps() && chunked.get_gps());
  EXPECT_EQ(whole.get_gps()->unix_time, chunked.get_gps()->unix_time);
}

TEST_P(FuzzSeed, CorruptedNmeaNeverReachesTheSampler) {
  DeterministicRandom rng(static_cast<std::uint64_t>(GetParam()) * 257 + 3);
  const NmeaCorpus corpus = build_corpus(rng, 40);

  // The full normal-world path: driver reassembles the noisy byte stream,
  // the adaptive sampler sees only parsed fixes.
  const geo::LocalFrame frame(geo::GeoPoint{48.1173, 11.5167});
  const std::vector<geo::Circle> zones{
      {frame.to_local(geo::GeoPoint{48.1180, 11.5167}), 30.0}};
  core::AdaptiveSampler policy(frame, zones, geo::kFaaMaxSpeedMps, 1.0);

  gps::GpsDriver driver;
  int decisions = 0;
  feed_chunked(driver, corpus.bytes, rng, 16, [&] {
    for (const gps::GpsFix& fix : driver.take_pending()) {
      ++decisions;
      // No fabricated fix: everything the sampler sees lies on the track
      // the intact sentences describe.
      EXPECT_TRUE(fix.valid);
      EXPECT_NEAR(fix.position.lon_deg, 11.0 + 31.0 / 60.0, 1e-9);
      EXPECT_GE(fix.position.lat_deg, 48.0 + 7.0380 / 60.0 - 1e-9);
      if (policy.should_authenticate(fix)) policy.on_recorded(fix);
    }
  });
  EXPECT_EQ(decisions, corpus.intact);
  EXPECT_EQ(driver.dropped_fixes(), 0u);  // the loop drains every chunk
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeed, ::testing::Range(1, 9));

}  // namespace
}  // namespace alidrone

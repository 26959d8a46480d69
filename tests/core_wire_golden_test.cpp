// Golden wire frames: the byte-exact encoding of every protocol message
// (Section IV-B) and of a PoA in every authentication mode (Section
// IV-C2), pinned under tests/golden/. One table drives every check:
//   - encode() reproduces the committed frame exactly;
//   - the size hint equals the frame length;
//   - the owning decode re-encodes to the same bytes;
//   - where a borrowing decoder exists, it agrees with the owning decode
//     field by field and its spans point into the frame.
// A change that moves a single wire byte fails here first.
#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/messages.h"
#include "core/poa.h"
#include "gps/fix.h"
#include "tee/sample_codec.h"

namespace alidrone {
namespace {

using crypto::Bytes;
using Frame = std::span<const std::uint8_t>;

/// Deterministic filler bytes (no RNG: the frames must not move when a
/// generator changes).
Bytes pattern(std::size_t n, std::uint8_t seed) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + 37 * i);
  }
  return out;
}

bool inside(const void* p, std::size_t len, Frame frame) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  return b >= frame.data() && b + len <= frame.data() + frame.size();
}

void expect_borrowed(Frame view, const Bytes& owned, Frame frame) {
  EXPECT_EQ(Bytes(view.begin(), view.end()), owned);
  if (!view.empty()) {
    EXPECT_TRUE(inside(view.data(), view.size(), frame));
  }
}

void expect_borrowed(std::string_view view, const std::string& owned, Frame frame) {
  EXPECT_EQ(std::string(view), owned);
  if (!view.empty()) {
    EXPECT_TRUE(inside(view.data(), view.size(), frame));
  }
}

struct GoldenCase {
  std::string name;  ///< tests/golden/<name>.hex
  std::function<Bytes()> encode;
  std::function<std::size_t()> size_hint;
  /// Owning decode + re-encode; nullopt when the decoder rejects.
  std::function<std::optional<Bytes>(Frame)> reencode;
  /// Borrowing decode checked against the owning one (may be empty).
  std::function<void(Frame)> check_view;
};

template <class M>
GoldenCase message_case(std::string name, M m,
                        std::function<void(Frame, const M&)> view = {}) {
  GoldenCase c;
  c.name = std::move(name);
  c.encode = [m] { return m.encode(); };
  c.size_hint = [m] { return m.encoded_size_hint(); };
  c.reencode = [](Frame f) -> std::optional<Bytes> {
    const auto decoded = M::decode(f);
    if (!decoded) return std::nullopt;
    return decoded->encode();
  };
  if (view) {
    c.check_view = [view](Frame f) {
      const auto owned = M::decode(f);
      ASSERT_TRUE(owned.has_value());
      view(f, *owned);
    };
  }
  return c;
}

void check_poa_view(Frame frame, const core::ProofOfAlibi& owned) {
  core::PoaView view;
  ASSERT_TRUE(core::PoaView::parse_into(frame, view));
  expect_borrowed(view.drone_id, owned.drone_id, frame);
  EXPECT_EQ(view.mode, owned.mode);
  EXPECT_EQ(view.hash, owned.hash);
  EXPECT_EQ(view.encrypted, owned.encrypted);
  ASSERT_EQ(view.samples.size(), owned.samples.size());
  for (std::size_t i = 0; i < owned.samples.size(); ++i) {
    expect_borrowed(view.samples[i].sample, owned.samples[i].sample, frame);
    expect_borrowed(view.samples[i].signature, owned.samples[i].signature, frame);
  }
  expect_borrowed(view.batch_signature, owned.batch_signature, frame);
  expect_borrowed(view.session_key_ciphertext, owned.session_key_ciphertext, frame);
  expect_borrowed(view.session_key_signature, owned.session_key_signature, frame);
  EXPECT_EQ(view.materialize().serialize(), Bytes(frame.begin(), frame.end()));
  EXPECT_EQ(core::PoaView::of(owned).materialize().serialize(),
            Bytes(frame.begin(), frame.end()));
}

GoldenCase poa_case(std::string name, core::ProofOfAlibi poa) {
  GoldenCase c;
  c.name = std::move(name);
  c.encode = [poa] { return poa.serialize(); };
  c.size_hint = [poa] { return poa.encoded_size(); };
  c.reencode = [](Frame f) -> std::optional<Bytes> {
    const auto parsed = core::ProofOfAlibi::parse(f);
    if (!parsed) return std::nullopt;
    return parsed->serialize();
  };
  c.check_view = [](Frame f) {
    const auto owned = core::ProofOfAlibi::parse(f);
    ASSERT_TRUE(owned.has_value());
    check_poa_view(f, *owned);
  };
  return c;
}

core::ProofOfAlibi make_poa(core::AuthMode mode, crypto::HashAlgorithm hash,
                            bool encrypted) {
  core::ProofOfAlibi poa;
  poa.drone_id = "drone-" + core::to_string(mode);
  poa.mode = mode;
  poa.hash = hash;
  poa.encrypted = encrypted;
  for (int i = 0; i < 3; ++i) {
    gps::GpsFix fix;
    fix.position = {40.1164 + 0.0007 * i, -88.2434 - 0.0003 * i};
    fix.altitude_m = 30.5 + i;
    fix.unix_time = 1528400000.25 + i;
    core::SignedSample s;
    s.sample = encrypted ? pattern(64, static_cast<std::uint8_t>(0x40 + i))
                         : tee::encode_sample(fix);
    switch (mode) {
      case core::AuthMode::kRsaPerSample:
        s.signature = pattern(64, static_cast<std::uint8_t>(0x10 + i));
        break;
      case core::AuthMode::kHmacSession:
      case core::AuthMode::kTeslaChain:
        s.signature = pattern(32, static_cast<std::uint8_t>(0x20 + i));
        break;
      case core::AuthMode::kBatchSignature:
        break;  // covered by the PoA-level batch signature
    }
    poa.samples.push_back(std::move(s));
  }
  switch (mode) {
    case core::AuthMode::kRsaPerSample:
      break;
    case core::AuthMode::kHmacSession:
      poa.session_key_ciphertext = pattern(64, 0x51);
      poa.session_key_signature = pattern(64, 0x52);
      break;
    case core::AuthMode::kBatchSignature:
      poa.batch_signature = pattern(64, 0x53);
      break;
    case core::AuthMode::kTeslaChain:
      poa.batch_signature = pattern(tee::kTeslaCommitPayloadSize, 0x54);
      poa.session_key_signature = pattern(64, 0x55);
      poa.session_key_ciphertext = pattern(8 + 32, 0x56);
      break;
  }
  return poa;
}

std::vector<GoldenCase> golden_cases() {
  using namespace core;
  std::vector<GoldenCase> cases;

  cases.push_back(message_case(
      "register_drone_request",
      RegisterDroneRequest{pattern(64, 1), {1, 0, 1}, pattern(64, 2), {3}}));
  cases.push_back(message_case("register_drone_response",
                               RegisterDroneResponse{true, "drone-0001"}));
  cases.push_back(message_case(
      "register_zone_request",
      RegisterZoneRequest{{{40.1020, -88.2272}, 250.5},
                          "stadium",
                          pattern(64, 3),
                          {1, 0, 1},
                          pattern(64, 4)}));
  cases.push_back(message_case("register_zone_response",
                               RegisterZoneResponse{true, "zone-0007"}));
  cases.push_back(message_case<ZoneQueryRequest>(
      "zone_query_request",
      ZoneQueryRequest{"drone-0001",
                       {{40.0, -88.5}, {40.25, -88.0}},
                       pattern(16, 5),
                       pattern(64, 6)},
      [](Frame f, const ZoneQueryRequest& owned) {
        const auto view = ZoneQueryRequestView::decode(f);
        ASSERT_TRUE(view.has_value());
        expect_borrowed(view->drone_id, owned.drone_id, f);
        EXPECT_EQ(view->rect.corner1, owned.rect.corner1);
        EXPECT_EQ(view->rect.corner2, owned.rect.corner2);
        expect_borrowed(view->nonce, owned.nonce, f);
        expect_borrowed(view->nonce_signature, owned.nonce_signature, f);
      }));
  cases.push_back(message_case(
      "zone_query_response",
      ZoneQueryResponse{true,
                        "",
                        {{"zone-0001", {{40.1, -88.2}, 100.0}},
                         {"zone-0002", {{40.2, -88.3}, 75.25}}}}));
  cases.push_back(message_case<SubmitPoaRequest>(
      "submit_poa_request",
      SubmitPoaRequest{
          make_poa(AuthMode::kRsaPerSample, crypto::HashAlgorithm::kSha1, false)
              .serialize()},
      [](Frame f, const SubmitPoaRequest& owned) {
        const auto view = SubmitPoaRequest::decode_view(f);
        ASSERT_TRUE(view.has_value());
        expect_borrowed(*view, owned.poa, f);
      }));
  cases.push_back(message_case(
      "poa_verdict", PoaVerdict{true, false, 3, "violates zone-0002"}));
  cases.push_back(message_case(
      "tesla_announce_request",
      TeslaAnnounceRequest{"drone-0003", 0x0123456789abcdefULL,
                           crypto::HashAlgorithm::kSha256,
                           pattern(tee::kTeslaCommitPayloadSize, 7),
                           pattern(64, 8)}));
  cases.push_back(message_case("tesla_ack", TeslaAck{true, "admitted"}));
  cases.push_back(message_case<TeslaSampleBroadcast>(
      "tesla_sample_broadcast",
      TeslaSampleBroadcast{"drone-0003", 0x0123456789abcdefULL, 17,
                           pattern(tee::kEncodedSampleSize, 9), pattern(32, 10)},
      [](Frame f, const TeslaSampleBroadcast& owned) {
        const auto view = TeslaSampleBroadcastView::decode(f);
        ASSERT_TRUE(view.has_value());
        expect_borrowed(view->drone_id, owned.drone_id, f);
        EXPECT_EQ(view->session_nonce, owned.session_nonce);
        EXPECT_EQ(view->interval, owned.interval);
        expect_borrowed(view->sample, owned.sample, f);
        expect_borrowed(view->tag, owned.tag, f);
      }));
  cases.push_back(message_case<TeslaDiscloseRequest>(
      "tesla_disclose_request",
      TeslaDiscloseRequest{"drone-0003", 0x0123456789abcdefULL, 15,
                           pattern(32, 11)},
      [](Frame f, const TeslaDiscloseRequest& owned) {
        const auto view = TeslaDiscloseRequestView::decode(f);
        ASSERT_TRUE(view.has_value());
        expect_borrowed(view->drone_id, owned.drone_id, f);
        EXPECT_EQ(view->session_nonce, owned.session_nonce);
        EXPECT_EQ(view->index, owned.index);
        expect_borrowed(view->key, owned.key, f);
      }));
  cases.push_back(message_case(
      "tesla_finalize_request",
      TeslaFinalizeRequest{"drone-0003", 0x0123456789abcdefULL, 1528400123.5}));
  cases.push_back(message_case(
      "accusation_request",
      AccusationRequest{"zone-0007", "drone-0001", 1528400042.75, pattern(64, 12)}));
  cases.push_back(message_case("accusation_response",
                               AccusationResponse{true, true, "alibi holds"}));

  cases.push_back(poa_case(
      "poa_rsa_per_sample",
      make_poa(AuthMode::kRsaPerSample, crypto::HashAlgorithm::kSha1, false)));
  cases.push_back(poa_case(
      "poa_rsa_per_sample_encrypted",
      make_poa(AuthMode::kRsaPerSample, crypto::HashAlgorithm::kSha256, true)));
  cases.push_back(poa_case(
      "poa_hmac_session",
      make_poa(AuthMode::kHmacSession, crypto::HashAlgorithm::kSha256, false)));
  cases.push_back(poa_case(
      "poa_batch_signature",
      make_poa(AuthMode::kBatchSignature, crypto::HashAlgorithm::kSha1, false)));
  cases.push_back(poa_case(
      "poa_tesla_chain",
      make_poa(AuthMode::kTeslaChain, crypto::HashAlgorithm::kSha256, false)));
  return cases;
}

std::string golden_path(const std::string& name) {
  return std::string(ALIDRONE_GOLDEN_DIR) + "/" + name + ".hex";
}

/// Hex digits of a golden file; whitespace is ignored.
std::optional<Bytes> read_golden(const std::string& name) {
  std::ifstream in(golden_path(name));
  if (!in) return std::nullopt;
  std::string digits;
  for (char c; in.get(c);) {
    if (!std::isspace(static_cast<unsigned char>(c))) digits.push_back(c);
  }
  if (digits.size() % 2 != 0) return std::nullopt;
  Bytes out;
  for (std::size_t i = 0; i < digits.size(); i += 2) {
    const auto byte = std::stoul(digits.substr(i, 2), nullptr, 16);
    out.push_back(static_cast<std::uint8_t>(byte));
  }
  return out;
}

TEST(WireGolden, EveryFrameEncodesDecodesAndSizesExactly) {
  const std::vector<GoldenCase> cases = golden_cases();
  EXPECT_EQ(cases.size(), 20u);  // 15 protocol messages + 5 PoAs
  for (const GoldenCase& c : cases) {
    SCOPED_TRACE(c.name);
    const auto golden = read_golden(c.name);
    ASSERT_TRUE(golden.has_value()) << golden_path(c.name);

    EXPECT_EQ(c.encode(), *golden);
    EXPECT_EQ(c.size_hint(), golden->size());
    EXPECT_EQ(c.reencode(*golden), *golden);
    if (c.check_view) c.check_view(*golden);
  }
}

}  // namespace
}  // namespace alidrone

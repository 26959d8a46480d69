// Zero-copy codec equivalence: bytes_view()/str_view() must agree with
// the owning bytes()/str() accessors on every frame — same values, same
// strict end-of-frame and trailing-garbage errors — and views must borrow
// the frame's storage (no copies). Also covers Writer::reserve() +
// encoded_size_hint() no-reallocation guarantees and BufferPool reuse.
// Run under ALIDRONE_SANITIZE=address,undefined: the lifetime tests make
// a dangling-view bug an ASan failure, not a flake.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/messages.h"
#include "core/poa.h"
#include "crypto/random.h"
#include "crypto/rsa.h"
#include "geo/geopoint.h"
#include "net/buffer_pool.h"
#include "net/codec.h"
#include "net/message_bus.h"
#include "tee/sample_codec.h"

namespace alidrone {
namespace {

using crypto::Bytes;
using crypto::DeterministicRandom;
using core::AuthMode;
using core::PoaVerdict;
using core::PoaView;
using core::ProofOfAlibi;
using core::SignedSample;
using core::SubmitPoaRequest;

// ---- fuzz: view vs owning accessors on random frames -------------------

// A random well-formed frame: a sequence of (tag, field) pairs we can
// re-read in order with either accessor family.
struct RandomFrame {
  std::vector<int> tags;  // 0=u8 1=u32 2=u64 3=f64 4=bytes 5=str
  Bytes encoded;
};

RandomFrame make_frame(DeterministicRandom& rng) {
  RandomFrame frame;
  net::Writer w;
  const std::size_t fields = rng.uniform(12);
  for (std::size_t i = 0; i < fields; ++i) {
    const int tag = static_cast<int>(rng.uniform(6));
    frame.tags.push_back(tag);
    switch (tag) {
      case 0: w.u8(static_cast<std::uint8_t>(rng.uniform(256))); break;
      case 1: w.u32(static_cast<std::uint32_t>(rng.uniform(1u << 30))); break;
      case 2: w.u64(rng.uniform(1u << 30)); break;
      case 3: w.f64(static_cast<double>(rng.uniform(1u << 20)) * 0.125); break;
      case 4: w.bytes(rng.bytes(rng.uniform(64))); break;
      case 5: {
        const Bytes raw = rng.bytes(rng.uniform(48));
        w.str(std::string(raw.begin(), raw.end()));
        break;
      }
    }
  }
  frame.encoded = std::move(w).take();
  return frame;
}

/// Read the tagged fields from `data` with both accessor families in
/// lock-step; every field must agree on success/failure and value, and
/// both readers must agree on at_end() afterwards.
void expect_readers_agree(const std::vector<int>& tags,
                          std::span<const std::uint8_t> data) {
  net::Reader owning(data);
  net::Reader viewing(data);
  for (const int tag : tags) {
    switch (tag) {
      case 0: EXPECT_EQ(owning.u8(), viewing.u8()); break;
      case 1: EXPECT_EQ(owning.u32(), viewing.u32()); break;
      case 2: EXPECT_EQ(owning.u64(), viewing.u64()); break;
      case 3: EXPECT_EQ(owning.f64(), viewing.f64()); break;
      case 4: {
        const auto copy = owning.bytes();
        const auto view = viewing.bytes_view();
        ASSERT_EQ(copy.has_value(), view.has_value());
        if (copy) {
          EXPECT_EQ(*copy, Bytes(view->begin(), view->end()));
        }
        break;
      }
      case 5: {
        const auto copy = owning.str();
        const auto view = viewing.str_view();
        ASSERT_EQ(copy.has_value(), view.has_value());
        if (copy) {
          EXPECT_EQ(*copy, std::string(*view));
        }
        break;
      }
    }
    EXPECT_EQ(owning.remaining(), viewing.remaining());
  }
  EXPECT_EQ(owning.at_end(), viewing.at_end());
}

TEST(CodecView, FuzzViewsMatchOwningAccessors) {
  DeterministicRandom rng(std::string_view("codec-view-fuzz"));
  for (int round = 0; round < 400; ++round) {
    const RandomFrame frame = make_frame(rng);
    expect_readers_agree(frame.tags, frame.encoded);

    // Truncation at every prefix must fail identically for both families.
    if (!frame.encoded.empty()) {
      const std::size_t cut = rng.uniform(frame.encoded.size());
      expect_readers_agree(
          frame.tags, std::span<const std::uint8_t>(frame.encoded.data(), cut));
    }

    // Trailing garbage: both readers see it as !at_end().
    Bytes padded = frame.encoded;
    const Bytes junk = rng.bytes(1 + rng.uniform(8));
    padded.insert(padded.end(), junk.begin(), junk.end());
    expect_readers_agree(frame.tags, padded);
  }
}

TEST(CodecView, ViewsBorrowTheFrame) {
  net::Writer w;
  w.bytes(Bytes{1, 2, 3, 4});
  w.str("alibi");
  const Bytes frame = std::move(w).take();

  net::Reader r(frame);
  const auto bytes = r.bytes_view();
  const auto str = r.str_view();
  ASSERT_TRUE(bytes && str && r.at_end());

  // Zero-copy means the views point into the frame's own storage.
  const auto* begin = frame.data();
  const auto* end = frame.data() + frame.size();
  EXPECT_GE(bytes->data(), begin);
  EXPECT_LE(bytes->data() + bytes->size(), end);
  EXPECT_GE(reinterpret_cast<const std::uint8_t*>(str->data()), begin);
  EXPECT_LE(reinterpret_cast<const std::uint8_t*>(str->data()) + str->size(), end);
}

// ASan-relevant lifetime shape: views parsed from a frame stay valid for
// exactly as long as the frame does, including across container moves of
// other data. (A use-after-free here is what ALIDRONE_SANITIZE=address
// exists to catch.)
TEST(CodecView, ViewsSurviveUnrelatedAllocations) {
  net::Writer w;
  w.str("drone-42");
  w.bytes(Bytes(256, 0xAB));
  const Bytes frame = std::move(w).take();

  net::Reader r(frame);
  const auto id = r.str_view();
  const auto blob = r.bytes_view();
  ASSERT_TRUE(id && blob);

  // Churn the heap; the frame is untouched so the views must still read.
  std::vector<Bytes> churn;
  for (int i = 0; i < 64; ++i) churn.emplace_back(1024, static_cast<std::uint8_t>(i));
  churn.clear();

  EXPECT_EQ(*id, "drone-42");
  EXPECT_EQ(blob->size(), 256u);
  EXPECT_EQ((*blob)[0], 0xAB);
}

// ---- PoaView vs ProofOfAlibi::parse ------------------------------------

ProofOfAlibi make_poa(DeterministicRandom& rng, const crypto::RsaKeyPair& keys) {
  ProofOfAlibi poa;
  poa.drone_id = "drone-7";
  poa.mode = AuthMode::kRsaPerSample;
  poa.hash = crypto::HashAlgorithm::kSha1;
  const std::size_t n = 1 + rng.uniform(4);
  for (std::size_t s = 0; s < n; ++s) {
    gps::GpsFix fix;
    fix.position = geo::GeoPoint{40.0, -88.0 + 0.001 * static_cast<double>(s)};
    fix.unix_time = 1528400000.0 + static_cast<double>(s);
    SignedSample sample;
    sample.sample = tee::encode_sample(fix);
    sample.signature = crypto::rsa_sign(keys.priv, sample.sample, poa.hash);
    poa.samples.push_back(std::move(sample));
  }
  return poa;
}

TEST(CodecView, PoaViewMatchesOwningParseOnMutatedBytes) {
  DeterministicRandom rng(std::string_view("poa-view-fuzz"));
  DeterministicRandom key_rng(std::string_view("poa-view-keys"));
  const crypto::RsaKeyPair keys = crypto::generate_rsa_keypair(512, key_rng);

  for (int round = 0; round < 200; ++round) {
    Bytes encoded = make_poa(rng, keys).serialize();
    if (round % 2 == 1) {  // half the rounds parse hostile mutations
      switch (rng.uniform(3)) {
        case 0:
          encoded[rng.uniform(encoded.size())] ^=
              static_cast<std::uint8_t>(1u << rng.uniform(8));
          break;
        case 1:
          encoded.resize(rng.uniform(encoded.size()));
          break;
        default: {
          const Bytes junk = rng.bytes(1 + rng.uniform(8));
          encoded.insert(encoded.end(), junk.begin(), junk.end());
          break;
        }
      }
    }

    const auto owned = ProofOfAlibi::parse(encoded);
    PoaView view;
    const bool viewed = PoaView::parse_into(encoded, view);
    ASSERT_EQ(owned.has_value(), viewed) << "round " << round;
    if (owned) {
      // Materializing the view must reproduce the owning parse exactly.
      EXPECT_EQ(view.materialize().serialize(), owned->serialize());
    }
  }
}

// ---- Writer::reserve + encoded_size_hint -------------------------------

TEST(CodecView, ReserveFromHintEncodesWithoutReallocation) {
  // A max-size submission: full PoA with batch signature and session-key
  // material, the largest frame the protocol produces.
  DeterministicRandom key_rng(std::string_view("reserve-keys"));
  const crypto::RsaKeyPair keys = crypto::generate_rsa_keypair(512, key_rng);
  DeterministicRandom rng(std::string_view("reserve-poa"));
  ProofOfAlibi poa = make_poa(rng, keys);
  poa.batch_signature = rng.bytes(64);
  poa.session_key_ciphertext = rng.bytes(64);
  poa.session_key_signature = rng.bytes(64);

  SubmitPoaRequest request;
  request.poa = poa.serialize();
  EXPECT_EQ(poa.serialize().size(), poa.encoded_size());

  net::Writer w;
  w.reserve(request.encoded_size_hint());
  const auto* before = w.data().data();
  const std::size_t reserved = w.capacity();

  // Re-encode through the same field sequence the struct uses.
  const Bytes encoded = request.encode();
  w.bytes(request.poa);
  EXPECT_EQ(w.size(), encoded.size());
  EXPECT_EQ(w.size(), request.encoded_size_hint());  // hint is exact
  EXPECT_EQ(w.capacity(), reserved);                 // no growth
  EXPECT_EQ(w.data().data(), before);                // no reallocation
}

// ---- BufferPool ---------------------------------------------------------

TEST(CodecView, BufferPoolRecyclesCapacity) {
  net::BufferPool pool(2);

  Bytes a = pool.acquire();
  a.resize(512);
  const auto* storage = a.data();
  pool.release(std::move(a));

  Bytes b = pool.acquire();
  EXPECT_TRUE(b.empty());            // cleared...
  EXPECT_GE(b.capacity(), 512u);     // ...but capacity retained
  EXPECT_EQ(b.data(), storage);      // same allocation back
  pool.release(std::move(b));

  const auto stats = pool.stats();
  EXPECT_EQ(stats.acquires, 2u);
  EXPECT_EQ(stats.reuses, 1u);
  EXPECT_EQ(stats.releases, 2u);
  EXPECT_EQ(stats.pooled, 1u);
}

TEST(CodecView, BufferPoolBoundsResidency) {
  net::BufferPool pool(1);
  Bytes a = pool.acquire();
  Bytes b = pool.acquire();
  pool.release(std::move(a));
  pool.release(std::move(b));  // pool full -> discarded
  const auto stats = pool.stats();
  EXPECT_EQ(stats.pooled, 1u);
  EXPECT_EQ(stats.discards, 1u);
}

TEST(CodecView, PooledWriterReturnsBufferOnDestruction) {
  net::BufferPool pool(4);
  {
    net::Writer w(pool);
    w.str("scratch");
  }  // not taken -> returned to the pool
  EXPECT_EQ(pool.stats().releases, 1u);

  {
    net::Writer w(pool);
    w.str("kept");
    const Bytes frame = std::move(w).take();
    EXPECT_FALSE(frame.empty());
  }  // taken -> the writer must NOT release it
  EXPECT_EQ(pool.stats().releases, 1u);
}

// ---- retry-later sentinel ----------------------------------------------

TEST(CodecView, RetryLaterSentinelNeverParsesAsProtocolMessage) {
  const Bytes& sentinel = net::retry_later_reply();
  EXPECT_TRUE(net::is_retry_later(sentinel));
  EXPECT_FALSE(net::is_retry_later(Bytes{}));
  EXPECT_FALSE(net::is_retry_later(PoaVerdict{}.encode()));
  // No verdict decode can mistake backpressure for a verdict.
  EXPECT_FALSE(PoaVerdict::decode(sentinel).has_value());
}

}  // namespace
}  // namespace alidrone

// TESLA hash-chain unit tests: sender-side HashChain (checkpoint cache
// ablation, segment cache, derivation correctness), verifier-side
// ChainFrontier (replay / forgery / out-of-order rejection, total-cost
// bound), and the MAC-key separation + per-sample tag, cross-checked
// against an HMAC written out here from SHA-256 alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "crypto/bytes.h"
#include "crypto/hash_chain.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace alidrone::crypto {
namespace {

ChainKey seed_key(std::uint8_t fill) {
  ChainKey k{};
  k.fill(fill);
  return k;
}

/// HMAC-SHA256 (RFC 2104) for a key of at most one block, written out
/// from Sha256 so it shares no code with crypto::Hmac.
Sha256::Digest reference_hmac(std::span<const std::uint8_t> key,
                              std::span<const std::uint8_t> msg) {
  Bytes ipad(Sha256::kBlockSize, 0x36);
  Bytes opad(Sha256::kBlockSize, 0x5c);
  for (std::size_t i = 0; i < key.size(); ++i) {
    ipad[i] ^= key[i];
    opad[i] ^= key[i];
  }
  Bytes inner = ipad;
  inner.insert(inner.end(), msg.begin(), msg.end());
  const Sha256::Digest inner_digest = Sha256::hash(inner);
  Bytes outer = opad;
  outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
  return Sha256::hash(outer);
}

/// K_index by walking down from the seed K_length, no caching at all.
ChainKey naive_key(const ChainKey& seed, std::size_t length,
                   std::size_t index) {
  ChainKey cur = seed;
  for (std::size_t at = length; at > index; --at) cur = chain_step(cur);
  return cur;
}

TEST(ChainStep, IsSha256OfTheKey) {
  const ChainKey k = seed_key(0xAB);
  const ChainKey stepped = chain_step(k);
  const Sha256::Digest ref = Sha256::hash(k);
  EXPECT_TRUE(std::equal(stepped.begin(), stepped.end(), ref.begin()));
}

TEST(HashChain, AdjacentKeysChainDownToTheAnchor) {
  HashChain chain(seed_key(0x11), 64);
  EXPECT_EQ(chain.length(), 64u);
  for (std::size_t i = 64; i >= 2; --i) {
    EXPECT_EQ(chain_step(chain.key(i)), chain.key(i - 1)) << "at index " << i;
  }
  EXPECT_EQ(chain_step(chain.key(1)), chain.anchor());
}

TEST(HashChain, SeedIsTheTopKey) {
  const ChainKey seed = seed_key(0x22);
  HashChain chain(seed, 17);
  EXPECT_EQ(chain.key(17), seed);
}

TEST(HashChain, StrideDoesNotChangeTheChain) {
  // Checkpoint stride is a pure time/memory knob: every stride must produce
  // byte-identical keys and anchor.
  const ChainKey seed = seed_key(0x33);
  HashChain dense(seed, 100, 1);
  HashChain sqrt_stride(seed, 100, 0);  // ceil(sqrt(100)) = 10
  HashChain sparse(seed, 100, 100);     // single checkpoint (the seed)
  EXPECT_EQ(dense.anchor(), sqrt_stride.anchor());
  EXPECT_EQ(dense.anchor(), sparse.anchor());
  for (std::size_t i = 1; i <= 100; ++i) {
    EXPECT_EQ(dense.key(i), sqrt_stride.key(i)) << "at index " << i;
    EXPECT_EQ(dense.key(i), sparse.key(i)) << "at index " << i;
  }
}

TEST(HashChain, CheckpointCacheAblation) {
  const ChainKey seed = seed_key(0x44);
  // stride 1: every key is a checkpoint, lookups never hash.
  HashChain dense(seed, 256, 1);
  for (std::size_t i = 1; i <= 256; ++i) dense.key(i);
  EXPECT_EQ(dense.derive_hashes(), 0u);
  // default sqrt stride: each lookup walks < stride steps.
  HashChain sqrt_stride(seed, 256, 0);
  EXPECT_EQ(sqrt_stride.checkpoint_stride(), 16u);
  std::uint64_t worst = 0;
  for (std::size_t i = 1; i <= 256; ++i) {
    const std::uint64_t before = sqrt_stride.derive_hashes();
    sqrt_stride.key(i);
    worst = std::max(worst, sqrt_stride.derive_hashes() - before);
  }
  EXPECT_LT(worst, 16u);
  // single checkpoint: key(1) must walk nearly the whole chain.
  HashChain sparse(seed, 256, 256);
  sparse.key(1);
  EXPECT_EQ(sparse.derive_hashes(), 255u);
}

/// key(i) against the naive walk for an access order, over chain
/// lengths that are square, non-square, and shorter than the stride.
void expect_matches_naive_walk(const std::vector<std::size_t>& order,
                               std::size_t length, std::size_t stride) {
  const ChainKey seed = seed_key(static_cast<std::uint8_t>(length));
  HashChain chain(seed, length, stride);
  for (const std::size_t i : order) {
    ASSERT_EQ(chain.key(i), naive_key(seed, length, i))
        << "index " << i << " of length " << length << ", stride " << stride;
  }
}

TEST(HashChain, SegmentCacheMatchesNaiveWalkInEveryAccessOrder) {
  const std::vector<std::pair<std::size_t, std::size_t>> shapes{
      {64, 0}, {70, 0}, {37, 0}, {10, 16}, {1, 0}, {100, 7}, {33, 2}};
  for (const auto& [length, stride] : shapes) {
    std::vector<std::size_t> increasing;
    for (std::size_t i = 1; i <= length; ++i) increasing.push_back(i);
    expect_matches_naive_walk(increasing, length, stride);

    // The TA's pattern: the tag at interval i, then the disclosure of
    // i - delay, straddling every checkpoint on the way up.
    for (const std::size_t delay : {1u, 2u, 5u}) {
      std::vector<std::size_t> ta;
      for (std::size_t i = 1; i <= length; ++i) {
        ta.push_back(i);
        if (i > delay) ta.push_back(i - delay);
      }
      expect_matches_naive_walk(ta, length, stride);
    }

    std::vector<std::size_t> reverse(increasing.rbegin(), increasing.rend());
    expect_matches_naive_walk(reverse, length, stride);

    std::mt19937 rng(static_cast<unsigned>(length * 31 + stride));
    std::vector<std::size_t> random;
    for (std::size_t n = 0; n < 3 * length; ++n) {
      random.push_back(std::uniform_int_distribution<std::size_t>(1, length)(rng));
    }
    expect_matches_naive_walk(random, length, stride);
  }
}

TEST(HashChain, IncreasingAccessWithLagCostsAtMostTwoHashesPerKey) {
  // Each segment is walked once while the two access points move up, so
  // a whole flight of tags and lagging disclosures derives at most 2N.
  for (const std::size_t length : {64u, 70u, 1000u, 1024u}) {
    for (const std::size_t lag : {0u, 1u, 2u}) {
      HashChain chain(seed_key(0x5E), length);
      for (std::size_t i = 1; i <= length; ++i) {
        chain.key(i);
        if (i > lag) chain.key(i - lag);
      }
      EXPECT_LE(chain.derive_hashes(), 2 * length)
          << "length " << length << ", lag " << lag;
    }
  }
}

TEST(HashChain, RejectsBadArguments) {
  EXPECT_THROW(HashChain(seed_key(0), 0), std::invalid_argument);
  HashChain chain(seed_key(0x55), 8);
  EXPECT_THROW(chain.key(0), std::out_of_range);
  EXPECT_THROW(chain.key(9), std::out_of_range);
}

TEST(HashChain, LengthOneChain) {
  const ChainKey seed = seed_key(0x66);
  HashChain chain(seed, 1);
  EXPECT_EQ(chain.key(1), seed);
  EXPECT_EQ(chain.anchor(), chain_step(seed));
}

TEST(ChainFrontier, AcceptsInOrderDisclosures) {
  HashChain chain(seed_key(0x77), 32);
  ChainFrontier frontier(chain.anchor(), 32);
  for (std::size_t i = 1; i <= 32; ++i) {
    EXPECT_TRUE(frontier.accept(i, chain.key(i))) << "at index " << i;
    EXPECT_EQ(frontier.frontier_index(), i);
  }
  // Total verification cost for a fully disclosed flight is exactly N.
  EXPECT_EQ(frontier.verify_hashes(), 32u);
}

TEST(ChainFrontier, SkipsOverDroppedDisclosures) {
  // Lossy broadcast: disclosures 1..4 never arrive; K_5 still verifies by
  // hashing 5 steps down to the anchor, and the flight total stays N.
  HashChain chain(seed_key(0x88), 16);
  ChainFrontier frontier(chain.anchor(), 16);
  EXPECT_TRUE(frontier.accept(5, chain.key(5)));
  EXPECT_EQ(frontier.frontier_index(), 5u);
  EXPECT_TRUE(frontier.accept(16, chain.key(16)));
  EXPECT_EQ(frontier.verify_hashes(), 16u);
}

TEST(ChainFrontier, RejectsReplayAndOutOfOrder) {
  HashChain chain(seed_key(0x99), 16);
  ChainFrontier frontier(chain.anchor(), 16);
  ASSERT_TRUE(frontier.accept(8, chain.key(8)));
  EXPECT_FALSE(frontier.accept(8, chain.key(8)));  // replay
  EXPECT_FALSE(frontier.accept(3, chain.key(3)));  // behind the frontier
  EXPECT_EQ(frontier.frontier_index(), 8u);
  EXPECT_EQ(frontier.frontier_key(), chain.key(8));
}

TEST(ChainFrontier, RejectsOutOfRangeAndForgedKeys) {
  HashChain chain(seed_key(0xAA), 16);
  ChainFrontier frontier(chain.anchor(), 16);
  EXPECT_FALSE(frontier.accept(0, chain.anchor()));
  EXPECT_FALSE(frontier.accept(17, seed_key(0x01)));
  // A forged key fails to chain to the anchor and must not move state.
  EXPECT_FALSE(frontier.accept(4, seed_key(0xBB)));
  EXPECT_EQ(frontier.frontier_index(), 0u);
  // A key from a *different* chain is just as forged.
  HashChain other(seed_key(0xCC), 16);
  EXPECT_FALSE(frontier.accept(4, other.key(4)));
  EXPECT_EQ(frontier.frontier_index(), 0u);
  // The genuine key still works afterwards.
  EXPECT_TRUE(frontier.accept(4, chain.key(4)));
}

TEST(TeslaMacKey, MatchesGenericHmacReference) {
  // K'_i = HMAC-SHA256(K_i, "alidrone.tesla.mac.v1"), independently
  // computed here from SHA-256 alone.
  const ChainKey k = seed_key(0xDD);
  const ChainKey mac_key = tesla_mac_key(k);
  const Bytes context = to_bytes("alidrone.tesla.mac.v1");
  const Sha256::Digest ref = reference_hmac(k, context);
  EXPECT_TRUE(std::equal(mac_key.begin(), mac_key.end(), ref.begin()));
  EXPECT_EQ(HmacSha256::mac(k, context), ref);
  // Key separation: the MAC key is not the chain element itself.
  EXPECT_NE(mac_key, k);
}

TEST(TeslaTag, MatchesGenericHmacReference) {
  const ChainKey chain_key = seed_key(0xEE);
  const ChainKey mac_key = tesla_mac_key(chain_key);
  const Bytes sample = to_bytes("lat=40.1164 lon=-88.2434 t=1528395000");
  const std::uint64_t interval = 0x0102030405060708ULL;
  const ChainKey tag = tesla_tag(tesla_tag_key(chain_key), interval, sample);

  Bytes msg = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08};  // BE64
  msg.insert(msg.end(), sample.begin(), sample.end());
  const Sha256::Digest ref = reference_hmac(mac_key, msg);
  EXPECT_TRUE(std::equal(tag.begin(), tag.end(), ref.begin()));
}

TEST(TeslaTag, BindsIntervalAndSample) {
  const HmacSha256 tag_key = tesla_tag_key(seed_key(0xFF));
  const Bytes sample = to_bytes("sample");
  const ChainKey tag = tesla_tag(tag_key, 7, sample);
  EXPECT_NE(tag, tesla_tag(tag_key, 8, sample));
  Bytes other = sample;
  other[0] ^= 0x01;
  EXPECT_NE(tag, tesla_tag(tag_key, 7, other));
  EXPECT_NE(tag, tesla_tag(tesla_tag_key(seed_key(0xFE)), 7, sample));
}

TEST(TeslaTagger, MatchesFreshKeyPerSample) {
  // The per-interval key cache is invisible in the tags: every sample's
  // tag equals one computed from a freshly derived key.
  const ChainKey seed = seed_key(0x3C);
  TeslaTagger tagger(seed, 40);
  for (std::uint64_t interval = 1; interval <= 40; ++interval) {
    for (std::uint8_t n = 0; n < 3; ++n) {
      const Bytes sample{static_cast<std::uint8_t>(interval), n};
      EXPECT_EQ(tagger.tag(interval, sample),
                tesla_tag(tesla_tag_key(naive_key(seed, 40, interval)),
                          interval, sample))
          << "interval " << interval << ", sample " << int{n};
    }
  }
}

}  // namespace
}  // namespace alidrone::crypto

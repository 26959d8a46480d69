#include <gtest/gtest.h>

#include "crypto/montgomery.h"
#include "crypto/prime.h"
#include "crypto/random.h"
#include "crypto/rsa.h"

namespace alidrone::crypto {
namespace {

TEST(Montgomery, RejectsEvenOrTinyModulus) {
  EXPECT_THROW(MontgomeryContext(BigInt(100)), std::invalid_argument);
  EXPECT_THROW(MontgomeryContext(BigInt(1)), std::invalid_argument);
  EXPECT_THROW(MontgomeryContext(BigInt(-7)), std::invalid_argument);
  EXPECT_NO_THROW(MontgomeryContext(BigInt(3)));
}

TEST(Montgomery, ToFromMontRoundTrip) {
  const BigInt m = BigInt::from_string("0xffffffffffffffffffffffffffffff61");
  const MontgomeryContext ctx(m);
  DeterministicRandom rng(9);
  for (int i = 0; i < 20; ++i) {
    const BigInt a = rng.random_range(BigInt(0), m - BigInt(1));
    EXPECT_EQ(ctx.from_mont(ctx.to_mont(a)), a);
  }
}

TEST(Montgomery, MulMatchesPlainModularMultiplication) {
  const BigInt m = BigInt::from_string("0xffffffffffffffffffffffffffffff61");
  const MontgomeryContext ctx(m);
  DeterministicRandom rng(10);
  for (int i = 0; i < 20; ++i) {
    const BigInt a = rng.random_range(BigInt(0), m - BigInt(1));
    const BigInt b = rng.random_range(BigInt(0), m - BigInt(1));
    const BigInt expected = (a * b).mod(m);
    const BigInt got =
        ctx.from_mont(ctx.mul(ctx.to_mont(a), ctx.to_mont(b)));
    EXPECT_EQ(got, expected);
  }
}

TEST(Montgomery, PowMatchesSmallModulusPath) {
  // A modulus below the dispatch threshold exercises the plain path; the
  // Montgomery context must agree with it.
  const BigInt m(1000003);  // odd prime, < 128 bits
  const MontgomeryContext ctx(m);
  DeterministicRandom rng(11);
  for (int i = 0; i < 20; ++i) {
    const BigInt base(static_cast<std::int64_t>(rng.uniform(1000000)));
    const BigInt exp(static_cast<std::int64_t>(rng.uniform(100000)));
    EXPECT_EQ(ctx.pow(base, exp), base.mod_pow(exp, m));
  }
}

TEST(Montgomery, PowEdgeCases) {
  const BigInt m = BigInt::from_string("0xffffffffffffffffffffffffffffff61");
  const MontgomeryContext ctx(m);
  EXPECT_EQ(ctx.pow(BigInt(5), BigInt(0)), BigInt(1));
  EXPECT_EQ(ctx.pow(BigInt(0), BigInt(5)), BigInt(0));
  EXPECT_EQ(ctx.pow(BigInt(1), BigInt::from_string("123456789")), BigInt(1));
  EXPECT_EQ(ctx.pow(m - BigInt(1), BigInt(2)), BigInt(1));  // (-1)^2
  EXPECT_THROW(ctx.pow(BigInt(2), BigInt(-1)), std::domain_error);
}

TEST(Montgomery, FermatOnLargePrime) {
  // 2^521 - 1 is a Mersenne prime; a^(p-1) = 1 mod p.
  const BigInt p = (BigInt(1) << 521) - BigInt(1);
  const MontgomeryContext ctx(p);
  for (std::int64_t a : {2, 3, 65537}) {
    EXPECT_EQ(ctx.pow(BigInt(a), p - BigInt(1)), BigInt(1)) << a;
  }
}

// Property sweep: Montgomery pow agrees with an independent reference
// (square-and-multiply with division-based reduction) on random inputs
// across modulus sizes.
class MontgomeryEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MontgomeryEquivalence, AgreesWithDivisionBasedModexp) {
  const std::size_t bits = GetParam();
  DeterministicRandom rng(bits * 1009);
  BigInt m = rng.random_bits(bits);
  if (m.is_even()) m += BigInt(1);
  const MontgomeryContext ctx(m);

  for (int i = 0; i < 4; ++i) {
    const BigInt base = rng.random_bits(bits + 7);
    const BigInt exp = rng.random_bits(64);

    // Reference: plain square-and-multiply, division-based reduction.
    BigInt reference(1);
    BigInt b = base.mod(m);
    for (std::size_t j = exp.bit_length(); j-- > 0;) {
      reference = (reference * reference).mod(m);
      if (exp.bit(j)) reference = (reference * b).mod(m);
    }

    EXPECT_EQ(ctx.pow(base, exp), reference) << "bits=" << bits << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(ModulusSizes, MontgomeryEquivalence,
                         ::testing::Values(128, 160, 255, 256, 512, 1024, 2048));

TEST(Montgomery, RsaSignStillVerifiesThroughDispatch) {
  // End-to-end: mod_pow now routes through Montgomery for RSA sizes.
  DeterministicRandom rng("montgomery-rsa");
  const RsaKeyPair kp = generate_rsa_keypair(512, rng);
  const Bytes msg = to_bytes("montgomery dispatch check");
  const Bytes sig = rsa_sign(kp.priv, msg, HashAlgorithm::kSha256);
  EXPECT_TRUE(rsa_verify(kp.pub, msg, sig, HashAlgorithm::kSha256));
}

TEST(MontgomeryCache, HitsReuseTheSameContext) {
  MontgomeryContextCache cache(8);
  const BigInt m = (BigInt(1) << 521) - BigInt(1);
  const auto first = cache.get(m);
  const auto second = cache.get(m);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(first->modulus(), m);
}

TEST(MontgomeryCache, LruEvictsOldestModulus) {
  MontgomeryContextCache cache(2);
  const BigInt m1 = (BigInt(1) << 521) - BigInt(1);
  const BigInt m2 = (BigInt(1) << 127) - BigInt(1);  // also a Mersenne prime
  const BigInt m3 = (BigInt(1) << 255) - BigInt(19);
  const auto c1 = cache.get(m1);
  cache.get(m2);
  cache.get(m1);  // bump m1 to most-recent
  cache.get(m3);  // evicts m2, not m1
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.get(m1).get(), c1.get());  // still cached
  const std::uint64_t misses_before = cache.misses();
  cache.get(m2);  // must rebuild
  EXPECT_EQ(cache.misses(), misses_before + 1);
}

TEST(MontgomeryCache, EvictedContextStaysUsableThroughSharedPtr) {
  MontgomeryContextCache cache(1);
  const BigInt m = (BigInt(1) << 521) - BigInt(1);
  const auto ctx = cache.get(m);
  cache.get((BigInt(1) << 127) - BigInt(1));  // evicts m
  // The caller's shared_ptr keeps the evicted context alive and correct.
  EXPECT_EQ(ctx->pow(BigInt(2), m - BigInt(1)), BigInt(1));
}

TEST(MontgomeryCache, CachedPowMatchesFreshContext) {
  const BigInt m = (BigInt(1) << 255) - BigInt(19);
  DeterministicRandom rng("cache-equivalence");
  for (int i = 0; i < 8; ++i) {
    const BigInt base = rng.random_range(BigInt(2), m - BigInt(1));
    const BigInt exp = rng.random_bits(64);
    const auto cached = MontgomeryContextCache::global().get(m);
    EXPECT_EQ(cached->pow(base, exp), MontgomeryContext(m).pow(base, exp));
    EXPECT_EQ(cached->pow(base, exp), base.mod_pow(exp, m));
  }
}

TEST(MontgomeryCache, GlobalCacheServesRepeatVerifies) {
  DeterministicRandom rng("cache-verify");
  const RsaKeyPair kp = generate_rsa_keypair(512, rng);
  const Bytes msg = to_bytes("cached verify");
  const Bytes sig = rsa_sign(kp.priv, msg, HashAlgorithm::kSha256);

  MontgomeryContextCache& cache = MontgomeryContextCache::global();
  ASSERT_TRUE(rsa_verify(kp.pub, msg, sig, HashAlgorithm::kSha256));
  const std::uint64_t misses_after_warmup = cache.misses();
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(rsa_verify(kp.pub, msg, sig, HashAlgorithm::kSha256));
  }
  // Re-verifying under the same public key must not rebuild contexts.
  EXPECT_EQ(cache.misses(), misses_after_warmup);
}

TEST(MontgomeryCache, KeygenLeavesTheGlobalCacheAlone) {
  // Miller-Rabin moduli are used once; routing them through the shared
  // LRU would evict the verify keys it exists for.
  MontgomeryContextCache& cache = MontgomeryContextCache::global();
  cache.clear();
  const BigInt hot = (BigInt(1) << 521) - BigInt(1);
  const auto warm = cache.get(hot);
  const std::uint64_t misses_before = cache.misses();
  const std::uint64_t hits_before = cache.hits();

  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    DeterministicRandom rng(seed);
    generate_rsa_keypair(512, rng);
  }
  EXPECT_EQ(cache.misses(), misses_before);
  EXPECT_EQ(cache.get(hot).get(), warm.get());
  EXPECT_EQ(cache.hits(), hits_before + 1);
  EXPECT_EQ(cache.misses(), misses_before);
}

}  // namespace
}  // namespace alidrone::crypto

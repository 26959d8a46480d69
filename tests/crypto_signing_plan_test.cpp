// Signing fast-path equivalence and robustness.
//
// Every optimization layer (fixed-exponent window plans, blinding-pair
// reuse, KeyVault's owned plan) must emit signatures byte-identical to
// the unoptimized rsa_sign — RSASSA-PKCS1-v1_5 is deterministic, so any
// divergence is a bug, and the Auditor's rsa_verify must accept all of
// them. The CRT fault guard (Bellcore defence) is exercised by corrupting
// one CRT half and asserting no bad signature escapes.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "crypto/montgomery.h"
#include "crypto/random.h"
#include "crypto/rsa.h"
#include "tee/key_vault.h"

namespace alidrone::crypto {
namespace {

RsaKeyPair test_keypair(std::size_t bits, std::string_view seed) {
  DeterministicRandom rng(seed);
  return generate_rsa_keypair(bits, rng);
}

TEST(FixedExponentPlan, MatchesModPowAcrossWindowSizes) {
  DeterministicRandom rng(std::string_view("plan-pow"));
  // Exponent lengths straddling every window-selection threshold.
  for (const std::size_t exp_bits :
       {3u, 17u, 64u, 200u, 256u, 700u, 896u, 1100u}) {
    BigInt m = rng.random_bits(512);
    if (m.is_even()) m += BigInt(1);
    const auto ctx = MontgomeryContextCache::global().get(m);
    const BigInt e = rng.random_bits(exp_bits);
    FixedExponentPlan plan(*ctx, e);
    for (int i = 0; i < 4; ++i) {
      const BigInt base = rng.random_bits(512 + 5);
      EXPECT_EQ(plan.pow(base), base.mod_pow(e, m))
          << "exp_bits=" << exp_bits << " i=" << i;
    }
  }
}

TEST(FixedExponentPlan, EdgeExponents) {
  const BigInt m = (BigInt(1) << 255) - BigInt(19);
  const auto ctx = MontgomeryContextCache::global().get(m);

  FixedExponentPlan zero(*ctx, BigInt(0));
  EXPECT_EQ(zero.pow(BigInt(7)), BigInt(1));

  FixedExponentPlan one(*ctx, BigInt(1));
  EXPECT_EQ(one.pow(BigInt(7)), BigInt(7));
  EXPECT_EQ(one.pow(m + BigInt(3)), BigInt(3));  // base reduced mod m

  FixedExponentPlan two(*ctx, BigInt(2));
  EXPECT_EQ(two.pow(m - BigInt(1)), BigInt(1));  // (-1)^2

  EXPECT_THROW(FixedExponentPlan(*ctx, BigInt(-2)), std::domain_error);
}

TEST(FixedExponentPlan, ReusedPlanStaysCorrect) {
  // The same plan object replayed many times (buffer-reuse regression).
  const BigInt m = (BigInt(1) << 521) - BigInt(1);
  const auto ctx = MontgomeryContextCache::global().get(m);
  DeterministicRandom rng(std::string_view("plan-reuse"));
  const BigInt e = rng.random_bits(500);
  FixedExponentPlan plan(*ctx, e);
  for (int i = 0; i < 32; ++i) {
    const BigInt base = rng.random_bits(521);
    ASSERT_EQ(plan.pow(base), base.mod_pow(e, m)) << i;
  }
}

/// All fast-path layers, across key sizes / hashes / refresh intervals:
/// byte-identical to rsa_sign and accepted by rsa_verify.
class SigningEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SigningEquivalence, FastPathsMatchSlowPathByteForByte) {
  const std::size_t bits = GetParam();
  const RsaKeyPair kp = test_keypair(bits, "equivalence-key");
  DeterministicRandom rng(std::string_view("equivalence-rng"));

  for (const HashAlgorithm hash : {HashAlgorithm::kSha1, HashAlgorithm::kSha256}) {
    // Refresh intervals crossing the boundaries: always-fresh (0/1), the
    // square-reuse cadence (2, 3) and a long steady-state run (8).
    for (const std::uint64_t interval : {0ull, 1ull, 2ull, 3ull, 8ull}) {
      RsaSigningPlanConfig config;
      config.blinding_refresh_interval = interval;
      RsaSigningPlan plan(kp.priv, config);
      for (int i = 0; i < 12; ++i) {
        const Bytes msg = rng.bytes(16 + static_cast<std::size_t>(i));
        const Bytes slow = rsa_sign(kp.priv, msg, hash);
        const Bytes blinded = rsa_sign_blinded(kp.priv, msg, hash, rng);
        const Bytes fast = plan.sign(msg, hash, rng);
        EXPECT_EQ(fast, slow) << "bits=" << bits << " interval=" << interval
                              << " i=" << i;
        EXPECT_EQ(blinded, slow);
        EXPECT_TRUE(rsa_verify(kp.pub, msg, fast, hash));
      }
      EXPECT_EQ(plan.crt_fault_fallbacks(), 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(KeySizes, SigningEquivalence,
                         ::testing::Values(512, 768, 1024));

TEST(SigningPlan, BlindingRefreshCadence) {
  const RsaKeyPair kp = test_keypair(512, "cadence-key");
  DeterministicRandom rng(std::string_view("cadence-rng"));
  const Bytes msg = rng.bytes(24);

  RsaSigningPlanConfig config;
  config.blinding_refresh_interval = 4;
  RsaSigningPlan plan(kp.priv, config);
  for (int i = 0; i < 12; ++i) {
    plan.sign(msg, HashAlgorithm::kSha256, rng);
  }
  // A pair serves 4 signatures: ops 1, 5 and 9 draw fresh pairs.
  EXPECT_EQ(plan.blinding_refreshes(), 3u);
  EXPECT_EQ(plan.private_ops(), 12u);

  RsaSigningPlanConfig fresh_every;
  fresh_every.blinding_refresh_interval = 1;
  RsaSigningPlan fresh_plan(kp.priv, fresh_every);
  for (int i = 0; i < 5; ++i) {
    fresh_plan.sign(msg, HashAlgorithm::kSha256, rng);
  }
  EXPECT_EQ(fresh_plan.blinding_refreshes(), 5u);
}

TEST(SigningPlan, NonCrtKeyUsesSinglePlan) {
  RsaKeyPair kp = test_keypair(512, "non-crt-key");
  kp.priv.p = BigInt();
  kp.priv.q = BigInt();  // has_crt() now false
  RsaSigningPlan plan(kp.priv);
  DeterministicRandom rng(std::string_view("non-crt-rng"));
  const Bytes msg = rng.bytes(20);
  const Bytes fast = plan.sign(msg, HashAlgorithm::kSha256, rng);
  EXPECT_EQ(fast, rsa_sign(kp.priv, msg, HashAlgorithm::kSha256));
  EXPECT_TRUE(rsa_verify(kp.pub, msg, fast, HashAlgorithm::kSha256));
}

// --- Bellcore CRT fault guard -------------------------------------------

TEST(CrtFaultGuard, CorruptedCrtHalfNeverEscapes) {
  const RsaKeyPair good = test_keypair(512, "fault-key");
  DeterministicRandom rng(std::string_view("fault-rng"));
  const Bytes msg = rng.bytes(32);

  // Corrupt each CRT parameter in turn; a faulted recombination without
  // the guard would emit an s with gcd(s^e - m, n) = p or q.
  for (const int which : {0, 1, 2}) {
    RsaKeyPair bad = good;
    switch (which) {
      case 0:
        bad.priv.d_p += BigInt(2);
        break;
      case 1:
        bad.priv.d_q += BigInt(2);
        break;
      default:
        bad.priv.q_inv += BigInt(1);
        break;
    }

    // Free-function path: the guard falls back to the non-CRT exponent.
    const Bytes sig = rsa_sign(bad.priv, msg, HashAlgorithm::kSha256);
    EXPECT_TRUE(rsa_verify(good.pub, msg, sig, HashAlgorithm::kSha256))
        << "which=" << which;

    // Plan path: same result, and the fallback is visible in the stats.
    RsaSigningPlan plan(bad.priv);
    const Bytes fast = plan.sign(msg, HashAlgorithm::kSha256, rng);
    EXPECT_EQ(fast, sig) << "which=" << which;
    EXPECT_TRUE(rsa_verify(good.pub, msg, fast, HashAlgorithm::kSha256));
    EXPECT_GE(plan.crt_fault_fallbacks(), 1u);
  }
}

// --- KeyVault ------------------------------------------------------------

TEST(KeyVaultPlan, FastSignMatchesSlowSign) {
  DeterministicRandom mfg(std::string_view("vault-a"));
  const tee::KeyVault vault = tee::KeyVault::manufacture(512, mfg);
  DeterministicRandom rng(std::string_view("vault-a-rng"));
  const Bytes msg = rng.bytes(32);
  const Bytes fast = vault.sign_fast(msg, HashAlgorithm::kSha1, rng);
  EXPECT_EQ(fast, vault.sign(msg, HashAlgorithm::kSha1));
  EXPECT_TRUE(rsa_verify(vault.verification_key(), msg, fast, HashAlgorithm::kSha1));
  EXPECT_EQ(vault.plan_stats().crt_fault_fallbacks, 0u);
}

TEST(KeyVaultPlan, PlanStateIsPerVaultIsolated) {
  // Two vaults (two "sessions" of the manufacturing line) interleaved:
  // each plan's cached window tables and blinding pair must stay tied to
  // its own key.
  DeterministicRandom mfg_a(std::string_view("vault-iso-a"));
  DeterministicRandom mfg_b(std::string_view("vault-iso-b"));
  const tee::KeyVault vault_a = tee::KeyVault::manufacture(512, mfg_a);
  const tee::KeyVault vault_b = tee::KeyVault::manufacture(512, mfg_b);
  ASSERT_NE(vault_a.verification_key(), vault_b.verification_key());

  DeterministicRandom rng(std::string_view("vault-iso-rng"));
  for (int i = 0; i < 6; ++i) {
    const Bytes msg = rng.bytes(16);
    const Bytes sig_a = vault_a.sign_fast(msg, HashAlgorithm::kSha256, rng);
    const Bytes sig_b = vault_b.sign_fast(msg, HashAlgorithm::kSha256, rng);
    EXPECT_EQ(sig_a, vault_a.sign(msg, HashAlgorithm::kSha256));
    EXPECT_EQ(sig_b, vault_b.sign(msg, HashAlgorithm::kSha256));
    // Cross-check: a's signature must not verify under b's key.
    EXPECT_FALSE(rsa_verify(vault_b.verification_key(), msg, sig_a,
                            HashAlgorithm::kSha256));
  }
  // Six fast signs plus the six reference sign() calls per vault.
  EXPECT_EQ(vault_a.plan_stats().private_ops, 12u);
  EXPECT_EQ(vault_b.plan_stats().private_ops, 12u);
}

TEST(KeyVaultPlan, ConcurrentFastSignsStaySerializedAndCorrect) {
  // The vault guards its mutable plan with a mutex; hammer it from
  // several threads (each with its own RNG — RandomSource is not
  // thread-safe) and assert every signature is the deterministic
  // rsa_sign output. Runs under TSan via the ctest `tsan` label.
  DeterministicRandom mfg(std::string_view("vault-mt"));
  const tee::KeyVault vault = tee::KeyVault::manufacture(512, mfg);
  const Bytes msg = to_bytes("concurrent signing");
  const Bytes expected = vault.sign(msg, HashAlgorithm::kSha256);

  constexpr int kThreads = 4;
  constexpr int kSignsPerThread = 8;
  std::vector<int> mismatches(kThreads, 0);
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        DeterministicRandom rng(static_cast<std::uint64_t>(w) + 1000);
        for (int i = 0; i < kSignsPerThread; ++i) {
          if (vault.sign_fast(msg, HashAlgorithm::kSha256, rng) != expected) {
            ++mismatches[static_cast<std::size_t>(w)];
          }
        }
      });
    }
    for (std::thread& th : workers) th.join();
  }
  for (const int m : mismatches) EXPECT_EQ(m, 0);
  // Every fast sign plus the one reference sign() for `expected`.
  EXPECT_EQ(vault.plan_stats().private_ops,
            static_cast<std::uint64_t>(kThreads * kSignsPerThread + 1));
}

}  // namespace
}  // namespace alidrone::crypto

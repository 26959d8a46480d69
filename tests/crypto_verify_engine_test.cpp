// Differential suite for the fixed-capacity 64-bit verify path: the
// limb64 Montgomery kernels are checked limb-for-limb against the general
// BigInt path at 1024/2048/4096 bits, the allocation-free RsaVerifyEngine
// against rsa_verify, and engines sharing one cached Montgomery context
// are run concurrently (tsan label).
#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "crypto/montgomery.h"
#include "crypto/random.h"
#include "crypto/rsa.h"

namespace alidrone::crypto {
namespace {

using Limb = limb64::Limb;

BigInt odd_modulus(DeterministicRandom& rng, std::size_t bits) {
  BigInt m = (BigInt(1) << (bits - 1)) + rng.random_bits(bits - 1);
  if (!m.is_odd()) m = m + BigInt(1);  // even => +1 cannot carry past a bit
  return m;
}

// ---- limb64 Montgomery kernels vs BigInt ----

TEST(Limb64, DifferentialMontgomeryKernels) {
  DeterministicRandom rng("smallint-mont");
  for (const std::size_t bits : {1024u, 2048u, 4096u}) {
    const BigInt m = odd_modulus(rng, bits);
    const MontgomeryContext ctx(m);
    const limb64::Mont& mont = ctx.mont();
    const std::size_t k = ctx.limb_count();
    std::vector<Limb> a_hat(k), b_hat(k), out(k), t(k + 2);

    for (int iter = 0; iter < 10; ++iter) {
      const BigInt a = rng.random_range(BigInt(0), m - BigInt(1));
      const BigInt b = rng.random_range(BigInt(0), m - BigInt(1));

      // mont_mul over raw limbs: from_mont(a-hat * b-hat) == a*b mod m.
      ctx.to_mont(a).to_limbs64(a_hat.data(), k);
      ctx.to_mont(b).to_limbs64(b_hat.data(), k);
      limb64::mont_mul(mont, a_hat.data(), b_hat.data(), out.data(), t.data());
      limb64::redc(mont, out.data(), out.data(), t.data());
      EXPECT_EQ(BigInt::from_limbs64(out.data(), k), (a * b).mod(m)) << bits;

      // redc inverts to_mont exactly.
      limb64::redc(mont, a_hat.data(), out.data(), t.data());
      EXPECT_EQ(BigInt::from_limbs64(out.data(), k), a) << bits;
    }

    // modexp: windowed (wide exponent) and square-multiply (<= 64 bits)
    // paths against BigInt::mod_pow.
    const BigInt base = rng.random_range(BigInt(0), m - BigInt(1));
    for (const std::size_t ebits : {40u, 256u}) {
      const BigInt e = rng.random_bits(ebits);
      EXPECT_EQ(ctx.pow(base, e), base.mod_pow(e, m)) << bits << ":" << ebits;
    }
  }
}

// ---- RsaVerifyEngine vs rsa_verify ----

TEST(VerifyEngine, MatchesRsaVerify) {
  DeterministicRandom rng("engine-vs-serial");
  const RsaKeyPair key = generate_rsa_keypair(1024, rng);
  ASSERT_TRUE(RsaVerifyEngine::supports(key.pub));
  RsaVerifyEngine engine(key.pub);

  const Bytes msg = {'p', 'o', 'a', '-', 's', 'a', 'm', 'p', 'l', 'e'};
  Bytes sig = rsa_sign(key.priv, msg, HashAlgorithm::kSha256);

  const auto both = [&](std::span<const std::uint8_t> m,
                        std::span<const std::uint8_t> s) {
    const bool serial = rsa_verify(key.pub, m, s, HashAlgorithm::kSha256);
    EXPECT_EQ(engine.verify(m, s, HashAlgorithm::kSha256), serial);
    return serial;
  };

  EXPECT_TRUE(both(msg, sig));
  Bytes bad = sig;
  bad[7] ^= 0x40;
  EXPECT_FALSE(both(msg, bad));           // corrupted signature
  Bytes other = msg;
  other[0] ^= 0x01;
  EXPECT_FALSE(both(other, sig));         // corrupted message
  EXPECT_FALSE(both(msg, Bytes(sig.begin(), sig.end() - 1)));  // wrong length
  EXPECT_FALSE(both(msg, key.pub.n.to_bytes(sig.size())));     // s == n >= n
}

struct SignedMsg {
  Bytes msg;
  Bytes sig;
};

std::vector<SignedMsg> make_signed(const RsaKeyPair& key, std::size_t count) {
  std::vector<SignedMsg> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i].msg = {static_cast<std::uint8_t>(i), 0x55, 0xaa,
                  static_cast<std::uint8_t>(i * 7)};
    out[i].sig = rsa_sign(key.priv, out[i].msg, HashAlgorithm::kSha256);
  }
  return out;
}

// Swapping two valid signatures keeps the set of signatures intact, but
// each one now sits next to the wrong message: per-item verification
// must reject both on its own.
TEST(VerifyEngine, SwappedSignaturesFailIndividually) {
  DeterministicRandom rng("batch-swap");
  const RsaKeyPair key = generate_rsa_keypair(1024, rng);
  auto items = make_signed(key, 6);
  std::swap(items[1].sig, items[4].sig);

  RsaVerifyEngine engine(key.pub);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const bool expected = i != 1 && i != 4;
    EXPECT_EQ(rsa_verify(key.pub, items[i].msg, items[i].sig,
                         HashAlgorithm::kSha256),
              expected)
        << i;
    EXPECT_EQ(engine.verify(items[i].msg, items[i].sig, HashAlgorithm::kSha256),
              expected)
        << i;
  }
}

// Shared immutable Montgomery state: many engines on one cached context,
// verifying concurrently. Run under the tsan label.
TEST(VerifyEngine, ConcurrentEnginesShareContextSafely) {
  DeterministicRandom rng("batch-threads");
  const RsaKeyPair key = generate_rsa_keypair(512, rng);
  const auto items = make_signed(key, 4);

  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&] {
      RsaVerifyEngine engine(key.pub);
      for (int round = 0; round < 8; ++round) {
        for (const auto& it : items) {
          ASSERT_TRUE(engine.verify(it.msg, it.sig, HashAlgorithm::kSha256));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
}

}  // namespace
}  // namespace alidrone::crypto

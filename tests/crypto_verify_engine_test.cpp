// Differential suite for the fixed-capacity 64-bit verify path: the
// limb64 Montgomery kernels are checked limb-for-limb against the run-time
// width loop and the general BigInt path at 1-9, 16, 32 and 64 limbs,
// the allocation-free RsaVerifyEngine against rsa_verify, and engines
// sharing one cached Montgomery context are run concurrently (tsan
// label).
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

// Plain square-and-multiply over BigInt division: a reference that shares
// no code with the Montgomery path.
BigInt reference_pow(const BigInt& base, const BigInt& e, const BigInt& m) {
  BigInt r = BigInt(1).mod(m);
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    r = (r * r).mod(m);
    if (e.bit(i)) r = (r * base).mod(m);
  }
  return r;
}

// Every width K the dispatcher may pick is checked bit for bit against the
// run-time loop (K == 0), the dispatcher itself and BigInt, in place and
// out of place. Moduli: a random one with the top bit set, one whose top
// limb is all ones and R - 1, where t[k] carries and the final
// subtraction fires. Operands: 0, 1, m - 1 and random values below m.
template <std::size_t K>
void check_kernel_width(DeterministicRandom& rng) {
  const std::size_t bits = 64 * K;
  const BigInt r = BigInt(1) << bits;
  const BigInt top_ones = (BigInt(1) << 64) - BigInt(1);
  std::vector<BigInt> moduli = {r - BigInt(1), odd_modulus(rng, bits)};
  if (K > 1) {
    moduli.push_back((top_ones << (bits - 64)) +
                     rng.random_bits(bits - 65) * BigInt(2) + BigInt(1));
  }
  for (const BigInt& m : moduli) {
    SCOPED_TRACE(::testing::Message() << "k=" << K << " m=" << m.to_hex_string());
    const MontgomeryContext ctx(m);
    ASSERT_EQ(ctx.limb_count(), K);
    const limb64::Mont& mont = ctx.mont();
    const BigInt r_inv = r.mod(m).mod_inverse(m);

    std::vector<BigInt> operands = {BigInt(0), BigInt(1), m - BigInt(1)};
    for (int i = 0; i < 5; ++i) {
      operands.push_back(rng.random_range(BigInt(0), m - BigInt(1)));
    }
    std::vector<Limb> a(K), b(K), generic(K), fixed(K), dispatched(K),
        in_place(K), t(K + 2);
    for (const BigInt& x : operands) {
      for (const BigInt& y : operands) {
        ctx.load(x, a.data());
        ctx.load(y, b.data());
        limb64::mont_mul_k<0>(mont, a.data(), b.data(), generic.data(), t.data());
        limb64::mont_mul_k<K>(mont, a.data(), b.data(), fixed.data(), t.data());
        limb64::mont_mul(mont, a.data(), b.data(), dispatched.data(), t.data());
        in_place = a;
        limb64::mont_mul_k<K>(mont, in_place.data(), b.data(), in_place.data(),
                              t.data());
        EXPECT_EQ(fixed, generic);
        EXPECT_EQ(dispatched, generic);
        EXPECT_EQ(in_place, generic);
        EXPECT_EQ(BigInt::from_limbs(generic),
                  (x * y).mod(m) * r_inv % m);
      }
      // Squaring with every argument aliased, as the exponentiation loops
      // call it.
      ctx.load(x, a.data());
      limb64::mont_mul_k<0>(mont, a.data(), a.data(), generic.data(), t.data());
      limb64::mont_mul_k<K>(mont, a.data(), a.data(), a.data(), t.data());
      EXPECT_EQ(a, generic);

      // redc inverts to_mont exactly.
      ctx.load(ctx.to_mont(x), a.data());
      limb64::redc(mont, a.data(), a.data(), t.data());
      EXPECT_EQ(BigInt::from_limbs(a), x);
    }

    // modexp through the sliding-window plan: 3-bit and 5-bit windows.
    const BigInt base = operands.back();
    for (const std::size_t ebits : {40u, 256u}) {
      const BigInt e = rng.random_bits(ebits);
      EXPECT_EQ(ctx.pow(base, e), reference_pow(base, e, m)) << ebits;
    }
  }
}

template <std::size_t... Ks>
void check_kernel_widths(DeterministicRandom& rng) {
  (check_kernel_width<Ks>(rng), ...);
}

TEST(Limb64, DifferentialMontgomeryKernels) {
  DeterministicRandom rng("smallint-mont");
  check_kernel_widths<1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 32, 64>(rng);
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

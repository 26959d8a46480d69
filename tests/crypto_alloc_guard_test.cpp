// Zero-allocation gate for the Auditor's verify inner loop (ctest label
// perf-guard). This executable replaces the global operator new with a
// counting one, and a warm RsaVerifyEngine must verify with no heap
// allocation at every kernel width a protocol key reaches: k = 8
// (512-bit keys, a fixed-width Montgomery kernel) and k = 16, 32 and 64
// (1024-, 2048- and 4096-bit keys, the run-time width loop). The k = 4
// kernel, which only the 256-bit CRT primes of signing use, is checked
// directly.
//
// The keys are multi-prime: n is a product of distinct 64-bit primes, so
// a 4096-bit key with a known private exponent costs milliseconds instead
// of a two-prime keygen's seconds. The engine only sees n and e, and its
// work depends only on n's limb count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "crypto/montgomery.h"
#include "crypto/prime.h"
#include "crypto/random.h"
#include "crypto/rsa.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace alidrone::crypto {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// RSA key whose modulus is the product of `limbs` distinct 64-bit primes
/// (top bit set, so n has exactly `limbs` 64-bit limbs), e = 65537 and d
/// the inverse of e modulo prod(p_i - 1). No CRT fields: rsa_sign takes
/// the plain m^d mod n path.
RsaKeyPair multi_prime_key(std::size_t limbs, RandomSource& rng) {
  const BigInt e(65537);
  BigInt n(1);
  BigInt phi(1);
  std::vector<BigInt> primes;
  while (primes.size() < limbs) {
    const BigInt p = generate_prime(64, rng);
    bool repeated = false;
    for (const BigInt& q : primes) repeated = repeated || q == p;
    if (repeated || BigInt::gcd(p - BigInt(1), e) != BigInt(1)) continue;
    primes.push_back(p);
    n = n * p;
    phi = phi * (p - BigInt(1));
  }
  RsaKeyPair key;
  key.pub = RsaPublicKey{n, e};
  key.priv.n = n;
  key.priv.e = e;
  key.priv.d = e.mod_inverse(phi);
  return key;
}

TEST(AllocGuard, CounterSeesAllocations) {
  const std::uint64_t before = allocations();
  void* volatile p = ::operator new(16);  // a call, which cannot be elided
  ::operator delete(p);
  EXPECT_EQ(allocations() - before, 1u);
}

class VerifyAllocGuard : public ::testing::TestWithParam<std::size_t> {};

TEST_P(VerifyAllocGuard, WarmVerifyAllocatesNothing) {
  const std::size_t limbs = GetParam();
  DeterministicRandom rng("alloc-guard");
  const RsaKeyPair key = multi_prime_key(limbs, rng);
  ASSERT_TRUE(RsaVerifyEngine::supports(key.pub));

  std::vector<Bytes> messages;
  std::vector<Bytes> signatures;
  for (std::uint8_t i = 0; i < 4; ++i) {
    messages.push_back(Bytes{'s', 'a', 'm', 'p', 'l', 'e', i});
    signatures.push_back(rsa_sign(key.priv, messages.back(), HashAlgorithm::kSha256));
  }
  Bytes forged = signatures.front();
  forged[forged.size() / 2] ^= 0x10;

  RsaVerifyEngine engine(key.pub);
  ASSERT_EQ(engine.context().limb_count(), limbs);
  for (std::size_t i = 0; i < messages.size(); ++i) {  // warm-up
    ASSERT_TRUE(engine.verify(messages[i], signatures[i], HashAlgorithm::kSha256));
  }

  // Nothing in the measured loop may allocate, gtest assertions included:
  // tally the verdicts and assert afterwards.
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  const std::uint64_t before = allocations();
  for (int round = 0; round < 8; ++round) {
    for (std::size_t i = 0; i < messages.size(); ++i) {
      accepted += engine.verify(messages[i], signatures[i], HashAlgorithm::kSha256);
    }
    rejected += !engine.verify(messages.front(), forged, HashAlgorithm::kSha256);
  }
  const std::uint64_t allocated = allocations() - before;

  EXPECT_EQ(allocated, 0u) << 64 * limbs << "-bit key";
  EXPECT_EQ(accepted, 8 * messages.size());
  EXPECT_EQ(rejected, 8u);
}

INSTANTIATE_TEST_SUITE_P(
    KeyBits, VerifyAllocGuard, ::testing::Values(8, 16, 32, 64),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::to_string(64 * info.param) + "bit";
    });

TEST(AllocGuard, MontgomeryKernelsAllocateNothing) {
  DeterministicRandom rng("alloc-guard-kernel");
  for (const std::size_t k : {4u, 8u, 16u}) {
    const BigInt m = (BigInt(1) << (64 * k - 1)) +
                     rng.random_bits(64 * k - 2) * BigInt(2) + BigInt(1);
    const MontgomeryContext ctx(m);
    const limb64::Mont& mont = ctx.mont();
    std::vector<limb64::Limb> a(k), t(k + 2);
    ctx.load(rng.random_range(BigInt(0), m - BigInt(1)), a.data());

    const std::uint64_t before = allocations();
    for (int i = 0; i < 64; ++i) {
      limb64::mont_mul(mont, a.data(), mont.r2, a.data(), t.data());
      limb64::mont_mul(mont, a.data(), a.data(), a.data(), t.data());
    }
    limb64::redc(mont, a.data(), a.data(), t.data());
    EXPECT_EQ(allocations() - before, 0u) << "k=" << k;
  }
}

}  // namespace
}  // namespace alidrone::crypto

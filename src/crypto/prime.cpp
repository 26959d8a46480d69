#include "crypto/prime.h"

#include <array>
#include <stdexcept>
#include <vector>

#include "crypto/montgomery.h"

namespace alidrone::crypto {

namespace {

/// Odd candidates walked from one random start before a fresh draw.
constexpr std::size_t kWindow = 512;

/// Primes below 2^16, computed once (Eratosthenes).
const std::vector<std::uint32_t>& small_primes() {
  static const std::vector<std::uint32_t> primes = [] {
    constexpr std::size_t kLimit = 1 << 16;
    std::vector<bool> sieve(kLimit, true);
    sieve[0] = sieve[1] = false;
    for (std::size_t i = 2; i * i < kLimit; ++i) {
      if (!sieve[i]) continue;
      for (std::size_t j = i * i; j < kLimit; j += i) sieve[j] = false;
    }
    std::vector<std::uint32_t> out;
    for (std::size_t i = 2; i < kLimit; ++i) {
      if (sieve[i]) out.push_back(static_cast<std::uint32_t>(i));
    }
    return out;
  }();
  return primes;
}

/// Miller-Rabin rounds on an odd n > 3. Each candidate gets its own
/// context and one plan for d that every round replays: keygen moduli
/// are used once, so caching them would only evict the verify keys the
/// shared MontgomeryContextCache is for.
bool miller_rabin(const BigInt& n, RandomSource& rng, int rounds) {
  // Write n - 1 = d * 2^r with d odd.
  const BigInt n_minus_1 = n - BigInt(1);
  BigInt d = n_minus_1;
  std::size_t r = 0;
  while (d.is_even()) {
    d = d >> 1;
    ++r;
  }

  const MontgomeryContext ctx(n);
  FixedExponentPlan plan(ctx, d);
  const BigInt two(2);
  for (int round = 0; round < rounds; ++round) {
    const BigInt a = rng.random_range(two, n - two);
    BigInt x = plan.pow(a);
    if (x == BigInt(1) || x == n_minus_1) continue;
    bool witness = true;
    for (std::size_t i = 0; i + 1 < r; ++i) {
      x = (x * x).mod(n);
      if (x == n_minus_1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

}  // namespace

bool passes_trial_division(const BigInt& n) {
  for (const std::uint32_t p : small_primes()) {
    if (n.mod_u32(p) == 0) {
      // n is divisible by p: prime only if n == p itself.
      return n == BigInt(static_cast<std::int64_t>(p));
    }
  }
  return true;
}

bool is_probable_prime(const BigInt& n, RandomSource& rng, int rounds) {
  if (n < BigInt(2)) return false;
  if (n == BigInt(2) || n == BigInt(3)) return true;
  if (n.is_even()) return false;
  if (!passes_trial_division(n)) return false;
  return miller_rabin(n, rng, rounds);
}

BigInt generate_prime(std::size_t bits, RandomSource& rng, int mr_rounds) {
  if (bits < 8) throw std::invalid_argument("generate_prime: need at least 8 bits");
  const std::vector<std::uint32_t>& primes = small_primes();
  for (;;) {
    BigInt start = rng.random_bits(bits);
    if (start.is_even()) start += BigInt(1);

    // Sieve the window start + 2s, s < kWindow, once: for each odd prime
    // p < 2^16 mark every s with start + 2s ≡ 0 (mod p), i.e.
    // s ≡ -r * 2^-1 (mod p) with r = start mod p. The unmarked steps are
    // exactly the candidates passes_trial_division accepts, so the same
    // candidates reach Miller-Rabin in the same order.
    std::array<bool, kWindow> composite{};
    // A candidate equal to p itself passes trial division, so its step
    // stays unmarked. That needs start <= p < 2^16: start_low is start
    // below 2^16 and 2^16 above, where start + 2s == p cannot hold.
    const std::uint64_t start_low =
        start.bit_length() <= 16 ? start.mod_u32(1u << 16) : 1u << 16;
    for (const std::uint32_t p : primes) {
      if (p == 2) continue;  // every candidate is odd
      const std::uint64_t r = start.mod_u32(p);
      std::uint64_t s = (p - r) % p * ((p + 1) / 2) % p;
      if (start_low + 2 * s == p) s += p;
      for (; s < kWindow; s += p) composite[s] = true;
    }

    BigInt candidate = start;
    for (std::size_t step = 0; step < kWindow; ++step) {
      if (candidate.bit_length() != bits) break;  // walked past 2^bits
      if (!composite[step] && miller_rabin(candidate, rng, mr_rounds)) {
        return candidate;
      }
      candidate += BigInt(2);
    }
  }
}

}  // namespace alidrone::crypto

// Montgomery modular arithmetic (Montgomery, 1985).
//
// Replaces the division-based reduction in modular exponentiation with
// REDC steps. Valid for odd moduli only — always true for RSA moduli and
// for the prime moduli used in Miller-Rabin. BigInt::mod_pow dispatches
// here automatically for odd moduli of at least 128 bits, through a
// process-wide MontgomeryContextCache so repeated operations under the
// same modulus (the Auditor re-verifying against a handful of public
// keys) pay the R^2 setup division once instead of per call.
//
// The arithmetic runs on the 64-bit limb64 kernels (CIOS
// multiply-interleaved REDC, 128-bit products) over BigInt's own limbs:
// a context reads the modulus through BigInt::limbs() and keeps R^2 mod m
// and R mod m beside it, and every operation works in caller- or
// member-owned scratch, so the verify inner loop performs zero heap
// allocations (guarded by perf_guard_test). There is one
// windowed exponentiation, FixedExponentPlan's sliding window, and
// MontgomeryContext::pow runs a one-off plan. The BigInt methods below
// are the convenience boundary; the hot path (RsaVerifyEngine) uses
// mont() directly.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/bigint.h"
#include "crypto/limb64.h"

namespace alidrone::obs {
class Counter;
}  // namespace alidrone::obs

namespace alidrone::crypto {

/// Precomputed context for a fixed odd modulus m. R = 2^(64k) where k is
/// the 64-bit limb count of m. Immutable after construction, so one
/// context can be shared freely across threads.
class MontgomeryContext {
 public:
  /// Throws std::invalid_argument when m is even or < 3.
  explicit MontgomeryContext(const BigInt& modulus);

  // The Mont view points into member storage; copying would leave it
  // dangling. Contexts are shared by shared_ptr or borrowed, never copied.
  MontgomeryContext(const MontgomeryContext&) = delete;
  MontgomeryContext& operator=(const MontgomeryContext&) = delete;

  const BigInt& modulus() const { return m_; }

  /// Raw 64-bit limb view of the modulus and its constants — the
  /// zero-allocation engine interface (limb64::mont_mul / redc).
  const limb64::Mont& mont() const { return mont_; }
  /// Modulus size in 64-bit limbs (R = 2^(64 * limb_count())).
  std::size_t limb_count() const { return mont_.k; }

  /// Map into Montgomery form: a * R mod m.
  BigInt to_mont(const BigInt& a) const;
  /// Map out of Montgomery form: a * R^-1 mod m.
  BigInt from_mont(const BigInt& a) const;

  /// Montgomery product: REDC(a * b) = a * b * R^-1 mod m, for inputs in
  /// Montgomery form.
  BigInt mul(const BigInt& a, const BigInt& b) const;

  /// base^exponent mod m (plain-domain base and result), through a
  /// one-off FixedExponentPlan.
  BigInt pow(const BigInt& base, const BigInt& exponent) const;

  /// a into out[0, limb_count()), zero-padded. Values of at most
  /// limb_count() limbs are copied as they are (REDC absorbs any k-limb
  /// input); wider or negative ones are reduced mod m first.
  void load(const BigInt& a, limb64::Limb* out) const;

 private:
  BigInt m_;
  // R^2 mod m | R mod m, k limbs each. mont_ points into these and into
  // m_'s limbs.
  std::vector<limb64::Limb> constants_;
  limb64::Mont mont_;
};

/// Exponentiation plan for a *fixed* (exponent, modulus) pair — the
/// drone-side signing hot path, where the same CRT exponents d_p and d_q
/// are applied to a fresh base on every signature, and the one windowed
/// exponentiation of src/crypto/ (MontgomeryContext::pow runs a one-off
/// plan). Construction hoists all exponent-dependent work:
///   - the sliding-window program (square runs + odd-window multiplies)
///     is decomposed once, so the per-call loop is a flat replay;
///   - the window width is sized to the exponent (1 bit, i.e. plain
///     square-and-multiply, below 24 bits; 4/5/6 bits for RSA-size
///     exponents — wider windows only pay off once the exponent is long
///     enough to amortize the bigger odd-power table);
///   - the odd-power table, accumulator and REDC scratch live in one
///     preallocated limb arena, so pow() allocates only the BigInt result.
/// Only the base-dependent odd-power table contents (2^(w-1) Montgomery
/// products) are computed per call.
///
/// NOT thread-safe: pow() mutates the internal buffers. Confine a plan to
/// one thread or guard it externally (KeyVault serializes its plan).
class FixedExponentPlan {
 public:
  /// Plans `base^exponent mod context.modulus()`. The plan borrows the
  /// context, which must outlive it; the exponent must be non-negative.
  FixedExponentPlan(const MontgomeryContext& context, const BigInt& exponent);

  /// base^exponent mod m, byte-identical to BigInt::mod_pow for the same
  /// inputs.
  BigInt pow(const BigInt& base);

 private:
  /// One replay step: `squares` squarings, then (unless table_index < 0) a
  /// multiply by the precomputed odd power table[table_index].
  struct Step {
    std::uint32_t squares = 0;
    std::int32_t table_index = -1;
  };

  static int choose_window_bits(std::size_t exponent_bits);

  const MontgomeryContext& ctx_;
  std::size_t entries_ = 0;    // odd-power table size, 2^(w-1)
  std::vector<Step> program_;  // leading step first; empty for x^0

  // Per-call limb arena, reused across pow() calls: odd-power table
  // (entries_ values of k limbs, Montgomery form), base^2, accumulator,
  // then k + 2 limbs of REDC scratch.
  std::vector<limb64::Limb> arena_;
};

/// Thread-safe, LRU-bounded cache of MontgomeryContext keyed by modulus
/// bytes. Contexts are handed out as shared_ptr<const ...>, so a context
/// stays valid for a caller even if the cache evicts it concurrently.
/// Lookups take a mutex only around the map access; the expensive
/// context construction happens outside the lock (two threads racing on
/// the same cold modulus may both build it — one copy wins, both are
/// correct).
///
/// Hits and misses are tracked twice: per-cache counters behind hits() /
/// misses() (reset by clear(), asserted exactly by tests), and the
/// cumulative process-wide `crypto.mont.cache_hits` / `cache_misses`
/// counters in obs::MetricsRegistry::global() (a registry snapshot
/// reads them).
class MontgomeryContextCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 64;

  explicit MontgomeryContextCache(std::size_t capacity = kDefaultCapacity);

  /// The context for `modulus`, building and caching it on a miss.
  /// Throws std::invalid_argument for even or < 3 moduli (never cached).
  std::shared_ptr<const MontgomeryContext> get(const BigInt& modulus);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  void clear();

  /// Process-wide cache used by BigInt::mod_pow.
  static MontgomeryContextCache& global();

 private:
  struct Entry {
    std::shared_ptr<const MontgomeryContext> context;
    std::list<std::string>::iterator lru_it;
  };

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::list<std::string> lru_;  // front = most recently used key
  std::unordered_map<std::string, Entry> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  obs::Counter* obs_hits_;    // process-wide mirror, never reset
  obs::Counter* obs_misses_;
};

}  // namespace alidrone::crypto

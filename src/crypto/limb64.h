// 64-bit limb kernels: the one limb format of src/crypto/.
//
// Every routine operates on raw little-endian uint64_t limb spans with
// caller-provided storage. BigInt keeps its magnitude in these limbs and
// calls the add/sub/mul/compare/byte kernels below, and the verify hot
// path (MontgomeryContext, RsaVerifyEngine) runs entirely on stack or
// preallocated buffers — zero heap allocations per operation, guarded by
// the counting-operator-new ctest perf_guard_test (label
// perf-guard). Products use 128-bit intermediates; the Montgomery
// product is the CIOS form of REDC (Koc, Acar, Kaliski, "Analyzing and
// Comparing Montgomery Multiplication Algorithms", 1996), which
// interleaves multiplication and reduction in one k-limb pass instead of
// building the double-width product first.
#pragma once

#include <cstddef>
#include <cstdint>

namespace alidrone::crypto::limb64 {

using Limb = std::uint64_t;
#if defined(__SIZEOF_INT128__)
using Wide = unsigned __int128;
#else
#error "limb64 requires a 128-bit integer type"
#endif

/// Protocol ceiling: 4096-bit RSA moduli are 64 limbs. Fixed-capacity
/// buffers in the verify path are sized against this; the engine itself
/// is generic and larger moduli simply spill to heap scratch.
inline constexpr std::size_t kMaxProtocolLimbs = 64;
inline constexpr std::size_t kMaxProtocolBytes = 8 * kMaxProtocolLimbs;

/// Limb count with trailing zeros stripped.
inline std::size_t normalized_size(const Limb* a, std::size_t n) {
  while (n > 0 && a[n - 1] == 0) --n;
  return n;
}

/// Fixed-width compare of two n-limb values: -1, 0 or +1.
inline int cmp_n(const Limb* a, const Limb* b, std::size_t n) {
  for (std::size_t i = n; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

/// out = a + b over n limbs; returns the carry-out. out may alias a or b.
inline Limb add_n(Limb* out, const Limb* a, const Limb* b, std::size_t n) {
  Limb carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Wide sum = static_cast<Wide>(a[i]) + b[i] + carry;
    out[i] = static_cast<Limb>(sum);
    carry = static_cast<Limb>(sum >> 64);
  }
  return carry;
}

/// out = a - b over n limbs; returns the borrow-out. out may alias a or b.
inline Limb sub_n(Limb* out, const Limb* a, const Limb* b, std::size_t n) {
  Limb borrow = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Wide diff = static_cast<Wide>(a[i]) - b[i] - borrow;
    out[i] = static_cast<Limb>(diff);
    borrow = static_cast<Limb>((diff >> 64) & 1);
  }
  return borrow;
}

/// out[0 .. na) = a + b for na >= nb: add_n over the low nb limbs, then
/// the carry ripples through a's top na - nb limbs. Returns the
/// carry-out. out may alias a.
inline Limb add(Limb* out, const Limb* a, std::size_t na, const Limb* b,
                std::size_t nb) {
  Limb carry = add_n(out, a, b, nb);
  for (std::size_t i = nb; i < na; ++i) {
    out[i] = a[i] + carry;
    carry = out[i] < carry ? 1 : 0;
  }
  return carry;
}

/// out[0 .. na) = a - b for na >= nb, borrowing through a's top limbs;
/// returns the borrow-out. out may alias a.
inline Limb sub(Limb* out, const Limb* a, std::size_t na, const Limb* b,
                std::size_t nb) {
  Limb borrow = sub_n(out, a, b, nb);
  for (std::size_t i = nb; i < na; ++i) {
    const Limb ai = a[i];
    out[i] = ai - borrow;
    borrow = ai < borrow ? 1 : 0;
  }
  return borrow;
}

/// out[0 .. na+nb) = a * b — schoolbook with 128-bit products. Row i
/// writes out[i + nb] exactly once, so the final carry is an assignment.
/// out must not alias a or b.
inline void mul(Limb* out, const Limb* a, std::size_t na, const Limb* b,
                std::size_t nb) {
  for (std::size_t i = 0; i < na + nb; ++i) out[i] = 0;
  for (std::size_t i = 0; i < na; ++i) {
    const Limb ai = a[i];
    Limb carry = 0;
    for (std::size_t j = 0; j < nb; ++j) {
      const Wide cur = static_cast<Wide>(ai) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    out[i + nb] = carry;
  }
}

/// -m^-1 mod 2^64 for odd m. Newton-Hensel lifting: the seed is correct
/// to 3 bits and each step doubles that (3 -> 6 -> 12 -> 24 -> 48 -> 96).
inline Limb neg_inverse(Limb m0) {
  Limb inv = m0;
  for (int i = 0; i < 5; ++i) inv *= 2 - m0 * inv;
  return ~inv + 1;
}

/// Read-only view of a Montgomery modulus: k limbs of m plus the
/// precomputed constants, with R = 2^(64k). The pointed-to storage is
/// owned by a MontgomeryContext and outlives the view.
struct Mont {
  std::size_t k = 0;
  Limb m_prime = 0;          ///< -m^-1 mod 2^64
  const Limb* m = nullptr;   ///< modulus, k limbs
  const Limb* r2 = nullptr;  ///< R^2 mod m (to-Montgomery multiplier)
  const Limb* one = nullptr; ///< R mod m (1 in Montgomery form)
};

/// out = a * b * R^-1 mod m for k-limb a, b with a * b < R * m (either
/// operand < m suffices), fully reduced (< m). One CIOS body for every
/// width: K > 0 fixes k = K at compile time, so the loops unroll and the
/// k + 2 scratch limbs live in a local array the compiler can keep in
/// registers; K == 0 reads mont.k and works in the caller's scratch.
/// Call mont_mul, which picks the instantiation.
template <std::size_t K>
inline void mont_mul_k(const Mont& mont, const Limb* a, const Limb* b,
                       Limb* out, Limb* scratch) {
  const std::size_t k = K > 0 ? K : mont.k;
  Limb local[K > 0 ? K + 2 : 1] = {};
  Limb* t = K > 0 ? local : scratch;
  const Limb* m = mont.m;
  for (std::size_t i = 0; i <= k + 1; ++i) t[i] = 0;
  for (std::size_t i = 0; i < k; ++i) {
    // t += a * b[i]
    const Limb bi = b[i];
    Limb carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const Wide cur = static_cast<Wide>(a[j]) * bi + t[j] + carry;
      t[j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    Wide cur = static_cast<Wide>(t[k]) + carry;
    t[k] = static_cast<Limb>(cur);
    t[k + 1] = static_cast<Limb>(cur >> 64);

    // t = (t + u * m) / 2^64 — u chosen so the low limb cancels.
    const Limb u = t[0] * mont.m_prime;
    cur = static_cast<Wide>(u) * m[0] + t[0];
    carry = static_cast<Limb>(cur >> 64);
    for (std::size_t j = 1; j < k; ++j) {
      cur = static_cast<Wide>(u) * m[j] + t[j] + carry;
      t[j - 1] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    cur = static_cast<Wide>(t[k]) + carry;
    t[k - 1] = static_cast<Limb>(cur);
    t[k] = t[k + 1] + static_cast<Limb>(cur >> 64);
  }
  // t < 2m, with the overflow bit in t[k]: one conditional subtraction.
  if (t[k] != 0 || cmp_n(t, m, k) >= 0) {
    sub_n(out, t, m, k);
  } else {
    for (std::size_t j = 0; j < k; ++j) out[j] = t[j];
  }
}

/// out = a * b * R^-1 mod m for k-limb fixed-width a, b (CIOS). out may
/// alias a or b; t is k + 2 limbs of scratch. 256- and 512-bit moduli
/// (k = 4 and 8: the CRT primes and moduli of every 512-bit key) take a
/// fixed-width instantiation. Instantiating k = 16 or 32 gained 5% or
/// less (BM_MontMul, docs/PERFORMANCE.md), so every other width takes
/// the run-time loop.
inline void mont_mul(const Mont& mont, const Limb* a, const Limb* b, Limb* out,
                     Limb* t) {
  switch (mont.k) {
    case 4:
      return mont_mul_k<4>(mont, a, b, out, t);
    case 8:
      return mont_mul_k<8>(mont, a, b, out, t);
    default:
      return mont_mul_k<0>(mont, a, b, out, t);
  }
}

/// out = a * R^-1 mod m for a k-limb a (from-Montgomery). Same as
/// mont_mul with b = 1, minus the multiplication pass. out may alias a;
/// t is k + 2 limbs of scratch.
inline void redc(const Mont& mont, const Limb* a, Limb* out, Limb* t) {
  const std::size_t k = mont.k;
  const Limb* m = mont.m;
  for (std::size_t j = 0; j < k; ++j) t[j] = a[j];
  t[k] = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const Limb u = t[0] * mont.m_prime;
    Wide cur = static_cast<Wide>(u) * m[0] + t[0];
    Limb carry = static_cast<Limb>(cur >> 64);
    for (std::size_t j = 1; j < k; ++j) {
      cur = static_cast<Wide>(u) * m[j] + t[j] + carry;
      t[j - 1] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    cur = static_cast<Wide>(t[k]) + carry;
    t[k - 1] = static_cast<Limb>(cur);
    t[k] = static_cast<Limb>(cur >> 64);
  }
  if (t[k] != 0 || cmp_n(t, m, k) >= 0) {
    sub_n(out, t, m, k);
  } else {
    for (std::size_t j = 0; j < k; ++j) out[j] = t[j];
  }
}

/// Big-endian bytes into n little-endian limbs (zero-padded). Returns
/// false when the value needs more than n limbs.
inline bool from_bytes_be(const std::uint8_t* bytes, std::size_t len, Limb* out,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = 0;
  for (std::size_t i = 0; i < len; ++i) {
    const std::size_t byte_index = len - 1 - i;  // from the LS end
    const std::size_t limb = byte_index / 8;
    if (limb >= n) {
      if (bytes[i] != 0) return false;
      continue;
    }
    out[limb] |= static_cast<Limb>(bytes[i]) << (8 * (byte_index % 8));
  }
  return true;
}

/// n limbs into exactly `len` big-endian bytes (zero-padded). Returns
/// false when the value does not fit.
inline bool to_bytes_be(const Limb* a, std::size_t n, std::uint8_t* out,
                        std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) out[i] = 0;
  for (std::size_t i = 0; i < 8 * n; ++i) {
    const std::uint8_t b = static_cast<std::uint8_t>(a[i / 8] >> (8 * (i % 8)));
    if (i < len) {
      out[len - 1 - i] = b;
    } else if (b != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace alidrone::crypto::limb64

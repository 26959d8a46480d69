// Arbitrary-precision integers for the RSA implementation.
//
// Magnitude + sign representation with 32-bit limbs (little-endian limb
// order, 64-bit intermediates). Provides everything RSA needs: comparison,
// add/sub/mul, Knuth-D division, shifts, modular exponentiation (4-bit
// fixed window), gcd / modular inverse, and big-endian byte conversion.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/bytes.h"

namespace alidrone::crypto {

class BigInt {
 public:
  BigInt() = default;
  BigInt(std::int64_t value);  // NOLINT(google-explicit-constructor): numeric literal ergonomics

  /// Parse decimal (default) or hex with "0x" prefix; optional leading '-'.
  static BigInt from_string(std::string_view s);
  /// Big-endian unsigned byte interpretation (as in RSA I2OSP/OS2IP).
  static BigInt from_bytes(std::span<const std::uint8_t> be_bytes);

  bool is_zero() const { return limbs_.empty(); }
  bool is_negative() const { return negative_; }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1u); }
  bool is_even() const { return !is_odd(); }

  /// Number of significant bits in the magnitude (0 for zero).
  std::size_t bit_length() const;
  bool bit(std::size_t i) const;

  /// Big-endian bytes of the magnitude, zero-padded/validated to `length`
  /// if given (throws std::length_error when the value does not fit).
  Bytes to_bytes() const;
  Bytes to_bytes(std::size_t length) const;

  /// 64-bit limbs needed for the magnitude (0 for zero) — the boundary
  /// to the fixed-capacity limb64 kernels.
  std::size_t limb64_count() const { return (limbs_.size() + 1) / 2; }
  /// Magnitude into out[0..n) as little-endian 64-bit limbs, zero-padded;
  /// throws std::length_error when it needs more than n limbs.
  void to_limbs64(std::uint64_t* out, std::size_t n) const;
  /// Non-negative value from little-endian 64-bit limbs.
  static BigInt from_limbs64(const std::uint64_t* limbs, std::size_t n);

  std::string to_decimal_string() const;
  std::string to_hex_string() const;

  int compare(const BigInt& o) const;  ///< -1, 0, +1 with sign
  int compare_magnitude(const BigInt& o) const;

  bool operator==(const BigInt& o) const { return compare(o) == 0; }
  bool operator!=(const BigInt& o) const { return compare(o) != 0; }
  bool operator<(const BigInt& o) const { return compare(o) < 0; }
  bool operator<=(const BigInt& o) const { return compare(o) <= 0; }
  bool operator>(const BigInt& o) const { return compare(o) > 0; }
  bool operator>=(const BigInt& o) const { return compare(o) >= 0; }

  BigInt operator-() const;
  BigInt operator+(const BigInt& o) const;
  BigInt operator-(const BigInt& o) const;
  BigInt operator*(const BigInt& o) const;
  /// Truncated (C-style) quotient and remainder; remainder has the sign of
  /// the dividend. Throws std::domain_error on division by zero.
  BigInt operator/(const BigInt& o) const;
  BigInt operator%(const BigInt& o) const;
  BigInt operator<<(std::size_t bits) const;
  BigInt operator>>(std::size_t bits) const;

  /// In-place add/sub reuse this->limbs_ capacity on the common
  /// same-sign (resp. larger-magnitude) paths instead of building a
  /// fresh vector per call; only the sign-flip cases fall back to the
  /// copying operator.
  BigInt& operator+=(const BigInt& o);
  BigInt& operator-=(const BigInt& o);
  BigInt& operator*=(const BigInt& o) { return *this = *this * o; }

  struct DivMod;
  DivMod divmod(const BigInt& divisor) const;

  /// Non-negative residue in [0, m); m must be positive.
  BigInt mod(const BigInt& m) const;

  /// (this ^ exponent) mod m; exponent >= 0, m > 0.
  BigInt mod_pow(const BigInt& exponent, const BigInt& m) const;

  static BigInt gcd(BigInt a, BigInt b);

  /// Modular inverse in [1, m); throws std::domain_error when gcd != 1.
  BigInt mod_inverse(const BigInt& m) const;

  /// Convenience for small divisors; divisor in (0, 2^32).
  std::uint32_t mod_u32(std::uint32_t divisor) const;

 private:
  friend class MontgomeryContext;  // limb-level access for REDC

  // Little-endian limbs of the magnitude; no trailing zero limbs.
  std::vector<std::uint32_t> limbs_;
  bool negative_ = false;

  void trim();
  // In-place magnitude helpers behind operator+=/-=; sub requires
  // |this| >= |b|. Both are safe when b aliases this->limbs_.
  void add_mag_inplace(const std::vector<std::uint32_t>& b);
  void sub_mag_inplace(const std::vector<std::uint32_t>& b);
  static std::vector<std::uint32_t> add_mag(const std::vector<std::uint32_t>& a,
                                            const std::vector<std::uint32_t>& b);
  // Requires |a| >= |b|.
  static std::vector<std::uint32_t> sub_mag(const std::vector<std::uint32_t>& a,
                                            const std::vector<std::uint32_t>& b);
  static std::vector<std::uint32_t> mul_mag(const std::vector<std::uint32_t>& a,
                                            const std::vector<std::uint32_t>& b);
  static int cmp_mag(const std::vector<std::uint32_t>& a,
                     const std::vector<std::uint32_t>& b);
};

struct BigInt::DivMod {
  BigInt quotient;
  BigInt remainder;
};

}  // namespace alidrone::crypto

// Arbitrary-precision integers for RSA, ECDSA and key generation.
//
// Magnitude + sign, the magnitude a heap vector of little-endian 64-bit
// limbs (limb64::Limb) — the one limb format of src/crypto/. Comparison,
// add/sub, schoolbook multiplication and byte I/O call the limb64
// kernels; division is Knuth Algorithm D with 128-bit intermediates.
// Montgomery contexts and the RSA verify engine read a modulus through
// limbs() with no conversion. Also: shifts, modular exponentiation
// (Montgomery for odd moduli of 128+ bits), gcd / modular inverse and
// decimal/hex parsing and printing.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/bytes.h"
#include "crypto/limb64.h"

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

  /// Little-endian limbs of the magnitude with no trailing zero limb
  /// (empty for zero): what the limb64 kernels read.
  std::span<const limb64::Limb> limbs() const { return limbs_; }
  /// Non-negative value from little-endian limbs (trailing zeros allowed).
  static BigInt from_limbs(std::span<const limb64::Limb> limbs);

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

  /// In-place add/sub reuse this->limbs_ capacity on the same-sign and
  /// larger-magnitude paths instead of building a fresh vector per call.
  BigInt& operator+=(const BigInt& o) { return add_signed(o, o.negative_); }
  BigInt& operator-=(const BigInt& o) { return add_signed(o, !o.negative_); }
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
  // Little-endian limbs of the magnitude; no trailing zero limbs.
  std::vector<limb64::Limb> limbs_;
  bool negative_ = false;

  void trim();
  /// *this += o, with o's sign taken as o_negative. Safe when o is *this.
  BigInt& add_signed(const BigInt& o, bool o_negative);
};

struct BigInt::DivMod {
  BigInt quotient;
  BigInt remainder;
};

}  // namespace alidrone::crypto

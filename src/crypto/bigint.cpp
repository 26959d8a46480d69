#include "crypto/bigint.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "crypto/montgomery.h"

namespace alidrone::crypto {

namespace {

using limb64::Limb;
using limb64::Wide;

/// q = a / d over n limbs (q may alias a); returns a mod d. One 128-by-64
/// division per limb.
Limb div_limb(Limb* q, const Limb* a, std::size_t n, Limb d) {
  Limb rem = 0;
  for (std::size_t i = n; i-- > 0;) {
    const Wide cur = (static_cast<Wide>(rem) << 64) | a[i];
    q[i] = static_cast<Limb>(cur / d);
    rem = static_cast<Limb>(cur - static_cast<Wide>(q[i]) * d);
  }
  return rem;
}

}  // namespace

BigInt::BigInt(std::int64_t value) : negative_(value < 0) {
  // Careful with INT64_MIN: negate in unsigned space.
  const Limb mag = negative_ ? ~static_cast<Limb>(value) + 1 : static_cast<Limb>(value);
  if (mag != 0) limbs_.push_back(mag);
}

void BigInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

BigInt BigInt::from_string(std::string_view s) {
  bool neg = false;
  if (!s.empty() && (s.front() == '-' || s.front() == '+')) {
    neg = s.front() == '-';
    s.remove_prefix(1);
  }
  if (s.empty()) throw std::invalid_argument("BigInt::from_string: empty input");

  BigInt result;
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    s.remove_prefix(2);
    if (s.empty()) throw std::invalid_argument("BigInt::from_string: empty hex");
    for (const char c : s) {
      int d;
      if (c >= '0' && c <= '9') {
        d = c - '0';
      } else if (c >= 'a' && c <= 'f') {
        d = c - 'a' + 10;
      } else if (c >= 'A' && c <= 'F') {
        d = c - 'A' + 10;
      } else {
        throw std::invalid_argument("BigInt::from_string: bad hex digit");
      }
      result = (result << 4) + BigInt(d);
    }
  } else {
    const BigInt ten(10);
    for (const char c : s) {
      if (c < '0' || c > '9') {
        throw std::invalid_argument("BigInt::from_string: bad decimal digit");
      }
      result = result * ten + BigInt(c - '0');
    }
  }
  result.negative_ = neg && !result.is_zero();
  return result;
}

BigInt BigInt::from_bytes(std::span<const std::uint8_t> be_bytes) {
  BigInt result;
  result.limbs_.resize((be_bytes.size() + 7) / 8);
  limb64::from_bytes_be(be_bytes.data(), be_bytes.size(), result.limbs_.data(),
                        result.limbs_.size());
  result.trim();
  return result;
}

BigInt BigInt::from_limbs(std::span<const Limb> limbs) {
  BigInt result;
  result.limbs_.assign(limbs.begin(), limbs.end());
  result.trim();
  return result;
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  return (limbs_.size() - 1) * 64 +
         (64 - static_cast<std::size_t>(std::countl_zero(limbs_.back())));
}

bool BigInt::bit(std::size_t i) const {
  const std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1u;
}

Bytes BigInt::to_bytes() const {
  const std::size_t bits = bit_length();
  return to_bytes(bits == 0 ? 1 : (bits + 7) / 8);
}

Bytes BigInt::to_bytes(std::size_t length) const {
  Bytes out(length, 0);
  if (!limb64::to_bytes_be(limbs_.data(), limbs_.size(), out.data(), length)) {
    throw std::length_error("BigInt::to_bytes: value does not fit requested length");
  }
  return out;
}

std::string BigInt::to_hex_string() const {
  if (is_zero()) return "0x0";
  std::string out = negative_ ? "-0x" : "0x";
  static constexpr char kDigits[] = "0123456789abcdef";
  bool started = false;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      const int d = static_cast<int>((limbs_[i] >> shift) & 0xF);
      if (!started && d == 0) continue;
      started = true;
      out.push_back(kDigits[d]);
    }
  }
  return out;
}

std::string BigInt::to_decimal_string() const {
  if (is_zero()) return "0";
  std::string digits;
  std::vector<Limb> work = limbs_;
  while (!work.empty()) {
    // Divide the magnitude by 10^19 to extract 19 decimal digits at a time.
    Limb rem = div_limb(work.data(), work.data(), work.size(), 10000000000000000000ull);
    while (!work.empty() && work.back() == 0) work.pop_back();
    for (int i = 0; i < 19; ++i) {
      digits.push_back(static_cast<char>('0' + rem % 10));
      rem /= 10;
      if (work.empty() && rem == 0) break;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (negative_) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

int BigInt::compare_magnitude(const BigInt& o) const {
  if (limbs_.size() != o.limbs_.size()) return limbs_.size() < o.limbs_.size() ? -1 : 1;
  return limb64::cmp_n(limbs_.data(), o.limbs_.data(), limbs_.size());
}

int BigInt::compare(const BigInt& o) const {
  if (negative_ != o.negative_) return negative_ ? -1 : 1;
  const int mag = compare_magnitude(o);
  return negative_ ? -mag : mag;
}

BigInt& BigInt::add_signed(const BigInt& o, bool o_negative) {
  const std::size_t nb = o.limbs_.size();  // before any resize: o may be *this
  if (negative_ == o_negative) {
    if (limbs_.size() < nb) limbs_.resize(nb, 0);
    const Limb carry = limb64::add(limbs_.data(), limbs_.data(), limbs_.size(),
                                   o.limbs_.data(), nb);
    if (carry != 0) limbs_.push_back(carry);
    return *this;
  }
  const int cmp = compare_magnitude(o);
  if (cmp == 0) return *this = BigInt();
  if (cmp > 0) {
    // |this| - |o| keeps our sign.
    limb64::sub(limbs_.data(), limbs_.data(), limbs_.size(), o.limbs_.data(), nb);
  } else {
    // |o| - |this| takes o's.
    std::vector<Limb> mag = o.limbs_;
    limb64::sub(mag.data(), mag.data(), nb, limbs_.data(), limbs_.size());
    limbs_ = std::move(mag);
    negative_ = o_negative;
  }
  trim();
  return *this;
}

BigInt BigInt::operator-() const {
  BigInt out = *this;
  if (!out.is_zero()) out.negative_ = !out.negative_;
  return out;
}

BigInt BigInt::operator+(const BigInt& o) const {
  BigInt out;
  out.limbs_.reserve(std::max(limbs_.size(), o.limbs_.size()) + 1);
  out.limbs_ = limbs_;  // keeps the reserved room for a carry-out limb
  out.negative_ = negative_;
  out.add_signed(o, o.negative_);
  return out;
}

BigInt BigInt::operator-(const BigInt& o) const { return *this + (-o); }

BigInt BigInt::operator*(const BigInt& o) const {
  BigInt out;
  if (is_zero() || o.is_zero()) return out;
  out.limbs_.resize(limbs_.size() + o.limbs_.size());
  limb64::mul(out.limbs_.data(), limbs_.data(), limbs_.size(), o.limbs_.data(),
              o.limbs_.size());
  out.negative_ = negative_ != o.negative_;
  out.trim();
  return out;
}

BigInt BigInt::operator<<(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  BigInt out;
  out.negative_ = negative_;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift != 0) out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
  }
  out.trim();
  return out;
}

BigInt BigInt::operator>>(std::size_t bits) const {
  const std::size_t limb_shift = bits / 64;
  if (limb_shift >= limbs_.size()) return BigInt();
  const std::size_t bit_shift = bits % 64;
  BigInt out;
  out.negative_ = negative_;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  out.trim();
  return out;
}

BigInt::DivMod BigInt::divmod(const BigInt& divisor) const {
  if (divisor.is_zero()) throw std::domain_error("BigInt: division by zero");
  if (compare_magnitude(divisor) < 0) return {BigInt(), *this};

  DivMod result;
  const std::size_t n = divisor.limbs_.size();
  if (n == 1) {
    // Short division.
    result.quotient.limbs_.resize(limbs_.size());
    const Limb rem = div_limb(result.quotient.limbs_.data(), limbs_.data(),
                              limbs_.size(), divisor.limbs_[0]);
    if (rem != 0) result.remainder.limbs_.push_back(rem);
  } else {
    // Knuth Algorithm D in base B = 2^64. Normalize so the divisor's top
    // limb has its high bit set.
    const std::size_t shift =
        static_cast<std::size_t>(std::countl_zero(divisor.limbs_.back()));
    std::vector<Limb> u = (*this << shift).limbs_;
    const std::vector<Limb> v = (divisor << shift).limbs_;
    const std::size_t m = u.size() - n;
    u.push_back(0);  // u has m + n + 1 limbs
    std::vector<Limb> q(m + 1, 0);
    constexpr Wide kBase = static_cast<Wide>(1) << 64;

    for (std::size_t j = m + 1; j-- > 0;) {
      // Estimate q_hat = (u[j+n]*B + u[j+n-1]) / v[n-1], clamped to B-1 so
      // the correction products below fit in 128 bits.
      const Wide top = (static_cast<Wide>(u[j + n]) << 64) | u[j + n - 1];
      Wide q_hat = top / v[n - 1];
      Wide r_hat = top - q_hat * v[n - 1];
      if (q_hat >= kBase) {
        q_hat = kBase - 1;
        r_hat = top - q_hat * v[n - 1];
      }
      while (r_hat < kBase && q_hat * v[n - 2] > ((r_hat << 64) | u[j + n - 2])) {
        --q_hat;
        r_hat += v[n - 1];
      }

      // Multiply-subtract q_hat * v from u[j .. j+n].
      Limb qj = static_cast<Limb>(q_hat);
      Limb carry = 0;
      Limb borrow = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const Wide prod = static_cast<Wide>(qj) * v[i] + carry;
        carry = static_cast<Limb>(prod >> 64);
        const Wide diff = static_cast<Wide>(u[i + j]) - static_cast<Limb>(prod) - borrow;
        u[i + j] = static_cast<Limb>(diff);
        borrow = static_cast<Limb>((diff >> 64) & 1);
      }
      const Wide diff = static_cast<Wide>(u[j + n]) - carry - borrow;
      u[j + n] = static_cast<Limb>(diff);
      if ((diff >> 64) != 0) {
        // q_hat was one too large: add v back; the carry-out cancels the
        // borrow in the top limb.
        --qj;
        u[j + n] += limb64::add_n(&u[j], &u[j], v.data(), n);
      }
      q[j] = qj;
    }

    result.quotient.limbs_ = std::move(q);
    u.resize(n);
    result.remainder.limbs_ = std::move(u);
    result.remainder.trim();
    result.remainder = result.remainder >> shift;
  }

  result.quotient.trim();
  result.remainder.trim();
  // Truncated division sign rules.
  result.quotient.negative_ =
      (negative_ != divisor.negative_) && !result.quotient.is_zero();
  result.remainder.negative_ = negative_ && !result.remainder.is_zero();
  return result;
}

BigInt BigInt::operator/(const BigInt& o) const { return divmod(o).quotient; }
BigInt BigInt::operator%(const BigInt& o) const { return divmod(o).remainder; }

BigInt BigInt::mod(const BigInt& m) const {
  if (m.is_zero() || m.is_negative()) {
    throw std::domain_error("BigInt::mod: modulus must be positive");
  }
  BigInt r = *this % m;
  if (r.is_negative()) r += m;
  return r;
}

std::uint32_t BigInt::mod_u32(std::uint32_t divisor) const {
  if (divisor == 0) throw std::domain_error("BigInt::mod_u32: division by zero");
  // Two 64-by-32-bit steps per limb: rem < divisor < 2^32 keeps every
  // dividend in 64 bits, so no 128-bit division is needed.
  std::uint64_t rem = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    rem = ((rem << 32) | (limbs_[i] >> 32)) % divisor;
    rem = ((rem << 32) | (limbs_[i] & 0xFFFFFFFFu)) % divisor;
  }
  return static_cast<std::uint32_t>(rem);
}

BigInt BigInt::mod_pow(const BigInt& exponent, const BigInt& m) const {
  if (m.is_zero() || m.is_negative()) {
    throw std::domain_error("BigInt::mod_pow: modulus must be positive");
  }
  if (exponent.is_negative()) {
    throw std::domain_error("BigInt::mod_pow: negative exponent");
  }
  if (m == BigInt(1)) return BigInt();

  // Large odd moduli (every RSA/prime modulus): Montgomery REDC replaces
  // the division-based reduction below. Contexts come from the process-
  // wide LRU cache, so the R^2 setup division is paid once per modulus —
  // the Auditor verifies millions of signatures against the same handful
  // of public keys.
  if (m.is_odd() && m.bit_length() >= 128) {
    return MontgomeryContextCache::global().get(m)->pow(*this, exponent);
  }

  // Small or even moduli: square-and-multiply with division-based
  // reduction.
  const BigInt base = mod(m);
  BigInt result(1);
  for (std::size_t i = exponent.bit_length(); i-- > 0;) {
    result = (result * result).mod(m);
    if (exponent.bit(i)) result = (result * base).mod(m);
  }
  return result;
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  a.negative_ = false;
  b.negative_ = false;
  while (!b.is_zero()) {
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigInt BigInt::mod_inverse(const BigInt& m) const {
  if (m.is_zero() || m.is_negative()) {
    throw std::domain_error("BigInt::mod_inverse: modulus must be positive");
  }
  // Extended Euclid on (a, m).
  BigInt a = mod(m);
  BigInt r0 = m;
  BigInt r1 = a;
  BigInt s0(0);
  BigInt s1(1);
  while (!r1.is_zero()) {
    const DivMod dm = r0.divmod(r1);
    BigInt r2 = dm.remainder;
    BigInt s2 = s0 - dm.quotient * s1;
    r0 = std::move(r1);
    r1 = std::move(r2);
    s0 = std::move(s1);
    s1 = std::move(s2);
  }
  if (r0 != BigInt(1)) {
    throw std::domain_error("BigInt::mod_inverse: not invertible");
  }
  return s0.mod(m);
}

}  // namespace alidrone::crypto

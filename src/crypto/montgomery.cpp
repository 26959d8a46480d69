#include "crypto/montgomery.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"

namespace alidrone::crypto {

namespace {
using Limb = limb64::Limb;
}  // namespace

MontgomeryContext::MontgomeryContext(const BigInt& modulus) : m_(modulus) {
  if (m_.is_negative() || m_.is_even() || m_ < BigInt(3)) {
    throw std::invalid_argument("MontgomeryContext: modulus must be odd and >= 3");
  }
  const std::size_t k = m_.limbs().size();
  constants_.assign(2 * k, 0);
  Limb* r2 = constants_.data();
  Limb* one = r2 + k;

  // R = 2^(64k): R mod m and R^2 mod m via shifting (setup-only division).
  const BigInt r = BigInt(1) << (64 * k);
  const BigInt one_mont = r.mod(m_);
  const BigInt r2_mont = (one_mont * one_mont).mod(m_);
  std::copy(one_mont.limbs().begin(), one_mont.limbs().end(), one);
  std::copy(r2_mont.limbs().begin(), r2_mont.limbs().end(), r2);

  mont_ = limb64::Mont{k, limb64::neg_inverse(m_.limbs()[0]), m_.limbs().data(),
                       r2, one};
}

void MontgomeryContext::load(const BigInt& a, Limb* out) const {
  const std::size_t k = mont_.k;
  if (a.is_negative() || a.limbs().size() > k) {
    load(a.mod(m_), out);
    return;
  }
  const auto end = std::copy(a.limbs().begin(), a.limbs().end(), out);
  std::fill(end, out + k, 0);
}

BigInt MontgomeryContext::to_mont(const BigInt& a) const {
  // a * r2 < R * m for any k-limb a, so REDC stays exact.
  const std::size_t k = mont_.k;
  std::vector<Limb> x(2 * k + 2);
  load(a, x.data());
  limb64::mont_mul(mont_, x.data(), mont_.r2, x.data(), x.data() + k);
  return BigInt::from_limbs({x.data(), k});
}

BigInt MontgomeryContext::from_mont(const BigInt& a) const {
  // REDC(a mod m) = a * R^-1 mod m for any a, so reducing oversized
  // inputs first preserves the result.
  const std::size_t k = mont_.k;
  std::vector<Limb> x(2 * k + 2);
  load(a, x.data());
  limb64::redc(mont_, x.data(), x.data(), x.data() + k);
  return BigInt::from_limbs({x.data(), k});
}

BigInt MontgomeryContext::mul(const BigInt& a, const BigInt& b) const {
  const std::size_t k = mont_.k;
  std::vector<Limb> x(3 * k + 2);
  load(a, x.data());
  load(b, x.data() + k);
  limb64::mont_mul(mont_, x.data(), x.data() + k, x.data(), x.data() + 2 * k);
  return BigInt::from_limbs({x.data(), k});
}

BigInt MontgomeryContext::pow(const BigInt& base, const BigInt& exponent) const {
  return FixedExponentPlan(*this, exponent).pow(base);
}

int FixedExponentPlan::choose_window_bits(std::size_t exponent_bits) {
  // Minimize (2^(w-1) table products) + (bits/(w+1) expected multiplies).
  // The crossover points put RSA CRT exponents at 5 bits (1024-bit keys)
  // and 6 bits (2048-bit and up).
  if (exponent_bits < 24) return 1;
  if (exponent_bits < 80) return 3;
  if (exponent_bits < 256) return 4;
  if (exponent_bits < 896) return 5;
  return 6;
}

FixedExponentPlan::FixedExponentPlan(const MontgomeryContext& context,
                                     const BigInt& exponent)
    : ctx_(context) {
  if (exponent.is_negative()) {
    throw std::domain_error("FixedExponentPlan: negative exponent");
  }

  const std::size_t bits = exponent.bit_length();
  if (bits == 0) return;  // pow() handles the x^0 case directly

  const int window_bits = choose_window_bits(bits);
  entries_ = std::size_t{1} << (window_bits - 1);

  // Arena layout: odd-power table, base^2, accumulator, REDC scratch —
  // allocated once here so pow() never allocates limbs.
  const std::size_t k = ctx_.limb_count();
  arena_.assign((entries_ + 2) * k + k + 2, 0);

  // Left-to-right sliding-window decomposition, done once. Each step is a
  // run of squarings followed by one multiply with an odd window value
  // (or none, for trailing zero bits). The first step's squarings act on
  // an accumulator equal to 1, so pow() skips them and seeds the
  // accumulator from the table instead.
  program_.reserve(bits / static_cast<std::size_t>(window_bits) + 2);
  std::size_t i = bits;  // scan position (1 past the next bit to consume)
  std::uint32_t squares = 0;
  while (i > 0) {
    if (!exponent.bit(i - 1)) {
      ++squares;
      --i;
      continue;
    }
    // Window [i-1 .. j]: at most window_bits wide, ends on a set bit.
    std::size_t j = i >= static_cast<std::size_t>(window_bits)
                        ? i - static_cast<std::size_t>(window_bits)
                        : 0;
    while (!exponent.bit(j)) ++j;
    std::uint32_t digit = 0;
    for (std::size_t b = i; b-- > j;) {
      digit = (digit << 1) | (exponent.bit(b) ? 1u : 0u);
    }
    const std::uint32_t width = static_cast<std::uint32_t>(i - j);
    program_.push_back(
        Step{squares + width, static_cast<std::int32_t>((digit - 1) / 2)});
    squares = 0;
    i = j;
  }
  if (squares > 0) program_.push_back(Step{squares, -1});
}

BigInt FixedExponentPlan::pow(const BigInt& base) {
  if (program_.empty()) return BigInt(1).mod(ctx_.modulus());

  const std::size_t k = ctx_.limb_count();
  const limb64::Mont& mont = ctx_.mont();
  Limb* table = arena_.data();
  Limb* base_sq = table + entries_ * k;
  Limb* acc = base_sq + k;
  Limb* t = acc + k;

  // Base into Montgomery form (table entry 0 = base^1).
  ctx_.load(base, table);
  limb64::mont_mul(mont, table, mont.r2, table, t);
  if (entries_ > 1) {
    limb64::mont_mul(mont, table, table, base_sq, t);
    for (std::size_t e = 1; e < entries_; ++e) {
      limb64::mont_mul(mont, table + (e - 1) * k, base_sq, table + e * k, t);
    }
  }

  // Replay. The leading step seeds the accumulator (its squarings would
  // only square 1), every later step is squares-then-optional-multiply.
  const Limb* seed = table + static_cast<std::size_t>(program_.front().table_index) * k;
  std::copy(seed, seed + k, acc);
  for (std::size_t s = 1; s < program_.size(); ++s) {
    const Step& step = program_[s];
    for (std::uint32_t q = 0; q < step.squares; ++q) {
      limb64::mont_mul(mont, acc, acc, acc, t);
    }
    if (step.table_index >= 0) {
      limb64::mont_mul(mont, acc,
                       table + static_cast<std::size_t>(step.table_index) * k,
                       acc, t);
    }
  }
  limb64::redc(mont, acc, acc, t);
  return BigInt::from_limbs({acc, k});
}

MontgomeryContextCache::MontgomeryContextCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      obs_hits_(&obs::MetricsRegistry::global().counter("crypto.mont.cache_hits")),
      obs_misses_(
          &obs::MetricsRegistry::global().counter("crypto.mont.cache_misses")) {}

std::shared_ptr<const MontgomeryContext> MontgomeryContextCache::get(
    const BigInt& modulus) {
  const Bytes key_bytes = modulus.to_bytes();
  std::string key(key_bytes.begin(), key_bytes.end());

  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      obs_hits_->increment();
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // bump to front
      return it->second.context;
    }
    ++misses_;
    obs_misses_->increment();
  }

  // Build outside the lock: R^2 setup is the expensive part and must not
  // serialize concurrent verifiers on unrelated moduli.
  auto context = std::make_shared<const MontgomeryContext>(modulus);

  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Another thread built it while we did; keep the cached copy.
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return it->second.context;
  }
  lru_.push_front(key);
  entries_.emplace(std::move(key), Entry{context, lru_.begin()});
  while (entries_.size() > capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
  }
  return context;
}

std::size_t MontgomeryContextCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::uint64_t MontgomeryContextCache::hits() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t MontgomeryContextCache::misses() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

void MontgomeryContextCache::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  hits_ = 0;
  misses_ = 0;
}

MontgomeryContextCache& MontgomeryContextCache::global() {
  static MontgomeryContextCache cache;
  return cache;
}

}  // namespace alidrone::crypto

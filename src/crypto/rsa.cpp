#include "crypto/rsa.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/prime.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace alidrone::crypto {

namespace {

// DER-encoded DigestInfo prefixes (RFC 8017, section 9.2 notes).
constexpr std::uint8_t kSha1Prefix[] = {0x30, 0x21, 0x30, 0x09, 0x06,
                                        0x05, 0x2b, 0x0e, 0x03, 0x02,
                                        0x1a, 0x05, 0x00, 0x04, 0x14};
constexpr std::uint8_t kSha256Prefix[] = {0x30, 0x31, 0x30, 0x0d, 0x06, 0x09,
                                          0x60, 0x86, 0x48, 0x01, 0x65, 0x03,
                                          0x04, 0x02, 0x01, 0x05, 0x00, 0x04,
                                          0x20};

/// EMSA-PKCS1-v1_5 encoding: 0x00 0x01 FF..FF 0x00 DigestInfo. Throwing
/// wrapper over the allocation-free emsa_pkcs1_encode_into.
Bytes emsa_pkcs1_encode(std::span<const std::uint8_t> message, HashAlgorithm hash,
                        std::size_t em_len) {
  Bytes em(em_len, 0);
  if (!emsa_pkcs1_encode_into(message, hash, em)) {
    throw std::length_error("RSA modulus too small for this digest");
  }
  return em;
}

}  // namespace

bool emsa_pkcs1_encode_into(std::span<const std::uint8_t> message,
                            HashAlgorithm hash, std::span<std::uint8_t> em) {
  // DigestInfo on the stack: the longest prefix (19 bytes) + SHA-256 (32).
  std::uint8_t t[sizeof(kSha256Prefix) + Sha256::kDigestSize];
  std::size_t t_len = 0;
  switch (hash) {
    case HashAlgorithm::kSha1: {
      const Sha1::Digest d = Sha1::hash(message);
      std::copy(std::begin(kSha1Prefix), std::end(kSha1Prefix), t);
      std::copy(d.begin(), d.end(), t + sizeof(kSha1Prefix));
      t_len = sizeof(kSha1Prefix) + d.size();
      break;
    }
    case HashAlgorithm::kSha256: {
      const Sha256::Digest d = Sha256::hash(message);
      std::copy(std::begin(kSha256Prefix), std::end(kSha256Prefix), t);
      std::copy(d.begin(), d.end(), t + sizeof(kSha256Prefix));
      t_len = sizeof(kSha256Prefix) + d.size();
      break;
    }
  }
  if (em.size() < t_len + 11) return false;
  em[0] = 0x00;
  em[1] = 0x01;
  const std::size_t ps_end = em.size() - t_len - 1;
  std::fill(em.begin() + 2, em.begin() + static_cast<std::ptrdiff_t>(ps_end),
            0xFF);
  em[ps_end] = 0x00;
  std::copy(t, t + t_len,
            em.begin() + static_cast<std::ptrdiff_t>(ps_end + 1));
  return true;
}

std::string to_string(HashAlgorithm h) {
  switch (h) {
    case HashAlgorithm::kSha1:
      return "SHA-1";
    case HashAlgorithm::kSha256:
      return "SHA-256";
  }
  return "unknown";
}

Bytes RsaPublicKey::fingerprint() const {
  Sha256 h;
  const Bytes nb = n.to_bytes();
  const Bytes eb = e.to_bytes();
  h.update(nb);
  h.update(eb);
  const Sha256::Digest d = h.finalize();
  return Bytes(d.begin(), d.end());
}

RsaKeyPair generate_rsa_keypair(std::size_t modulus_bits, RandomSource& rng) {
  if (modulus_bits < 256 || modulus_bits % 2 != 0) {
    throw std::invalid_argument("generate_rsa_keypair: modulus must be even and >= 256 bits");
  }
  const BigInt e(65537);
  const std::size_t half = modulus_bits / 2;

  for (;;) {
    const BigInt p = generate_prime(half, rng);
    BigInt q = generate_prime(half, rng);
    if (p == q) continue;

    const BigInt n = p * q;
    if (n.bit_length() != modulus_bits) continue;

    const BigInt p1 = p - BigInt(1);
    const BigInt q1 = q - BigInt(1);
    const BigInt phi = p1 * q1;
    if (BigInt::gcd(e, phi) != BigInt(1)) continue;

    RsaKeyPair kp;
    kp.priv.n = n;
    kp.priv.e = e;
    kp.priv.d = e.mod_inverse(phi);
    // Order p > q so q_inv = q^-1 mod p is the standard CRT coefficient.
    if (p > q) {
      kp.priv.p = p;
      kp.priv.q = q;
    } else {
      kp.priv.p = q;
      kp.priv.q = p;
    }
    kp.priv.d_p = kp.priv.d % (kp.priv.p - BigInt(1));
    kp.priv.d_q = kp.priv.d % (kp.priv.q - BigInt(1));
    kp.priv.q_inv = kp.priv.q.mod_inverse(kp.priv.p);
    kp.pub = kp.priv.public_key();
    return kp;
  }
}

BigInt rsa_private_op(const RsaPrivateKey& key, const BigInt& m) {
  if (m >= key.n || m.is_negative()) {
    throw std::domain_error("rsa_private_op: message representative out of range");
  }
  if (!key.has_crt()) return m.mod_pow(key.d, key.n);

  // Garner's CRT recombination.
  const BigInt m1 = m.mod_pow(key.d_p, key.p);
  const BigInt m2 = m.mod_pow(key.d_q, key.q);
  const BigInt h = (key.q_inv * (m1 - m2)).mod(key.p);
  const BigInt s = m2 + key.q * h;

  // Bellcore fault guard: a fault in either CRT half yields an s with
  // gcd(s^e - m, n) = p or q — releasing it hands the attacker the
  // factorization. Verifying with the public exponent costs a short
  // (17-bit) exponentiation, ~2% of the private op; on mismatch fall back
  // to the non-CRT path, which involves no recombination to fault.
  if (s.mod_pow(key.e, key.n) != m) {
    return m.mod_pow(key.d, key.n);
  }
  return s;
}

BigInt rsa_private_op_blinded(const RsaPrivateKey& key, const BigInt& m,
                              RandomSource& rng) {
  if (m >= key.n || m.is_negative()) {
    throw std::domain_error("rsa_private_op_blinded: message out of range");
  }
  // Draw r coprime to n (overwhelmingly likely on the first try; a common
  // factor with n would factor the key, so retrying is safe and rare).
  BigInt r;
  BigInt r_inv;
  for (;;) {
    r = rng.random_range(BigInt(2), key.n - BigInt(2));
    if (BigInt::gcd(r, key.n) != BigInt(1)) continue;
    r_inv = r.mod_inverse(key.n);
    break;
  }
  const BigInt blinded = (m * r.mod_pow(key.e, key.n)).mod(key.n);
  const BigInt signed_blinded = rsa_private_op(key, blinded);
  return (signed_blinded * r_inv).mod(key.n);
}

RsaSigningPlan::RsaSigningPlan(const RsaPrivateKey& key,
                               RsaSigningPlanConfig config)
    : key_(key), config_(config) {
  if (key_.n.is_zero() || key_.e.is_zero()) {
    throw std::invalid_argument("RsaSigningPlan: key has no modulus/exponent");
  }
  MontgomeryContextCache& cache = MontgomeryContextCache::global();
  ctx_n_ = cache.get(key_.n);
  plan_e_ = std::make_unique<FixedExponentPlan>(*ctx_n_, key_.e);
  if (key_.has_crt()) {
    ctx_p_ = cache.get(key_.p);
    ctx_q_ = cache.get(key_.q);
    plan_p_ = std::make_unique<FixedExponentPlan>(*ctx_p_, key_.d_p);
    plan_q_ = std::make_unique<FixedExponentPlan>(*ctx_q_, key_.d_q);
  } else {
    plan_d_ = std::make_unique<FixedExponentPlan>(*ctx_n_, key_.d);
  }
}

BigInt RsaSigningPlan::private_op(const BigInt& m) {
  if (m >= key_.n || m.is_negative()) {
    throw std::domain_error("RsaSigningPlan: message representative out of range");
  }
  ++private_ops_;
  if (plan_d_ != nullptr) return plan_d_->pow(m);

  // Garner's CRT recombination over the two fixed-exponent plans (the
  // plans reduce m mod p / mod q internally).
  const BigInt m1 = plan_p_->pow(m);
  const BigInt m2 = plan_q_->pow(m);
  const BigInt h = (key_.q_inv * (m1 - m2)).mod(key_.p);
  BigInt s = m2 + key_.q * h;

  // Bellcore fault guard (see rsa_private_op): never release a faulted
  // CRT recombination.
  if (plan_e_->pow(s) != m) {
    ++crt_fault_fallbacks_;
    s = m.mod_pow(key_.d, key_.n);
  }
  return s;
}

void RsaSigningPlan::refresh_blinding(RandomSource& rng) {
  // Fresh pair: r coprime to n (see rsa_private_op_blinded), kept as
  // blind = r^e and unblind = r^-1 — both in Montgomery form so the
  // squaring refresh and the apply/remove steps are single REDC products.
  for (;;) {
    const BigInt r = rng.random_range(BigInt(2), key_.n - BigInt(2));
    if (BigInt::gcd(r, key_.n) != BigInt(1)) continue;
    unblind_mont_ = ctx_n_->to_mont(r.mod_inverse(key_.n));
    blind_mont_ = ctx_n_->to_mont(plan_e_->pow(r));
    break;
  }
  blinding_uses_ = 0;
  ++blinding_refreshes_;
}

BigInt RsaSigningPlan::private_op_blinded(const BigInt& m, RandomSource& rng) {
  if (m >= key_.n || m.is_negative()) {
    throw std::domain_error("RsaSigningPlan: message representative out of range");
  }
  if (blind_mont_.is_zero() ||
      blinding_uses_ >= std::max<std::uint64_t>(config_.blinding_refresh_interval, 1)) {
    refresh_blinding(rng);
  } else if (blinding_uses_ > 0) {
    // Square both halves: (r^e)^2 = (r^2)^e and (r^-1)^2 = (r^2)^-1, so
    // the pair stays consistent while the blinding factor changes — two
    // Montgomery products instead of a mod_pow + extended-Euclid inverse.
    blind_mont_ = ctx_n_->mul(blind_mont_, blind_mont_);
    unblind_mont_ = ctx_n_->mul(unblind_mont_, unblind_mont_);
  }
  ++blinding_uses_;

  // blinded = m * r^e mod n; sign; result = s_blinded * r^-1 mod n.
  const BigInt blinded =
      ctx_n_->from_mont(ctx_n_->mul(ctx_n_->to_mont(m), blind_mont_));
  const BigInt signed_blinded = private_op(blinded);
  return ctx_n_->from_mont(
      ctx_n_->mul(ctx_n_->to_mont(signed_blinded), unblind_mont_));
}

Bytes RsaSigningPlan::sign(std::span<const std::uint8_t> message,
                           HashAlgorithm hash, RandomSource& rng) {
  const std::size_t k = key_.modulus_bytes();
  const Bytes em = emsa_pkcs1_encode(message, hash, k);
  return private_op_blinded(BigInt::from_bytes(em), rng).to_bytes(k);
}

Bytes rsa_sign(const RsaPrivateKey& key, std::span<const std::uint8_t> message,
               HashAlgorithm hash) {
  const std::size_t k = key.modulus_bytes();
  const Bytes em = emsa_pkcs1_encode(message, hash, k);
  const BigInt s = rsa_private_op(key, BigInt::from_bytes(em));
  return s.to_bytes(k);
}

Bytes rsa_sign_blinded(const RsaPrivateKey& key,
                       std::span<const std::uint8_t> message, HashAlgorithm hash,
                       RandomSource& rng) {
  const std::size_t k = key.modulus_bytes();
  const Bytes em = emsa_pkcs1_encode(message, hash, k);
  const BigInt s = rsa_private_op_blinded(key, BigInt::from_bytes(em), rng);
  return s.to_bytes(k);
}

bool RsaVerifyEngine::supports(const RsaPublicKey& key) {
  return !key.n.is_negative() && key.n.is_odd() && key.n.bit_length() >= 128 &&
         key.n.limbs().size() <= limb64::kMaxProtocolLimbs &&
         !key.e.is_negative() && !key.e.is_zero() && key.e.bit_length() <= 64;
}

RsaVerifyEngine::RsaVerifyEngine(const RsaPublicKey& key) {
  if (!supports(key)) {
    throw std::invalid_argument("RsaVerifyEngine: unsupported key");
  }
  ctx_ = MontgomeryContextCache::global().get(key.n);
  k_ = ctx_->limb_count();
  mod_bytes_ = key.modulus_bytes();
  e_ = key.e.limbs()[0];
  e_bits_ = key.e.bit_length();
}

bool RsaVerifyEngine::verify(std::span<const std::uint8_t> message,
                             std::span<const std::uint8_t> signature,
                             HashAlgorithm hash) {
  if (signature.size() != mod_bytes_) return false;
  const limb64::Mont& mont = ctx_->mont();
  if (!limb64::from_bytes_be(signature.data(), signature.size(), base_, k_)) {
    return false;
  }
  if (limb64::cmp_n(base_, mont.m, k_) >= 0) return false;  // s >= n
  if (!emsa_pkcs1_encode_into(message, hash,
                              std::span<std::uint8_t>(expected_, mod_bytes_))) {
    return false;  // modulus too small for this digest
  }

  // acc = s^e, computed in the Montgomery domain (one shared R factor,
  // removed by the final REDC). e is at most 64 bits — 65537 in practice
  // — so plain square-and-multiply beats any window.
  limb64::mont_mul(mont, base_, mont.r2, base_, t_);
  std::copy(base_, base_ + k_, acc_);
  for (std::size_t j = e_bits_ - 1; j-- > 0;) {
    limb64::mont_mul(mont, acc_, acc_, acc_, t_);
    if ((e_ >> j) & 1) limb64::mont_mul(mont, acc_, base_, acc_, t_);
  }
  limb64::redc(mont, acc_, acc_, t_);

  limb64::to_bytes_be(acc_, k_, em_, mod_bytes_);  // result < n always fits
  return constant_time_equal(
      std::span<const std::uint8_t>(em_, mod_bytes_),
      std::span<const std::uint8_t>(expected_, mod_bytes_));
}

bool rsa_verify(const RsaPublicKey& key, std::span<const std::uint8_t> message,
                std::span<const std::uint8_t> signature, HashAlgorithm hash) {
  // RSA-range keys take the fixed-capacity 64-bit engine (same verdicts,
  // no per-call heap traffic beyond the one-time context build).
  if (RsaVerifyEngine::supports(key)) {
    return RsaVerifyEngine(key).verify(message, signature, hash);
  }

  const std::size_t k = key.modulus_bytes();
  if (signature.size() != k) return false;

  const BigInt s = BigInt::from_bytes(signature);
  if (s >= key.n) return false;

  const BigInt m = s.mod_pow(key.e, key.n);
  Bytes em;
  try {
    em = m.to_bytes(k);
  } catch (const std::length_error&) {
    return false;
  }
  Bytes expected;
  try {
    expected = emsa_pkcs1_encode(message, hash, k);
  } catch (const std::length_error&) {
    return false;
  }
  return constant_time_equal(em, expected);
}

Bytes rsa_encrypt(const RsaPublicKey& key, std::span<const std::uint8_t> message,
                  RandomSource& rng) {
  const std::size_t k = key.modulus_bytes();
  if (message.size() + 11 > k) {
    throw std::length_error("rsa_encrypt: message too long for modulus");
  }
  // EME-PKCS1-v1_5: 0x00 0x02 PS 0x00 M, PS = nonzero random bytes.
  Bytes em(k, 0);
  em[1] = 0x02;
  const std::size_t ps_len = k - message.size() - 3;
  for (std::size_t i = 0; i < ps_len; ++i) {
    std::uint8_t b = 0;
    while (b == 0) {
      rng.fill({&b, 1});
    }
    em[2 + i] = b;
  }
  em[2 + ps_len] = 0x00;
  std::copy(message.begin(), message.end(),
            em.begin() + static_cast<std::ptrdiff_t>(2 + ps_len + 1));

  const BigInt c = BigInt::from_bytes(em).mod_pow(key.e, key.n);
  return c.to_bytes(k);
}

std::optional<Bytes> rsa_decrypt(const RsaPrivateKey& key,
                                 std::span<const std::uint8_t> ciphertext) {
  const std::size_t k = key.modulus_bytes();
  if (ciphertext.size() != k || k < 11) return std::nullopt;

  const BigInt c = BigInt::from_bytes(ciphertext);
  if (c >= key.n) return std::nullopt;

  Bytes em;
  try {
    em = rsa_private_op(key, c).to_bytes(k);
  } catch (const std::length_error&) {
    return std::nullopt;
  }
  if (em[0] != 0x00 || em[1] != 0x02) return std::nullopt;

  // Find the 0x00 separator after at least 8 padding bytes.
  std::size_t sep = 0;
  for (std::size_t i = 2; i < em.size(); ++i) {
    if (em[i] == 0x00) {
      sep = i;
      break;
    }
  }
  if (sep < 10) return std::nullopt;  // fewer than 8 PS bytes or no separator
  return Bytes(em.begin() + static_cast<std::ptrdiff_t>(sep + 1), em.end());
}

}  // namespace alidrone::crypto

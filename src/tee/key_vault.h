// KeyVault — the TEE sign key T = (T+, T-) of Table I.
//
// The paper requires the keypair to be generated at manufacturing time
// with the private half accessible only inside the TEE. KeyVault owns the
// private key; its signing entry point is deliberately NOT exported from
// the secure world — only the GPS Sampler TA (which lives inside
// SecureWorld) can reach it, and the only normal-world path to that TA is
// SecureMonitor::invoke. The public verification key T+ is freely
// exportable (it is handed to the Auditor at drone registration).
//
// The vault also owns the per-key RsaSigningPlan — window tables for the
// CRT exponents and the reusable blinding pair. All of that precomputed
// secret-derived state lives inside the secure world and never crosses
// the boundary; normal-world code only ever sees finished signatures.
#pragma once

#include <memory>
#include <mutex>
#include <span>

#include "crypto/rsa.h"
#include "obs/metrics.h"

namespace alidrone::tee {

class KeyVault {
 public:
  /// "Manufacturing": generate the device keypair inside the vault. Plan
  /// counters register under an instance scope of "tee.key_vault" in
  /// `registry` (the process-wide registry when null).
  static KeyVault manufacture(std::size_t key_bits, crypto::RandomSource& rng,
                              obs::MetricsRegistry* registry = nullptr);

  /// T+ — safe to export.
  const crypto::RsaPublicKey& verification_key() const { return pub_; }

  std::size_t key_bits() const { return pub_.modulus_bits(); }

  /// Sign with T-. Only reachable from secure-world components.
  crypto::Bytes sign(std::span<const std::uint8_t> message,
                     crypto::HashAlgorithm hash) const;

  /// Fast path: blinded signature through the vault's RsaSigningPlan
  /// (cached CRT window plans + blinding-pair reuse + CRT fault guard).
  /// Kocher blinding matters here: the TEE signs attacker-influenced
  /// bytes (GPS data an adversary can shape through the UART), so the
  /// private exponentiation must not leak timing correlated with the
  /// message. Byte-identical to sign() output; serialized with an
  /// internal mutex because the plan state is mutable.
  crypto::Bytes sign_fast(std::span<const std::uint8_t> message,
                          crypto::HashAlgorithm hash,
                          crypto::RandomSource& rng) const;

  /// Plan introspection for tests/benches — a point-in-time view over the
  /// vault's registry counters (sign_fast publishes plan deltas there).
  struct PlanStats {
    /// Every RSA private-key operation: sign_fast, sign and decrypt.
    std::uint64_t private_ops = 0;
    std::uint64_t blinding_refreshes = 0;
    std::uint64_t crt_fault_fallbacks = 0;
  };
  PlanStats plan_stats() const;

  /// Decrypt a message encrypted under T+ (used by the symmetric-key
  /// session establishment in the Section VII-A1a extension).
  std::optional<crypto::Bytes> decrypt(std::span<const std::uint8_t> ciphertext) const;

  KeyVault(const KeyVault&) = delete;  // the private key must not be copied out
  KeyVault& operator=(const KeyVault&) = delete;
  KeyVault(KeyVault&&) = default;
  KeyVault& operator=(KeyVault&&) = default;

 private:
  KeyVault(crypto::RsaKeyPair kp, obs::MetricsRegistry* registry);

  crypto::RsaPrivateKey priv_;
  crypto::RsaPublicKey pub_;
  // Plan state mutates on every signature, so sign_fast (const, like the
  // other sign entry points) guards it; unique_ptrs keep the vault movable.
  mutable std::unique_ptr<std::mutex> plan_mu_;
  mutable std::unique_ptr<crypto::RsaSigningPlan> plan_;
  // Registry-backed plan counters (what plan_stats() reads).
  obs::Counter* private_ops_;
  obs::Counter* blinding_refreshes_;
  obs::Counter* crt_fault_fallbacks_;
};

}  // namespace alidrone::tee

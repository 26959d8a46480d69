// Proof-of-Alibi data structures (paper Section IV-C2).
//
// PoA = { (S_0, Sig(S_0, T-)), (S_1, Sig(S_1, T-)), ... }
//
// Samples travel as their canonical 32-byte TEE encoding so the Auditor
// can re-verify the exact signed bytes. Three authentication modes are
// supported: the paper's per-sample RSA signatures, plus the Section
// VII-A1 alternatives (ephemeral HMAC session keys; one batch signature
// over the whole trace).
//
// ProofOfAlibi::fields() is the PoA's single wire field list; serialize,
// encoded_size, parse and the zero-copy PoaView parse all derive from it
// (net::wire).
#pragma once

#include <optional>
#include <span>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/protocol_types.h"
#include "crypto/bytes.h"
#include "gps/fix.h"

namespace alidrone::core {

/// How the samples in a PoA are authenticated.
enum class AuthMode : std::uint8_t {
  kRsaPerSample = 0,   ///< paper baseline: Sig(S_i, T-) per sample
  kHmacSession = 1,    ///< Section VII-A1a: HMAC under an ephemeral key
  kBatchSignature = 2, ///< Section VII-A1b: one signature over the trace
  /// TESLA hash-chain broadcast mode: per-sample HMAC tags under delayed-
  /// disclosure chain keys, one TEE signature over the chain commitment.
  /// A retained kTeslaChain PoA is self-contained: batch_signature holds
  /// the commit payload, session_key_signature the TEE signature over it,
  /// session_key_ciphertext the highest disclosed chain element
  /// (BE64 index || 32-byte key), and each SignedSample::signature the
  /// 32-byte tag — enough to re-verify the whole proof offline.
  kTeslaChain = 3,
};

/// Largest value a wire decoder accepts for an AuthMode byte.
constexpr AuthMode wire_max(AuthMode) { return AuthMode::kTeslaChain; }

std::string to_string(AuthMode mode);

/// One alibi element: the signed canonical sample bytes. In kHmacSession
/// mode `signature` is a 32-byte HMAC tag; in kBatchSignature mode it is
/// empty (the PoA-level batch_signature covers everything).
struct SignedSample {
  crypto::Bytes sample;     ///< tee::encode_sample output (32 bytes)
  crypto::Bytes signature;

  static constexpr auto fields(auto& m) { return std::tie(m.sample, m.signature); }

  /// Decoded view; nullopt when `sample` is malformed.
  std::optional<gps::GpsFix> fix() const;
};

struct ProofOfAlibi {
  DroneId drone_id;
  AuthMode mode = AuthMode::kRsaPerSample;
  crypto::HashAlgorithm hash = crypto::HashAlgorithm::kSha1;
  /// When true, each SignedSample::sample is RSAES-PKCS1-v1_5 ciphertext
  /// under the Auditor's public key (paper Section V-C); signatures remain
  /// over the plaintext canonical encoding.
  bool encrypted = false;
  std::vector<SignedSample> samples;

  /// kBatchSignature: Sig(S_0 || S_1 || ... || S_n, T-).
  crypto::Bytes batch_signature;

  /// kHmacSession: the session key encrypted under the Auditor's public
  /// key, and the TEE's signature over that ciphertext (proves the key
  /// came from this drone's TEE).
  crypto::Bytes session_key_ciphertext;
  crypto::Bytes session_key_signature;

  /// Decoded sample timestamps must be non-decreasing for a well-formed
  /// PoA; first/last give the flight window.
  std::optional<double> start_time() const;
  std::optional<double> end_time() const;

  static constexpr auto fields(auto& m) {
    return std::tie(m.drone_id, m.mode, m.hash, m.encrypted, m.samples, m.batch_signature,
                    m.session_key_ciphertext, m.session_key_signature);
  }

  crypto::Bytes serialize() const;
  /// Size of serialize()'s output, for Writer::reserve.
  std::size_t encoded_size() const;
  static std::optional<ProofOfAlibi> parse(std::span<const std::uint8_t> data);
};

/// Zero-copy counterpart of SignedSample: spans into the wire frame.
struct SignedSampleView {
  std::span<const std::uint8_t> sample;
  std::span<const std::uint8_t> signature;

  static constexpr auto fields(auto& m) { return SignedSample::fields(m); }

  std::optional<gps::GpsFix> fix() const;
};

/// Non-owning parse of a serialized PoA. Every field borrows the frame,
/// so the whole hot verification path (decode → authenticate → geometry)
/// runs without per-proof heap allocation; materialize() builds an owning
/// ProofOfAlibi only when the Auditor decides to retain the proof.
/// Identical strictness to ProofOfAlibi::parse (same rejects, same
/// no-trailing-garbage contract): both decode ProofOfAlibi::fields().
struct PoaView {
  std::string_view drone_id;
  AuthMode mode = AuthMode::kRsaPerSample;
  crypto::HashAlgorithm hash = crypto::HashAlgorithm::kSha1;
  bool encrypted = false;
  std::vector<SignedSampleView> samples;
  std::span<const std::uint8_t> batch_signature;
  std::span<const std::uint8_t> session_key_ciphertext;
  std::span<const std::uint8_t> session_key_signature;

  static constexpr auto fields(auto& m) { return ProofOfAlibi::fields(m); }

  /// Parses `data` into `out`, reusing out.samples' capacity (the pipeline
  /// keeps scratch PoaViews alive across batches for this reason).
  static bool parse_into(std::span<const std::uint8_t> data, PoaView& out);

  /// Borrow an already-owning proof (no copies; `poa` must outlive the view).
  static PoaView of(const ProofOfAlibi& poa);

  /// Deep copy into an owning ProofOfAlibi (the retain path).
  ProofOfAlibi materialize() const;

  std::optional<double> start_time() const;
  std::optional<double> end_time() const;
};

}  // namespace alidrone::core

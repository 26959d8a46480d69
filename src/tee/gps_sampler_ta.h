// GPS Sampler — the Trusted Application at the heart of AliDrone
// (paper Sections IV-C2 and V-B).
//
// Runs in the secure world. On GetGPSAuth it reads the latest fix from the
// (secure-world) GPS driver, encodes it canonically and signs it with the
// TEE sign key T-. The private key never crosses the world boundary: the
// normal-world Adapter only ever sees (sample, signature) pairs.
//
// Beyond the paper's baseline command, this TA also implements the
// Section VII-A1 extensions:
//  - symmetric mode: an ephemeral HMAC session key established under the
//    Auditor's public encryption key, then per-sample MACs instead of RSA;
//  - batch mode: samples cached in secure storage, one signature over the
//    whole trace at flight end.
#pragma once

#include <map>
#include <memory>

#include "crypto/hash_chain.h"
#include "crypto/random.h"
#include "gps/driver.h"
#include "resource/cost_model.h"
#include "tee/key_vault.h"
#include "tee/plausibility.h"
#include "tee/secure_storage.h"
#include "tee/trusted_app.h"

namespace alidrone::tee {

/// Command identifiers for GpsSamplerTA::invoke.
enum class SamplerCommand : std::uint32_t {
  kGetGpsAuth = 1,        ///< out: [sample, rsa_signature]
  kGetPublicKey = 2,      ///< out: [modulus_n, exponent_e]
  kEstablishHmacKey = 3,  ///< in: [auditor_n, auditor_e]; out: [enc_key, signature]
  kGetGpsHmac = 4,        ///< out: [sample, hmac_tag]
  kBatchBegin = 5,        ///< start caching samples in secure storage
  kBatchAppend = 6,       ///< out: [sample]; cached, not signed
  kBatchFinalize = 7,     ///< out: [all_samples, one_signature]
  /// Coalesced GetGPSAuth: drain every GPS fix queued in the secure-world
  /// driver since the last invoke and sign each one, all inside a single
  /// world switch — the monitor charges one switch pair for N samples
  /// instead of N pairs. in: optionally [max_samples, 4 bytes BE];
  /// out: [sample_1, sig_1, sample_2, sig_2, ...], oldest first.
  kGetGpsAuthCoalesced = 8,
  /// TESLA mode (ROADMAP item 2): generate a per-flight hash chain inside
  /// the TEE and sign its commitment — the flight's ONE RSA private
  /// operation. in: [chain_length u32 BE, disclosure_delay u32 BE,
  /// interval_us u64 BE]; out: [commit_payload, rsa_signature] where the
  /// payload is tee::tesla_commit_payload (anchor, length, delay,
  /// interval, t0 = current-fix time).
  kTeslaBegin = 9,
  /// One authenticated TESLA sample: µs-class HMAC instead of an RSA
  /// sign. out: [sample, tag(32), interval u64 BE].
  kGetGpsTesla = 10,
  /// Disclose chain key K_index. The TA refuses until its own GPS time
  /// base has passed the key's scheduled disclosure time t0 + (index +
  /// delay) * interval — this is the secure-world half of the TESLA
  /// security condition: the normal world can never obtain a key early
  /// enough to forge a timely sample. in: [index u64 BE]; out: [key(32)].
  kTeslaDisclose = 11,
};

/// GpsSamplerTA configuration (defined at namespace scope so it can be a
/// defaulted constructor argument).
struct SamplerConfig {
  crypto::HashAlgorithm hash = crypto::HashAlgorithm::kSha1;  // paper default
  std::size_t batch_capacity_samples = 16384;
  /// Upper bound on samples signed by one kGetGpsAuthCoalesced invoke
  /// (bounds secure-world time per SMC; leftover fixes stay queued).
  std::size_t max_coalesced_samples = 32;
  /// Upper bound on a TESLA chain built by kTeslaBegin (bounds the
  /// secure-world memory/hash budget of a single flight).
  std::uint32_t tesla_max_chain_length = 1u << 20;
  /// Section VII-A2: refuse to sign fixes from a suspicious environment
  /// (impossible jumps/speeds, reversed clocks).
  bool enable_plausibility_check = false;
  PlausibilityConfig plausibility{};
};

class GpsSamplerTA final : public TrustedApp {
 public:
  using Config = SamplerConfig;

  /// All dependencies live in the secure world; the TA borrows them.
  /// The driver is mutable: the coalesced path drains its pending queue.
  GpsSamplerTA(const KeyVault& vault, gps::GpsDriver& driver,
               SecureStorage& storage, crypto::RandomSource& rng,
               Config config = {});

  Uuid uuid() const override { return Uuid::from_name("alidrone.gps_sampler"); }
  std::string name() const override { return "GPS Sampler"; }

  InvokeResult invoke(SessionId session, std::uint32_t command,
                      std::span<const crypto::Bytes> params) override;
  void on_session_close(SessionId session) override;

  /// Wire compute-cost accounting (may be null).
  void set_cost_meter(resource::CpuAccountant* cpu, resource::CostProfile profile);

 private:
  const KeyVault& vault_;
  gps::GpsDriver& driver_;
  SecureStorage& storage_;
  crypto::RandomSource& rng_;
  Config config_;

  /// Per-session client state, isolated as in OP-TEE: one client's HMAC
  /// key or batch buffer is invisible to another's session.
  struct SessionState {
    crypto::Bytes hmac_key;  // empty until established
    bool batch_active = false;
    std::size_t batch_count = 0;
    // TESLA mode: the flight's hash chain (with the current interval's
    // tag key) and commitment parameters live only in the secure world;
    // the normal world sees the anchor (in the signed commit payload),
    // tags, and keys it is allowed to learn.
    std::unique_ptr<crypto::TeslaTagger> tesla;
    std::int64_t tesla_t0_us = 0;
    std::uint64_t tesla_interval_us = 0;
    std::uint32_t tesla_delay = 0;
  };
  std::map<SessionId, SessionState> sessions_;

  // The physical environment is shared: one plausibility monitor.
  PlausibilityMonitor plausibility_;

  SessionState& state(SessionId session) { return sessions_[session]; }
  std::string batch_key(SessionId session) const;

  /// Returns false (and the caller must refuse service) when the
  /// plausibility monitor distrusts the environment.
  bool environment_trusted(const gps::GpsFix& fix);

  resource::CpuAccountant* cpu_ = nullptr;
  resource::CostProfile cost_profile_{};

  void charge(resource::Op op) const;
  void charge_sign() const;
  InvokeResult get_gps_auth();
  InvokeResult get_gps_auth_coalesced(std::span<const crypto::Bytes> params);
  InvokeResult get_public_key() const;
  InvokeResult establish_hmac_key(SessionId session,
                                  std::span<const crypto::Bytes> params);
  InvokeResult get_gps_hmac(SessionId session);
  InvokeResult batch_begin(SessionId session);
  InvokeResult batch_append(SessionId session);
  InvokeResult batch_finalize(SessionId session);
  InvokeResult tesla_begin(SessionId session,
                           std::span<const crypto::Bytes> params);
  InvokeResult get_gps_tesla(SessionId session);
  InvokeResult tesla_disclose(SessionId session,
                              std::span<const crypto::Bytes> params);
};

}  // namespace alidrone::tee

// TESLA broadcast PoA mode — verifier-side session state and the
// drone-side lossy broadcast flight loop (paper Section VII
// symmetric-signing extension, TBRD-style delayed key disclosure).
//
// Protocol shape:
//   1. kTeslaBegin in the TEE builds a per-flight hash chain and signs
//      its commitment (the flight's ONE RSA private operation); the drone
//      announces it ("auditor.tesla_announce").
//   2. Every sample is broadcast with an HMAC tag under the still-secret
//      chain key of its interval ("auditor.tesla_sample"). The Auditor
//      buffers tagged samples it cannot check yet — but only while the
//      TESLA security condition holds: a sample for interval i is
//      admitted only if it arrives before its key's disclosure time
//      t0 + (i + d)·tau on the Auditor's obs::Clock. Anything later is
//      rejected as late (its key may already be public).
//   3. Chain keys are disclosed d intervals later
//      ("auditor.tesla_disclose"). A disclosed K_j is verified against
//      the committed anchor by hashing down to the session's cached
//      frontier; it then settles every buffered interval <= j (deriving
//      the lower keys from K_j), so dropped or reordered disclosures
//      only delay settlement, never lose it.
//   4. Finalize assembles the accepted subset into a self-contained
//      kTeslaChain ProofOfAlibi — the signed commitment plus the frontier
//      (tee::tesla_frontier_payload) — and adjudicates it through the
//      standard verify/retain/audit pipeline ("auditor.tesla_finalize"),
//      which re-checks the frontier against the anchor with the same
//      crypto::ChainFrontier.
//
// The session limits and the receive clock are the Auditor's
// ProtocolParams (tesla_* fields, clock); wire frames reach the verifier
// through Auditor::handle_frame.
//
// Everything here is deterministic in arrival order: given the same
// sequence of announce/sample/disclose/finalize calls, verdicts, audit
// events and retained proofs are byte-identical regardless of thread or
// shard counts (AuditorIngest serializes TESLA ops under its commit mutex).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/messages.h"
#include "core/poa.h"
#include "core/sampler.h"
#include "crypto/hash_chain.h"
#include "gps/receiver_sim.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "tee/sample_codec.h"
#include "tee/secure_monitor.h"

namespace alidrone::core {

/// Verifier-side TESLA session table. Pure state machine: no audit log,
/// no RSA — the Auditor verifies the commitment signature before calling
/// announce() and turns the returned results into audit events. All entry
/// points are serialized on one mutex; the intended caller
/// (AuditorIngest::submit_tesla under the ingest commit mutex, or
/// Auditor::bind's serial endpoints) already presents operations in a
/// deterministic admission order.
class TeslaVerifier {
 public:
  /// Session limits, the receive clock and the clock skew come from the
  /// Auditor's `params` (the tesla_* fields and `clock`). Counters are
  /// registered under `scope` + ".tesla." in `registry` (e.g.
  /// "core.auditor#0.tesla.samples_accepted").
  TeslaVerifier(const ProtocolParams& params, obs::MetricsRegistry& registry,
                const std::string& scope);

  /// The caller has already verified `req.commit_signature` over
  /// `req.commit_payload` with the drone's registered TEE key and parsed
  /// the payload into `commit`. Idempotent for byte-identical re-sends;
  /// a different commitment under the same (drone, nonce) is a forked
  /// chain and is rejected.
  TeslaAck announce(const TeslaAnnounceRequest& req,
                    const tee::TeslaCommit& commit);

  /// Admit one broadcast sample: size/interval checks, the disclosure-
  /// delay security condition against the configured clock, then
  /// buffering until the interval's key is disclosed.
  TeslaAck sample(const TeslaSampleBroadcastView& s);

  struct DiscloseResult {
    TeslaAck ack;
    /// Buffered samples whose tags failed under the now-known interval
    /// key: (interval, detail), in deterministic settle order. The caller
    /// audits each as kTeslaSampleRejected.
    std::vector<std::pair<std::uint64_t, std::string>> tag_rejects;
    std::uint64_t settled = 0;  ///< samples accepted by this disclosure
  };

  /// Verify a disclosed chain key against the committed anchor (frontier
  /// walk) and settle every buffered interval at or below it.
  DiscloseResult disclose(const TeslaDiscloseRequestView& d);

  /// Assemble the session's accepted subset into a self-contained
  /// kTeslaChain ProofOfAlibi (sorted by sample time, arrival order
  /// breaking ties) and erase the session. nullopt + `error` when the
  /// session is unknown (including already-finalized replays).
  std::optional<ProofOfAlibi> finalize(const DroneId& drone_id,
                                       std::uint64_t session_nonce,
                                       std::string* error);

  std::size_t session_count() const;

 private:
  struct Buffered {
    std::int64_t t_us = 0;      ///< canonical sample timestamp
    std::uint64_t seq = 0;      ///< per-session arrival order
    crypto::Bytes sample;
    crypto::Bytes tag;
  };
  struct Accepted {
    std::int64_t t_us = 0;
    std::uint64_t seq = 0;
    std::uint64_t interval = 0;
    crypto::Bytes sample;
    crypto::Bytes tag;
  };
  struct Session {
    tee::TeslaCommit commit;
    crypto::HashAlgorithm hash = crypto::HashAlgorithm::kSha1;
    crypto::Bytes commit_payload;
    crypto::Bytes commit_signature;
    crypto::ChainFrontier frontier;
    std::map<std::uint64_t, std::vector<Buffered>> pending;  ///< by interval
    std::size_t pending_count = 0;
    std::vector<Accepted> accepted;
    std::uint64_t next_seq = 0;
  };

  ProtocolParams params_;
  mutable std::mutex mu_;
  std::map<std::pair<DroneId, std::uint64_t>, Session> sessions_;

  obs::Counter* sessions_opened_;
  obs::Counter* sessions_rejected_;
  obs::Counter* samples_buffered_;
  obs::Counter* samples_accepted_;
  obs::Counter* samples_rejected_;
  obs::Counter* keys_accepted_;
  obs::Counter* keys_rejected_;
  obs::Counter* finalized_;
};

// ---- Drone side: the lossy broadcast flight loop ----

struct TeslaFlightConfig {
  double end_time = 0.0;        ///< stop sampling once the receiver passes this
  std::uint64_t session_nonce = 1;
  /// Chain length; 0 sizes it from the flight duration plus slack.
  std::uint32_t chain_length = 0;
  std::uint32_t disclosure_delay = 2;  ///< d sampling intervals
  double interval_s = 1.0;             ///< tau
  /// Must match the TA's SamplerConfig::hash (the commit signature's
  /// digest algorithm, carried in the announce).
  crypto::HashAlgorithm hash = crypto::HashAlgorithm::kSha1;
  std::vector<geo::Circle> local_zones;  ///< for the sampling policy log
  geo::LocalFrame frame{geo::GeoPoint{0.0, 0.0}};
  /// Safety valve for the post-flight disclosure/finalize flush under
  /// heavy fault schedules (receiver periods, not wall time).
  std::size_t max_flush_updates = 100000;
  /// Bus prefix of the auditor serving this flight ("auditor0", ... in a
  /// federated deployment).
  std::string auditor_prefix = "auditor";
};

struct TeslaFlightResult {
  bool announced = false;
  bool finalized = false;
  PoaVerdict verdict;
  std::uint64_t gps_updates = 0;
  std::uint64_t samples_sent = 0;
  std::uint64_t samples_dropped = 0;    ///< bus timeouts — lossy broadcast
  std::uint64_t samples_rejected = 0;   ///< delivered but refused admission
  std::uint64_t disclosures_sent = 0;
  std::uint64_t disclosures_dropped = 0;
  std::uint64_t tee_failures = 0;
  std::uint64_t max_interval_used = 0;
};

/// Fly a TESLA broadcast flight: one kTeslaBegin commitment (the single
/// RSA world-switch pair), fire-and-forget sample broadcasts, periodic
/// delayed key disclosures, then a post-flight disclosure flush and
/// finalize. Bus timeouts (chaos FaultWindow drops) are counted, never
/// retried for samples — the chain verifies whatever subset lands.
TeslaFlightResult run_tesla_broadcast_flight(tee::DroneTee& tee,
                                             gps::GpsReceiverSim& receiver,
                                             SamplingPolicy& policy,
                                             net::Transport& bus,
                                             const DroneId& drone_id,
                                             const TeslaFlightConfig& config);

}  // namespace alidrone::core

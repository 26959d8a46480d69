// Auditor — the AliDrone server (paper Sections III-A, IV-B, IV-C2).
//
// Maintains the registered-drone and NFZ databases, answers signed zone
// queries, verifies submitted Proofs-of-Alibi (signatures, well-formedness
// and eq.-(1) sufficiency) and retains verified PoAs so later accusations
// from Zone Owners can be adjudicated. All functionality is available as
// a direct API and as serialized endpoints on a net::Transport.
//
// Fleet-scale concurrency model: per-drone state (registration records,
// retained PoAs) is split across N lock-striped shards keyed by a hash of
// the drone id, so unrelated drones never contend; zone state is a single
// read-mostly table under a shared_mutex with an immutable shapes
// snapshot that hot verification borrows via shared_ptr. Shard layout
// only decides which mutex guards which drone — commit order is decided
// by the caller (serial in bind(), admission order in AuditorIngest), so
// verdicts and audit logs are byte-identical to the serial path for any
// shard or thread count.
//
// A PoA takes one code path per step wherever it arrives: evaluate_poa
// (pure), fanned out over a batch only by evaluate_batch; commit_evaluation
// for retention and the audit event, behind commit_submission for bus
// submissions (dedup re-check, submission time, accepted-only dedup
// cache); and one frame dispatcher, handle_frame, which bind(),
// AuditorIngest's TESLA path and ReplicatedAuditor all call.
//
// Lock order (outer to inner): registration_mu_ -> zones_mu_ -> shard.mu.
// The nonce and submit-dedup caches use their own leaf mutexes and are
// deliberately global, not sharded: both are bounded FIFOs whose eviction
// order must not depend on the shard count.
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <vector>

#include "core/audit_log.h"
#include "core/messages.h"
#include "core/poa.h"
#include "core/poa_store.h"
#include "core/protocol_types.h"
#include "core/registry_store.h"
#include "core/sufficiency.h"
#include "core/tesla.h"
#include "core/zone_index.h"
#include "crypto/random.h"
#include "crypto/rsa.h"
#include "geo/polygon.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"

namespace alidrone::core {

class AuditorIngest;

class Auditor {
 public:
  /// The Auditor has its own keypair: the public half encrypts PoA samples
  /// in transit/storage (Section V-C). Key generation uses `rng`.
  Auditor(std::size_t key_bits, crypto::RandomSource& rng,
          ProtocolParams params = {});

  /// Public encryption key handed to drone clients.
  const crypto::RsaPublicKey& encryption_key() const { return keypair_.pub; }

  // ---- Step 0: drone registration ----
  RegisterDroneResponse register_drone(const RegisterDroneRequest& request);

  // ---- Step 1: zone registration ----
  RegisterZoneResponse register_zone(const RegisterZoneRequest& request);

  /// Section VII-B2: polygon NFZ registration. The Auditor reduces the
  /// polygon to its smallest enclosing circle at registration time.
  /// `proof_signature` must verify over polygon_zone_payload(..).
  RegisterZoneResponse register_polygon_zone(
      const std::vector<geo::GeoPoint>& vertices,
      const crypto::RsaPublicKey& owner_key, const crypto::Bytes& proof_signature,
      const std::string& description);

  /// Section VII-B1: register a cylindrical zone with a ceiling altitude;
  /// altitude-aware PoAs can prove alibi by flying above it.
  RegisterZoneResponse register_zone_3d(const RegisterZoneRequest& request,
                                        double ceiling_m);

  // ---- Steps 2-3: zone query ----
  ZoneQueryResponse query_zones(const ZoneQueryRequest& request);

  // ---- Step 4: PoA verification ----
  PoaVerdict verify_poa(const ProofOfAlibi& poa, double submission_time);
  PoaVerdict verify_poa_bytes(std::span<const std::uint8_t> poa_bytes,
                              double submission_time);

  /// Batched verification. With a pool, the per-proof evaluation work
  /// (signature checks, decryption, sufficiency) fans out across the
  /// workers; all state mutation (retention, audit events) then happens
  /// serially in submission order. Verdicts, retained PoAs and audit-log
  /// contents are byte-identical to calling verify_poa in a loop,
  /// regardless of thread count. Pass nullptr (or a 1-thread pool) for
  /// the serial path.
  std::vector<PoaVerdict> verify_poa_batch(std::span<const ProofOfAlibi> poas,
                                           double submission_time,
                                           runtime::ThreadPool* pool = nullptr);

  // ---- TESLA broadcast mode (hash-chain PoA) ----
  //
  // The lossy-broadcast alternative to submit_poa: announce a chain
  // commitment, stream tagged samples, disclose keys, finalize. Calls
  // must be presented in a deterministic admission order (bind() serial
  // endpoints, or AuditorIngest::submit_tesla) — then verdicts and
  // audit events are byte-identical for any thread or shard count.

  /// Verify the TEE commitment signature under the drone's registered T+
  /// and open (or idempotently re-acknowledge) the session.
  TeslaAck tesla_announce(const TeslaAnnounceRequest& request);
  /// Admit one broadcast sample (buffered until its key is disclosed).
  TeslaAck tesla_sample(const TeslaSampleBroadcastView& sample);
  /// Verify a disclosed chain key and settle the intervals it covers;
  /// failed tags are audited as kTeslaSampleRejected.
  TeslaAck tesla_disclose(const TeslaDiscloseRequestView& disclose);
  /// Assemble the session's accepted subset into a kTeslaChain PoA and
  /// adjudicate it through the standard verify/retain/audit pipeline.
  PoaVerdict tesla_finalize(const TeslaFinalizeRequest& request);
  std::size_t tesla_session_count() const { return tesla_->session_count(); }

  // ---- Accusations ----
  AccusationResponse handle_accusation(const AccusationRequest& request);

  /// Drop retained PoAs older than the retention window.
  void expire_poas(double now);

  /// Attach durable PoA retention: verified PoAs are also written to the
  /// store, and accusations consult it when memory has no match (e.g.
  /// after an Auditor restart).
  void attach_store(std::shared_ptr<PoaStore> store) { store_ = std::move(store); }

  /// Attach durable identity databases: restores any existing snapshot
  /// (drones, zones, id counters) immediately, then persists after every
  /// registration.
  void attach_registry(std::shared_ptr<RegistryStore> registry);

  /// Attach an audit log; registrations, queries, verdicts and
  /// accusations are recorded from then on.
  void attach_audit_log(std::shared_ptr<AuditLog> log) { audit_ = std::move(log); }

  // ---- Introspection ----
  std::size_t drone_count() const;
  std::size_t zone_count() const;
  std::size_t retained_poa_count() const;
  /// Bus submissions answered from the proof-digest dedup cache (retry
  /// storms, duplicated deliveries) without re-verification or retention.
  std::uint64_t duplicate_poa_submissions() const {
    return duplicate_submissions_->value();
  }
  /// register_drone calls answered idempotently (same TEE + operator key
  /// re-submitted, e.g. a retry after a lost response).
  std::uint64_t duplicate_registrations() const {
    return duplicate_registrations_->value();
  }
  /// Zone table, for inspection. Not synchronized against concurrent zone
  /// registration — callers take it while no mutator runs.
  const std::map<ZoneId, ZoneRecord>& zones() const { return zones_; }
  const ProtocolParams& params() const { return params_; }

  /// The wire-visible operations bind() serves, in a stable numbering —
  /// also the method byte of the ledger's kReplicatedRequest entries, so
  /// renumbering is a ledger format break.
  enum class WireMethod : std::uint8_t {
    kRegisterDrone = 1,
    kRegisterZone,
    kQueryZones,
    kSubmitPoa,
    kTeslaAnnounce,
    kTeslaSample,
    kTeslaDisclose,
    kTeslaFinalize,
    kAccuse,
  };
  static const char* method_suffix(WireMethod method);

  /// Serve one serialized request frame exactly as the corresponding bus
  /// endpoint would (same decode, same dedup, same audit events). This is
  /// the seam ReplicatedAuditor re-executes requests through: feeding the
  /// same frames in the same order to two Auditors yields byte-identical
  /// responses, state and ledger streams.
  crypto::Bytes handle_frame(WireMethod method,
                             std::span<const std::uint8_t> request);

  /// Register the serialized endpoints ("<prefix>.register_drone", ...).
  /// The prefix is the Auditor's bus address — replicas bind the same
  /// methods as "auditor0.", "auditor1.", ... so clients can re-target.
  void bind(net::Transport& bus, const std::string& prefix = "auditor");

 private:
  friend class AuditorIngest;

  crypto::RsaKeyPair keypair_;
  ProtocolParams params_;

  struct RetainedPoa {
    double submission_time = 0.0;
    ProofOfAlibi poa;
    std::vector<gps::GpsFix> samples;  ///< decoded, decrypted
  };

  /// One lock stripe of per-drone state. A drone's registration record
  /// and its retained PoAs live in the shard its id hashes to. Records
  /// are immutable once registered and handed out as shared_ptr<const>,
  /// so verification never holds a shard lock while doing RSA math.
  struct StateShard {
    mutable std::mutex mu;
    std::map<DroneId, std::shared_ptr<const DroneRecord>, std::less<>> drones;
    std::map<DroneId, std::vector<RetainedPoa>, std::less<>> retained;
  };
  std::vector<std::unique_ptr<StateShard>> shards_;

  std::size_t shard_index(std::string_view drone_id) const;
  StateShard& shard_for(std::string_view drone_id) const {
    return *shards_[shard_index(drone_id)];
  }
  /// nullptr when unknown. The record outlives the shard lock.
  std::shared_ptr<const DroneRecord> find_drone(std::string_view drone_id) const;

  // Zone state: read-mostly, global (zones are shared by every drone).
  mutable std::shared_mutex zones_mu_;
  std::map<ZoneId, ZoneRecord> zones_;
  ZoneIndex zone_index_;  // spatial index over zones_ for queries

  /// Immutable snapshot of the registered zone geometry, rebuilt by zone
  /// mutators; hot verification borrows it with one shared_ptr copy
  /// instead of rebuilding three vectors per proof.
  struct ZoneShapes {
    std::vector<geo::GeoZone> all;
    std::vector<geo::GeoZone> planar;     ///< unbounded zones, eq. (1)
    std::vector<geo::GeoZone3> cylinders; ///< Section VII-B1 ceilings
  };
  std::shared_ptr<const ZoneShapes> zone_shapes_;
  std::shared_ptr<const ZoneShapes> zone_shapes() const;
  /// Caller holds zones_mu_ exclusively.
  void rebuild_zone_shapes_locked();

  // Registration order (id counters, TEE-key uniqueness scan, registry
  // persistence) is serialized; queries and verification never take this.
  mutable std::mutex registration_mu_;
  int next_drone_number_ = 1;
  int next_zone_number_ = 1;

  // Replay defense for zone-query nonces (bounded FIFO + set).
  std::mutex nonce_mu_;
  std::set<crypto::Bytes> seen_nonces_;
  std::deque<crypto::Bytes> nonce_order_;

  // Replay defense for PoA submissions over the bus: proof digest ->
  // encoded verdict of the first accepted delivery (bounded FIFO + map).
  mutable std::mutex submit_mu_;
  std::map<crypto::Bytes, crypto::Bytes> submit_cache_;
  std::deque<crypto::Bytes> submit_cache_order_;
  // Registry-backed counters (instance scope "core.auditor" in
  // params_.metrics, or the process-wide registry when unset).
  obs::Counter* duplicate_submissions_;
  obs::Counter* duplicate_registrations_;

  /// Cached verdict for a previously accepted submission digest; counts a
  /// duplicate on hit.
  std::optional<crypto::Bytes> lookup_submission(const crypto::Bytes& digest);
  /// Remember an accepted submission's verdict for dedup.
  void note_submission(const crypto::Bytes& digest, const crypto::Bytes& verdict);

  std::shared_ptr<PoaStore> store_;             // optional durable retention
  std::shared_ptr<RegistryStore> registry_;     // optional durable identities
  std::shared_ptr<AuditLog> audit_;             // optional event log

  /// TESLA session state (hash-chain commitments, buffered samples,
  /// disclosure frontiers). Own mutex, leaf in the lock order.
  std::unique_ptr<TeslaVerifier> tesla_;

  /// Caller holds registration_mu_ (serializes snapshot contents).
  void persist_registry() const;
  void audit(double time, AuditEventType type, const std::string& subject,
             bool ok, const std::string& detail) const;

  /// Result of the side-effect-free half of PoA verification.
  struct PoaEvaluation {
    PoaVerdict verdict;
    bool retain = false;  ///< reached the retention point (accepted + ordered)
    ProofOfAlibi to_retain;
    std::vector<gps::GpsFix> retained_samples;
  };

  /// Pure verification: signatures, decryption, sufficiency, thinning.
  /// Reads registries and the Auditor keypair but mutates nothing
  /// (per-drone records via shard locks, zone geometry via the shapes
  /// snapshot), so calls may run concurrently with each other and with
  /// other evaluations. The view borrows the caller's frame; an owning
  /// ProofOfAlibi is materialized only on the retain path.
  PoaEvaluation evaluate_poa(const PoaView& poa) const;

  /// The evaluate phase of a batch: evaluate_poa for every view, fanned
  /// out by index across `pool` when one is given (nullptr: on the calling
  /// thread). Results land by index, so the schedule cannot change any
  /// evaluation; callers then commit serially in submission order.
  std::vector<PoaEvaluation> evaluate_batch(std::span<const PoaView> views,
                                            runtime::ThreadPool* pool) const;

  /// Apply an evaluation's side effects (retention, store write, audit
  /// event) and return its verdict. Callers serialize commits and order
  /// them by submission for deterministic logs.
  PoaVerdict commit_evaluation(std::string_view drone_id, PoaEvaluation evaluation,
                               double submission_time);

  struct SubmissionReply {
    crypto::Bytes encoded;   ///< the encoded PoaVerdict
    bool duplicate = false;  ///< answered from the dedup cache
  };

  /// The commit step of one submit_poa proof, for the bus endpoint and
  /// AuditorIngest alike: re-checks the dedup cache (`digest` is the
  /// proof bytes' SHA-256), else commits at the proof's last sample time
  /// and caches the verdict if it was accepted.
  SubmissionReply commit_submission(const crypto::Bytes& digest,
                                    const PoaView& view,
                                    PoaEvaluation evaluation);

  ZoneQueryResponse query_zones_impl(std::string_view drone_id,
                                     const QueryRect& rect,
                                     std::span<const std::uint8_t> nonce,
                                     std::span<const std::uint8_t> nonce_signature);

  /// Evaluate one retained flight against an accusation; nullopt when the
  /// incident is outside the flight window.
  std::optional<AccusationResponse> adjudicate(
      const std::vector<gps::GpsFix>& samples, const ZoneRecord& zone,
      double incident_time) const;

  bool note_nonce(std::span<const std::uint8_t> nonce);

  /// Decrypt + authenticate the samples of a PoA; on success fills
  /// `out_samples` with decoded fixes. Returns a failure detail or "".
  std::string authenticate_samples(const PoaView& poa,
                                   const DroneRecord& drone,
                                   std::vector<gps::GpsFix>& out_samples) const;
};

}  // namespace alidrone::core

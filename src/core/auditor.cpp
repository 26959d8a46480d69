#include "core/auditor.h"

#include "core/thinning.h"

#include <algorithm>
#include <map>
#include <set>

#include "crypto/hash_chain.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "net/codec.h"
#include "runtime/parallel_for.h"
#include "tee/sample_codec.h"

namespace alidrone::core {

namespace {
constexpr std::size_t kMinNonceBytes = 16;
}

Auditor::Auditor(std::size_t key_bits, crypto::RandomSource& rng, ProtocolParams params)
    : keypair_(crypto::generate_rsa_keypair(key_bits, rng)), params_(params) {
  const std::size_t shard_count = std::max<std::size_t>(1, params_.auditor_shards);
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<StateShard>());
  }
  zone_shapes_ = std::make_shared<const ZoneShapes>();
  obs::MetricsRegistry& reg = params_.metrics != nullptr
                                  ? *params_.metrics
                                  : obs::MetricsRegistry::global();
  const std::string scope = reg.instance_scope("core.auditor");
  duplicate_submissions_ = &reg.counter(scope + ".duplicate_poa_submissions");
  duplicate_registrations_ = &reg.counter(scope + ".duplicate_registrations");
  tesla_ = std::make_unique<TeslaVerifier>(params_, reg, scope);
}

std::size_t Auditor::shard_index(std::string_view drone_id) const {
  // FNV-1a over the id, then a splitmix64 finalizer so ids differing only
  // in the last character still spread across stripes.
  std::uint64_t x = 0xcbf29ce484222325ull;
  for (const char c : drone_id) {
    x ^= static_cast<unsigned char>(c);
    x *= 0x100000001b3ull;
  }
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return static_cast<std::size_t>((x ^ (x >> 31)) % shards_.size());
}

std::shared_ptr<const DroneRecord> Auditor::find_drone(
    std::string_view drone_id) const {
  const StateShard& shard = shard_for(drone_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.drones.find(drone_id);
  return it == shard.drones.end() ? nullptr : it->second;
}

std::shared_ptr<const Auditor::ZoneShapes> Auditor::zone_shapes() const {
  std::shared_lock<std::shared_mutex> lock(zones_mu_);
  return zone_shapes_;
}

void Auditor::rebuild_zone_shapes_locked() {
  auto shapes = std::make_shared<ZoneShapes>();
  shapes->all.reserve(zones_.size());
  for (const auto& [id, record] : zones_) {
    shapes->all.push_back(record.zone);
    if (record.ceiling_m) {
      shapes->cylinders.push_back(
          {record.zone.center, record.zone.radius_m, *record.ceiling_m});
    } else {
      shapes->planar.push_back(record.zone);
    }
  }
  zone_shapes_ = std::move(shapes);
}

bool Auditor::note_nonce(std::span<const std::uint8_t> nonce) {
  crypto::Bytes owned(nonce.begin(), nonce.end());
  std::lock_guard<std::mutex> lock(nonce_mu_);
  if (seen_nonces_.contains(owned)) return false;
  nonce_order_.push_back(owned);
  seen_nonces_.insert(std::move(owned));
  while (nonce_order_.size() > params_.nonce_cache_size) {
    seen_nonces_.erase(nonce_order_.front());
    nonce_order_.pop_front();
  }
  return true;
}

std::optional<crypto::Bytes> Auditor::lookup_submission(const crypto::Bytes& digest) {
  std::lock_guard<std::mutex> lock(submit_mu_);
  const auto it = submit_cache_.find(digest);
  if (it == submit_cache_.end()) return std::nullopt;
  duplicate_submissions_->increment();
  return it->second;
}

void Auditor::note_submission(const crypto::Bytes& digest,
                              const crypto::Bytes& verdict) {
  std::lock_guard<std::mutex> lock(submit_mu_);
  if (submit_cache_.emplace(digest, verdict).second) {
    submit_cache_order_.push_back(digest);
    while (submit_cache_order_.size() > params_.submit_dedup_cache_size) {
      submit_cache_.erase(submit_cache_order_.front());
      submit_cache_order_.pop_front();
    }
  }
}

void Auditor::attach_registry(std::shared_ptr<RegistryStore> registry) {
  registry_ = std::move(registry);
  if (registry_ == nullptr) return;
  if (const auto snapshot = registry_->load()) {
    std::lock_guard<std::mutex> reg_lock(registration_mu_);
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->drones.clear();
    }
    for (const auto& [id, record] : snapshot->drones) {
      StateShard& shard = shard_for(id);
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.drones[id] = std::make_shared<const DroneRecord>(record);
    }
    {
      std::unique_lock<std::shared_mutex> lock(zones_mu_);
      zones_ = snapshot->zones;
      zone_index_ = ZoneIndex();
      for (const auto& [id, record] : zones_) zone_index_.insert(id, record.zone);
      rebuild_zone_shapes_locked();
    }
    next_drone_number_ = snapshot->next_drone_number;
    next_zone_number_ = snapshot->next_zone_number;
  }
}

void Auditor::audit(double time, AuditEventType type, const std::string& subject,
                    bool ok, const std::string& detail) const {
  if (audit_ == nullptr) return;
  AuditEvent event;
  event.time = time;
  event.type = type;
  event.subject = subject;
  event.outcome_ok = ok;
  event.detail = detail;
  audit_->record(std::move(event));
}

void Auditor::persist_registry() const {
  if (registry_ == nullptr) return;
  RegistryStore::Snapshot snapshot;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [id, record] : shard->drones) snapshot.drones[id] = *record;
  }
  {
    std::shared_lock<std::shared_mutex> lock(zones_mu_);
    snapshot.zones = zones_;
  }
  snapshot.next_drone_number = next_drone_number_;
  snapshot.next_zone_number = next_zone_number_;
  registry_->save(snapshot);
}

RegisterDroneResponse Auditor::register_drone(const RegisterDroneRequest& request) {
  const crypto::RsaPublicKey op_key = request.operator_key();
  const crypto::RsaPublicKey tee_key = request.tee_key();
  if (op_key.modulus_bits() < 512 || tee_key.modulus_bits() < 512) return {};

  std::lock_guard<std::mutex> reg_lock(registration_mu_);

  // One identity per TEE key: re-registering the same hardware under a new
  // operator key would let an attacker shed accusations. The same pairing
  // re-submitted is answered idempotently with the original id — a retry
  // after a lost response must not look like a refusal. (At most one
  // record per TEE key exists, so scan order across shards is irrelevant.)
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [id, record] : shard->drones) {
      if (record->tee_key == tee_key) {
        if (record->operator_key == op_key) {
          duplicate_registrations_->increment();
          return {true, id};
        }
        return {};
      }
    }
  }

  DroneId id = "drone-" + std::to_string(next_drone_number_++);
  {
    StateShard& shard = shard_for(id);
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.drones[id] =
        std::make_shared<const DroneRecord>(DroneRecord{id, op_key, tee_key});
  }
  persist_registry();
  audit(0.0, AuditEventType::kDroneRegistered, id, true, "D+ and T+ on file");
  return {true, std::move(id)};
}

RegisterZoneResponse Auditor::register_zone(const RegisterZoneRequest& request) {
  if (!geo::is_valid_zone(request.zone)) return {};
  crypto::RsaPublicKey owner_key{crypto::BigInt::from_bytes(request.owner_key_n),
                                 crypto::BigInt::from_bytes(request.owner_key_e)};
  if (owner_key.modulus_bits() < 512) return {};

  // Proof of ownership: the owner's signature over the zone coordinates.
  if (!crypto::rsa_verify(owner_key, request.signed_payload(),
                          request.proof_signature,
                          crypto::HashAlgorithm::kSha256)) {
    return {};
  }

  std::lock_guard<std::mutex> reg_lock(registration_mu_);
  ZoneId id = "zone-" + std::to_string(next_zone_number_++);
  {
    std::unique_lock<std::shared_mutex> lock(zones_mu_);
    zones_[id] = ZoneRecord{id, request.zone, owner_key, request.description, {}};
    zone_index_.insert(id, request.zone);
    rebuild_zone_shapes_locked();
  }
  persist_registry();
  audit(0.0, AuditEventType::kZoneRegistered, id, true, request.description);
  return {true, std::move(id)};
}

RegisterZoneResponse Auditor::register_zone_3d(const RegisterZoneRequest& request,
                                               double ceiling_m) {
  if (!geo::is_valid_ceiling(ceiling_m)) return {};
  RegisterZoneResponse response = register_zone(request);
  if (response.ok) {
    std::lock_guard<std::mutex> reg_lock(registration_mu_);
    {
      std::unique_lock<std::shared_mutex> lock(zones_mu_);
      zones_[response.zone_id].ceiling_m = ceiling_m;
      rebuild_zone_shapes_locked();
    }
    persist_registry();  // re-snapshot with the ceiling included
  }
  return response;
}

RegisterZoneResponse Auditor::register_polygon_zone(
    const std::vector<geo::GeoPoint>& vertices,
    const crypto::RsaPublicKey& owner_key, const crypto::Bytes& proof_signature,
    const std::string& description) {
  if (vertices.size() < 3) return {};
  if (owner_key.modulus_bits() < 512) return {};

  // Ownership is proven over the polygon itself.
  if (!crypto::rsa_verify(owner_key, polygon_zone_payload(vertices, description),
                          proof_signature, crypto::HashAlgorithm::kSha256)) {
    return {};
  }

  // Project into a frame at the first vertex, solve the smallest circle
  // problem, and register the covering circle (Section VII-B2).
  const geo::LocalFrame frame(vertices.front());
  std::vector<geo::Vec2> pts;
  pts.reserve(vertices.size());
  for (const geo::GeoPoint& v : vertices) pts.push_back(frame.to_local(v));
  const geo::Circle cover = geo::smallest_enclosing_circle(pts);

  const geo::GeoZone covering{frame.to_geo(cover.center), cover.radius};
  if (!geo::is_valid_zone(covering)) return {};

  std::lock_guard<std::mutex> reg_lock(registration_mu_);
  ZoneId id = "zone-" + std::to_string(next_zone_number_++);
  {
    std::unique_lock<std::shared_mutex> lock(zones_mu_);
    zones_[id] = ZoneRecord{id, covering, owner_key, description, {}};
    zone_index_.insert(id, covering);
    rebuild_zone_shapes_locked();
  }
  persist_registry();
  return {true, std::move(id)};
}

ZoneQueryResponse Auditor::query_zones(const ZoneQueryRequest& request) {
  return query_zones_impl(request.drone_id, request.rect, request.nonce,
                          request.nonce_signature);
}

ZoneQueryResponse Auditor::query_zones_impl(
    std::string_view drone_id, const QueryRect& rect,
    std::span<const std::uint8_t> nonce,
    std::span<const std::uint8_t> nonce_signature) {
  const auto drone = find_drone(drone_id);
  if (drone == nullptr) return {false, "unknown drone", {}};
  if (nonce.size() < kMinNonceBytes) return {false, "nonce too short", {}};

  if (!crypto::rsa_verify(drone->operator_key, nonce, nonce_signature,
                          crypto::HashAlgorithm::kSha256)) {
    return {false, "bad nonce signature", {}};
  }
  if (!note_nonce(nonce)) return {false, "replayed nonce", {}};

  ZoneQueryResponse response;
  response.ok = true;
  {
    std::shared_lock<std::shared_mutex> lock(zones_mu_);
    for (const ZoneId& id : zone_index_.query_rect(rect)) {
      response.zones.push_back({id, zones_.at(id).zone});
    }
  }
  audit(0.0, AuditEventType::kZoneQuery, std::string(drone_id), true,
        std::to_string(response.zones.size()) + " zones returned");
  return response;
}

std::string Auditor::authenticate_samples(
    const PoaView& poa, const DroneRecord& drone,
    std::vector<gps::GpsFix>& out_samples) const {
  // Mode-specific key material checks first.
  crypto::Bytes hmac_key;
  if (poa.mode == AuthMode::kHmacSession) {
    if (!crypto::rsa_verify(drone.tee_key, poa.session_key_ciphertext,
                            poa.session_key_signature, poa.hash)) {
      return "session key signature invalid";
    }
    const auto key = crypto::rsa_decrypt(keypair_.priv, poa.session_key_ciphertext);
    if (!key || key->size() != 32) return "session key unreadable";
    hmac_key = *key;
  }

  // TESLA chain mode: the PoA is self-contained (see AuthMode docs) — the
  // commitment is re-verified under T+, the carried frontier element is
  // walked down to the lowest interval the samples need, capturing every
  // MAC key on the way, and the key reached is checked against the
  // committed anchor through ChainFrontier. One RSA verify total; the rest
  // is hashing (frontier-index chain steps in all).
  std::map<std::uint64_t, crypto::HmacSha256> tesla_keys;
  std::vector<std::uint64_t> tesla_intervals;
  if (poa.mode == AuthMode::kTeslaChain) {
    if (poa.encrypted) return "encrypted TESLA PoA unsupported";
    const auto commit = tee::parse_tesla_commit(poa.batch_signature);
    if (!commit) return "tesla commitment malformed";
    if (commit->chain_length > params_.tesla_max_chain_length) {
      return "tesla chain too long";
    }
    if (!crypto::rsa_verify(drone.tee_key, poa.batch_signature,
                            poa.session_key_signature, poa.hash)) {
      return "tesla commitment signature invalid";
    }
    const auto frontier = tee::parse_tesla_frontier(poa.session_key_ciphertext);
    if (!frontier) return "tesla frontier malformed";
    if (frontier->index > commit->chain_length) return "tesla frontier out of range";
    // Interval of every sample, from its embedded canonical timestamp.
    std::set<std::uint64_t> needed;
    tesla_intervals.reserve(poa.samples.size());
    for (std::size_t i = 0; i < poa.samples.size(); ++i) {
      const auto t_us = tee::sample_time_us(poa.samples[i].sample);
      if (!t_us) return "sample " + std::to_string(i) + " malformed";
      const std::uint64_t interval =
          tee::tesla_interval(*t_us, commit->t0_us, commit->interval_us);
      if (interval == 0 || interval > frontier->index) {
        return "sample " + std::to_string(i) + " key undisclosed";
      }
      tesla_intervals.push_back(interval);
      needed.insert(interval);
    }
    // Walk down from the frontier, keying each needed interval on the way;
    // the lowest key reached must then chain down to the committed anchor.
    crypto::ChainKey cur = frontier->key;
    std::uint64_t at = frontier->index;
    for (auto it = needed.rbegin(); it != needed.rend(); ++it) {
      while (at > *it) {
        cur = crypto::chain_step(cur);
        --at;
      }
      tesla_keys.emplace(*it, crypto::tesla_tag_key(cur));
    }
    crypto::ChainFrontier anchor(commit->anchor, commit->chain_length);
    if (!anchor.accept(at, cur)) return "tesla frontier does not chain to anchor";
  }

  crypto::Bytes batch_payload;
  out_samples.clear();
  out_samples.reserve(poa.samples.size());

  for (std::size_t i = 0; i < poa.samples.size(); ++i) {
    const SignedSampleView& s = poa.samples[i];

    // Plaintext canonical bytes: borrowed straight from the frame unless
    // the PoA is encrypted, in which case the decryption owns them.
    crypto::Bytes decrypted_storage;
    std::span<const std::uint8_t> plain = s.sample;
    if (poa.encrypted) {
      auto decrypted = crypto::rsa_decrypt(keypair_.priv, s.sample);
      if (!decrypted) return "sample " + std::to_string(i) + " undecryptable";
      decrypted_storage = std::move(*decrypted);
      plain = decrypted_storage;
    }
    const auto fix = tee::decode_sample(plain);
    if (!fix) return "sample " + std::to_string(i) + " malformed";

    switch (poa.mode) {
      case AuthMode::kRsaPerSample:
        if (!crypto::rsa_verify(drone.tee_key, plain, s.signature, poa.hash)) {
          return "sample " + std::to_string(i) + " signature invalid";
        }
        break;
      case AuthMode::kHmacSession: {
        const auto tag = crypto::HmacSha256::mac(hmac_key, plain);
        if (s.signature.size() != tag.size() ||
            !crypto::constant_time_equal(s.signature, tag)) {
          return "sample " + std::to_string(i) + " MAC invalid";
        }
        break;
      }
      case AuthMode::kBatchSignature:
        batch_payload.insert(batch_payload.end(), plain.begin(), plain.end());
        break;
      case AuthMode::kTeslaChain: {
        const crypto::ChainKey tag = crypto::tesla_tag(
            tesla_keys.at(tesla_intervals[i]), tesla_intervals[i], plain);
        if (s.signature.size() != tag.size() ||
            !crypto::constant_time_equal(s.signature, tag)) {
          return "sample " + std::to_string(i) + " tag invalid";
        }
        break;
      }
    }
    out_samples.push_back(*fix);
  }

  if (poa.mode == AuthMode::kBatchSignature) {
    if (poa.samples.empty()) return "empty batch";
    if (!crypto::rsa_verify(drone.tee_key, batch_payload, poa.batch_signature,
                            poa.hash)) {
      return "batch signature invalid";
    }
  }
  return "";
}

Auditor::PoaEvaluation Auditor::evaluate_poa(const PoaView& poa) const {
  PoaEvaluation evaluation;
  PoaVerdict& verdict = evaluation.verdict;
  const auto drone = find_drone(poa.drone_id);
  if (drone == nullptr) {
    verdict.detail = "unknown drone";
    return evaluation;
  }
  if (poa.samples.empty()) {
    verdict.detail = "empty PoA";
    return evaluation;
  }

  std::vector<gps::GpsFix> samples;
  const std::string failure = authenticate_samples(poa, *drone, samples);
  if (!failure.empty()) {
    verdict.detail = failure;
    return evaluation;
  }
  verdict.accepted = true;

  // Planar zones use the paper's eq. (1); cylinder zones (the Section
  // VII-B1 extension) use the altitude-aware ellipsoid check, and each
  // list counts its own violations. Both read the immutable shapes
  // snapshot — no zone lock.
  const auto shapes = zone_shapes();
  const SufficiencyReport planar =
      check_sufficiency(samples, shapes->planar, params_.vmax_mps);
  if (!planar.well_formed) {
    verdict.accepted = false;
    verdict.detail = "samples not time-ordered";
    return evaluation;
  }
  const SufficiencyReport volumetric =
      check_sufficiency_3d(samples, shapes->cylinders, params_.vmax_mps);

  verdict.compliant = planar.sufficient && volumetric.sufficient;
  verdict.violation_count = static_cast<std::uint32_t>(planar.violations.size() +
                                                       volumetric.violations.size());
  verdict.detail = verdict.compliant ? "sufficient alibi" : "insufficient alibi";

  // Prepare retention (Section IV-C2): only now pay for an owning copy of
  // the proof. Optionally thinned first: the minimal sufficient witness
  // answers accusations just as well.
  evaluation.retain = true;
  evaluation.to_retain = poa.materialize();
  evaluation.retained_samples = std::move(samples);
  if (params_.thin_before_retention) {
    ProofOfAlibi thinned =
        thin_poa(evaluation.to_retain, shapes->all, params_.vmax_mps);
    if (thinned.samples.size() < evaluation.to_retain.samples.size()) {
      evaluation.retained_samples.clear();
      for (const SignedSample& s : thinned.samples) {
        if (const auto f = s.fix()) evaluation.retained_samples.push_back(*f);
      }
    }
    evaluation.to_retain = std::move(thinned);
  }
  return evaluation;
}

PoaVerdict Auditor::commit_evaluation(std::string_view drone_id,
                                      PoaEvaluation evaluation,
                                      double submission_time) {
  if (!evaluation.retain) return std::move(evaluation.verdict);

  // Retain for later accusations — in memory and, when a store is
  // attached, durably on disk.
  if (store_ != nullptr) {
    store_->save(evaluation.to_retain.drone_id, submission_time,
                 evaluation.to_retain);
  }
  RetainedPoa retained;
  retained.submission_time = submission_time;
  retained.poa = std::move(evaluation.to_retain);
  retained.samples = std::move(evaluation.retained_samples);
  {
    StateShard& shard = shard_for(drone_id);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.retained.find(drone_id);
    if (it == shard.retained.end()) {
      it = shard.retained.emplace(DroneId(drone_id), std::vector<RetainedPoa>{})
               .first;
    }
    it->second.push_back(std::move(retained));
  }
  audit(submission_time, AuditEventType::kPoaVerdict, std::string(drone_id),
        evaluation.verdict.compliant, evaluation.verdict.detail);
  return std::move(evaluation.verdict);
}

PoaVerdict Auditor::verify_poa(const ProofOfAlibi& poa, double submission_time) {
  return commit_evaluation(poa.drone_id, evaluate_poa(PoaView::of(poa)),
                           submission_time);
}

std::vector<Auditor::PoaEvaluation> Auditor::evaluate_batch(
    std::span<const PoaView> views, runtime::ThreadPool* pool) const {
  // evaluate_poa reads per-drone records under brief shard locks and zone
  // geometry via the shapes snapshot, so the views can fan out freely.
  std::vector<PoaEvaluation> evaluations(views.size());
  const auto evaluate = [&](std::size_t i) {
    evaluations[i] = evaluate_poa(views[i]);
  };
  if (pool != nullptr) {
    runtime::parallel_for(*pool, 0, views.size(), evaluate);
  } else {
    for (std::size_t i = 0; i < views.size(); ++i) evaluate(i);
  }
  return evaluations;
}

std::vector<PoaVerdict> Auditor::verify_poa_batch(
    std::span<const ProofOfAlibi> poas, double submission_time,
    runtime::ThreadPool* pool) {
  std::vector<PoaView> views;
  views.reserve(poas.size());
  for (const ProofOfAlibi& poa : poas) views.push_back(PoaView::of(poa));
  std::vector<PoaEvaluation> evaluations = evaluate_batch(views, pool);

  // Commit serially, in submission order: retention order and audit-log
  // contents match the verify_poa loop byte for byte.
  std::vector<PoaVerdict> verdicts;
  verdicts.reserve(poas.size());
  for (std::size_t i = 0; i < poas.size(); ++i) {
    verdicts.push_back(commit_evaluation(poas[i].drone_id,
                                         std::move(evaluations[i]),
                                         submission_time));
  }
  return verdicts;
}

Auditor::SubmissionReply Auditor::commit_submission(const crypto::Bytes& digest,
                                                    const PoaView& view,
                                                    PoaEvaluation evaluation) {
  // Re-check: a copy of the same proof may have committed since this one
  // was admitted; it gets the first verdict verbatim, with no second
  // retention or audit event.
  if (auto hit = lookup_submission(digest)) return {std::move(*hit), true};
  // Submission time: the latest sample time stands in for server wall clock.
  const PoaVerdict verdict = commit_evaluation(
      view.drone_id, std::move(evaluation), view.end_time().value_or(0.0));
  crypto::Bytes encoded = verdict.encode();
  // Only accepted proofs had side effects worth fencing; rejected ones
  // re-verify idempotently and stay out of the bounded cache.
  if (verdict.accepted) note_submission(digest, encoded);
  return {std::move(encoded), false};
}

PoaVerdict Auditor::verify_poa_bytes(std::span<const std::uint8_t> poa_bytes,
                                     double submission_time) {
  PoaView view;
  if (!PoaView::parse_into(poa_bytes, view)) {
    PoaVerdict verdict;
    verdict.detail = "unparseable PoA";
    return verdict;
  }
  return commit_evaluation(view.drone_id, evaluate_poa(view), submission_time);
}

TeslaAck Auditor::tesla_announce(const TeslaAnnounceRequest& request) {
  const auto drone = find_drone(request.drone_id);
  if (drone == nullptr) {
    audit(0.0, AuditEventType::kTeslaSession, request.drone_id, false,
          "unknown drone");
    return {false, "unknown drone"};
  }
  const auto commit = tee::parse_tesla_commit(request.commit_payload);
  if (!commit) {
    audit(0.0, AuditEventType::kTeslaSession, request.drone_id, false,
          "malformed commitment");
    return {false, "malformed commitment"};
  }
  // The anchor's pedigree: only this drone's TEE can have signed it.
  if (!crypto::rsa_verify(drone->tee_key, request.commit_payload,
                          request.commit_signature, request.hash)) {
    audit(0.0, AuditEventType::kTeslaSession, request.drone_id, false,
          "commitment signature invalid");
    return {false, "commitment signature invalid"};
  }
  const TeslaAck ack = tesla_->announce(request, *commit);
  // Idempotent re-sends of an accepted announce (lossy links) are not
  // re-audited: the log records sessions, not deliveries.
  if (ack.detail != "duplicate announce") {
    audit(static_cast<double>(commit->t0_us) * 1e-6,
          AuditEventType::kTeslaSession, request.drone_id, ack.accepted,
          ack.detail);
  }
  return ack;
}

TeslaAck Auditor::tesla_sample(const TeslaSampleBroadcastView& sample) {
  const TeslaAck ack = tesla_->sample(sample);
  if (!ack.accepted) {
    const auto t_us = tee::sample_time_us(sample.sample);
    audit(t_us ? static_cast<double>(*t_us) * 1e-6 : 0.0,
          AuditEventType::kTeslaSampleRejected, std::string(sample.drone_id),
          false, ack.detail);
  }
  return ack;
}

TeslaAck Auditor::tesla_disclose(const TeslaDiscloseRequestView& disclose) {
  const TeslaVerifier::DiscloseResult result = tesla_->disclose(disclose);
  if (!result.ack.accepted) {
    audit(0.0, AuditEventType::kTeslaKeyRejected, std::string(disclose.drone_id),
          false, result.ack.detail);
  }
  for (const auto& [interval, detail] : result.tag_rejects) {
    audit(0.0, AuditEventType::kTeslaSampleRejected,
          std::string(disclose.drone_id), false,
          "interval " + std::to_string(interval) + ": " + detail);
  }
  return result.ack;
}

PoaVerdict Auditor::tesla_finalize(const TeslaFinalizeRequest& request) {
  std::string error;
  const auto poa =
      tesla_->finalize(request.drone_id, request.session_nonce, &error);
  if (!poa) {
    audit(request.end_time, AuditEventType::kTeslaSession, request.drone_id,
          false, error);
    PoaVerdict verdict;
    verdict.detail = error;
    return verdict;
  }
  // The accepted subset goes through the standard pipeline: sufficiency,
  // retention, audit — and authenticate_samples re-verifies the whole
  // chain-of-custody from the self-contained proof.
  return verify_poa(*poa, request.end_time);
}

AccusationResponse Auditor::handle_accusation(const AccusationRequest& request) {
  std::optional<ZoneRecord> zone;
  {
    std::shared_lock<std::shared_mutex> lock(zones_mu_);
    const auto zone_it = zones_.find(request.zone_id);
    if (zone_it != zones_.end()) zone = zone_it->second;
  }
  if (!zone) return {false, false, "unknown zone"};
  const auto drone = find_drone(request.drone_id);
  if (drone == nullptr) return {false, false, "unknown drone"};

  // Only the Zone Owner can accuse for her zone.
  if (!crypto::rsa_verify(zone->owner_key, request.signed_payload(),
                          request.owner_signature, crypto::HashAlgorithm::kSha256)) {
    return {false, false, "bad owner signature"};
  }

  const auto finish = [&](AccusationResponse response) {
    audit(request.incident_time, AuditEventType::kAccusation, request.drone_id,
          response.alibi_holds, response.detail);
    return response;
  };

  // The burden of proof rests on the operator: find a retained PoA whose
  // flight window covers the incident and whose samples around the
  // incident time prove non-entrance to this zone.
  {
    StateShard& shard = shard_for(request.drone_id);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto retained_it = shard.retained.find(request.drone_id);
    if (retained_it != shard.retained.end()) {
      for (const RetainedPoa& r : retained_it->second) {
        if (const auto response =
                adjudicate(r.samples, *zone, request.incident_time)) {
          return finish(*response);
        }
      }
    }
  }

  // Fall back to the durable store (survives Auditor restarts). Stored
  // PoAs must be re-authenticated: the disk is part of the trust base but
  // the samples still carry their TEE signatures, so re-checking is cheap
  // insurance against tampered storage.
  if (store_ != nullptr) {
    for (const PoaStore::StoredPoa& stored :
         store_->load_for_drone(request.drone_id)) {
      std::vector<gps::GpsFix> samples;
      if (!authenticate_samples(PoaView::of(stored.poa), *drone, samples).empty()) {
        continue;
      }
      if (const auto response =
              adjudicate(samples, *zone, request.incident_time)) {
        return finish(*response);
      }
    }
  }
  return finish({true, false, "no PoA covers the incident time"});
}

std::optional<AccusationResponse> Auditor::adjudicate(
    const std::vector<gps::GpsFix>& samples, const ZoneRecord& zone,
    double incident_time) const {
  if (samples.empty()) return std::nullopt;
  if (incident_time < samples.front().unix_time ||
      incident_time > samples.back().unix_time) {
    return std::nullopt;
  }
  // Check eq. (1) for this zone, in its registered shape, across the whole
  // covered flight: any insufficient pair near the zone breaks the alibi.
  const SufficiencyReport report =
      zone.ceiling_m
          ? check_sufficiency_3d(
                samples, {{zone.zone.center, zone.zone.radius_m, *zone.ceiling_m}},
                params_.vmax_mps)
          : check_sufficiency(samples, {zone.zone}, params_.vmax_mps);
  if (report.well_formed && report.sufficient) {
    return AccusationResponse{true, true, "retained PoA proves non-entrance"};
  }
  return AccusationResponse{true, false, "retained PoA does not prove non-entrance"};
}

void Auditor::expire_poas(double now) {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto& [id, list] : shard->retained) {
      std::erase_if(list, [&](const RetainedPoa& r) {
        return now - r.submission_time > params_.poa_retention_seconds;
      });
    }
  }
  if (store_ != nullptr) {
    store_->expire_before(now - params_.poa_retention_seconds);
  }
}

std::size_t Auditor::drone_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->drones.size();
  }
  return n;
}

std::size_t Auditor::zone_count() const {
  std::shared_lock<std::shared_mutex> lock(zones_mu_);
  return zones_.size();
}

std::size_t Auditor::retained_poa_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [id, list] : shard->retained) n += list.size();
  }
  return n;
}

const char* Auditor::method_suffix(WireMethod method) {
  switch (method) {
    case WireMethod::kRegisterDrone: return "register_drone";
    case WireMethod::kRegisterZone: return "register_zone";
    case WireMethod::kQueryZones: return "query_zones";
    case WireMethod::kSubmitPoa: return "submit_poa";
    case WireMethod::kTeslaAnnounce: return "tesla_announce";
    case WireMethod::kTeslaSample: return "tesla_sample";
    case WireMethod::kTeslaDisclose: return "tesla_disclose";
    case WireMethod::kTeslaFinalize: return "tesla_finalize";
    case WireMethod::kAccuse: return "accuse";
  }
  return "unknown";
}

crypto::Bytes Auditor::handle_frame(WireMethod method,
                                    std::span<const std::uint8_t> in) {
  switch (method) {
    case WireMethod::kRegisterDrone: {
      const auto request = RegisterDroneRequest::decode(in);
      return (request ? register_drone(*request) : RegisterDroneResponse{})
          .encode();
    }
    case WireMethod::kRegisterZone: {
      const auto request = RegisterZoneRequest::decode(in);
      return (request ? register_zone(*request) : RegisterZoneResponse{})
          .encode();
    }
    case WireMethod::kQueryZones: {
      // Borrowing decode: id, nonce and signature stay views into the
      // request frame; only an accepted nonce is copied (into the replay
      // cache).
      const auto request = ZoneQueryRequestView::decode(in);
      return (request ? query_zones_impl(request->drone_id, request->rect,
                                         request->nonce,
                                         request->nonce_signature)
                      : ZoneQueryResponse{false, "bad request", {}})
          .encode();
    }
    case WireMethod::kSubmitPoa: {
      const auto poa_bytes = SubmitPoaRequest::decode_view(in);
      if (!poa_bytes) {
        PoaVerdict verdict;
        verdict.detail = "bad request";
        return verdict.encode();
      }
      // Content-based dedup: retried and duplicated deliveries of the same
      // proof bytes return the first verdict verbatim, with no second
      // verification, retention or audit event — retry storms cannot
      // double-count a flight.
      const auto digest_arr = crypto::Sha256::hash(*poa_bytes);
      const crypto::Bytes digest(digest_arr.begin(), digest_arr.end());
      if (auto hit = lookup_submission(digest)) return *hit;
      // Zero-copy verification straight out of the request frame; an owning
      // proof is materialized only if the verdict reaches retention.
      PoaView view;
      if (!PoaView::parse_into(*poa_bytes, view)) {
        PoaVerdict verdict;
        verdict.detail = "unparseable PoA";
        return verdict.encode();
      }
      return commit_submission(digest, view, evaluate_poa(view)).encoded;
    }
    case WireMethod::kTeslaAnnounce: {
      const auto request = TeslaAnnounceRequest::decode(in);
      return (request ? tesla_announce(*request) : TeslaAck{false, "bad request"})
          .encode();
    }
    case WireMethod::kTeslaSample: {
      // Borrowing decode: sample and tag stay views into the frame until
      // the verifier actually buffers them.
      const auto view = TeslaSampleBroadcastView::decode(in);
      return (view ? tesla_sample(*view) : TeslaAck{false, "bad request"})
          .encode();
    }
    case WireMethod::kTeslaDisclose: {
      const auto view = TeslaDiscloseRequestView::decode(in);
      return (view ? tesla_disclose(*view) : TeslaAck{false, "bad request"})
          .encode();
    }
    case WireMethod::kTeslaFinalize: {
      const auto request = TeslaFinalizeRequest::decode(in);
      if (!request) {
        PoaVerdict verdict;
        verdict.detail = "bad request";
        return verdict.encode();
      }
      return tesla_finalize(*request).encode();
    }
    case WireMethod::kAccuse: {
      const auto request = AccusationRequest::decode(in);
      return (request ? handle_accusation(*request)
                      : AccusationResponse{false, false, "bad request"})
          .encode();
    }
  }
  return {};
}

void Auditor::bind(net::Transport& bus, const std::string& prefix) {
  for (const WireMethod method :
       {WireMethod::kRegisterDrone, WireMethod::kRegisterZone,
        WireMethod::kQueryZones, WireMethod::kSubmitPoa,
        WireMethod::kTeslaAnnounce, WireMethod::kTeslaSample,
        WireMethod::kTeslaDisclose, WireMethod::kTeslaFinalize,
        WireMethod::kAccuse}) {
    bus.register_endpoint(prefix + "." + method_suffix(method),
                          [this, method](const crypto::Bytes& in) {
                            return handle_frame(method, in);
                          });
  }
}

}  // namespace alidrone::core

// Wire messages between the drone client and the AliDrone server
// (protocol steps 0-4, Section IV-B). Every message has a strict binary
// encode/decode pair over net::Writer/Reader; decode returns nullopt on
// any malformation.
//
// Each struct's `fields()` is its single field list: wire order, wire
// types and checks (see net::wire). encode(), the exact
// `encoded_size_hint()` (so encode() reserves the whole buffer up front)
// and decode() are all derived from it. The server's hot submission and
// query endpoints have `*View` counterparts that reuse the same list and
// borrow the request frame instead of copying payloads.
#pragma once

#include <optional>
#include <span>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/protocol_types.h"
#include "crypto/bytes.h"

namespace alidrone::core {

/// Canonical bytes a Zone Owner signs to prove ownership of a polygon
/// zone (Section VII-B2 registration).
crypto::Bytes polygon_zone_payload(const std::vector<geo::GeoPoint>& vertices,
                                   const std::string& description);

/// Step 0: drone registration — the operator submits D+ and T+.
struct RegisterDroneRequest {
  crypto::Bytes operator_key_n;
  crypto::Bytes operator_key_e;
  crypto::Bytes tee_key_n;
  crypto::Bytes tee_key_e;

  static constexpr auto fields(auto& m) {
    return std::tie(m.operator_key_n, m.operator_key_e, m.tee_key_n, m.tee_key_e);
  }
  std::size_t encoded_size_hint() const;
  crypto::Bytes encode() const;
  static std::optional<RegisterDroneRequest> decode(std::span<const std::uint8_t>);

  crypto::RsaPublicKey operator_key() const;
  crypto::RsaPublicKey tee_key() const;
};

struct RegisterDroneResponse {
  bool ok = false;
  DroneId drone_id;

  static constexpr auto fields(auto& m) { return std::tie(m.ok, m.drone_id); }
  std::size_t encoded_size_hint() const;
  crypto::Bytes encode() const;
  static std::optional<RegisterDroneResponse> decode(std::span<const std::uint8_t>);
};

/// Step 1: zone registration by a Zone Owner. `proof_signature` is the
/// owner's signature over the zone coordinates (the "proof of ownership").
struct RegisterZoneRequest {
  geo::GeoZone zone;
  std::string description;
  crypto::Bytes owner_key_n;
  crypto::Bytes owner_key_e;
  crypto::Bytes proof_signature;

  /// The exact bytes the ownership proof signs: the wire encoding of the
  /// leading (zone, description) fields.
  crypto::Bytes signed_payload() const;

  static constexpr auto fields(auto& m) {
    return std::tie(m.zone, m.description, m.owner_key_n, m.owner_key_e,
                    m.proof_signature);
  }
  std::size_t encoded_size_hint() const;
  crypto::Bytes encode() const;
  static std::optional<RegisterZoneRequest> decode(std::span<const std::uint8_t>);
};

struct RegisterZoneResponse {
  bool ok = false;
  ZoneId zone_id;

  static constexpr auto fields(auto& m) { return std::tie(m.ok, m.zone_id); }
  std::size_t encoded_size_hint() const;
  crypto::Bytes encode() const;
  static std::optional<RegisterZoneResponse> decode(std::span<const std::uint8_t>);
};

/// Steps 2-3: zone query. The nonce is signed with D- so the Auditor knows
/// the query comes from a registered drone; the Auditor also rejects
/// repeated nonces (replayed queries).
struct ZoneQueryRequest {
  DroneId drone_id;
  QueryRect rect;
  crypto::Bytes nonce;
  crypto::Bytes nonce_signature;

  static constexpr auto fields(auto& m) {
    return std::tie(m.drone_id, m.rect, m.nonce, m.nonce_signature);
  }
  std::size_t encoded_size_hint() const;
  crypto::Bytes encode() const;
  static std::optional<ZoneQueryRequest> decode(std::span<const std::uint8_t>);
};

/// Borrowing decode of a ZoneQueryRequest: id/nonce/signature are views
/// into the request frame (the Auditor verifies the nonce signature and
/// answers without copying them; only the nonce is copied, into the
/// replay cache, after it is accepted).
struct ZoneQueryRequestView {
  std::string_view drone_id;
  QueryRect rect;
  std::span<const std::uint8_t> nonce;
  std::span<const std::uint8_t> nonce_signature;

  static constexpr auto fields(auto& m) { return ZoneQueryRequest::fields(m); }
  static std::optional<ZoneQueryRequestView> decode(std::span<const std::uint8_t>);
};

struct ZoneInfo {
  ZoneId id;
  geo::GeoZone zone;

  static constexpr auto fields(auto& m) { return std::tie(m.id, m.zone); }
};

struct ZoneQueryResponse {
  bool ok = false;
  std::string error;
  std::vector<ZoneInfo> zones;

  static constexpr auto fields(auto& m) { return std::tie(m.ok, m.error, m.zones); }
  std::size_t encoded_size_hint() const;
  crypto::Bytes encode() const;
  static std::optional<ZoneQueryResponse> decode(std::span<const std::uint8_t>);
};

/// Step 4: PoA submission. The PoA body carries its own serialization.
struct SubmitPoaRequest {
  crypto::Bytes poa;  ///< ProofOfAlibi::serialize()

  static constexpr auto fields(auto& m) { return std::tie(m.poa); }
  std::size_t encoded_size_hint() const;
  crypto::Bytes encode() const;
  static std::optional<SubmitPoaRequest> decode(std::span<const std::uint8_t>);
  /// Borrowing decode: the PoA bytes as a view into the request frame
  /// (the ingestion path parses a PoaView straight out of it).
  static std::optional<std::span<const std::uint8_t>> decode_view(
      std::span<const std::uint8_t>);
};

/// The Auditor's verdict on a submitted PoA.
struct PoaVerdict {
  bool accepted = false;   ///< parseable, registered drone, valid signatures
  bool compliant = false;  ///< sufficient alibi w.r.t. every registered NFZ
  std::uint32_t violation_count = 0;
  std::string detail;

  static constexpr auto fields(auto& m) {
    return std::tie(m.accepted, m.compliant, m.violation_count, m.detail);
  }
  std::size_t encoded_size_hint() const;
  crypto::Bytes encode() const;
  static std::optional<PoaVerdict> decode(std::span<const std::uint8_t>);
};

// ---- TESLA broadcast mode (hash-chain PoA, ROADMAP item 2) ----
//
// Unlike the request/response submission flow, these messages model a
// lossy broadcast: the drone fires samples and key disclosures at the
// Auditor without retries, any subset may be dropped or reordered, and
// the chain verifies whatever lands. Only announce and finalize are
// request/response-shaped.

/// Flight start: the drone announces its hash-chain commitment. The
/// commit payload is the exact byte string the TEE signed
/// (tee::tesla_commit_payload: anchor K_0, chain length, disclosure
/// delay, interval, flight epoch t0); the Auditor re-verifies it under
/// the drone's registered T+. Re-sending an identical announce is
/// idempotent (lossy links re-send); announcing a *different* commitment
/// under the same (drone, session_nonce) is a forked chain and rejected.
struct TeslaAnnounceRequest {
  DroneId drone_id;
  std::uint64_t session_nonce = 0;
  /// Digest algorithm of the TEE commitment signature (the TA's
  /// SamplerConfig::hash).
  crypto::HashAlgorithm hash = crypto::HashAlgorithm::kSha1;
  crypto::Bytes commit_payload;
  crypto::Bytes commit_signature;  ///< TEE signature over commit_payload

  static constexpr auto fields(auto& m) {
    return std::tie(m.drone_id, m.session_nonce, m.hash, m.commit_payload,
                    m.commit_signature);
  }
  std::size_t encoded_size_hint() const;
  crypto::Bytes encode() const;
  static std::optional<TeslaAnnounceRequest> decode(std::span<const std::uint8_t>);
};

/// Shared thin reply for announce/sample/disclose.
struct TeslaAck {
  bool accepted = false;
  std::string detail;

  static constexpr auto fields(auto& m) { return std::tie(m.accepted, m.detail); }
  std::size_t encoded_size_hint() const;
  crypto::Bytes encode() const;
  static std::optional<TeslaAck> decode(std::span<const std::uint8_t>);
};

/// One broadcast sample: canonical 32-byte sample plus its HMAC tag under
/// the (still secret) chain key of `interval`.
struct TeslaSampleBroadcast {
  DroneId drone_id;
  std::uint64_t session_nonce = 0;
  std::uint64_t interval = 0;
  crypto::Bytes sample;  ///< tee::kEncodedSampleSize bytes
  crypto::Bytes tag;     ///< 32 bytes

  static constexpr auto fields(auto& m) {
    return std::tie(m.drone_id, m.session_nonce, m.interval, m.sample, m.tag);
  }
  std::size_t encoded_size_hint() const;
  crypto::Bytes encode() const;
  static std::optional<TeslaSampleBroadcast> decode(std::span<const std::uint8_t>);
};

/// Borrowing decode of a TeslaSampleBroadcast: the admission hot path
/// buffers sample/tag straight out of the frame without owning copies
/// until the sample is actually admitted.
struct TeslaSampleBroadcastView {
  std::string_view drone_id;
  std::uint64_t session_nonce = 0;
  std::uint64_t interval = 0;
  std::span<const std::uint8_t> sample;
  std::span<const std::uint8_t> tag;

  static constexpr auto fields(auto& m) { return TeslaSampleBroadcast::fields(m); }
  static std::optional<TeslaSampleBroadcastView> decode(
      std::span<const std::uint8_t>);
};

/// Delayed key disclosure: chain element K_index. Disclosures are also
/// lossy; a later disclosure K_j (j > index) settles everything at or
/// below j, so drops only delay verification.
struct TeslaDiscloseRequest {
  DroneId drone_id;
  std::uint64_t session_nonce = 0;
  std::uint64_t index = 0;
  crypto::Bytes key;  ///< 32 bytes

  static constexpr auto fields(auto& m) {
    return std::tie(m.drone_id, m.session_nonce, m.index, m.key);
  }
  std::size_t encoded_size_hint() const;
  crypto::Bytes encode() const;
  static std::optional<TeslaDiscloseRequest> decode(std::span<const std::uint8_t>);
};

struct TeslaDiscloseRequestView {
  std::string_view drone_id;
  std::uint64_t session_nonce = 0;
  std::uint64_t index = 0;
  std::span<const std::uint8_t> key;

  static constexpr auto fields(auto& m) { return TeslaDiscloseRequest::fields(m); }
  static std::optional<TeslaDiscloseRequestView> decode(
      std::span<const std::uint8_t>);
};

/// Flight end: adjudicate the accepted subset. The reply is a PoaVerdict,
/// exactly as for request/response submission.
struct TeslaFinalizeRequest {
  DroneId drone_id;
  std::uint64_t session_nonce = 0;
  double end_time = 0.0;

  static constexpr auto fields(auto& m) {
    return std::tie(m.drone_id, m.session_nonce, m.end_time);
  }
  std::size_t encoded_size_hint() const;
  crypto::Bytes encode() const;
  static std::optional<TeslaFinalizeRequest> decode(std::span<const std::uint8_t>);
};

/// A Zone Owner's incident report ("I saw drone X near my zone at time t").
struct AccusationRequest {
  ZoneId zone_id;
  DroneId drone_id;
  double incident_time = 0.0;
  crypto::Bytes owner_signature;  ///< over (zone_id, drone_id, time)

  /// The wire encoding of the leading three fields (what the owner signs).
  crypto::Bytes signed_payload() const;
  static constexpr auto fields(auto& m) {
    return std::tie(m.zone_id, m.drone_id, m.incident_time, m.owner_signature);
  }
  std::size_t encoded_size_hint() const;
  crypto::Bytes encode() const;
  static std::optional<AccusationRequest> decode(std::span<const std::uint8_t>);
};

struct AccusationResponse {
  bool ok = false;           ///< accusation well-formed & zone/owner match
  bool alibi_holds = false;  ///< stored PoA proves non-entrance
  std::string detail;

  static constexpr auto fields(auto& m) {
    return std::tie(m.ok, m.alibi_holds, m.detail);
  }
  std::size_t encoded_size_hint() const;
  crypto::Bytes encode() const;
  static std::optional<AccusationResponse> decode(std::span<const std::uint8_t>);
};

}  // namespace alidrone::core

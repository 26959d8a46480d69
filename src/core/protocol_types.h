// Protocol identities, keys and records — Table I of the paper, as types.
//
//   id_drone  DroneId      carried on the drone, like a license plate
//   id_zone   ZoneId       issued by the Auditor at zone registration
//   T-        (in the TEE) tee::KeyVault private half — never leaves TEE
//   T+        RsaPublicKey TEE verification key, known to Operator/Auditor
//   D-        RsaPrivateKey operator sign key (authenticates zone queries)
//   D+        RsaPublicKey operator verification key, known to the Auditor
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "crypto/rsa.h"
#include "geo/units.h"
#include "geo/zone.h"

namespace alidrone::obs {
class Clock;
class MetricsRegistry;
}  // namespace alidrone::obs

namespace alidrone::core {

using DroneId = std::string;
using ZoneId = std::string;

/// The Auditor's record of a registered drone: (id_drone, D+, T+).
struct DroneRecord {
  DroneId id;
  crypto::RsaPublicKey operator_key;  ///< D+
  crypto::RsaPublicKey tee_key;       ///< T+
};

/// The Auditor's record of a registered no-fly-zone: (id_zone, z).
struct ZoneRecord {
  ZoneId id;
  geo::GeoZone zone;                      ///< z = (lat, lon, r)
  crypto::RsaPublicKey owner_key;         ///< for accusations & ownership
  std::string description;
  /// Section VII-B1 extension: when set, the zone is a cylinder from the
  /// ground to this altitude and altitude-aware PoAs can prove alibi by
  /// overflying it; unset means unbounded (the paper's 2D model).
  std::optional<double> ceiling_m;
};

/// A rectangular navigation area for zone queries: two opposite corners
/// (x1, y1), (x2, y2) in geodetic degrees, as in protocol step 2.
struct QueryRect {
  geo::GeoPoint corner1;
  geo::GeoPoint corner2;

  static constexpr auto fields(auto& m) { return std::tie(m.corner1, m.corner2); }

  bool contains(geo::GeoPoint p) const {
    const double lat_lo = std::min(corner1.lat_deg, corner2.lat_deg);
    const double lat_hi = std::max(corner1.lat_deg, corner2.lat_deg);
    const double lon_lo = std::min(corner1.lon_deg, corner2.lon_deg);
    const double lon_hi = std::max(corner1.lon_deg, corner2.lon_deg);
    return p.lat_deg >= lat_lo && p.lat_deg <= lat_hi && p.lon_deg >= lon_lo &&
           p.lon_deg <= lon_hi;
  }
};

/// Protocol constants.
struct ProtocolParams {
  /// FAA speed cap used in the possible-traveling-range computation.
  double vmax_mps = geo::kFaaMaxSpeedMps;
  /// How long the Auditor retains verified PoAs for later accusations
  /// ("a couple of days", Section IV-C2).
  double poa_retention_seconds = 3.0 * 24 * 3600;
  /// Zone-query nonces seen within this window are rejected as replays.
  std::size_t nonce_cache_size = 4096;
  /// Accepted PoA submissions remembered (by proof digest) for
  /// content-based dedup of retried/duplicated bus deliveries: a retry
  /// storm re-sends byte-identical proofs and must not double-retain.
  std::size_t submit_dedup_cache_size = 4096;
  /// Thin plaintext per-sample PoAs to their minimal sufficient witness
  /// before retention (Section IV-C3's monotonicity, applied offline).
  bool thin_before_retention = false;
  /// Lock stripes for the Auditor's per-drone state (registration records,
  /// retained PoAs). Affects contention only — verdicts and audit logs are
  /// byte-identical for any value. Must be >= 1.
  std::size_t auditor_shards = 8;
  /// --- TESLA broadcast mode (hash-chain PoA, ROADMAP item 2) ---
  /// Receive-time authority for the TESLA disclosure-delay security
  /// condition: a sample for interval i is admitted only while
  /// clock->now() < t0 + (i + d) * tau, i.e. before its key could have
  /// been disclosed. Null disables the arrival-time check (offline
  /// replay of recorded flights; chain + tag verification still apply).
  const obs::Clock* clock = nullptr;
  /// Upper bound on announced chain lengths (bounds verifier hash work
  /// and frontier walks per session).
  std::uint32_t tesla_max_chain_length = 1u << 20;
  /// Upper bound on announced disclosure delays d.
  std::uint32_t tesla_max_disclosure_delay = 4096;
  /// Concurrent TESLA sessions the Auditor will track.
  std::size_t tesla_max_sessions = 4096;
  /// Tagged-but-unsettled samples buffered per session; beyond this,
  /// new samples are rejected (memory bound against flooding).
  std::size_t tesla_max_buffered_samples = 65536;
  /// Tolerated receiver/drone clock skew (seconds) in the arrival-time
  /// safety check. 0 in deterministic simulations (one shared clock).
  double tesla_clock_skew_s = 0.0;
  /// Registry the Auditor (and its ingestion pipeline) publishes counters
  /// to. Null means the process-wide obs::MetricsRegistry::global().
  /// Deterministic scenarios that compare snapshots byte-for-byte pass a
  /// scenario-local registry here.
  obs::MetricsRegistry* metrics = nullptr;
};

}  // namespace alidrone::core

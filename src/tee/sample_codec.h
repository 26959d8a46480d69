// Canonical wire encoding of a GPS sample — the exact bytes the TEE signs.
//
// Signature verification at the Auditor must reproduce the signed bytes
// bit-for-bit, so samples cross the protocol as fixed-point integers:
//   int64 latitude  in nanodegrees   (exact for |lat| <= 90)
//   int64 longitude in nanodegrees
//   int64 altitude  in millimeters
//   int64 timestamp in microseconds since the Unix epoch
// all big-endian, 32 bytes total. Nanodegree resolution (~0.1 mm at the
// equator) is far below GPS accuracy, and every value round-trips exactly
// through double <-> int64 at these magnitudes.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "crypto/bytes.h"
#include "gps/fix.h"

namespace alidrone::tee {

inline constexpr std::size_t kEncodedSampleSize = 32;

/// Encode a fix into the canonical 32-byte representation.
crypto::Bytes encode_sample(const gps::GpsFix& fix);

/// Decode; nullopt when the buffer is not exactly 32 bytes.
std::optional<gps::GpsFix> decode_sample(std::span<const std::uint8_t> data);

/// The codec's exact double -> int64 microsecond conversion, exposed so
/// the TESLA interval arithmetic (TA and Auditor alike) works on the same
/// integers that appear inside canonical sample bytes.
std::int64_t time_us_of(double unix_time);

/// µs timestamp of a canonical 32-byte sample (bytes 24..32, big-endian);
/// nullopt when the buffer is not exactly 32 bytes.
std::optional<std::int64_t> sample_time_us(std::span<const std::uint8_t> data);

// --- TESLA chain commitment -------------------------------------------
//
// The one RSA signature of a TESLA-mode flight covers this canonical
// payload. Both worlds must byte-agree on it: the TA builds + signs it,
// the Auditor re-builds it from the announce message and verifies with
// T+. Layout ("ATSL1" magic, all integers big-endian):
//   magic[5] | anchor[32] | chain_length u32 | disclosure_delay u32 |
//   interval_us u64 | t0_us i64
inline constexpr std::size_t kTeslaCommitPayloadSize = 5 + 32 + 4 + 4 + 8 + 8;

struct TeslaCommit {
  std::array<std::uint8_t, 32> anchor{};  ///< K_0
  std::uint32_t chain_length = 0;         ///< N: usable keys K_1..K_N
  std::uint32_t disclosure_delay = 0;     ///< d intervals before K_i is public
  std::uint64_t interval_us = 0;          ///< sampling interval tau
  std::int64_t t0_us = 0;                 ///< flight epoch (first-fix time)
};

crypto::Bytes tesla_commit_payload(const TeslaCommit& commit);
std::optional<TeslaCommit> parse_tesla_commit(std::span<const std::uint8_t> data);

// --- TESLA-PoA frontier -----------------------------------------------
//
// A finalized kTeslaChain proof carries the highest chain element the
// Auditor verified, so the proof re-verifies offline from the commitment
// alone. Layout: index u64 (big-endian) | K_index[32].
inline constexpr std::size_t kTeslaFrontierSize = 8 + 32;

struct TeslaFrontier {
  std::uint64_t index = 0;
  std::array<std::uint8_t, 32> key{};  ///< K_index
};

crypto::Bytes tesla_frontier_payload(const TeslaFrontier& frontier);
/// nullopt when the buffer is not exactly kTeslaFrontierSize bytes.
std::optional<TeslaFrontier> parse_tesla_frontier(
    std::span<const std::uint8_t> data);

/// Interval index of timestamp t against flight epoch t0: intervals are
/// 1-based (i = 1 covers [t0, t0 + tau)); returns 0 for t < t0 (clock
/// reversal — never a valid key index).
inline std::uint64_t tesla_interval(std::int64_t t_us, std::int64_t t0_us,
                                    std::uint64_t interval_us) {
  if (t_us < t0_us || interval_us == 0) return 0;
  return 1 + static_cast<std::uint64_t>(t_us - t0_us) / interval_us;
}

}  // namespace alidrone::tee

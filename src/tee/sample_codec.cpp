#include "tee/sample_codec.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace alidrone::tee {

namespace {

void put_i64(crypto::Bytes& out, std::int64_t v) {
  crypto::put_be(out, static_cast<std::uint64_t>(v));
}

std::int64_t get_i64(std::span<const std::uint8_t> data, std::size_t offset) {
  return static_cast<std::int64_t>(
      crypto::get_be<std::uint64_t>(data.data() + offset));
}

std::int64_t scale(double v, double factor) {
  return static_cast<std::int64_t>(std::llround(v * factor));
}

}  // namespace

crypto::Bytes encode_sample(const gps::GpsFix& fix) {
  crypto::Bytes out;
  out.reserve(kEncodedSampleSize);
  put_i64(out, scale(fix.position.lat_deg, 1e9));
  put_i64(out, scale(fix.position.lon_deg, 1e9));
  put_i64(out, scale(fix.altitude_m, 1e3));
  put_i64(out, scale(fix.unix_time, 1e6));
  return out;
}

std::optional<gps::GpsFix> decode_sample(std::span<const std::uint8_t> data) {
  if (data.size() != kEncodedSampleSize) return std::nullopt;

  const std::int64_t lat_e9 = get_i64(data, 0);
  const std::int64_t lon_e9 = get_i64(data, 8);
  const std::int64_t alt_mm = get_i64(data, 16);
  const std::int64_t time_us = get_i64(data, 24);

  // Physical plausibility doubles as overflow protection: inside these
  // bounds every value is far below 2^53, so the int64 <-> double round
  // trip is exact and signatures re-verify bit-for-bit.
  if (lat_e9 < -90'000'000'000LL || lat_e9 > 90'000'000'000LL) return std::nullopt;
  if (lon_e9 < -180'000'000'000LL || lon_e9 > 180'000'000'000LL) return std::nullopt;
  if (alt_mm < -100'000'000LL || alt_mm > 100'000'000LL) return std::nullopt;  // +-100 km
  if (time_us < 0 || time_us > 4'102'444'800'000'000LL) return std::nullopt;  // <= year 2100

  gps::GpsFix fix;
  fix.position.lat_deg = static_cast<double>(lat_e9) / 1e9;
  fix.position.lon_deg = static_cast<double>(lon_e9) / 1e9;
  fix.altitude_m = static_cast<double>(alt_mm) / 1e3;
  fix.unix_time = static_cast<double>(time_us) / 1e6;
  return fix;
}

std::int64_t time_us_of(double unix_time) { return scale(unix_time, 1e6); }

std::optional<std::int64_t> sample_time_us(std::span<const std::uint8_t> data) {
  if (data.size() != kEncodedSampleSize) return std::nullopt;
  return get_i64(data, 24);
}

namespace {

constexpr std::array<std::uint8_t, 5> kTeslaMagic = {'A', 'T', 'S', 'L', '1'};

}  // namespace

crypto::Bytes tesla_commit_payload(const TeslaCommit& commit) {
  crypto::Bytes out;
  out.reserve(kTeslaCommitPayloadSize);
  out.insert(out.end(), kTeslaMagic.begin(), kTeslaMagic.end());
  out.insert(out.end(), commit.anchor.begin(), commit.anchor.end());
  crypto::put_be(out, commit.chain_length);
  crypto::put_be(out, commit.disclosure_delay);
  crypto::put_be(out, commit.interval_us);
  put_i64(out, commit.t0_us);
  return out;
}

std::optional<TeslaCommit> parse_tesla_commit(std::span<const std::uint8_t> data) {
  if (data.size() != kTeslaCommitPayloadSize) return std::nullopt;
  for (std::size_t i = 0; i < kTeslaMagic.size(); ++i) {
    if (data[i] != kTeslaMagic[i]) return std::nullopt;
  }
  TeslaCommit commit;
  std::copy_n(data.begin() + 5, commit.anchor.size(), commit.anchor.begin());
  commit.chain_length = crypto::get_be<std::uint32_t>(data.data() + 37);
  commit.disclosure_delay = crypto::get_be<std::uint32_t>(data.data() + 41);
  commit.interval_us = crypto::get_be<std::uint64_t>(data.data() + 45);
  commit.t0_us = get_i64(data, 53);
  if (commit.chain_length == 0 || commit.interval_us == 0) return std::nullopt;
  return commit;
}

crypto::Bytes tesla_frontier_payload(const TeslaFrontier& frontier) {
  crypto::Bytes out;
  out.reserve(kTeslaFrontierSize);
  crypto::put_be(out, frontier.index);
  out.insert(out.end(), frontier.key.begin(), frontier.key.end());
  return out;
}

std::optional<TeslaFrontier> parse_tesla_frontier(
    std::span<const std::uint8_t> data) {
  if (data.size() != kTeslaFrontierSize) return std::nullopt;
  TeslaFrontier frontier;
  frontier.index = crypto::get_be<std::uint64_t>(data.data());
  std::copy_n(data.begin() + 8, frontier.key.size(), frontier.key.begin());
  return frontier;
}

}  // namespace alidrone::tee

#include "core/attacks.h"

#include <algorithm>

#include "tee/sample_codec.h"

namespace alidrone::core::attacks {

ProofOfAlibi forge_trace(const DroneId& drone_id,
                         const std::vector<gps::GpsFix>& fake_route,
                         crypto::HashAlgorithm hash, std::size_t key_bits,
                         crypto::RandomSource& rng) {
  const crypto::RsaKeyPair attacker_key = crypto::generate_rsa_keypair(key_bits, rng);

  ProofOfAlibi poa;
  poa.drone_id = drone_id;
  poa.mode = AuthMode::kRsaPerSample;
  poa.hash = hash;
  poa.samples.reserve(fake_route.size());
  for (const gps::GpsFix& fix : fake_route) {
    const crypto::Bytes sample = tee::encode_sample(fix);
    crypto::Bytes signature = crypto::rsa_sign(attacker_key.priv, sample, hash);
    poa.samples.push_back({sample, std::move(signature)});
  }
  return poa;
}

ProofOfAlibi relay(const ProofOfAlibi& other, const DroneId& my_drone_id) {
  ProofOfAlibi poa = other;
  poa.drone_id = my_drone_id;
  return poa;
}

ProofOfAlibi tamper_position(const ProofOfAlibi& poa, std::size_t index,
                             geo::GeoPoint new_position) {
  ProofOfAlibi out = poa;
  if (index >= out.samples.size()) return out;
  auto fix = out.samples[index].fix();
  if (!fix) return out;
  fix->position = new_position;
  out.samples[index].sample = tee::encode_sample(*fix);  // signature untouched
  return out;
}

ProofOfAlibi tamper_time(const ProofOfAlibi& poa, std::size_t index,
                         double delta_seconds) {
  ProofOfAlibi out = poa;
  if (index >= out.samples.size()) return out;
  auto fix = out.samples[index].fix();
  if (!fix) return out;
  fix->unix_time += delta_seconds;
  out.samples[index].sample = tee::encode_sample(*fix);
  return out;
}

ProofOfAlibi drop_samples(const ProofOfAlibi& poa, std::size_t from, std::size_t to) {
  ProofOfAlibi out = poa;
  if (from >= to || from >= out.samples.size()) return out;
  const std::size_t end = std::min(to, out.samples.size());
  out.samples.erase(out.samples.begin() + static_cast<std::ptrdiff_t>(from),
                    out.samples.begin() + static_cast<std::ptrdiff_t>(end));
  return out;
}

gps::PositionSource spoofed_drift_source(gps::PositionSource truth,
                                         const geo::LocalFrame& frame,
                                         geo::Vec2 target_local,
                                         double start_time, double drift_mps) {
  return [truth = std::move(truth), frame, target_local, start_time,
          drift_mps](double unix_time) {
    gps::GpsFix fix = truth(unix_time);
    if (unix_time <= start_time || drift_mps <= 0.0) return fix;
    const geo::Vec2 honest = frame.to_local(fix.position);
    const geo::Vec2 to_target = target_local - honest;
    const double gap = to_target.norm();
    if (gap <= 1e-9) return fix;
    // The spoofed offset budget grows linearly from onset; once it covers
    // the remaining gap the drone reads as parked on the target.
    const double budget = drift_mps * (unix_time - start_time);
    const double frac = std::min(1.0, budget / gap);
    fix.position = frame.to_geo(honest + to_target * frac);
    return fix;
  };
}

ProofOfAlibi thinning_abuse(const ProofOfAlibi& poa, std::size_t keep) {
  ProofOfAlibi out = poa;
  const std::size_t n = out.samples.size();
  if (keep < 2) keep = 2;
  if (n <= keep) return out;
  std::vector<SignedSample> kept;
  kept.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    // Evenly spaced over [0, n-1]; i=0 keeps the first sample and
    // i=keep-1 the last, anchoring the claimed flight window.
    kept.push_back(out.samples[(i * (n - 1)) / (keep - 1)]);
  }
  out.samples = std::move(kept);
  return out;
}

namespace {

/// Pin a fix's timestamp to the midpoint of `interval` so the claimed
/// interval and the embedded canonical time agree.
gps::GpsFix pin_to_interval(gps::GpsFix fix, const tee::TeslaCommit& commit,
                            std::uint64_t interval) {
  const std::int64_t t_us =
      commit.t0_us +
      static_cast<std::int64_t>((interval - 1) * commit.interval_us +
                                commit.interval_us / 2);
  fix.unix_time = static_cast<double>(t_us) * 1e-6;
  return fix;
}

}  // namespace

TeslaSampleBroadcast tesla_forge_tag(const DroneId& drone_id,
                                     std::uint64_t session_nonce,
                                     std::uint64_t interval,
                                     const tee::TeslaCommit& commit,
                                     gps::GpsFix fake_fix,
                                     crypto::RandomSource& rng) {
  TeslaSampleBroadcast out;
  out.drone_id = drone_id;
  out.session_nonce = session_nonce;
  out.interval = interval;
  out.sample = tee::encode_sample(pin_to_interval(fake_fix, commit, interval));
  out.tag = rng.bytes(crypto::kChainKeySize);
  return out;
}

TeslaSampleBroadcast tesla_late_sample(const DroneId& drone_id,
                                       std::uint64_t session_nonce,
                                       const crypto::ChainKey& disclosed_key,
                                       std::uint64_t disclosed_index,
                                       std::uint64_t interval,
                                       const tee::TeslaCommit& commit,
                                       gps::GpsFix fake_fix) {
  TeslaSampleBroadcast out;
  out.drone_id = drone_id;
  out.session_nonce = session_nonce;
  out.interval = interval;
  out.sample = tee::encode_sample(pin_to_interval(fake_fix, commit, interval));
  // The eavesdropper's derivation: K_interval from the public K_index.
  crypto::ChainKey key = disclosed_key;
  for (std::uint64_t at = disclosed_index; at > interval; --at) {
    key = crypto::chain_step(key);
  }
  const crypto::ChainKey tag =
      crypto::tesla_tag(crypto::tesla_tag_key(key), interval, out.sample);
  out.tag.assign(tag.begin(), tag.end());
  return out;
}

TeslaDiscloseRequest tesla_forge_disclosure(const DroneId& drone_id,
                                            std::uint64_t session_nonce,
                                            std::uint64_t index,
                                            crypto::RandomSource& rng) {
  TeslaDiscloseRequest out;
  out.drone_id = drone_id;
  out.session_nonce = session_nonce;
  out.index = index;
  out.key = rng.bytes(crypto::kChainKeySize);
  return out;
}

}  // namespace alidrone::core::attacks

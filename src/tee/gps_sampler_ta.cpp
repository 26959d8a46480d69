#include "tee/gps_sampler_ta.h"

#include <algorithm>
#include <vector>

#include "crypto/hmac.h"
#include "tee/sample_codec.h"

namespace alidrone::tee {

GpsSamplerTA::GpsSamplerTA(const KeyVault& vault, gps::GpsDriver& driver,
                           SecureStorage& storage, crypto::RandomSource& rng,
                           Config config)
    : vault_(vault),
      driver_(driver),
      storage_(storage),
      rng_(rng),
      config_(config),
      plausibility_(config.plausibility) {}

void GpsSamplerTA::set_cost_meter(resource::CpuAccountant* cpu,
                                  resource::CostProfile profile) {
  cpu_ = cpu;
  cost_profile_ = profile;
}

void GpsSamplerTA::charge(resource::Op op) const {
  if (cpu_ != nullptr) cpu_->charge(op, cost_profile_);
}

void GpsSamplerTA::charge_sign() const {
  charge(vault_.key_bits() >= 2048 ? resource::Op::kRsaSign2048
                                   : resource::Op::kRsaSign1024);
}

std::string GpsSamplerTA::batch_key(SessionId session) const {
  return "poa.batch." + std::to_string(session);
}

bool GpsSamplerTA::environment_trusted(const gps::GpsFix& fix) {
  if (!config_.enable_plausibility_check) return true;
  return plausibility_.observe(fix);
}

void GpsSamplerTA::on_session_close(SessionId session) {
  storage_.erase(batch_key(session));
  sessions_.erase(session);
}

InvokeResult GpsSamplerTA::invoke(SessionId session, std::uint32_t command,
                                  std::span<const crypto::Bytes> params) {
  switch (static_cast<SamplerCommand>(command)) {
    case SamplerCommand::kGetGpsAuth:
      return get_gps_auth();
    case SamplerCommand::kGetGpsAuthCoalesced:
      return get_gps_auth_coalesced(params);
    case SamplerCommand::kGetPublicKey:
      return get_public_key();
    case SamplerCommand::kEstablishHmacKey:
      return establish_hmac_key(session, params);
    case SamplerCommand::kGetGpsHmac:
      return get_gps_hmac(session);
    case SamplerCommand::kBatchBegin:
      return batch_begin(session);
    case SamplerCommand::kBatchAppend:
      return batch_append(session);
    case SamplerCommand::kBatchFinalize:
      return batch_finalize(session);
    case SamplerCommand::kTeslaBegin:
      return tesla_begin(session, params);
    case SamplerCommand::kGetGpsTesla:
      return get_gps_tesla(session);
    case SamplerCommand::kTeslaDisclose:
      return tesla_disclose(session, params);
  }
  return {TeeStatus::kBadCommand, {}};
}

InvokeResult GpsSamplerTA::get_gps_auth() {
  const auto fix = driver_.get_gps();
  if (!fix || !fix->valid) return {TeeStatus::kNotReady, {}};
  if (!environment_trusted(*fix)) return {TeeStatus::kAccessDenied, {}};

  charge(resource::Op::kGpsReadParse);
  const crypto::Bytes sample = encode_sample(*fix);
  charge_sign();
  // Blinded (the signed bytes are attacker-influenced, UART-fed GPS data),
  // through the vault's cached signing plan.
  crypto::Bytes signature = vault_.sign_fast(sample, config_.hash, rng_);
  return {TeeStatus::kSuccess, {sample, std::move(signature)}};
}

InvokeResult GpsSamplerTA::get_gps_auth_coalesced(
    std::span<const crypto::Bytes> params) {
  // Optional param 0: max samples to sign this invoke (4 bytes BE).
  std::size_t limit = config_.max_coalesced_samples;
  if (!params.empty()) {
    if (params[0].size() != 4) return {TeeStatus::kBadParameters, {}};
    const auto requested = crypto::get_be<std::uint32_t>(params[0].data());
    if (requested == 0) return {TeeStatus::kBadParameters, {}};
    limit = std::min<std::size_t>(limit, requested);
  }

  const std::vector<gps::GpsFix> fixes = driver_.take_pending(limit);
  if (fixes.empty()) return {TeeStatus::kNotReady, {}};

  // All signing happens inside this single invoke: the monitor charged
  // one world-switch pair on entry, so N samples amortize the SMC cost —
  // only the per-sample read/parse and sign work below scales with N.
  InvokeResult result{TeeStatus::kSuccess, {}};
  result.outputs.reserve(2 * fixes.size());
  for (const gps::GpsFix& fix : fixes) {
    if (!fix.valid) continue;
    // The plausibility monitor observes every fix (its jump/clock checks
    // need the full stream); a distrusted environment aborts the batch.
    if (!environment_trusted(fix)) return {TeeStatus::kAccessDenied, {}};
    charge(resource::Op::kGpsReadParse);
    crypto::Bytes sample = encode_sample(fix);
    charge_sign();
    crypto::Bytes signature = vault_.sign_fast(sample, config_.hash, rng_);
    result.outputs.push_back(std::move(sample));
    result.outputs.push_back(std::move(signature));
  }
  if (result.outputs.empty()) return {TeeStatus::kNotReady, {}};
  return result;
}

InvokeResult GpsSamplerTA::get_public_key() const {
  const crypto::RsaPublicKey& pub = vault_.verification_key();
  return {TeeStatus::kSuccess, {pub.n.to_bytes(), pub.e.to_bytes()}};
}

InvokeResult GpsSamplerTA::establish_hmac_key(SessionId session,
                                              std::span<const crypto::Bytes> params) {
  if (params.size() != 2 || params[0].empty() || params[1].empty()) {
    return {TeeStatus::kBadParameters, {}};
  }
  crypto::RsaPublicKey auditor_key;
  auditor_key.n = crypto::BigInt::from_bytes(params[0]);
  auditor_key.e = crypto::BigInt::from_bytes(params[1]);
  if (auditor_key.n.bit_length() < 512) return {TeeStatus::kBadParameters, {}};

  // Fresh session key, encrypted so only the Auditor can read it, and
  // signed with T- so the Auditor knows it came from this TEE.
  SessionState& st = state(session);
  st.hmac_key = rng_.bytes(32);
  crypto::Bytes encrypted;
  try {
    encrypted = crypto::rsa_encrypt(auditor_key, st.hmac_key, rng_);
  } catch (const std::length_error&) {
    st.hmac_key.clear();
    return {TeeStatus::kBadParameters, {}};
  }
  charge_sign();
  crypto::Bytes signature = vault_.sign(encrypted, config_.hash);
  return {TeeStatus::kSuccess, {encrypted, std::move(signature)}};
}

InvokeResult GpsSamplerTA::get_gps_hmac(SessionId session) {
  SessionState& st = state(session);
  if (st.hmac_key.empty()) return {TeeStatus::kNotReady, {}};
  const auto fix = driver_.get_gps();
  if (!fix || !fix->valid) return {TeeStatus::kNotReady, {}};
  if (!environment_trusted(*fix)) return {TeeStatus::kAccessDenied, {}};

  charge(resource::Op::kGpsReadParse);
  const crypto::Bytes sample = encode_sample(*fix);
  charge(resource::Op::kHmacSign);
  const auto tag = crypto::HmacSha256::mac(st.hmac_key, sample);
  return {TeeStatus::kSuccess, {sample, crypto::Bytes(tag.begin(), tag.end())}};
}

InvokeResult GpsSamplerTA::batch_begin(SessionId session) {
  SessionState& st = state(session);
  storage_.erase(batch_key(session));
  if (!storage_.put(batch_key(session), {})) return {TeeStatus::kOutOfResources, {}};
  st.batch_active = true;
  st.batch_count = 0;
  return {TeeStatus::kSuccess, {}};
}

InvokeResult GpsSamplerTA::batch_append(SessionId session) {
  SessionState& st = state(session);
  if (!st.batch_active) return {TeeStatus::kNotReady, {}};
  if (st.batch_count >= config_.batch_capacity_samples) {
    return {TeeStatus::kOutOfResources, {}};
  }
  const auto fix = driver_.get_gps();
  if (!fix || !fix->valid) return {TeeStatus::kNotReady, {}};
  if (!environment_trusted(*fix)) return {TeeStatus::kAccessDenied, {}};

  charge(resource::Op::kGpsReadParse);
  const crypto::Bytes sample = encode_sample(*fix);
  crypto::Bytes batch = storage_.get(batch_key(session)).value_or(crypto::Bytes{});
  batch.insert(batch.end(), sample.begin(), sample.end());
  if (!storage_.put(batch_key(session), std::move(batch))) {
    return {TeeStatus::kOutOfResources, {}};
  }
  ++st.batch_count;
  return {TeeStatus::kSuccess, {sample}};
}

InvokeResult GpsSamplerTA::batch_finalize(SessionId session) {
  SessionState& st = state(session);
  if (!st.batch_active) return {TeeStatus::kNotReady, {}};
  const auto batch = storage_.get(batch_key(session));
  if (!batch || batch->empty()) return {TeeStatus::kNotReady, {}};

  charge_sign();
  crypto::Bytes signature = vault_.sign_fast(*batch, config_.hash, rng_);
  st.batch_active = false;
  st.batch_count = 0;
  storage_.erase(batch_key(session));
  return {TeeStatus::kSuccess, {*batch, std::move(signature)}};
}

InvokeResult GpsSamplerTA::tesla_begin(SessionId session,
                                       std::span<const crypto::Bytes> params) {
  if (params.size() != 3 || params[0].size() != 4 || params[1].size() != 4 ||
      params[2].size() != 8) {
    return {TeeStatus::kBadParameters, {}};
  }
  const auto chain_length = crypto::get_be<std::uint32_t>(params[0].data());
  const auto delay = crypto::get_be<std::uint32_t>(params[1].data());
  const auto interval_us = crypto::get_be<std::uint64_t>(params[2].data());
  if (chain_length == 0 || chain_length > config_.tesla_max_chain_length ||
      delay == 0 || interval_us == 0) {
    return {TeeStatus::kBadParameters, {}};
  }
  // The flight epoch is the TA's own GPS time base; refusing to start
  // without a fix keeps both halves of the disclosure schedule (here and
  // at the Auditor) anchored to the same clock.
  const auto fix = driver_.get_gps();
  if (!fix || !fix->valid) return {TeeStatus::kNotReady, {}};
  if (!environment_trusted(*fix)) return {TeeStatus::kAccessDenied, {}};

  SessionState& st = state(session);
  crypto::ChainKey seed{};
  rng_.fill(seed);
  st.tesla = std::make_unique<crypto::TeslaTagger>(seed, chain_length);
  st.tesla_t0_us = time_us_of(fix->unix_time);
  st.tesla_interval_us = interval_us;
  st.tesla_delay = delay;

  TeslaCommit commit;
  commit.anchor = st.tesla->chain().anchor();
  commit.chain_length = chain_length;
  commit.disclosure_delay = delay;
  commit.interval_us = interval_us;
  commit.t0_us = st.tesla_t0_us;
  const crypto::Bytes payload = tesla_commit_payload(commit);
  charge_sign();
  // The one RSA private operation of the whole flight: every subsequent
  // sample costs one HMAC. Blinded + planned exactly like per-sample mode.
  crypto::Bytes signature = vault_.sign_fast(payload, config_.hash, rng_);
  return {TeeStatus::kSuccess, {payload, std::move(signature)}};
}

InvokeResult GpsSamplerTA::get_gps_tesla(SessionId session) {
  SessionState& st = state(session);
  if (st.tesla == nullptr) return {TeeStatus::kNotReady, {}};
  const auto fix = driver_.get_gps();
  if (!fix || !fix->valid) return {TeeStatus::kNotReady, {}};
  if (!environment_trusted(*fix)) return {TeeStatus::kAccessDenied, {}};

  charge(resource::Op::kGpsReadParse);
  const crypto::Bytes sample = encode_sample(*fix);
  const auto t_us = sample_time_us(sample);
  const std::uint64_t interval =
      tesla_interval(t_us.value_or(-1), st.tesla_t0_us, st.tesla_interval_us);
  if (interval == 0) return {TeeStatus::kNotReady, {}};  // clock reversal
  if (interval > st.tesla->chain().length()) {
    return {TeeStatus::kOutOfResources, {}};  // chain exhausted
  }
  charge(resource::Op::kHmacSign);
  const crypto::ChainKey tag = st.tesla->tag(interval, sample);
  return {TeeStatus::kSuccess,
          {sample, crypto::Bytes(tag.begin(), tag.end()),
           crypto::be_bytes(interval)}};
}

InvokeResult GpsSamplerTA::tesla_disclose(SessionId session,
                                          std::span<const crypto::Bytes> params) {
  SessionState& st = state(session);
  if (st.tesla == nullptr) return {TeeStatus::kNotReady, {}};
  if (params.size() != 1 || params[0].size() != 8) {
    return {TeeStatus::kBadParameters, {}};
  }
  const auto index = crypto::get_be<std::uint64_t>(params[0].data());
  if (index == 0 || index > st.tesla->chain().length()) {
    return {TeeStatus::kBadParameters, {}};
  }
  // Secure-world half of the TESLA security condition: K_index leaves the
  // TEE only after its scheduled disclosure time on the TA's GPS clock.
  const auto fix = driver_.get_gps();
  if (!fix || !fix->valid) return {TeeStatus::kNotReady, {}};
  const std::int64_t now_us = time_us_of(fix->unix_time);
  const std::int64_t release_us =
      st.tesla_t0_us +
      static_cast<std::int64_t>((index + st.tesla_delay) * st.tesla_interval_us);
  if (now_us < release_us) return {TeeStatus::kAccessDenied, {}};

  charge(resource::Op::kHmacSign);
  const crypto::ChainKey key = st.tesla->chain().key(index);
  return {TeeStatus::kSuccess, {crypto::Bytes(key.begin(), key.end())}};
}

}  // namespace alidrone::tee

#include "core/tesla.h"

#include <algorithm>
#include <cmath>

#include "core/flight_actor.h"
#include "obs/clock.h"
#include "tee/gps_sampler_ta.h"

namespace alidrone::core {

namespace {

std::uint64_t now_us_of(const obs::Clock& clock) {
  return static_cast<std::uint64_t>(std::llround(clock.now() * 1e6));
}

}  // namespace

TeslaVerifier::TeslaVerifier(const ProtocolParams& params,
                             obs::MetricsRegistry& registry,
                             const std::string& scope)
    : params_(params) {
  const std::string prefix = scope + ".tesla.";
  sessions_opened_ = &registry.counter(prefix + "sessions_opened");
  sessions_rejected_ = &registry.counter(prefix + "sessions_rejected");
  samples_buffered_ = &registry.counter(prefix + "samples_buffered");
  samples_accepted_ = &registry.counter(prefix + "samples_accepted");
  samples_rejected_ = &registry.counter(prefix + "samples_rejected");
  keys_accepted_ = &registry.counter(prefix + "keys_accepted");
  keys_rejected_ = &registry.counter(prefix + "keys_rejected");
  finalized_ = &registry.counter(prefix + "finalized");
}

TeslaAck TeslaVerifier::announce(const TeslaAnnounceRequest& req,
                                 const tee::TeslaCommit& commit) {
  std::lock_guard<std::mutex> lock(mu_);
  if (commit.chain_length == 0 ||
      commit.chain_length > params_.tesla_max_chain_length) {
    sessions_rejected_->increment();
    return {false, "chain length out of range"};
  }
  if (commit.disclosure_delay == 0 ||
      commit.disclosure_delay > params_.tesla_max_disclosure_delay) {
    sessions_rejected_->increment();
    return {false, "disclosure delay out of range"};
  }
  const auto key = std::make_pair(req.drone_id, req.session_nonce);
  const auto it = sessions_.find(key);
  if (it != sessions_.end()) {
    // Lossy links re-send announces; byte-identical ones are idempotent.
    // A different commitment under the same session is a forked chain.
    if (it->second.commit_payload == req.commit_payload &&
        it->second.commit_signature == req.commit_signature) {
      return {true, "duplicate announce"};
    }
    sessions_rejected_->increment();
    return {false, "forked chain commitment"};
  }
  if (sessions_.size() >= params_.tesla_max_sessions) {
    sessions_rejected_->increment();
    return {false, "session table full"};
  }
  Session session{commit,
                  req.hash,
                  req.commit_payload,
                  req.commit_signature,
                  crypto::ChainFrontier(commit.anchor, commit.chain_length),
                  {},
                  0,
                  {},
                  0};
  sessions_.emplace(key, std::move(session));
  sessions_opened_->increment();
  return {true, "session open"};
}

TeslaAck TeslaVerifier::sample(const TeslaSampleBroadcastView& s) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it =
      sessions_.find(std::make_pair(DroneId(s.drone_id), s.session_nonce));
  if (it == sessions_.end()) {
    samples_rejected_->increment();
    return {false, "unknown tesla session"};
  }
  Session& session = it->second;
  if (s.sample.size() != tee::kEncodedSampleSize || s.tag.size() != 32) {
    samples_rejected_->increment();
    return {false, "malformed sample or tag"};
  }
  if (s.interval == 0 || s.interval > session.commit.chain_length) {
    samples_rejected_->increment();
    return {false, "interval out of range"};
  }
  // The claimed interval must match the canonical timestamp inside the
  // sample bytes — offline re-verification derives the key index from the
  // timestamp, so an inconsistent pair could never settle anyway.
  const auto t_us = tee::sample_time_us(s.sample);
  if (!t_us || tee::tesla_interval(*t_us, session.commit.t0_us,
                                   session.commit.interval_us) != s.interval) {
    samples_rejected_->increment();
    return {false, "interval does not match sample time"};
  }
  // A key whose disclosure the frontier has already verified is public —
  // any tag under it could be forged by anyone who watched the channel.
  if (s.interval <= session.frontier.frontier_index()) {
    samples_rejected_->increment();
    return {false, "late: key already disclosed"};
  }
  // The TESLA security condition against the receive-time authority: the
  // sample must arrive before its key's scheduled disclosure time.
  if (params_.clock != nullptr) {
    const std::uint64_t now_us = now_us_of(*params_.clock);
    const std::uint64_t release_us =
        static_cast<std::uint64_t>(session.commit.t0_us) +
        (s.interval + session.commit.disclosure_delay) *
            session.commit.interval_us;
    const std::uint64_t skew_us =
        static_cast<std::uint64_t>(std::llround(params_.tesla_clock_skew_s * 1e6));
    if (now_us >= release_us + skew_us) {
      samples_rejected_->increment();
      return {false, "late: past disclosure deadline"};
    }
  }
  if (session.pending_count >= params_.tesla_max_buffered_samples) {
    samples_rejected_->increment();
    return {false, "sample buffer full"};
  }
  Buffered buffered;
  buffered.t_us = *t_us;
  buffered.seq = session.next_seq++;
  buffered.sample.assign(s.sample.begin(), s.sample.end());
  buffered.tag.assign(s.tag.begin(), s.tag.end());
  session.pending[s.interval].push_back(std::move(buffered));
  ++session.pending_count;
  samples_buffered_->increment();
  return {true, "buffered"};
}

TeslaVerifier::DiscloseResult TeslaVerifier::disclose(
    const TeslaDiscloseRequestView& d) {
  std::lock_guard<std::mutex> lock(mu_);
  DiscloseResult result;
  const auto it =
      sessions_.find(std::make_pair(DroneId(d.drone_id), d.session_nonce));
  if (it == sessions_.end()) {
    keys_rejected_->increment();
    result.ack = {false, "unknown tesla session"};
    return result;
  }
  Session& session = it->second;
  if (d.key.size() != crypto::kChainKeySize) {
    keys_rejected_->increment();
    result.ack = {false, "malformed key"};
    return result;
  }
  if (d.index <= session.frontier.frontier_index()) {
    keys_rejected_->increment();
    result.ack = {false, "out-of-order disclosure (replayed index)"};
    return result;
  }
  if (d.index > session.commit.chain_length) {
    keys_rejected_->increment();
    result.ack = {false, "index out of range"};
    return result;
  }
  crypto::ChainKey key{};
  std::copy(d.key.begin(), d.key.end(), key.begin());
  if (!session.frontier.accept(d.index, key)) {
    keys_rejected_->increment();
    result.ack = {false, "key does not chain to committed anchor"};
    return result;
  }
  keys_accepted_->increment();

  // Settle every buffered interval at or below the disclosed index,
  // deriving the lower chain keys by walking down from K_index. One pass,
  // highest interval first; erase as we go. Intervals above the index
  // (a live sender is always ahead of its disclosures) stay buffered
  // until their own key is out.
  crypto::ChainKey cur = key;
  std::uint64_t at = d.index;
  auto next = session.pending.upper_bound(d.index);
  while (next != session.pending.begin()) {
    const auto last = std::prev(next);
    const std::uint64_t interval = last->first;
    while (at > interval) {
      cur = crypto::chain_step(cur);
      --at;
    }
    const crypto::HmacSha256 tag_key = crypto::tesla_tag_key(cur);
    for (Buffered& buffered : last->second) {
      const crypto::ChainKey expected =
          crypto::tesla_tag(tag_key, interval, buffered.sample);
      if (!std::equal(expected.begin(), expected.end(), buffered.tag.begin(),
                      buffered.tag.end())) {
        samples_rejected_->increment();
        result.tag_rejects.emplace_back(interval, "tag invalid");
        continue;
      }
      Accepted accepted;
      accepted.t_us = buffered.t_us;
      accepted.seq = buffered.seq;
      accepted.interval = interval;
      accepted.sample = std::move(buffered.sample);
      accepted.tag = std::move(buffered.tag);
      session.accepted.push_back(std::move(accepted));
      ++result.settled;
      samples_accepted_->increment();
    }
    session.pending_count -= last->second.size();
    next = session.pending.erase(last);
  }
  result.ack = {true,
                "settled " + std::to_string(result.settled) + " samples"};
  return result;
}

std::optional<ProofOfAlibi> TeslaVerifier::finalize(
    const DroneId& drone_id, std::uint64_t session_nonce, std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(std::make_pair(drone_id, session_nonce));
  if (it == sessions_.end()) {
    if (error != nullptr) *error = "unknown tesla session";
    return std::nullopt;
  }
  Session session = std::move(it->second);
  sessions_.erase(it);
  finalized_->increment();

  // Deterministic proof order: canonical sample time, arrival order
  // breaking ties (seq is unique per session, so this is a total order).
  std::sort(session.accepted.begin(), session.accepted.end(),
            [](const Accepted& a, const Accepted& b) {
              if (a.t_us != b.t_us) return a.t_us < b.t_us;
              return a.seq < b.seq;
            });

  ProofOfAlibi poa;
  poa.drone_id = drone_id;
  poa.mode = AuthMode::kTeslaChain;
  poa.hash = session.hash;
  poa.encrypted = false;
  poa.samples.reserve(session.accepted.size());
  for (Accepted& accepted : session.accepted) {
    poa.samples.push_back(
        SignedSample{std::move(accepted.sample), std::move(accepted.tag)});
  }
  // Self-contained offline re-verification material (see AuthMode docs):
  // the signed commitment plus the highest verified chain element.
  poa.batch_signature = std::move(session.commit_payload);
  poa.session_key_signature = std::move(session.commit_signature);
  poa.session_key_ciphertext = tee::tesla_frontier_payload(
      {session.frontier.frontier_index(), session.frontier.frontier_key()});
  return poa;
}

std::size_t TeslaVerifier::session_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

// ---- Drone side ----

TeslaFlightResult run_tesla_broadcast_flight(tee::DroneTee& tee,
                                             gps::GpsReceiverSim& receiver,
                                             SamplingPolicy& policy,
                                             net::Transport& bus,
                                             const DroneId& drone_id,
                                             const TeslaFlightConfig& config) {
  // Thin single-actor driver: the broadcast loop lives in FlightActor now
  // (one receiver tick, flush probe or finalize attempt per step), with
  // every send drained through the actor's outbox in FIFO order.
  FlightActor actor(tee, receiver, policy, drone_id, config);
  while (!actor.done()) {
    actor.step();
    actor.flush(bus);
  }
  return actor.take_tesla();
}

}  // namespace alidrone::core

#include "core/flight_actor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/messages.h"
#include "core/sufficiency.h"
#include "tee/gps_sampler_ta.h"
#include "tee/sample_codec.h"

namespace alidrone::core {

FlightActor::FlightActor(tee::DroneTee& tee, gps::GpsReceiverSim& receiver,
                         SamplingPolicy& policy, FlightConfig config)
    : tee_(tee),
      receiver_(receiver),
      policy_(policy),
      is_tesla_(false),
      config_(std::move(config)),
      state_(State::kStandardSetup) {
  wakeup_ = receiver_.next_update_time();
}

FlightActor::FlightActor(tee::DroneTee& tee, gps::GpsReceiverSim& receiver,
                         SamplingPolicy& policy, DroneId drone_id,
                         TeslaFlightConfig config)
    : tee_(tee),
      receiver_(receiver),
      policy_(policy),
      is_tesla_(true),
      tesla_config_(std::move(config)),
      drone_id_(std::move(drone_id)),
      state_(State::kTeslaInit) {
  wakeup_ = receiver_.next_update_time();
}

void FlightActor::set_submission(Submission submission) {
  submission_ = std::move(submission);
}

void FlightActor::step() {
  switch (state_) {
    case State::kStandardSetup:
      step_standard_setup();
      break;
    case State::kStandardSampling:
      standard_tick();
      advance_standard();
      break;
    case State::kSubmitting:
      enqueue_submit_attempt();
      break;
    case State::kTeslaInit:
      step_tesla_init();
      break;
    case State::kTeslaSampling:
      step_tesla_sampling();
      break;
    case State::kTeslaFlush:
      step_tesla_flush();
      break;
    case State::kTeslaFinalize:
      step_tesla_finalize();
      break;
    case State::kDone:
      break;
  }
}

void FlightActor::flush(net::Transport& bus) {
  while (!outbox_.empty()) {
    ActorSend send = std::move(outbox_.front());
    outbox_.pop_front();
    try {
      const crypto::Bytes reply = bus.request(send.endpoint, send.frame);
      if (send.on_reply) send.on_reply(&reply);
    } catch (const net::TimeoutError&) {
      if (send.on_reply) send.on_reply(nullptr);
    }
  }
}

void FlightActor::finish_now() {
  state_ = State::kDone;
  done_ = true;
}

// ---- Standard mode (the run_flight loop, one tick per step) ----

void FlightActor::step_standard_setup() {
  drop_scope_.emplace(tee_, config_.audit);
  os_entropy_.emplace();
  encryption_rng_ = config_.encryption_rng != nullptr ? config_.encryption_rng
                                                      : &*os_entropy_;
  period_ = receiver_.update_period();
  start_ = receiver_.next_update_time();

  if (config_.cpu != nullptr) {
    tee_.set_cost_meter(config_.cpu, config_.cost_profile);
  }
  cost_ = CostMeter{config_.cpu, config_.cost_profile};

  // Mode-specific flight setup.
  sample_command_ = tee::SamplerCommand::kGetGpsAuth;
  if (config_.auth_mode == AuthMode::kHmacSession) {
    if (!config_.auditor_encryption_key) {
      throw std::invalid_argument(
          "run_flight: HMAC mode needs the Auditor's public key");
    }
    const std::vector<crypto::Bytes> params{
        config_.auditor_encryption_key->n.to_bytes(),
        config_.auditor_encryption_key->e.to_bytes()};
    const tee::InvokeResult established = invoke_sampler_with_retry(
        tee_, tee::SamplerCommand::kEstablishHmacKey, params,
        &flight_.tee_retries);
    if (!established.ok() || established.outputs.size() != 2) {
      throw std::runtime_error(
          "run_flight: HMAC session key establishment failed");
    }
    flight_.session_key_ciphertext = established.outputs[0];
    flight_.session_key_signature = established.outputs[1];
    sample_command_ = tee::SamplerCommand::kGetGpsHmac;
  } else if (config_.auth_mode == AuthMode::kBatchSignature) {
    if (!invoke_sampler_with_retry(tee_, tee::SamplerCommand::kBatchBegin, {},
                                   &flight_.tee_retries)
             .ok()) {
      throw std::runtime_error("run_flight: batch begin failed");
    }
    sample_command_ = tee::SamplerCommand::kBatchAppend;
  }

  now_ = start_;
  state_ = State::kStandardSampling;
  if (now_ <= config_.end_time + 1e-9) {
    standard_tick();
    advance_standard();
  } else {
    standard_finish();
  }
}

void FlightActor::standard_tick() {
  cost_.advance_wall(period_);

  const std::vector<std::string> sentences = receiver_.advance_to(now_);
  for (const std::string& s : sentences) {
    tee_.feed_gps(s);               // hardware UART into the secure world
    normal_world_driver_.feed(s);   // the Adapter's replica feed
  }

  if (normal_world_driver_.sequence() == last_seq_) return;  // no fresh fix
  last_seq_ = normal_world_driver_.sequence();
  ++flight_.gps_updates;

  const auto fix = normal_world_driver_.get_gps();
  if (!fix || !fix->valid) return;

  // The cheap normal-world work: read + adaptive condition check.
  cost_.charge(resource::Op::kGpsReadParse);
  cost_.charge(resource::Op::kEllipseCheck);

  FlightLogEntry entry;
  entry.time = fix->unix_time;
  entry.nearest_zone_distance = nearest_zone_boundary_distance(
      config_.frame.to_local(fix->position), config_.local_zones);

  if (policy_.should_authenticate(*fix)) {
    ++flight_.authentications;
    const tee::InvokeResult auth = invoke_sampler_with_retry(
        tee_, sample_command_, {}, &flight_.tee_retries);
    const std::size_t expected_outputs =
        config_.auth_mode == AuthMode::kBatchSignature ? 1u : 2u;
    if (auth.ok() && auth.outputs.size() == expected_outputs) {
      SignedSample sample{auth.outputs[0], expected_outputs == 2
                                               ? auth.outputs[1]
                                               : crypto::Bytes{}};
      // Tell the policy what was actually authenticated (the TEE's own
      // fix, which is the same update in this wiring).
      if (const auto recorded_fix = sample.fix()) {
        policy_.on_recorded(*recorded_fix);
      }
      if (config_.auditor_encryption_key) {
        cost_.charge(config_.auditor_encryption_key->modulus_bits() >= 2048
                         ? resource::Op::kRsaEncrypt2048
                         : resource::Op::kRsaEncrypt1024);
        sample.sample = crypto::rsa_encrypt(*config_.auditor_encryption_key,
                                            sample.sample, *encryption_rng_);
      }
      cost_.charge(resource::Op::kPersistSample);
      flight_.poa_samples.push_back(std::move(sample));
      entry.recorded = true;
    } else {
      ++flight_.tee_failures;
    }
  }

  entry.cumulative_samples = flight_.poa_samples.size();
  flight_.log.push_back(entry);
}

void FlightActor::advance_standard() {
  now_ += period_;
  if (now_ <= config_.end_time + 1e-9) {
    wakeup_ = now_;
  } else {
    standard_finish();
  }
}

void FlightActor::standard_finish() {
  if (config_.auth_mode == AuthMode::kBatchSignature &&
      !flight_.poa_samples.empty()) {
    const tee::InvokeResult finalized = invoke_sampler_with_retry(
        tee_, tee::SamplerCommand::kBatchFinalize, {}, &flight_.tee_retries);
    if (finalized.ok() && finalized.outputs.size() == 2) {
      flight_.batch_signature = finalized.outputs[1];
    } else {
      ++flight_.tee_failures;
    }
  }
  drop_scope_->finish(config_.end_time);
  if (submission_) {
    begin_submission();
  } else {
    finish_now();
  }
}

void FlightActor::begin_submission() {
  ProofOfAlibi poa =
      assemble_poa(submission_->drone_id, config_, submission_->hash, flight_);
  if (submission_->mutate) poa = submission_->mutate(std::move(poa));
  // Frozen at assembly: every retry redelivers byte-identical proof bytes,
  // so a redelivery after a lost verdict hits the Auditor's content dedup.
  submit_frame_ = SubmitPoaRequest{poa.serialize()}.encode();
  backoff_rng_.emplace(submission_->backoff_seed);
  state_ = State::kSubmitting;
  enqueue_submit_attempt();
}

void FlightActor::enqueue_submit_attempt() {
  ++submit_attempts_;
  outbox_.push_back(ActorSend{
      submission_->auditor_prefix + ".submit_poa", submit_frame_,
      [this](const crypto::Bytes* reply) {
        if (reply != nullptr && !net::is_retry_later(*reply)) {
          verdict_ = PoaVerdict::decode(*reply);
          finish_now();
          return;
        }
        // Lost on the wire or admission-queue backpressure: back off on
        // the virtual clock and redeliver the frozen frame.
        if (submit_attempts_ >= submission_->retry.max_attempts) {
          finish_now();
          return;
        }
        now_ += submission_->retry.backoff_after(submit_attempts_,
                                                 *backoff_rng_);
        wakeup_ = now_;
      }});
}

// ---- TESLA broadcast mode (the run_tesla_broadcast_flight loop) ----

void FlightActor::feed_one_update(double at) {
  for (const std::string& s : receiver_.advance_to(at)) tee_.feed_gps(s);
}

void FlightActor::step_tesla_init() {
  period_ = receiver_.update_period();
  start_ = receiver_.next_update_time();

  // The TA needs a fix before it can anchor the flight epoch.
  feed_one_update(start_);

  chain_length_ = tesla_config_.chain_length;
  if (chain_length_ == 0) {
    const double duration = std::max(0.0, tesla_config_.end_time - start_);
    chain_length_ = static_cast<std::uint32_t>(
                        std::ceil(duration / tesla_config_.interval_s)) +
                    tesla_config_.disclosure_delay + 4;
  }
  interval_us_ = static_cast<std::uint64_t>(
      std::llround(tesla_config_.interval_s * 1e6));

  const std::vector<crypto::Bytes> begin_params{
      crypto::be_bytes(chain_length_),
      crypto::be_bytes(tesla_config_.disclosure_delay),
      crypto::be_bytes(interval_us_)};
  const tee::InvokeResult begun = invoke_sampler_with_retry(
      tee_, tee::SamplerCommand::kTeslaBegin, begin_params);
  if (!begun.ok() || begun.outputs.size() != 2) {
    ++tesla_.tee_failures;
    finish_now();
    return;
  }
  commit_ = tee::parse_tesla_commit(begun.outputs[0]);
  if (!commit_) {
    ++tesla_.tee_failures;
    finish_now();
    return;
  }

  TeslaAnnounceRequest announce;
  announce.drone_id = drone_id_;
  announce.session_nonce = tesla_config_.session_nonce;
  announce.hash = tesla_config_.hash;
  announce.commit_payload = begun.outputs[0];
  announce.commit_signature = begun.outputs[1];
  announce_frame_ = announce.encode();
  enqueue_try_announce();

  last_fix_time_ = start_;
  now_ = start_ + period_;
  if (now_ <= tesla_config_.end_time + 1e-9) {
    state_ = State::kTeslaSampling;
    wakeup_ = now_;
  } else {
    enter_tesla_flush();
  }
}

void FlightActor::enqueue_try_announce() {
  if (tesla_.announced) return;
  outbox_.push_back(ActorSend{
      tesla_config_.auditor_prefix + ".tesla_announce", announce_frame_,
      [this](const crypto::Bytes* reply) {
        std::optional<TeslaAck> ack;
        if (reply != nullptr) ack = TeslaAck::decode(*reply);
        if (ack && ack->accepted) tesla_.announced = true;
      }});
}

void FlightActor::disclose_up_to(std::uint64_t matured) {
  matured = std::min<std::uint64_t>(matured, chain_length_);
  if (matured <= last_disclosed_) return;
  const std::vector<crypto::Bytes> params{crypto::be_bytes(matured)};
  const tee::InvokeResult disclosed =
      invoke_sampler_with_retry(tee_, tee::SamplerCommand::kTeslaDisclose,
                                params);
  if (!disclosed.ok() || disclosed.outputs.size() != 1) {
    ++tesla_.tee_failures;
    return;
  }
  TeslaDiscloseRequest request;
  request.drone_id = drone_id_;
  request.session_nonce = tesla_config_.session_nonce;
  request.index = matured;
  request.key = disclosed.outputs[0];
  ++tesla_.disclosures_sent;
  outbox_.push_back(ActorSend{
      tesla_config_.auditor_prefix + ".tesla_disclose", request.encode(),
      [this, matured](const crypto::Bytes* reply) {
        std::optional<TeslaAck> ack;
        if (reply != nullptr) ack = TeslaAck::decode(*reply);
        if (!ack) {
          ++tesla_.disclosures_dropped;
          return;  // a later disclosure settles this interval too
        }
        if (ack->accepted) last_disclosed_ = matured;
      }});
}

std::uint64_t FlightActor::matured_at(double unix_time) const {
  // The highest interval whose key has passed its disclosure time on the
  // drone's GPS clock (t >= t0 + (m + d) * tau  =>  m matured).
  const std::int64_t t_us = tee::time_us_of(unix_time);
  if (t_us < commit_->t0_us) return 0;
  const std::uint64_t elapsed =
      static_cast<std::uint64_t>(t_us - commit_->t0_us) / interval_us_;
  return elapsed <= tesla_config_.disclosure_delay
             ? 0
             : elapsed - tesla_config_.disclosure_delay;
}

void FlightActor::step_tesla_sampling() {
  feed_one_update(now_);
  ++tesla_.gps_updates;
  const tee::InvokeResult fix =
      invoke_sampler_with_retry(tee_, tee::SamplerCommand::kGetGpsTesla);
  enqueue_try_announce();

  if (fix.status == tee::TeeStatus::kSuccess && fix.outputs.size() == 3 &&
      fix.outputs[2].size() == 8) {
    const auto decoded = tee::decode_sample(fix.outputs[0]);
    if (decoded) {
      last_fix_time_ = decoded->unix_time;
      if (policy_.should_authenticate(*decoded)) {
        policy_.on_recorded(*decoded);
        const auto interval =
            crypto::get_be<std::uint64_t>(fix.outputs[2].data());
        tesla_.max_interval_used =
            std::max(tesla_.max_interval_used, interval);
        TeslaSampleBroadcast sample;
        sample.drone_id = drone_id_;
        sample.session_nonce = tesla_config_.session_nonce;
        sample.interval = interval;
        sample.sample = fix.outputs[0];
        sample.tag = fix.outputs[1];
        ++tesla_.samples_sent;
        outbox_.push_back(ActorSend{
            tesla_config_.auditor_prefix + ".tesla_sample", sample.encode(),
            [this](const crypto::Bytes* reply) {
              std::optional<TeslaAck> ack;
              if (reply != nullptr) ack = TeslaAck::decode(*reply);
              if (!ack) {
                ++tesla_.samples_dropped;
              } else if (!ack->accepted) {
                ++tesla_.samples_rejected;
              }
            }});
      }
    }
  } else if (fix.status != tee::TeeStatus::kNotReady) {
    ++tesla_.tee_failures;
  }

  disclose_up_to(matured_at(last_fix_time_));

  now_ += period_;
  if (now_ <= tesla_config_.end_time + 1e-9) {
    wakeup_ = now_;
  } else {
    enter_tesla_flush();
  }
}

void FlightActor::enter_tesla_flush() {
  // Post-flight flush: keep the receiver (and with it the TA's clock)
  // moving until every used interval's key has matured, been disclosed
  // and acknowledged — exactly what a drone broadcasting disclosures
  // after landing does. Bounded against pathological fault schedules.
  flush_target_ = std::min<std::uint64_t>(
      std::max<std::uint64_t>(tesla_.max_interval_used, 1), chain_length_);
  now_ = tesla_config_.end_time;
  flush_i_ = 0;
  state_ = State::kTeslaFlush;
  wakeup_ = now_ + period_;
}

void FlightActor::step_tesla_flush() {
  // The exit condition reads last_disclosed_, which the previous flush
  // iteration's ack updated — so it is checked at the top of the step,
  // after that reply has been delivered.
  if (flush_i_ >= tesla_config_.max_flush_updates ||
      last_disclosed_ >= flush_target_) {
    enter_tesla_finalize();
    return;
  }
  ++flush_i_;
  now_ += period_;
  feed_one_update(now_);
  last_fix_time_ = now_;
  enqueue_try_announce();
  disclose_up_to(matured_at(last_fix_time_));
  wakeup_ = now_ + period_;
}

void FlightActor::enter_tesla_finalize() {
  TeslaFinalizeRequest finalize;
  finalize.drone_id = drone_id_;
  finalize.session_nonce = tesla_config_.session_nonce;
  finalize.end_time = tesla_config_.end_time;
  finalize_frame_ = finalize.encode();
  finalize_attempts_ = 0;
  finalize_pending_refeed_ = false;
  state_ = State::kTeslaFinalize;
  step_tesla_finalize();  // first attempt goes out with this step's flush
}

void FlightActor::step_tesla_finalize() {
  if (finalize_pending_refeed_) {
    // The previous attempt was lost: advance the receiver one period
    // before redelivering, as the blocking loop's catch block did.
    finalize_pending_refeed_ = false;
    now_ += period_;
    feed_one_update(now_);
  }
  if (finalize_attempts_ >= tesla_config_.max_flush_updates) {
    finish_now();
    return;
  }
  ++finalize_attempts_;
  outbox_.push_back(ActorSend{
      tesla_config_.auditor_prefix + ".tesla_finalize", finalize_frame_,
      [this](const crypto::Bytes* reply) {
        if (reply == nullptr) {
          finalize_pending_refeed_ = true;
          wakeup_ = now_ + period_;
          return;
        }
        // Any delivered reply settles the flight, decodable or not.
        const auto verdict = PoaVerdict::decode(*reply);
        if (verdict) {
          tesla_.verdict = *verdict;
          tesla_.finalized = true;
        }
        finish_now();
      }});
}

}  // namespace alidrone::core

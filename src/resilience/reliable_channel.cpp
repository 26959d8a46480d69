#include "resilience/reliable_channel.h"

#include <stdexcept>

namespace alidrone::resilience {

ReliableChannel::ReliableChannel(net::Transport& bus, SimClock& clock)
    : ReliableChannel(bus, clock, Config{}) {}

ReliableChannel::ReliableChannel(net::Transport& bus, SimClock& clock,
                                 Config config)
    : bus_(bus), clock_(clock), config_(config), jitter_rng_(config.seed) {
  bus_.set_clock(&clock_);
  if (config_.trace != nullptr) bus_.set_trace(config_.trace);
  obs::MetricsRegistry& reg = config_.metrics != nullptr
                                  ? *config_.metrics
                                  : obs::MetricsRegistry::global();
  const std::string scope = reg.instance_scope("resilience.channel");
  requests_ = &reg.counter(scope + ".requests");
  attempts_ = &reg.counter(scope + ".attempts");
  retries_ = &reg.counter(scope + ".retries");
  successes_ = &reg.counter(scope + ".successes");
  failures_ = &reg.counter(scope + ".failures");
  breaker_fast_fails_ = &reg.counter(scope + ".breaker_fast_fails");
  retry_later_replies_ = &reg.counter(scope + ".retry_later_replies");
  deadline_expired_ = &reg.counter(scope + ".deadline_expired");
}

const CircuitBreaker* ReliableChannel::breaker(const std::string& endpoint) const {
  const auto it = breakers_.find(endpoint);
  return it == breakers_.end() ? nullptr : &it->second;
}

std::uint64_t ReliableChannel::breaker_trips() const {
  std::uint64_t trips = 0;
  for (const auto& [endpoint, breaker] : breakers_) trips += breaker.trips();
  return trips;
}

ReliableChannel::Counters ReliableChannel::counters() const {
  Counters c;
  c.requests = requests_->value();
  c.attempts = attempts_->value();
  c.retries = retries_->value();
  c.successes = successes_->value();
  c.failures = failures_->value();
  c.breaker_fast_fails = breaker_fast_fails_->value();
  c.retry_later_replies = retry_later_replies_->value();
  c.deadline_expired = deadline_expired_->value();
  return c;
}

ReliableChannel::Outcome ReliableChannel::request(const std::string& endpoint,
                                                  const crypto::Bytes& payload) {
  requests_->increment();
  Outcome outcome;
  auto breaker_it = breakers_.find(endpoint);
  if (breaker_it == breakers_.end()) {
    breaker_it = breakers_.emplace(endpoint, CircuitBreaker(config_.breaker)).first;
    breaker_it->second.bind_clock(&clock_);
    breaker_it->second.bind_trace(config_.trace, endpoint);
  }
  CircuitBreaker& breaker = breaker_it->second;

  const double start = clock_.now();
  const RetryPolicy& retry = config_.retry;
  for (std::uint32_t attempt = 1; attempt <= retry.max_attempts; ++attempt) {
    if (!breaker.allow()) {
      // Fail fast: the endpoint is known-dead until the cool-down ends.
      // Store-and-forward callers simply drain again later.
      breaker_fast_fails_->increment();
      failures_->increment();
      outcome.circuit_open = true;
      outcome.error = "circuit open for '" + endpoint + "'";
      return outcome;
    }

    attempts_->increment();
    if (attempt > 1) {
      retries_->increment();
      if (config_.trace != nullptr) {
        config_.trace->record(obs::TraceKind::kChannelRetry, clock_.now(),
                              attempt, 0, endpoint);
      }
    }
    ++outcome.attempts;
    try {
      outcome.response =
          retry.attempt_timeout_s > 0.0
              ? bus_.request(endpoint, payload, retry.attempt_timeout_s)
              : bus_.request(endpoint, payload);
      if (net::is_retry_later(outcome.response)) {
        // Explicit backpressure: the server is alive but at capacity, so
        // the reply counts for the breaker (no trip) while the logical
        // request backs off and retries like any transient fault.
        retry_later_replies_->increment();
        breaker.on_success();
        outcome.response.clear();
        outcome.error = "'" + endpoint + "' is busy (retry later)";
      } else {
        breaker.on_success();
        successes_->increment();
        outcome.ok = true;
        return outcome;
      }
    } catch (const net::DeadlineExpired&) {
      // The per-attempt deadline fired with the socket hung mid-request:
      // the peer may still answer (too late) or may have died — either
      // way the breaker charges it and the retry loop regains control.
      deadline_expired_->increment();
      breaker.on_failure();
      outcome.error = "request to '" + endpoint + "' hit attempt deadline";
    } catch (const net::TimeoutError&) {
      breaker.on_failure();
      outcome.error = "request to '" + endpoint + "' timed out";
    } catch (const std::out_of_range& e) {
      // Unknown endpoint: a wiring bug, not a transient fault — do not
      // retry and do not charge the breaker.
      failures_->increment();
      outcome.error = e.what();
      return outcome;
    }

    if (attempt == retry.max_attempts) break;  // budget spent
    const double backoff = retry.backoff_after(attempt, jitter_rng_);
    if (retry.deadline_s > 0.0 &&
        clock_.now() + backoff - start > retry.deadline_s) {
      outcome.error += " (deadline exceeded)";
      break;
    }
    clock_.advance(backoff);  // the backoff sleep, on simulated time
  }
  failures_->increment();
  return outcome;
}

}  // namespace alidrone::resilience

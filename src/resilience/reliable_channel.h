// ReliableChannel — retrying, circuit-breaking wrapper around
// net::Transport::request (the in-process bus or a socket client alike).
//
// One logical request = up to RetryPolicy::max_attempts bus attempts,
// separated by capped exponential backoff "slept" on the scenario's
// SimClock. Every endpoint gets its own CircuitBreaker so a dead Auditor
// endpoint fails fast instead of burning the deadline budget. Retries of
// the same logical request are byte-identical on the wire, which is what
// lets the server deduplicate them by content.
//
// With no faults injected the channel is a strict pass-through: exactly
// one bus attempt per logical request and zero clock advances — the
// counters prove it. Counters live in an obs::MetricsRegistry (instance
// scope "resilience.channel"); Counters is a point-in-time view.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "crypto/bytes.h"
#include "crypto/random.h"
#include "net/transport.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "resilience/circuit_breaker.h"
#include "resilience/retry_policy.h"
#include "resilience/sim_clock.h"

namespace alidrone::resilience {

class ReliableChannel {
 public:
  struct Config {
    RetryPolicy retry;
    CircuitBreaker::Config breaker;
    std::uint64_t seed = 1;  ///< drives backoff jitter
    /// Registry for the channel's counters (process-wide when null).
    obs::MetricsRegistry* metrics = nullptr;
    /// Trace retries and breaker transitions (also handed to the bus).
    obs::FlightRecorder* trace = nullptr;
  };

  /// Result of one logical request.
  struct Outcome {
    bool ok = false;
    crypto::Bytes response;
    std::string error;           ///< "" on success
    std::uint32_t attempts = 0;  ///< bus attempts actually made
    bool circuit_open = false;   ///< failed fast on an open breaker
  };

  struct Counters {
    std::uint64_t requests = 0;   ///< logical requests issued
    std::uint64_t attempts = 0;   ///< bus attempts made
    std::uint64_t retries = 0;    ///< attempts beyond each request's first
    std::uint64_t successes = 0;
    std::uint64_t failures = 0;   ///< logical failures (exhausted/deadline/open)
    std::uint64_t breaker_fast_fails = 0;  ///< requests refused by an open breaker
    /// kRetryLater backpressure replies received. Each one is retried with
    /// backoff but never charged to the circuit breaker: the server
    /// answered, it just had no capacity.
    std::uint64_t retry_later_replies = 0;
    /// Attempts that died on RetryPolicy::attempt_timeout_s — a hung
    /// socket, not a refused one. Charged to the breaker and retried like
    /// any timeout, but counted separately so a stalling peer is
    /// distinguishable from a dead one in the metrics.
    std::uint64_t deadline_expired = 0;
  };

  /// The bus and clock are borrowed and must outlive the channel. The
  /// channel wires the clock in as the bus's time authority so
  /// fault-schedule windows, injected latency and breaker cool-downs
  /// share one timeline.
  ReliableChannel(net::Transport& bus, SimClock& clock);
  ReliableChannel(net::Transport& bus, SimClock& clock, Config config);

  /// Send with retries. Never throws for transport faults — a dropped or
  /// lost message becomes a retry, an exhausted budget becomes
  /// Outcome{ok=false}.
  Outcome request(const std::string& endpoint, const crypto::Bytes& payload);

  /// Point-in-time snapshot of the channel's registry counters.
  Counters counters() const;
  /// Sum of trips across all per-endpoint breakers.
  std::uint64_t breaker_trips() const;
  /// Breaker for an endpoint; nullptr before its first request.
  const CircuitBreaker* breaker(const std::string& endpoint) const;

  net::Transport& bus() { return bus_; }
  SimClock& clock() { return clock_; }
  const Config& config() const { return config_; }

 private:
  net::Transport& bus_;
  SimClock& clock_;
  Config config_;
  crypto::DeterministicRandom jitter_rng_;
  std::map<std::string, CircuitBreaker> breakers_;
  // Registry-backed counters (the one source of truth for this channel).
  obs::Counter* requests_;
  obs::Counter* attempts_;
  obs::Counter* retries_;
  obs::Counter* successes_;
  obs::Counter* failures_;
  obs::Counter* breaker_fast_fails_;
  obs::Counter* retry_later_replies_;
  obs::Counter* deadline_expired_;
};

}  // namespace alidrone::resilience

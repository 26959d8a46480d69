// Resilience-layer microbenchmarks: what does the ReliableChannel wrapper
// cost on the happy path (it should be a strict pass-through), what does a
// retried request cost when faults bite, and how expensive are the
// per-request idempotency ids and breaker checks that make the layer safe.
#include <benchmark/benchmark.h>

#include <string>

#include "crypto/bytes.h"
#include "net/message_bus.h"
#include "resilience/circuit_breaker.h"
#include "resilience/reliable_channel.h"
#include "resilience/sim_clock.h"

namespace alidrone::resilience {
namespace {

constexpr const char* kEndpoint = "bench.echo";

crypto::Bytes payload() { return crypto::Bytes(64, 0x5A); }

net::MessageBus& echo_bus() {
  static net::MessageBus bus = [] {
    net::MessageBus b;
    b.register_endpoint(kEndpoint,
                        [](const crypto::Bytes& request) { return request; });
    return b;
  }();
  return bus;
}

void BM_RawBusRequest(benchmark::State& state) {
  net::MessageBus& bus = echo_bus();
  const crypto::Bytes body = payload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bus.request(kEndpoint, body));
  }
}
BENCHMARK(BM_RawBusRequest);

void BM_ReliableChannelPassThrough(benchmark::State& state) {
  net::MessageBus& bus = echo_bus();
  SimClock clock;
  ReliableChannel channel(bus, clock);
  const crypto::Bytes body = payload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(channel.request(kEndpoint, body));
  }
  // The pass-through claim, as measurable counters: one bus attempt per
  // logical request and a clock that never moved.
  state.counters["attempts_per_request"] =
      static_cast<double>(channel.counters().attempts) /
      static_cast<double>(channel.counters().requests);
  state.counters["clock_advances"] = static_cast<double>(clock.advances());
}
BENCHMARK(BM_ReliableChannelPassThrough);

void BM_ReliableChannelRetriedRequest(benchmark::State& state) {
  // A never-ending intermittent outage: each attempt independently fails
  // with probability 0.5, so a logical request averages two bus attempts
  // plus the backoff bookkeeping between them.
  net::MessageBus bus;
  bus.register_endpoint(kEndpoint,
                        [](const crypto::Bytes& request) { return request; });
  net::MessageBus::FaultConfig faults;
  faults.seed = 42;
  net::FaultWindow window;
  window.endpoint = kEndpoint;
  window.start = 0.0;
  window.end = 1e18;
  window.kind = net::FaultKind::kOutage;
  window.probability = 0.5;
  faults.schedule.push_back(window);
  bus.set_faults(faults);

  SimClock clock;
  ReliableChannel::Config config;
  config.retry.max_attempts = 8;
  config.retry.deadline_s = 0.0;  // unlimited; the attempt cap bounds work
  config.breaker.failure_threshold = 64;  // keep the breaker out of the path
  ReliableChannel channel(bus, clock, config);
  const crypto::Bytes body = payload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(channel.request(kEndpoint, body));
  }
  state.counters["attempts_per_request"] =
      static_cast<double>(channel.counters().attempts) /
      static_cast<double>(channel.counters().requests);
}
BENCHMARK(BM_ReliableChannelRetriedRequest);

void BM_CircuitBreakerHotPath(benchmark::State& state) {
  CircuitBreaker breaker;
  for (auto _ : state) {
    benchmark::DoNotOptimize(breaker.allow(0.0));
    breaker.on_success();
  }
}
BENCHMARK(BM_CircuitBreakerHotPath);

}  // namespace
}  // namespace alidrone::resilience

BENCHMARK_MAIN();

// Resilience layer unit tests: SimClock, RetryPolicy, CircuitBreaker and
// ReliableChannel — deterministic behaviour of each piece in isolation,
// plus the pass-through guarantee (no faults => no overhead) the chaos
// harness builds on.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "crypto/random.h"
#include "net/message_bus.h"
#include "resilience/circuit_breaker.h"
#include "resilience/reliable_channel.h"
#include "resilience/retry_policy.h"
#include "resilience/sim_clock.h"

namespace alidrone::resilience {
namespace {

// ---------------------------------------------------------------- SimClock

TEST(SimClockTest, AdvanceIsMonotonicAndCounted) {
  SimClock clock(100.0);
  EXPECT_DOUBLE_EQ(clock.now(), 100.0);
  EXPECT_EQ(clock.advances(), 0u);

  EXPECT_DOUBLE_EQ(clock.advance(2.5), 102.5);
  EXPECT_DOUBLE_EQ(clock.advance(-5.0), 102.5);  // negative deltas ignored
  EXPECT_EQ(clock.advances(), 2u);

  clock.advance_to(200.0);
  EXPECT_DOUBLE_EQ(clock.now(), 200.0);
  clock.advance_to(50.0);  // no travelling back
  EXPECT_DOUBLE_EQ(clock.now(), 200.0);
}

// ------------------------------------------------------------- RetryPolicy

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy policy;
  policy.initial_backoff_s = 0.1;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_s = 0.5;
  policy.jitter_fraction = 0.0;  // exact values

  crypto::DeterministicRandom rng(7);
  EXPECT_DOUBLE_EQ(policy.backoff_after(1, rng), 0.1);
  EXPECT_DOUBLE_EQ(policy.backoff_after(2, rng), 0.2);
  EXPECT_DOUBLE_EQ(policy.backoff_after(3, rng), 0.4);
  EXPECT_DOUBLE_EQ(policy.backoff_after(4, rng), 0.5);  // capped
  EXPECT_DOUBLE_EQ(policy.backoff_after(9, rng), 0.5);  // stays capped
}

TEST(RetryPolicyTest, JitterStaysWithinFractionAndReplays) {
  RetryPolicy policy;
  policy.initial_backoff_s = 1.0;
  policy.backoff_multiplier = 1.0;
  policy.jitter_fraction = 0.2;

  crypto::DeterministicRandom rng_a(42);
  crypto::DeterministicRandom rng_b(42);
  bool saw_jitter = false;
  for (std::uint32_t attempt = 1; attempt <= 64; ++attempt) {
    const double a = policy.backoff_after(attempt, rng_a);
    EXPECT_GE(a, 0.8);
    EXPECT_LE(a, 1.2);
    if (std::abs(a - 1.0) > 1e-6) saw_jitter = true;
    // Same seed => bit-identical schedule.
    EXPECT_DOUBLE_EQ(a, policy.backoff_after(attempt, rng_b));
  }
  EXPECT_TRUE(saw_jitter);
}

TEST(RetryPolicyTest, ZeroJitterStillConsumesOneDraw) {
  // The stream position must not depend on whether jitter is enabled, so
  // a schedule stays reproducible when jitter is toggled.
  RetryPolicy with_jitter;
  with_jitter.jitter_fraction = 0.1;
  RetryPolicy without = with_jitter;
  without.jitter_fraction = 0.0;

  crypto::DeterministicRandom rng_a(9);
  crypto::DeterministicRandom rng_b(9);
  (void)with_jitter.backoff_after(1, rng_a);
  (void)without.backoff_after(1, rng_b);
  EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64());
}

// ---------------------------------------------------------- CircuitBreaker

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailures) {
  CircuitBreaker::Config config;
  config.failure_threshold = 3;
  config.cooldown_s = 10.0;
  CircuitBreaker breaker(config);

  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.on_failure(0.0);
  breaker.on_failure(0.1);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow(0.2));
  breaker.on_failure(0.2);  // third consecutive failure trips it
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);

  EXPECT_FALSE(breaker.allow(0.3));  // fail fast during cool-down
  EXPECT_FALSE(breaker.allow(9.0));
  EXPECT_EQ(breaker.rejections(), 2u);
}

TEST(CircuitBreakerTest, SuccessResetsConsecutiveCount) {
  CircuitBreaker::Config config;
  config.failure_threshold = 2;
  CircuitBreaker breaker(config);

  breaker.on_failure(0.0);
  breaker.on_success();  // streak broken
  breaker.on_failure(1.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.on_failure(2.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
}

TEST(CircuitBreakerTest, HalfOpenProbeClosesOrReopens) {
  CircuitBreaker::Config config;
  config.failure_threshold = 1;
  config.cooldown_s = 5.0;
  CircuitBreaker breaker(config);

  breaker.on_failure(0.0);  // threshold 1: open immediately
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  // Cool-down elapsed: one probe is let through.
  EXPECT_TRUE(breaker.allow(5.0));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);

  // Probe fails: re-open with a fresh cool-down from the failure time.
  breaker.on_failure(5.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 2u);
  EXPECT_FALSE(breaker.allow(9.9));

  // Second probe succeeds: closed again.
  EXPECT_TRUE(breaker.allow(10.0));
  breaker.on_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow(10.1));
}

TEST(CircuitBreakerTest, StateNamesForDiagnostics) {
  EXPECT_EQ(to_string(CircuitBreaker::State::kClosed), "closed");
  EXPECT_EQ(to_string(CircuitBreaker::State::kOpen), "open");
  EXPECT_EQ(to_string(CircuitBreaker::State::kHalfOpen), "half-open");
}

// --------------------------------------------------------- ReliableChannel

net::FaultWindow make_window(const std::string& endpoint, double start,
                             double end, net::FaultKind kind) {
  net::FaultWindow window;
  window.endpoint = endpoint;
  window.start = start;
  window.end = end;
  window.kind = kind;
  return window;
}

struct ChannelFixture : ::testing::Test {
  net::MessageBus bus;
  SimClock clock{0.0};

  void bind_echo(const std::string& endpoint) {
    bus.register_endpoint(endpoint, [](const crypto::Bytes& payload) {
      crypto::Bytes reply = payload;
      reply.push_back(0xEE);
      return reply;
    });
  }

  static ReliableChannel::Config fast_config() {
    ReliableChannel::Config config;
    config.retry.max_attempts = 5;
    config.retry.initial_backoff_s = 1.0;
    config.retry.backoff_multiplier = 2.0;
    config.retry.max_backoff_s = 8.0;
    config.retry.jitter_fraction = 0.0;  // exact timelines in tests
    config.retry.deadline_s = 0.0;       // no deadline unless a test sets one
    config.breaker.failure_threshold = 3;
    config.breaker.cooldown_s = 30.0;
    return config;
  }
};

TEST_F(ChannelFixture, PassThroughWithoutFaultsAddsNothing) {
  bind_echo("svc.echo");
  ReliableChannel channel(bus, clock, fast_config());

  for (int i = 0; i < 10; ++i) {
    const auto outcome = channel.request("svc.echo", crypto::Bytes{1, 2, 3});
    ASSERT_TRUE(outcome.ok);
    EXPECT_EQ(outcome.attempts, 1u);
  }
  // The zero-overhead proof: one bus attempt per logical request, no
  // retries, no backoff sleeps, no breaker activity.
  EXPECT_EQ(channel.counters().requests, 10u);
  EXPECT_EQ(channel.counters().attempts, 10u);
  EXPECT_EQ(channel.counters().retries, 0u);
  EXPECT_EQ(channel.breaker_trips(), 0u);
  EXPECT_EQ(clock.advances(), 0u);
  EXPECT_EQ(bus.requests_sent(), 10u);
}

TEST_F(ChannelFixture, RetriesThroughAnOutageWindow) {
  bind_echo("svc.echo");
  // Outage for t in [0, 2.5): the first two attempts (t=0, t=1) die, the
  // third (t=3 after 1s + 2s backoffs) lands.
  net::MessageBus::FaultConfig faults;
  faults.schedule.push_back(make_window("svc.echo", 0.0, 2.5, net::FaultKind::kOutage));
  bus.set_faults(faults);

  ReliableChannel channel(bus, clock, fast_config());
  const auto outcome = channel.request("svc.echo", crypto::Bytes{7});
  ASSERT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.attempts, 3u);
  EXPECT_EQ(channel.counters().retries, 2u);
  EXPECT_DOUBLE_EQ(clock.now(), 3.0);
  EXPECT_EQ(channel.breaker_trips(), 0u);  // recovered before the threshold
}

TEST_F(ChannelFixture, ExhaustedRetriesReportFailure) {
  bind_echo("svc.echo");
  net::MessageBus::FaultConfig faults;
  faults.schedule.push_back(make_window("svc.echo", 0.0, 1e9, net::FaultKind::kOutage));
  bus.set_faults(faults);

  ReliableChannel::Config config = fast_config();
  config.breaker.failure_threshold = 100;  // isolate retry behaviour
  ReliableChannel channel(bus, clock, config);

  const auto outcome = channel.request("svc.echo", crypto::Bytes{7});
  EXPECT_FALSE(outcome.ok);
  EXPECT_FALSE(outcome.circuit_open);
  EXPECT_EQ(outcome.attempts, 5u);
  EXPECT_EQ(channel.counters().failures, 1u);
}

TEST_F(ChannelFixture, BreakerTripsAndFailsFastThenRecovers) {
  bind_echo("svc.echo");
  net::MessageBus::FaultConfig faults;
  faults.schedule.push_back({"svc.echo", 0.0, 20.0, net::FaultKind::kOutage});
  bus.set_faults(faults);

  ReliableChannel channel(bus, clock, fast_config());

  // Threshold 3: the first logical request burns 3 attempts and trips.
  auto outcome = channel.request("svc.echo", crypto::Bytes{1});
  EXPECT_FALSE(outcome.ok);
  EXPECT_TRUE(outcome.circuit_open);  // 4th attempt refused by the breaker
  EXPECT_EQ(outcome.attempts, 3u);
  EXPECT_EQ(channel.breaker_trips(), 1u);

  // While open: immediate fast-fail, no bus traffic.
  const std::uint64_t sent_before = bus.requests_sent();
  outcome = channel.request("svc.echo", crypto::Bytes{2});
  EXPECT_FALSE(outcome.ok);
  EXPECT_TRUE(outcome.circuit_open);
  EXPECT_EQ(outcome.attempts, 0u);
  EXPECT_EQ(bus.requests_sent(), sent_before);
  EXPECT_GE(channel.counters().breaker_fast_fails, 1u);

  // After the cool-down (30 s) the outage is over: the half-open probe
  // succeeds and the breaker closes.
  clock.advance_to(40.0);
  outcome = channel.request("svc.echo", crypto::Bytes{3});
  ASSERT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.attempts, 1u);
  ASSERT_NE(channel.breaker("svc.echo"), nullptr);
  EXPECT_EQ(channel.breaker("svc.echo")->state(),
            CircuitBreaker::State::kClosed);
}

TEST_F(ChannelFixture, BreakersAreIndependentPerEndpoint) {
  bind_echo("svc.up");
  bind_echo("svc.down");
  net::MessageBus::FaultConfig faults;
  faults.schedule.push_back(make_window("svc.down", 0.0, 1e9, net::FaultKind::kOutage));
  bus.set_faults(faults);

  ReliableChannel channel(bus, clock, fast_config());
  EXPECT_FALSE(channel.request("svc.down", crypto::Bytes{1}).ok);
  ASSERT_NE(channel.breaker("svc.down"), nullptr);
  EXPECT_EQ(channel.breaker("svc.down")->state(), CircuitBreaker::State::kOpen);

  // The healthy endpoint is unaffected by its neighbour's open breaker.
  EXPECT_TRUE(channel.request("svc.up", crypto::Bytes{2}).ok);
  ASSERT_NE(channel.breaker("svc.up"), nullptr);
  EXPECT_EQ(channel.breaker("svc.up")->state(), CircuitBreaker::State::kClosed);
}

TEST_F(ChannelFixture, DeadlineStopsRetriesEarly) {
  bind_echo("svc.echo");
  net::MessageBus::FaultConfig faults;
  faults.schedule.push_back(make_window("svc.echo", 0.0, 1e9, net::FaultKind::kOutage));
  bus.set_faults(faults);

  ReliableChannel::Config config = fast_config();
  config.retry.deadline_s = 2.0;  // allows the 1 s backoff, not the 2 s one
  config.breaker.failure_threshold = 100;
  ReliableChannel channel(bus, clock, config);

  const auto outcome = channel.request("svc.echo", crypto::Bytes{1});
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_NE(outcome.error.find("deadline"), std::string::npos);
}

TEST_F(ChannelFixture, UnknownEndpointIsNotRetried) {
  ReliableChannel channel(bus, clock, fast_config());
  const auto outcome = channel.request("svc.ghost", crypto::Bytes{1});
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.attempts, 1u);  // a wiring bug, not a transient fault
  EXPECT_EQ(channel.counters().retries, 0u);
}

TEST_F(ChannelFixture, LatencyWindowChargesTheClock) {
  bind_echo("svc.echo");
  net::MessageBus::FaultConfig faults;
  net::FaultWindow window = make_window("svc.echo", 0.0, 1e9, net::FaultKind::kLatency);
  window.latency_s = 0.75;
  faults.schedule.push_back(window);
  bus.set_faults(faults);

  ReliableChannel channel(bus, clock, fast_config());
  const auto outcome = channel.request("svc.echo", crypto::Bytes{1});
  ASSERT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.attempts, 1u);  // slow, but not lost
  EXPECT_DOUBLE_EQ(clock.now(), 0.75);
  EXPECT_DOUBLE_EQ(bus.latency_injected_s(), 0.75);
}

TEST_F(ChannelFixture, ResponseLossRunsHandlerButRetries) {
  int handler_runs = 0;
  bus.register_endpoint("svc.count", [&handler_runs](const crypto::Bytes&) {
    ++handler_runs;
    return crypto::Bytes{static_cast<std::uint8_t>(handler_runs)};
  });
  net::MessageBus::FaultConfig faults;
  faults.schedule.push_back(make_window("svc.count", 0.0, 0.5, net::FaultKind::kResponseLoss));
  bus.set_faults(faults);

  ReliableChannel channel(bus, clock, fast_config());
  const auto outcome = channel.request("svc.count", crypto::Bytes{});
  ASSERT_TRUE(outcome.ok);
  // The first attempt reached the handler even though its response was
  // lost — the retry makes the handler run twice. This is the ambiguity
  // that forces server-side idempotency.
  EXPECT_EQ(handler_runs, 2);
  EXPECT_EQ(outcome.attempts, 2u);
}

TEST_F(ChannelFixture, FaultScheduleReplaysBitForBit) {
  // Same seed + schedule => identical attempt counts and final clock.
  const auto run = [](std::uint64_t seed) {
    net::MessageBus bus;
    SimClock clock(0.0);
    bus.register_endpoint("svc.echo",
                          [](const crypto::Bytes& p) { return p; });
    net::MessageBus::FaultConfig faults;
    faults.seed = seed;
    net::FaultWindow window = make_window("svc.echo", 0.0, 6.0, net::FaultKind::kOutage);
    window.probability = 0.5;  // intermittent: exercises the seeded stream
    faults.schedule.push_back(window);
    bus.set_faults(faults);

    ReliableChannel::Config config = ChannelFixture::fast_config();
    config.breaker.failure_threshold = 100;
    ReliableChannel channel(bus, clock, config);
    std::uint64_t attempts = 0;
    for (int i = 0; i < 8; ++i) {
      attempts += channel.request("svc.echo", crypto::Bytes{1}).attempts;
    }
    return std::pair<std::uint64_t, double>{attempts, clock.now()};
  };

  const auto a = run(11);
  const auto b = run(11);
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
  const auto c = run(12);
  // A different seed almost surely lands on a different trajectory;
  // equality of both measures would mean the stream is being ignored.
  EXPECT_TRUE(a.first != c.first || a.second != c.second);
}

}  // namespace
}  // namespace alidrone::resilience

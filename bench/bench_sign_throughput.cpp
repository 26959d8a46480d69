// Drone-side signing throughput: the TEE hot path of Table II.
//
// Per-sample in-TEE RSA signing caps the achievable GPS sampling rate, so
// every layer of the signing fast path is measured in isolation:
//   - cold:    rsa_sign_blinded — per-call window tables and a fresh
//              blinding pair (mod_pow(e, n) + extended-Euclid inverse)
//              every signature;
//   - planned: RsaSigningPlan with blinding_refresh_interval = 1 — cached
//              CRT window plans, still a fresh blinding pair per call;
//   - reuse:   the full fast path — plans + blinding-pair squaring with
//              the default re-randomize interval;
//   - batch:   the coalesced TA invoke, which amortizes the world-switch
//              pair across a queue of samples (cost-model effect; the
//              crypto per sample equals the reuse path).
// All three fast-path variants emit byte-identical signatures to
// rsa_sign; tests/crypto_signing_plan_test.cpp asserts that.
//
// The TESLA hash-chain PoA mode replaces the per-sample private operation
// with one chain-key HMAC tag (µs-class); the BM_Tesla* benches measure
// it raw and through the full TA command. The mode's gates (0 allocations
// per tag, >= 100x vs planned RSA-2048, one RSA private op per flight)
// are ctest cases in tests/perf_guard_test.cpp (label perf-guard).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "crypto/hash_chain.h"
#include "crypto/random.h"
#include "crypto/rsa.h"
#include "gps/receiver_sim.h"
#include "tee/gps_sampler_ta.h"
#include "tee/sample_codec.h"
#include "tee/secure_monitor.h"

namespace alidrone {
namespace {

constexpr double kT0 = 1528400000.0;

/// One deterministic key per size, generated once (2048-bit generation is
/// seconds of prime search; it must not run per benchmark).
const crypto::RsaKeyPair& key_for_bits(std::size_t bits) {
  static crypto::RsaKeyPair k512 = [] {
    crypto::DeterministicRandom rng(std::string_view("sign-bench-512"));
    return crypto::generate_rsa_keypair(512, rng);
  }();
  static crypto::RsaKeyPair k1024 = [] {
    crypto::DeterministicRandom rng(std::string_view("sign-bench-1024"));
    return crypto::generate_rsa_keypair(1024, rng);
  }();
  static crypto::RsaKeyPair k2048 = [] {
    crypto::DeterministicRandom rng(std::string_view("sign-bench-2048"));
    return crypto::generate_rsa_keypair(2048, rng);
  }();
  switch (bits) {
    case 512:
      return k512;
    case 1024:
      return k1024;
    default:
      return k2048;
  }
}

crypto::Bytes sample_message() {
  gps::GpsFix fix;
  fix.position = {40.1164, -88.2434};
  fix.unix_time = kT0;
  return tee::encode_sample(fix);
}

void set_sign_counters(benchmark::State& state) {
  state.counters["signs_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

/// Cold path: what GpsSamplerTA::get_gps_auth cost before the plan.
void BM_SignBlindedCold(benchmark::State& state) {
  const crypto::RsaKeyPair& kp = key_for_bits(static_cast<std::size_t>(state.range(0)));
  const crypto::Bytes msg = sample_message();
  crypto::DeterministicRandom rng(std::string_view("cold-blinding"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::rsa_sign_blinded(kp.priv, msg, crypto::HashAlgorithm::kSha1, rng));
  }
  set_sign_counters(state);
}
BENCHMARK(BM_SignBlindedCold)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

/// Plan only: cached CRT window plans, fresh blinding pair per signature.
void BM_SignPlanned(benchmark::State& state) {
  const crypto::RsaKeyPair& kp = key_for_bits(static_cast<std::size_t>(state.range(0)));
  const crypto::Bytes msg = sample_message();
  crypto::RsaSigningPlanConfig config;
  config.blinding_refresh_interval = 1;
  crypto::RsaSigningPlan plan(kp.priv, config);
  crypto::DeterministicRandom rng(std::string_view("planned-blinding"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.sign(msg, crypto::HashAlgorithm::kSha1, rng));
  }
  set_sign_counters(state);
}
BENCHMARK(BM_SignPlanned)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

/// Full fast path: plans + blinding-pair reuse (default interval).
void BM_SignPlannedReuse(benchmark::State& state) {
  const crypto::RsaKeyPair& kp = key_for_bits(static_cast<std::size_t>(state.range(0)));
  const crypto::Bytes msg = sample_message();
  crypto::RsaSigningPlan plan(kp.priv);
  crypto::DeterministicRandom rng(std::string_view("reuse-blinding"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.sign(msg, crypto::HashAlgorithm::kSha1, rng));
  }
  set_sign_counters(state);
}
BENCHMARK(BM_SignPlannedReuse)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

/// Unblinded reference (rsa_sign): the floor the blinded paths approach.
void BM_SignUnblinded(benchmark::State& state) {
  const crypto::RsaKeyPair& kp = key_for_bits(static_cast<std::size_t>(state.range(0)));
  const crypto::Bytes msg = sample_message();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::rsa_sign(kp.priv, msg, crypto::HashAlgorithm::kSha1));
  }
  set_sign_counters(state);
}
BENCHMARK(BM_SignUnblinded)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

/// Coalesced TA batch: N queued fixes signed in one world switch. Arg =
/// batch size. Reports signs/sec plus world-switch pairs per sample (the
/// amortization the cost model charges: 1/N instead of 1).
void BM_CoalescedTaBatch(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  tee::DroneTee tee = bench::make_bench_tee("sign-throughput-device");

  gps::GpsReceiverSim::Config rc;
  rc.update_rate_hz = 5.0;
  rc.start_time = kT0;
  gps::GpsReceiverSim sim(rc, [](double t) {
    gps::GpsFix f;
    f.position = {40.1164 + 1e-6 * (t - kT0), -88.2434};
    f.unix_time = t;
    return f;
  });

  const std::uint64_t switches_before = tee.monitor().world_switches();
  std::uint64_t total_samples = 0;
  double t = kT0;
  for (auto _ : state) {
    state.PauseTiming();  // queueing fixes is the receiver's job, not the TA's
    for (std::size_t i = 0; i < batch; ++i) {
      t += 1.0 / rc.update_rate_hz;
      for (const std::string& s : sim.advance_to(t)) tee.feed_gps(s);
    }
    state.ResumeTiming();
    const tee::InvokeResult r = tee.monitor().invoke(
        tee.sampler_uuid(),
        static_cast<std::uint32_t>(tee::SamplerCommand::kGetGpsAuthCoalesced));
    benchmark::DoNotOptimize(r);
    total_samples += r.outputs.size() / 2;
  }
  const std::uint64_t switch_pairs =
      (tee.monitor().world_switches() - switches_before) / 2;
  state.counters["signs_per_sec"] = benchmark::Counter(
      static_cast<double>(total_samples), benchmark::Counter::kIsRate);
  state.counters["switch_pairs_per_sample"] =
      total_samples > 0
          ? static_cast<double>(switch_pairs) / static_cast<double>(total_samples)
          : 0.0;
}
BENCHMARK(BM_CoalescedTaBatch)->Arg(1)->Arg(4)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

// ---- TESLA hash-chain mode ---------------------------------------------

/// Raw TESLA per-sample authentication on the TA's path
/// (crypto::TeslaTagger): K_i from the sender's segment cache and the
/// interval's keyed HMAC state, each built once per interval, then one
/// tag per canonical sample. Five samples per interval (a 5 Hz receiver,
/// 1 s intervals); the interval wraps at the chain's end. Arg = chain
/// length (the √N checkpoint walk is part of the honest per-sample cost).
void BM_TeslaTagPerSample(benchmark::State& state) {
  const std::size_t length = static_cast<std::size_t>(state.range(0));
  crypto::ChainKey seed{};
  seed.fill(0x42);
  crypto::TeslaTagger tagger(seed, length);
  const crypto::Bytes msg = sample_message();
  std::uint64_t n = 0;
  for (auto _ : state) {
    const std::uint64_t interval = (n++ / 5) % length + 1;
    benchmark::DoNotOptimize(tagger.tag(interval, msg));
  }
  set_sign_counters(state);
}
BENCHMARK(BM_TeslaTagPerSample)->Arg(1024)->Arg(65536)
    ->Unit(benchmark::kMicrosecond);

/// The full TA command (kGetGpsTesla): world-switch pair + sample
/// encoding + chain-key tag, i.e. what replaces kGetGpsAuth's per-sample
/// RSA signature in TESLA mode.
void BM_TeslaTaPerSample(benchmark::State& state) {
  tee::DroneTee tee = bench::make_bench_tee("tesla-throughput-device");

  gps::GpsReceiverSim::Config rc;
  rc.update_rate_hz = 5.0;
  rc.start_time = kT0;
  gps::GpsReceiverSim sim(rc, [](double t) {
    gps::GpsFix f;
    f.position = {40.1164 + 1e-6 * (t - kT0), -88.2434};
    f.unix_time = t;
    return f;
  });
  for (const std::string& s : sim.advance_to(kT0)) tee.feed_gps(s);

  const auto be32 = [](std::uint32_t v) {
    return crypto::Bytes{static_cast<std::uint8_t>(v >> 24),
                         static_cast<std::uint8_t>(v >> 16),
                         static_cast<std::uint8_t>(v >> 8),
                         static_cast<std::uint8_t>(v)};
  };
  const crypto::Bytes interval_us{0, 0, 0, 0, 0, 0x03, 0x0D, 0x40};  // 200ms
  const std::vector<crypto::Bytes> begin_params{be32(1024), be32(2),
                                                interval_us};
  const tee::InvokeResult begun = tee.monitor().invoke(
      tee.sampler_uuid(), static_cast<std::uint32_t>(tee::SamplerCommand::kTeslaBegin),
      begin_params);
  if (!begun.ok()) state.SkipWithError("kTeslaBegin failed");

  const std::uint64_t switches_before = tee.monitor().world_switches();
  std::uint64_t samples = 0;
  for (auto _ : state) {
    // The receiver is not advanced: the steady-state per-sample cost is
    // measured on one fix/interval, unbounded by the chain length.
    const tee::InvokeResult r = tee.monitor().invoke(
        tee.sampler_uuid(),
        static_cast<std::uint32_t>(tee::SamplerCommand::kGetGpsTesla));
    benchmark::DoNotOptimize(r);
    if (r.ok()) ++samples;
  }
  const std::uint64_t switch_pairs =
      (tee.monitor().world_switches() - switches_before) / 2;
  state.counters["signs_per_sec"] = benchmark::Counter(
      static_cast<double>(samples), benchmark::Counter::kIsRate);
  state.counters["switch_pairs_per_sample"] =
      samples > 0
          ? static_cast<double>(switch_pairs) / static_cast<double>(samples)
          : 0.0;
}
BENCHMARK(BM_TeslaTaPerSample)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace alidrone

BENCHMARK_MAIN();

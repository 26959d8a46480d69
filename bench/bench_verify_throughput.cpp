// PoA verification throughput: the Auditor-side hot path at scale.
//
// Measures proofs-verified-per-second for the serial loop vs. the
// ThreadPool-backed batch path (1/2/4/8 workers), and isolates the
// Montgomery context cache by re-verifying under a cold cache
// (R^2 setup rebuilt every operation) vs. the warm process-wide cache.
// The engine's zero-allocation gate is a ctest case
// (tests/perf_guard_test.cpp, label perf-guard).
#include <benchmark/benchmark.h>

#include <vector>

#include "core/auditor.h"
#include "core/messages.h"
#include "core/poa.h"
#include "crypto/montgomery.h"
#include "crypto/random.h"
#include "crypto/rsa.h"
#include "geo/geopoint.h"
#include "runtime/thread_pool.h"
#include "tee/sample_codec.h"

namespace alidrone {
namespace {

constexpr double kT0 = 1528400000.0;

/// One registered drone plus a corpus of valid per-sample-signed proofs
/// (the paper-baseline mode, one RSA verify per sample).
struct VerifyCorpus {
  crypto::DeterministicRandom auditor_rng{std::string_view("throughput-auditor")};
  core::Auditor auditor{512, auditor_rng};
  crypto::RsaKeyPair tee_keys;
  std::vector<core::ProofOfAlibi> poas;
  std::size_t total_samples = 0;

  VerifyCorpus(std::size_t n_poas, std::size_t samples_per_poa) {
    crypto::DeterministicRandom key_rng(std::string_view("throughput-keys"));
    tee_keys = crypto::generate_rsa_keypair(512, key_rng);
    const crypto::RsaKeyPair op_keys = crypto::generate_rsa_keypair(512, key_rng);

    core::RegisterDroneRequest reg;
    reg.operator_key_n = op_keys.pub.n.to_bytes();
    reg.operator_key_e = op_keys.pub.e.to_bytes();
    reg.tee_key_n = tee_keys.pub.n.to_bytes();
    reg.tee_key_e = tee_keys.pub.e.to_bytes();
    const core::DroneId drone_id = auditor.register_drone(reg).drone_id;

    for (std::size_t p = 0; p < n_poas; ++p) {
      core::ProofOfAlibi poa;
      poa.drone_id = drone_id;
      poa.mode = core::AuthMode::kRsaPerSample;
      poa.hash = crypto::HashAlgorithm::kSha1;
      for (std::size_t s = 0; s < samples_per_poa; ++s) {
        gps::GpsFix fix;
        fix.position = geo::GeoPoint{40.0 + 0.001 * static_cast<double>(p),
                                     -88.0 + 0.001 * static_cast<double>(s)};
        fix.unix_time = kT0 + static_cast<double>(p * samples_per_poa + s);
        core::SignedSample sample;
        sample.sample = tee::encode_sample(fix);
        sample.signature = crypto::rsa_sign(tee_keys.priv, sample.sample, poa.hash);
        poa.samples.push_back(std::move(sample));
        ++total_samples;
      }
      poas.push_back(std::move(poa));
    }
  }

  /// Keep retention from growing without bound across iterations.
  void reset_retention() { auditor.expire_poas(kT0 + 1e12); }
};

VerifyCorpus& corpus() {
  static VerifyCorpus c(/*n_poas=*/32, /*samples_per_poa=*/8);
  return c;
}

void set_counters(benchmark::State& state, const VerifyCorpus& c) {
  state.counters["proofs_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * c.poas.size()),
      benchmark::Counter::kIsRate);
  state.counters["sample_verifies_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * c.total_samples),
      benchmark::Counter::kIsRate);
  state.counters["proofs_per_batch"] = static_cast<double>(c.poas.size());
}

/// Serial baseline: verify_poa in a loop (warm context cache).
void BM_VerifyBatchSerial(benchmark::State& state) {
  VerifyCorpus& c = corpus();
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.auditor.verify_poa_batch(c.poas, kT0, nullptr));
    c.reset_retention();
  }
  set_counters(state, c);
}
BENCHMARK(BM_VerifyBatchSerial)->Unit(benchmark::kMillisecond);

/// Pooled batch path; Arg = worker count.
void BM_VerifyBatchPooled(benchmark::State& state) {
  VerifyCorpus& c = corpus();
  runtime::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.auditor.verify_poa_batch(c.poas, kT0, &pool));
    c.reset_retention();
  }
  set_counters(state, c);
}
BENCHMARK(BM_VerifyBatchPooled)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Montgomery cache ablation — the serial sample-verify sweep over the
/// whole corpus with the process-wide context cache emptied before every
/// verify (every operation pays the R^2 setup division again) vs. the
/// warm cache.
void BM_SampleVerifiesSerialColdContext(benchmark::State& state) {
  VerifyCorpus& c = corpus();
  for (auto _ : state) {
    for (const core::ProofOfAlibi& poa : c.poas) {
      for (const core::SignedSample& s : poa.samples) {
        crypto::MontgomeryContextCache::global().clear();
        benchmark::DoNotOptimize(crypto::rsa_verify(
            c.tee_keys.pub, s.sample, s.signature, crypto::HashAlgorithm::kSha1));
      }
    }
  }
  set_counters(state, c);
}
BENCHMARK(BM_SampleVerifiesSerialColdContext)->Unit(benchmark::kMillisecond);

void BM_SampleVerifiesSerialCachedContext(benchmark::State& state) {
  VerifyCorpus& c = corpus();
  for (auto _ : state) {
    for (const core::ProofOfAlibi& poa : c.poas) {
      for (const core::SignedSample& s : poa.samples) {
        benchmark::DoNotOptimize(crypto::rsa_verify(
            c.tee_keys.pub, s.sample, s.signature, crypto::HashAlgorithm::kSha1));
      }
    }
  }
  set_counters(state, c);
}
BENCHMARK(BM_SampleVerifiesSerialCachedContext)->Unit(benchmark::kMillisecond);

/// The allocation-free per-key engine, reused across the whole corpus —
/// the verify inner loop the Auditor actually runs.
void BM_SampleVerifiesEngine(benchmark::State& state) {
  VerifyCorpus& c = corpus();
  crypto::RsaVerifyEngine engine(c.tee_keys.pub);
  for (auto _ : state) {
    for (const core::ProofOfAlibi& poa : c.poas) {
      for (const core::SignedSample& s : poa.samples) {
        benchmark::DoNotOptimize(
            engine.verify(s.sample, s.signature, crypto::HashAlgorithm::kSha1));
      }
    }
  }
  set_counters(state, c);
}
BENCHMARK(BM_SampleVerifiesEngine)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace alidrone

BENCHMARK_MAIN();

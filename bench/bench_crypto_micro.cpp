// Ablation A1: crypto microbenchmarks grounding Table II and the
// Section VII-A1 discussion — per-operation costs of everything the PoA
// pipeline uses, on this host (absolute numbers differ from the Pi 3;
// ratios are what matter: RSA-2048 sign >> RSA-1024 sign >> HMAC).
#include <benchmark/benchmark.h>

#include "crypto/chacha20.h"
#include "crypto/ecdsa.h"
#include "crypto/hash_chain.h"
#include "crypto/hmac.h"
#include "crypto/montgomery.h"
#include "crypto/prime.h"
#include "crypto/rsa.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace alidrone::crypto {
namespace {

const RsaKeyPair& key_for(std::size_t bits) {
  static const RsaKeyPair k512 = [] {
    DeterministicRandom rng("bench-512");
    return generate_rsa_keypair(512, rng);
  }();
  static const RsaKeyPair k1024 = [] {
    DeterministicRandom rng("bench-1024");
    return generate_rsa_keypair(1024, rng);
  }();
  static const RsaKeyPair k2048 = [] {
    DeterministicRandom rng("bench-2048");
    return generate_rsa_keypair(2048, rng);
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

const Bytes& sample_bytes() {
  static const Bytes sample(32, 0x5A);  // one canonical GPS sample
  return sample;
}

void BM_RsaSign(benchmark::State& state) {
  const RsaKeyPair& kp = key_for(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rsa_sign(kp.priv, sample_bytes(), HashAlgorithm::kSha1));
  }
}
BENCHMARK(BM_RsaSign)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

void BM_RsaVerify(benchmark::State& state) {
  const RsaKeyPair& kp = key_for(static_cast<std::size_t>(state.range(0)));
  const Bytes sig = rsa_sign(kp.priv, sample_bytes(), HashAlgorithm::kSha1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rsa_verify(kp.pub, sample_bytes(), sig, HashAlgorithm::kSha1));
  }
}
BENCHMARK(BM_RsaVerify)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

void BM_RsaEncrypt(benchmark::State& state) {
  const RsaKeyPair& kp = key_for(static_cast<std::size_t>(state.range(0)));
  DeterministicRandom rng("bench-encrypt");
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_encrypt(kp.pub, sample_bytes(), rng));
  }
}
BENCHMARK(BM_RsaEncrypt)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

void BM_RsaDecrypt(benchmark::State& state) {
  const RsaKeyPair& kp = key_for(static_cast<std::size_t>(state.range(0)));
  DeterministicRandom rng("bench-decrypt");
  const Bytes ct = rsa_encrypt(kp.pub, sample_bytes(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_decrypt(kp.priv, ct));
  }
}
BENCHMARK(BM_RsaDecrypt)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

void BM_RsaKeygen(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    DeterministicRandom rng(seed++);
    benchmark::DoNotOptimize(
        generate_rsa_keypair(static_cast<std::size_t>(state.range(0)), rng));
  }
}
BENCHMARK(BM_RsaKeygen)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_Sha1(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0x42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(32)->Arg(1024)->Arg(65536);

void BM_Sha256(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0x42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(32)->Arg(1024)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key(32, 0x11);
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0x42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha256::mac(key, data));
  }
}
BENCHMARK(BM_HmacSha256)->Arg(32)->Arg(1024);

void BM_ChaCha20(benchmark::State& state) {
  const Bytes key(32, 0x11);
  const Bytes nonce(12, 0x22);
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0x42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ChaCha20::crypt(key, nonce, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(32)->Arg(4096);

void BM_EcdsaSign(benchmark::State& state) {
  DeterministicRandom rng("bench-ecdsa");
  const EcdsaKeyPair kp = ecdsa_generate(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecdsa_sign(kp.private_key, sample_bytes()));
  }
}
BENCHMARK(BM_EcdsaSign)->Unit(benchmark::kMicrosecond);

void BM_EcdsaVerify(benchmark::State& state) {
  DeterministicRandom rng("bench-ecdsa");
  const EcdsaKeyPair kp = ecdsa_generate(rng);
  const EcdsaSignature sig = ecdsa_sign(kp.private_key, sample_bytes());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecdsa_verify(kp.public_key, sample_bytes(), sig));
  }
}
BENCHMARK(BM_EcdsaVerify)->Unit(benchmark::kMicrosecond);

void BM_EcdsaKeygen(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    DeterministicRandom rng(seed++);
    benchmark::DoNotOptimize(ecdsa_generate(rng));
  }
}
BENCHMARK(BM_EcdsaKeygen)->Unit(benchmark::kMicrosecond);

// Satellite of the 64-bit bignum PR: the surviving BigInt call sites now
// accumulate in place (operator+= / -= reuse this->limbs_ capacity)
// instead of routing through the full-copy operator+ / operator-. The
// pair below is the before/after: same running sum, copy vs in-place.
void BM_BigIntAccumulateCopy(benchmark::State& state) {
  DeterministicRandom rng("bench-bigint-accum");
  const BigInt step = rng.random_bits(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    BigInt sum;
    for (int i = 0; i < 64; ++i) sum = sum + step;  // copy per add
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BigIntAccumulateCopy)->Arg(1024)->Arg(4096);

void BM_BigIntAccumulateInPlace(benchmark::State& state) {
  DeterministicRandom rng("bench-bigint-accum");
  const BigInt step = rng.random_bits(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    BigInt sum;
    for (int i = 0; i < 64; ++i) sum += step;  // capacity reused
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BigIntAccumulateInPlace)->Arg(1024)->Arg(4096);

// ---- TESLA hash-chain primitives (the hash-chain PoA mode) -------------

/// Chain construction: N SHA-256 steps from seed to anchor, plus the
/// checkpoint cache. Paid once per flight.
void BM_TeslaChainBuild(benchmark::State& state) {
  ChainKey seed{};
  seed.fill(0x5A);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashChain(seed, n));
  }
  state.counters["hashes_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(n),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TeslaChainBuild)->Arg(1024)->Arg(65536)
    ->Unit(benchmark::kMicrosecond);

/// Checkpoint-cache ablation: K_i lookup cost by stride. Args: {length,
/// stride} — stride 1 caches every key (O(1) lookups, N keys of memory),
/// 0 the √N default, `length` a single checkpoint (worst-case walk).
/// The hashes_per_key counter is the chain's own derive_hashes() meter.
void BM_TeslaChainKey(benchmark::State& state) {
  ChainKey seed{};
  seed.fill(0x5A);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  HashChain chain(seed, n, static_cast<std::size_t>(state.range(1)));
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.key((i++ * 7919) % n + 1));
  }
  state.counters["hashes_per_key"] =
      state.iterations() > 0
          ? static_cast<double>(chain.derive_hashes()) /
                static_cast<double>(state.iterations())
          : 0.0;
}
BENCHMARK(BM_TeslaChainKey)
    ->Args({4096, 1})->Args({4096, 0})->Args({4096, 256})->Args({4096, 4096})
    ->Unit(benchmark::kMicrosecond);

/// Per-interval tag key (MAC-key separation, then keying the HMAC) plus
/// one tag over interval || sample: the TESLA signing cost of an interval
/// with a single sample once K_i is in hand.
void BM_TeslaTag(benchmark::State& state) {
  ChainKey key{};
  key.fill(0x77);
  std::uint64_t interval = 0;
  for (auto _ : state) {
    const HmacSha256 tag_key = tesla_tag_key(key);
    benchmark::DoNotOptimize(tesla_tag(tag_key, ++interval, sample_bytes()));
  }
  state.counters["tags_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TeslaTag)->Unit(benchmark::kMicrosecond);

/// Verifier frontier: one full flight of in-order disclosures costs N
/// hashes total (the per-accept cost here is a single chain step).
void BM_TeslaFrontierAccept(benchmark::State& state) {
  ChainKey seed{};
  seed.fill(0x5A);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  HashChain chain(seed, n, 1);  // stride 1: O(1) key lookups
  std::vector<ChainKey> keys;
  keys.reserve(n);
  for (std::size_t i = 1; i <= n; ++i) keys.push_back(chain.key(i));
  for (auto _ : state) {
    ChainFrontier frontier(chain.anchor(), n);
    for (std::size_t i = 1; i <= n; ++i) {
      if (!frontier.accept(i, keys[i - 1])) std::abort();  // keys are genuine
    }
    benchmark::DoNotOptimize(frontier);
  }
  state.counters["accepts_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(n),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TeslaFrontierAccept)->Arg(1024)->Arg(16384)
    ->Unit(benchmark::kMicrosecond);

/// One limb64::mont_mul at k limbs (64k-bit odd modulus, top bit set):
/// the kernel under every RSA sign, verify and Miller-Rabin round. The
/// product feeds the next one, so each iteration waits on the last, as
/// in an exponentiation. k = 4 and 8 are the CRT primes and moduli of a
/// 512-bit key.
void BM_MontMul(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  DeterministicRandom rng("bench-montmul");
  const BigInt m = (BigInt(1) << (64 * k - 1)) +
                   rng.random_bits(64 * k - 2) * BigInt(2) + BigInt(1);
  const MontgomeryContext ctx(m);
  const limb64::Mont& mont = ctx.mont();
  std::vector<limb64::Limb> acc(k), b(k), t(k + 2);
  ctx.load(ctx.to_mont(rng.random_range(BigInt(0), m - BigInt(1))), acc.data());
  ctx.load(ctx.to_mont(rng.random_range(BigInt(0), m - BigInt(1))), b.data());
  for (auto _ : state) {
    limb64::mont_mul(mont, acc.data(), b.data(), acc.data(), t.data());
    benchmark::DoNotOptimize(acc.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MontMul)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

/// Despite the name, is_probable_prime's full cost on a known prime:
/// trial division by the 6,542 primes below 2^16, then 16 Miller-Rabin
/// rounds (an accepted keygen prime pays 32 rounds and no division).
void BM_MillerRabin(benchmark::State& state) {
  DeterministicRandom rng("bench-mr");
  const BigInt prime = generate_prime(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(is_probable_prime(prime, rng, 16));
  }
}
BENCHMARK(BM_MillerRabin)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace alidrone::crypto

BENCHMARK_MAIN();

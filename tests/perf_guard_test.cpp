// Performance gates (ctest label perf-guard). This executable replaces
// the global operator new with a counting one, so allocation gates can
// assert an exact zero, and it holds every pass/fail performance check
// the repo enforces. Throughput numbers live in perfbench/; these cases
// only guard the properties the protocol's cost model depends on.
//
// Verify inner loop: a warm RsaVerifyEngine must verify with no heap
// allocation at every kernel width a protocol key reaches: k = 8
// (512-bit keys, a fixed-width Montgomery kernel) and k = 16, 32 and 64
// (1024-, 2048- and 4096-bit keys, the run-time width loop). The k = 4
// kernel, which only the 256-bit CRT primes of signing use, is checked
// directly. The keys are multi-prime: n is a product of distinct 64-bit
// primes, so a 4096-bit key with a known private exponent costs
// milliseconds instead of a two-prime keygen's seconds. The engine only
// sees n and e, and its work depends only on n's limb count.
//
// TESLA mode (the Section VII answer to per-sample RSA cost): the TA's
// per-sample tag path allocates nothing, spends at most 4 SHA-256 blocks
// per sample, a whole flight through the TA costs exactly one RSA
// private operation, and a tag is at least 100x faster than a planned
// RSA-2048 signature.
//
// Wire decode: a submission goes from socket bytes to a parsed PoaView
// (FrameAssembler -> parse_request -> SubmitPoaRequest::decode_view ->
// PoaView::parse_into) with no heap allocation once buffers are warm.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "core/messages.h"
#include "core/poa.h"
#include "crypto/hash_chain.h"
#include "crypto/montgomery.h"
#include "crypto/prime.h"
#include "crypto/random.h"
#include "crypto/rsa.h"
#include "gps/receiver_sim.h"
#include "net/buffer_pool.h"
#include "net/transport/frame.h"
#include "obs/metrics.h"
#include "tee/gps_sampler_ta.h"
#include "tee/sample_codec.h"
#include "tee/secure_monitor.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace alidrone::crypto {
namespace {

/// RSA key whose modulus is the product of `limbs` distinct 64-bit primes
/// (top bit set, so n has exactly `limbs` 64-bit limbs), e = 65537 and d
/// the inverse of e modulo prod(p_i - 1). No CRT fields: rsa_sign takes
/// the plain m^d mod n path.
RsaKeyPair multi_prime_key(std::size_t limbs, RandomSource& rng) {
  const BigInt e(65537);
  BigInt n(1);
  BigInt phi(1);
  std::vector<BigInt> primes;
  while (primes.size() < limbs) {
    const BigInt p = generate_prime(64, rng);
    bool repeated = false;
    for (const BigInt& q : primes) repeated = repeated || q == p;
    if (repeated || BigInt::gcd(p - BigInt(1), e) != BigInt(1)) continue;
    primes.push_back(p);
    n = n * p;
    phi = phi * (p - BigInt(1));
  }
  RsaKeyPair key;
  key.pub = RsaPublicKey{n, e};
  key.priv.n = n;
  key.priv.e = e;
  key.priv.d = e.mod_inverse(phi);
  return key;
}

TEST(AllocGuard, CounterSeesAllocations) {
  const std::uint64_t before = allocations();
  void* volatile p = ::operator new(16);  // a call, which cannot be elided
  ::operator delete(p);
  EXPECT_EQ(allocations() - before, 1u);
}

class VerifyAllocGuard : public ::testing::TestWithParam<std::size_t> {};

TEST_P(VerifyAllocGuard, WarmVerifyAllocatesNothing) {
  const std::size_t limbs = GetParam();
  DeterministicRandom rng("alloc-guard");
  const RsaKeyPair key = multi_prime_key(limbs, rng);
  ASSERT_TRUE(RsaVerifyEngine::supports(key.pub));

  std::vector<Bytes> messages;
  std::vector<Bytes> signatures;
  for (std::uint8_t i = 0; i < 4; ++i) {
    messages.push_back(Bytes{'s', 'a', 'm', 'p', 'l', 'e', i});
    signatures.push_back(rsa_sign(key.priv, messages.back(), HashAlgorithm::kSha256));
  }
  Bytes forged = signatures.front();
  forged[forged.size() / 2] ^= 0x10;

  RsaVerifyEngine engine(key.pub);
  ASSERT_EQ(engine.context().limb_count(), limbs);
  for (std::size_t i = 0; i < messages.size(); ++i) {  // warm-up
    ASSERT_TRUE(engine.verify(messages[i], signatures[i], HashAlgorithm::kSha256));
  }

  // Nothing in the measured loop may allocate, gtest assertions included:
  // tally the verdicts and assert afterwards.
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  const std::uint64_t before = allocations();
  for (int round = 0; round < 8; ++round) {
    for (std::size_t i = 0; i < messages.size(); ++i) {
      accepted += engine.verify(messages[i], signatures[i], HashAlgorithm::kSha256);
    }
    rejected += !engine.verify(messages.front(), forged, HashAlgorithm::kSha256);
  }
  const std::uint64_t allocated = allocations() - before;

  EXPECT_EQ(allocated, 0u) << 64 * limbs << "-bit key";
  EXPECT_EQ(accepted, 8 * messages.size());
  EXPECT_EQ(rejected, 8u);
}

INSTANTIATE_TEST_SUITE_P(
    KeyBits, VerifyAllocGuard, ::testing::Values(8, 16, 32, 64),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::to_string(64 * info.param) + "bit";
    });

TEST(AllocGuard, MontgomeryKernelsAllocateNothing) {
  DeterministicRandom rng("alloc-guard-kernel");
  for (const std::size_t k : {4u, 8u, 16u}) {
    const BigInt m = (BigInt(1) << (64 * k - 1)) +
                     rng.random_bits(64 * k - 2) * BigInt(2) + BigInt(1);
    const MontgomeryContext ctx(m);
    const limb64::Mont& mont = ctx.mont();
    std::vector<limb64::Limb> a(k), t(k + 2);
    ctx.load(rng.random_range(BigInt(0), m - BigInt(1)), a.data());

    const std::uint64_t before = allocations();
    for (int i = 0; i < 64; ++i) {
      limb64::mont_mul(mont, a.data(), mont.r2, a.data(), t.data());
      limb64::mont_mul(mont, a.data(), a.data(), a.data(), t.data());
    }
    limb64::redc(mont, a.data(), a.data(), t.data());
    EXPECT_EQ(allocations() - before, 0u) << "k=" << k;
  }
}

}  // namespace
}  // namespace alidrone::crypto

namespace alidrone {
namespace {

constexpr double kT0 = 1528400000.0;

crypto::Bytes sample_message(double t = kT0) {
  gps::GpsFix fix;
  fix.position = {40.1164, -88.2434};
  fix.unix_time = t;
  return tee::encode_sample(fix);
}

crypto::Bytes be_bytes(std::uint64_t v, std::size_t width) {
  crypto::Bytes out(width);
  for (std::size_t i = 0; i < width; ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * (width - 1 - i)));
  }
  return out;
}

/// The TA's per-sample TESLA path (crypto::TeslaTagger): K_interval and
/// its keyed HMAC state are derived once per interval, then each sample
/// costs one tag. Five samples per interval, as a 5 Hz receiver with 1 s
/// intervals (the perfbench TESLA flights) produces.
constexpr std::uint64_t kSamplesPerInterval = 5;

crypto::TeslaTagger test_tagger() {
  crypto::ChainKey seed{};
  seed.fill(0x42);
  return crypto::TeslaTagger(seed, 2048);
}

/// Tag the n-th sample of a flight (n = 0, 1, ...).
crypto::ChainKey tag_nth_sample(crypto::TeslaTagger& tagger, std::uint64_t n,
                                const crypto::Bytes& sample) {
  return tagger.tag(1 + n / kSamplesPerInterval, sample);
}

TEST(TeslaGuard, TagPathAllocatesNothing) {
  crypto::TeslaTagger tagger = test_tagger();
  const crypto::Bytes msg = sample_message();
  (void)tag_nth_sample(tagger, 0, msg);  // warm-up

  volatile std::uint8_t sink = 0;  // keeps the tags live
  const std::uint64_t before = allocations();
  for (std::uint64_t n = 1; n <= 1024; ++n) {
    sink = sink ^ tag_nth_sample(tagger, n, msg)[0];
  }
  EXPECT_EQ(allocations() - before, 0u) << "over 1024 tags";
}

/// A TEE with a 5 Hz GPS receiver starting at kT0, driven one SMC at a
/// time, with its vault's counters in a local registry.
struct TeslaTaRig {
  obs::MetricsRegistry registry;
  tee::DroneTee tee{[this] {
    tee::DroneTee::Config config;
    config.key_bits = 512;
    config.manufacturing_seed = "perf-guard-tesla-device";
    config.metrics = &registry;
    return config;
  }()};
  gps::GpsReceiverSim receiver{
      [] {
        gps::GpsReceiverSim::Config rc;
        rc.update_rate_hz = 5.0;
        rc.start_time = kT0;
        return rc;
      }(),
      [](double t) {
        gps::GpsFix f;
        f.position = {40.1164 + 1e-6 * (t - kT0), -88.2434};
        f.unix_time = t;
        return f;
      }};

  TeslaTaRig() { advance_to(kT0); }

  void advance_to(double t) {
    for (const std::string& s : receiver.advance_to(t)) tee.feed_gps(s);
  }

  tee::InvokeResult invoke(tee::SamplerCommand command,
                           const std::vector<crypto::Bytes>& params = {}) {
    return tee.monitor().invoke(tee.sampler_uuid(),
                                static_cast<std::uint32_t>(command), params);
  }

  /// kTeslaBegin with a 1024-key chain and disclosure delay 2.
  bool begin(std::uint64_t interval_us) {
    return invoke(tee::SamplerCommand::kTeslaBegin,
                  {be_bytes(1024, 4), be_bytes(2, 4), be_bytes(interval_us, 8)})
        .ok();
  }
};

/// A whole TESLA flight through the TA: the kTeslaBegin commitment, 32
/// tagged samples and one disclosure. Only the commitment is signed.
TEST(TeslaGuard, FlightCostsOneRsaPrivateOp) {
  TeslaTaRig rig;
  const auto private_ops = [&rig] {
    std::uint64_t total = 0;
    for (const obs::MetricRecord& record : rig.registry.snapshot()) {
      if (record.name.find("key_vault") != std::string::npos &&
          record.name.ends_with(".private_ops")) {
        total += static_cast<std::uint64_t>(record.value);
      }
    }
    return total;
  };

  const std::uint64_t ops_before = private_ops();
  // One interval per 200 ms fix.
  ASSERT_TRUE(rig.begin(200000));
  std::size_t tagged = 0;
  for (int i = 1; i <= 32; ++i) {
    rig.advance_to(kT0 + 0.2 * i);
    tagged += rig.invoke(tee::SamplerCommand::kGetGpsTesla).ok();
  }
  // The TA's clock is at interval 33; K_1 matured at t0 + (1 + 2) * 0.2 s.
  ASSERT_TRUE(
      rig.invoke(tee::SamplerCommand::kTeslaDisclose, {be_bytes(1, 8)}).ok());

  EXPECT_EQ(tagged, 32u);
  EXPECT_EQ(private_ops() - ops_before, 1u);
}

/// The TA's hash budget per tagged sample, on the process-wide
/// crypto.sha256.blocks counter: 2 blocks for the tag, plus the interval's
/// tag key (6 blocks) and chain walk (about 1 block) shared by its five
/// samples, ~3.5 in all. Keying every sample afresh costs 8 or more.
TEST(TeslaGuard, HashBlocksPerSample) {
  TeslaTaRig rig;
  const obs::Counter& blocks =
      obs::MetricsRegistry::global().counter("crypto.sha256.blocks");
  ASSERT_TRUE(rig.begin(1000000));  // 1 s intervals, 5 fixes each

  constexpr int kSamples = 200;
  std::size_t tagged = 0;
  const std::uint64_t before = blocks.value();
  for (int i = 1; i <= kSamples; ++i) {
    rig.advance_to(kT0 + 0.2 * i);
    tagged += rig.invoke(tee::SamplerCommand::kGetGpsTesla).ok();
  }
  const double per_sample =
      static_cast<double>(blocks.value() - before) / kSamples;

  EXPECT_EQ(tagged, static_cast<std::size_t>(kSamples));
  EXPECT_LE(per_sample, 4.0) << "SHA-256 blocks per tagged sample";
}

/// The mode's Table II headline: a TESLA tag costs at most 1% of the
/// planned-RSA per-sample signature at 2048 bits. Both sides run in
/// interleaved blocks and each keeps its fastest block, so a slow phase
/// of the host hits both or neither.
TEST(TeslaGuard, TagAtLeast100xFasterThanPlannedRsa2048Sign) {
  crypto::DeterministicRandom key_rng("perf-guard-rsa-2048");
  const crypto::RsaKeyPair key = crypto::generate_rsa_keypair(2048, key_rng);
  crypto::RsaSigningPlan plan(key.priv);
  crypto::DeterministicRandom blinding_rng("perf-guard-blinding");
  crypto::TeslaTagger tagger = test_tagger();
  const crypto::Bytes msg = sample_message();
  (void)plan.sign(msg, crypto::HashAlgorithm::kSha1, blinding_rng);  // warm

  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  constexpr int kRounds = 9;
  constexpr int kSignsPerBlock = 2;
  constexpr int kTagsPerBlock = 1024;
  double best_sign_s = std::numeric_limits<double>::infinity();
  double best_tag_s = std::numeric_limits<double>::infinity();
  volatile std::uint8_t sink = 0;
  for (int round = 0; round < kRounds; ++round) {
    Clock::time_point start = Clock::now();
    for (int i = 0; i < kSignsPerBlock; ++i) {
      sink = sink ^ plan.sign(msg, crypto::HashAlgorithm::kSha1, blinding_rng).back();
    }
    best_sign_s = std::min(best_sign_s, seconds_since(start) / kSignsPerBlock);

    // Each block continues the flight where the last one stopped.
    start = Clock::now();
    for (std::uint64_t n = 0; n < kTagsPerBlock; ++n) {
      sink = sink ^ tag_nth_sample(tagger, round * kTagsPerBlock + n, msg)[0];
    }
    best_tag_s = std::min(best_tag_s, seconds_since(start) / kTagsPerBlock);
  }

  const double speedup = best_sign_s / best_tag_s;
  EXPECT_GE(speedup, 100.0) << "planned RSA-2048 " << best_sign_s * 1e3
                            << " ms/sign, TESLA tag " << best_tag_s * 1e6
                            << " us/tag";
}

/// A PoA-sized submission: 400 fixes with 64-byte signatures (decoding
/// never checks them), big enough to span several 16 KiB socket reads.
crypto::Bytes submission_frame() {
  core::ProofOfAlibi poa;
  poa.drone_id = "perf-guard-drone";
  for (int i = 0; i < 400; ++i) {
    poa.samples.push_back(
        {sample_message(kT0 + 0.2 * i), crypto::Bytes(64, static_cast<std::uint8_t>(i))});
  }
  crypto::Bytes frame;
  net::transport::append_request_frame(
      frame, 1, "auditor.submit_poa",
      core::SubmitPoaRequest{poa.serialize()}.encode());
  return frame;
}

TEST(AllocGuard, WireDecodeAllocatesNothing) {
  const crypto::Bytes frame = submission_frame();
  constexpr std::size_t kChunk = 16384;
  net::BufferPool pool(4);
  net::transport::FrameAssembler assembler(&pool);
  core::PoaView view;
  std::size_t decoded = 0;
  std::string error;
  // Feed the frame the way the reactor does: recv() straight into the
  // assembler's writable tail, one socket-sized chunk at a time.
  const auto deliver = [&](std::size_t submissions) {
    for (std::size_t n = 0; n < submissions && error.empty(); ++n) {
      for (std::size_t off = 0; off < frame.size() && error.empty(); off += kChunk) {
        const std::size_t chunk = std::min(kChunk, frame.size() - off);
        std::memcpy(assembler.writable(chunk).data(), frame.data() + off, chunk);
        error = assembler.commit(
            chunk, chunk, [&](std::span<const std::uint8_t> payload) -> std::string {
              net::transport::RequestEnvelope request;
              std::string err = net::transport::parse_request(payload, request);
              if (!err.empty()) return err;
              const auto poa_bytes = core::SubmitPoaRequest::decode_view(request.body);
              if (!poa_bytes) return "bad submit frame";
              if (!core::PoaView::parse_into(*poa_bytes, view)) return "bad PoA";
              ++decoded;
              return std::string();
            });
      }
    }
  };
  deliver(8);  // warm-up: buffer and sample-vector capacities settle
  ASSERT_EQ(error, "");
  ASSERT_GT(frame.size(), 2 * kChunk);

  decoded = 0;
  const std::uint64_t before = allocations();
  deliver(64);
  const std::uint64_t allocated = allocations() - before;

  EXPECT_EQ(allocated, 0u) << "over " << decoded << " submissions";
  EXPECT_EQ(error, "");
  EXPECT_EQ(decoded, 64u);
  EXPECT_EQ(view.samples.size(), 400u);
}

}  // namespace
}  // namespace alidrone

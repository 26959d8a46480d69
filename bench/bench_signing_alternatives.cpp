// Ablation A2 (Section VII-A1): per-sample RSA signatures vs the two
// proposed alternatives — ephemeral symmetric HMAC session keys, and
// caching the trace in secure memory to sign it once at flight end.
//
// Reports (a) real per-sample cost on this host through the actual TEE
// command path, and (b) the sustainable sampling rate each scheme would
// allow on the paper's Raspberry Pi 3 under the calibrated cost model.
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "crypto/rsa.h"
#include "tee/gps_sampler_ta.h"

namespace alidrone::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Feed a fix and invoke `command` n times; returns seconds per call.
double time_command(tee::DroneTee& tee, tee::SamplerCommand command, int n,
                    std::span<const crypto::Bytes> params = {}) {
  const auto start = Clock::now();
  for (int i = 0; i < n; ++i) {
    const tee::InvokeResult result = tee.monitor().invoke(
        tee.sampler_uuid(), static_cast<std::uint32_t>(command), params);
    if (!result.ok()) {
      std::fprintf(stderr, "command %u failed: %s\n",
                   static_cast<unsigned>(command),
                   tee::to_string(result.status).c_str());
      return -1.0;
    }
  }
  return seconds_since(start) / n;
}

void feed_one_fix(tee::DroneTee& tee) {
  gps::GpsReceiverSim::Config rc;
  rc.update_rate_hz = 5.0;
  rc.start_time = kStartTime;
  gps::GpsReceiverSim sim(rc, [](double t) {
    gps::GpsFix f;
    f.position = {40.1164, -88.2434};
    f.unix_time = t;
    return f;
  });
  for (const std::string& s : sim.advance_to(kStartTime)) tee.feed_gps(s);
}

}  // namespace
}  // namespace alidrone::bench

int main() {
  using namespace alidrone;
  using namespace alidrone::bench;

  print_header("Section VII-A1 ablation: per-sample authentication schemes");

  constexpr int kIterations = 200;

  // A real TEE with a 1024-bit key (the paper's short-key configuration).
  tee::DroneTee::Config config;
  config.key_bits = 1024;
  config.manufacturing_seed = "signing-alt-device";
  tee::DroneTee tee(config);
  feed_one_fix(tee);

  // 1. Per-sample RSA (the paper's baseline).
  const double rsa_per_sample =
      time_command(tee, tee::SamplerCommand::kGetGpsAuth, kIterations);

  // 2. HMAC session mode: establish a key with the Auditor, then MAC.
  crypto::DeterministicRandom auditor_rng("signing-alt-auditor");
  const crypto::RsaKeyPair auditor = crypto::generate_rsa_keypair(1024, auditor_rng);
  const std::vector<crypto::Bytes> establish_params{auditor.pub.n.to_bytes(),
                                                    auditor.pub.e.to_bytes()};
  const auto setup_start = std::chrono::steady_clock::now();
  tee.monitor().invoke(
      tee.sampler_uuid(),
      static_cast<std::uint32_t>(tee::SamplerCommand::kEstablishHmacKey),
      establish_params);
  const double hmac_setup = seconds_since(setup_start);
  const double hmac_per_sample =
      time_command(tee, tee::SamplerCommand::kGetGpsHmac, kIterations);

  // 3. Batch mode: append n samples, one signature at the end.
  tee.monitor().invoke(tee.sampler_uuid(),
                       static_cast<std::uint32_t>(tee::SamplerCommand::kBatchBegin));
  const double append_per_sample =
      time_command(tee, tee::SamplerCommand::kBatchAppend, kIterations);
  const auto finalize_start = std::chrono::steady_clock::now();
  tee.monitor().invoke(
      tee.sampler_uuid(),
      static_cast<std::uint32_t>(tee::SamplerCommand::kBatchFinalize));
  const double finalize_cost = seconds_since(finalize_start);
  const double batch_per_sample = append_per_sample + finalize_cost / kIterations;

  print_rule();
  std::printf("  scheme                 per-sample (this host)   one-time cost\n");
  std::printf("  RSA-1024 per sample    %12.1f us            -\n",
              rsa_per_sample * 1e6);
  std::printf("  HMAC session           %12.1f us            %.1f us key setup\n",
              hmac_per_sample * 1e6, hmac_setup * 1e6);
  std::printf("  batch (sign at end)    %12.1f us            %.1f us final sign\n",
              batch_per_sample * 1e6, finalize_cost * 1e6);
  std::printf("  RSA/HMAC speedup: %.0fx\n", rsa_per_sample / hmac_per_sample);

  // Projection onto the Pi 3: sustainable sampling rate per scheme.
  const resource::CostProfile p = resource::CostProfile::raspberry_pi3();
  const double rsa_1024 = p.per_sample_cost(1024);
  const double rsa_2048 = p.per_sample_cost(2048);
  const double hmac_cost =
      2.0 * p.world_switch + p.gps_read_parse + p.hmac_sign + p.persist_sample;
  const double batch_cost = 2.0 * p.world_switch + p.gps_read_parse;

  const double ecdsa_cost =
      2.0 * p.world_switch + p.gps_read_parse + p.ecdsa_sign + p.persist_sample;

  print_rule();
  std::printf("  Pi 3 projection (calibrated model): max sustainable rate\n");
  std::printf("  RSA-1024 per sample    %8.1f Hz   (paper: keeps up with 5 Hz)\n",
              1.0 / rsa_1024);
  std::printf("  RSA-2048 per sample    %8.1f Hz   (paper: cannot keep 5 Hz)\n",
              1.0 / rsa_2048);
  std::printf("  ECDSA P-256 per sample %8.1f Hz   (the \"more efficient scheme\"\n",
              1.0 / ecdsa_cost);
  std::printf("  %36s Section VI-B asks for)\n", "");
  std::printf("  HMAC session           %8.1f Hz\n", 1.0 / hmac_cost);
  std::printf("  batch (sign at end)    %8.1f Hz   + one %.0f ms sign per flight\n",
              1.0 / batch_cost, p.rsa_sign_1024 * 1e3);

  // Real-time streaming vs end-of-flight upload (Section IV-B step 4):
  // the radio-energy reason the paper submits PoAs after landing.
  print_rule();
  std::printf("  Radio energy: per-sample streaming vs one upload per flight\n");
  const resource::RadioModel radio;
  const std::size_t sample_bytes = 32;
  const std::size_t sig_bytes = 128;  // RSA-1024 signature
  for (const std::size_t samples : {27u, 394u}) {  // airport / residential
    const double streaming =
        static_cast<double>(samples) *
        radio.transmit_energy_j(sample_bytes + sig_bytes + 12);
    const double batch =
        radio.transmit_energy_j(samples * (sample_bytes + sig_bytes + 8) + 64);
    std::printf("  %4zu samples: streaming %.2f J vs batch %.3f J (%.0fx)\n",
                samples, streaming, batch, streaming / batch);
  }

  const bool shape_ok = rsa_per_sample > hmac_per_sample &&
                        1.0 / rsa_2048 < 5.0 && 1.0 / rsa_1024 > 5.0 &&
                        1.0 / hmac_cost > 100.0;
  std::printf("shape vs paper: %s\n", shape_ok ? "OK" : "MISMATCH");
  return shape_ok ? 0 : 1;
}

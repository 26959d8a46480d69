// Real-time auditing (paper Section IV-B, step 4).
//
// "To enable real-time auditing, the drone could alternately transmit its
//  PoAs in real-time to the Auditor; however, we do not pursue this
//  solution in our work as it would increase battery drain, violating
//  Goal G2."
//
// This module implements the road not taken so the tradeoff can be
// measured (bench_signing_alternatives prints the energy comparison):
//  - StreamingVerifier: the Auditor-side incremental state. Samples
//    arrive one at a time; each is signature-checked and the consecutive-
//    pair sufficiency condition is evaluated immediately, so a violation
//    is flagged seconds after it happens instead of after landing.
//  - StreamingUplink: the drone-side transmitter, charging radio energy
//    per transmission so the battery cost of per-sample streaming vs one
//    end-of-flight upload is quantified.
#pragma once

#include <optional>
#include <string>

#include "core/poa.h"
#include "core/sufficiency.h"
#include "crypto/rsa.h"
#include "net/transport.h"
#include "resource/cost_model.h"

namespace alidrone::core {

/// Auditor-side incremental PoA verification.
class StreamingVerifier {
 public:
  StreamingVerifier(crypto::RsaPublicKey tee_key, crypto::HashAlgorithm hash,
                    std::vector<geo::GeoZone> zones, double vmax_mps);

  enum class SampleStatus {
    kAccepted,          ///< signature valid, pair sufficient so far
    kBadSignature,      ///< rejected, not counted into the trace
    kMalformed,         ///< undecodable sample bytes
    kOutOfOrder,        ///< timestamp precedes the previous sample
    kInsufficientPair,  ///< accepted, but the alibi gap is a violation
    kInsideZone,        ///< accepted, and the sample is inside an NFZ
  };

  /// Feed the next (sample, signature) pair as it arrives off the radio.
  SampleStatus ingest(const SignedSample& sample);

  std::size_t accepted() const { return accepted_; }
  std::size_t violations() const { return violations_; }
  bool compliant_so_far() const { return violations_ == 0; }
  std::optional<double> last_time() const { return last_time_; }

 private:
  crypto::RsaPublicKey tee_key_;
  crypto::HashAlgorithm hash_;
  std::vector<geo::GeoZone> zones_;
  double vmax_;

  /// Focal-pair test, built when the first accepted sample anchors the
  /// planar frame.
  std::optional<InsufficiencyCounter> pairs_;
  std::optional<double> last_time_;
  std::size_t accepted_ = 0;
  std::size_t violations_ = 0;
};

/// Drone-side uplink: sends each sample as it is recorded and tracks the
/// radio energy spent, so the end-of-flight alternative can be compared.
class StreamingUplink {
 public:
  StreamingUplink(net::Transport& bus, std::string endpoint,
                  resource::RadioModel radio = {});

  /// Transmit one recorded sample; returns false on a dropped link
  /// (the sample stays queued for retransmission with the next one).
  bool send(const SignedSample& sample);

  /// Flush any queued (previously dropped) samples.
  bool flush();

  double energy_joules() const { return energy_j_; }
  std::size_t transmissions() const { return transmissions_; }
  std::size_t queued() const { return queue_.size(); }

  /// Energy a single end-of-flight upload of `n` samples of this size
  /// would cost under the same radio model (the paper's chosen design).
  double batch_upload_energy_j(std::size_t n, std::size_t sample_bytes,
                               std::size_t signature_bytes) const;

 private:
  net::Transport& bus_;
  std::string endpoint_;
  resource::RadioModel radio_;
  std::vector<SignedSample> queue_;
  double energy_j_ = 0.0;
  std::size_t transmissions_ = 0;

  static crypto::Bytes encode(const SignedSample& sample);
};

}  // namespace alidrone::core

#include "core/streaming.h"

#include "net/codec.h"
#include "tee/sample_codec.h"

namespace alidrone::core {

StreamingVerifier::StreamingVerifier(crypto::RsaPublicKey tee_key,
                                     crypto::HashAlgorithm hash,
                                     std::vector<geo::GeoZone> zones,
                                     double vmax_mps)
    : tee_key_(std::move(tee_key)),
      hash_(hash),
      zones_(std::move(zones)),
      vmax_(vmax_mps) {}

StreamingVerifier::SampleStatus StreamingVerifier::ingest(
    const SignedSample& sample) {
  if (!crypto::rsa_verify(tee_key_, sample.sample, sample.signature, hash_)) {
    return SampleStatus::kBadSignature;
  }
  const auto fix = tee::decode_sample(sample.sample);
  if (!fix) return SampleStatus::kMalformed;
  if (last_time_ && fix->unix_time < *last_time_) return SampleStatus::kOutOfOrder;

  // Lazily anchor the planar frame at the first sample.
  if (!pairs_) {
    const geo::LocalFrame frame(fix->position);
    pairs_.emplace(frame, geo::to_local(frame, zones_), vmax_);
  }
  ++accepted_;
  last_time_ = fix->unix_time;

  // Every accepted sample advances the pair test; a sample inside a zone
  // reports that instead, and counts one violation either way.
  const InsufficiencyCounter::Step step = pairs_->add_sample(*fix);
  if (!step.inside && !step.insufficient) return SampleStatus::kAccepted;
  ++violations_;
  return step.inside ? SampleStatus::kInsideZone : SampleStatus::kInsufficientPair;
}

StreamingUplink::StreamingUplink(net::Transport& bus, std::string endpoint,
                                 resource::RadioModel radio)
    : bus_(bus), endpoint_(std::move(endpoint)), radio_(radio) {}

crypto::Bytes StreamingUplink::encode(const SignedSample& sample) {
  net::Writer w;
  w.bytes(sample.sample);
  w.bytes(sample.signature);
  return std::move(w).take();
}

bool StreamingUplink::send(const SignedSample& sample) {
  queue_.push_back(sample);
  return flush();
}

bool StreamingUplink::flush() {
  // One transmission carries everything queued (piggy-backed retries).
  if (queue_.empty()) return true;
  net::Writer w;
  w.u32(static_cast<std::uint32_t>(queue_.size()));
  for (const SignedSample& s : queue_) {
    const crypto::Bytes encoded = encode(s);
    w.bytes(encoded);
  }
  const crypto::Bytes payload = std::move(w).take();

  // Energy is spent whether or not the packet arrives.
  energy_j_ += radio_.transmit_energy_j(payload.size());
  ++transmissions_;
  try {
    bus_.request(endpoint_, payload);
  } catch (const net::TimeoutError&) {
    return false;  // keep queued for the next attempt
  }
  queue_.clear();
  return true;
}

double StreamingUplink::batch_upload_energy_j(std::size_t n,
                                              std::size_t sample_bytes,
                                              std::size_t signature_bytes) const {
  // One transmission for the whole flight, sized like the real PoA body.
  const std::size_t payload = n * (sample_bytes + signature_bytes + 8) + 64;
  return radio_.transmit_energy_j(payload);
}

}  // namespace alidrone::core

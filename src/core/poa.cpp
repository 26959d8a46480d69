#include "core/poa.h"

#include "net/codec.h"
#include "tee/sample_codec.h"

namespace alidrone::core {

std::string to_string(AuthMode mode) {
  switch (mode) {
    case AuthMode::kRsaPerSample:
      return "rsa-per-sample";
    case AuthMode::kHmacSession:
      return "hmac-session";
    case AuthMode::kBatchSignature:
      return "batch-signature";
    case AuthMode::kTeslaChain:
      return "tesla-chain";
  }
  return "unknown";
}

std::optional<gps::GpsFix> SignedSample::fix() const {
  return tee::decode_sample(sample);
}

std::optional<double> ProofOfAlibi::start_time() const {
  if (samples.empty()) return std::nullopt;
  const auto f = samples.front().fix();
  if (!f) return std::nullopt;
  return f->unix_time;
}

std::optional<double> ProofOfAlibi::end_time() const {
  if (samples.empty()) return std::nullopt;
  const auto f = samples.back().fix();
  if (!f) return std::nullopt;
  return f->unix_time;
}

std::size_t ProofOfAlibi::encoded_size() const { return net::wire::encoded_size(*this); }

crypto::Bytes ProofOfAlibi::serialize() const { return net::wire::encode(*this); }

std::optional<ProofOfAlibi> ProofOfAlibi::parse(std::span<const std::uint8_t> data) {
  return net::wire::decode<ProofOfAlibi>(data);
}

std::optional<gps::GpsFix> SignedSampleView::fix() const {
  return tee::decode_sample(sample);
}

bool PoaView::parse_into(std::span<const std::uint8_t> data, PoaView& out) {
  return net::wire::decode_into(data, out);
}

PoaView PoaView::of(const ProofOfAlibi& poa) {
  PoaView view;
  net::wire::convert(poa, view);
  return view;
}

ProofOfAlibi PoaView::materialize() const {
  ProofOfAlibi poa;
  net::wire::convert(*this, poa);
  return poa;
}

std::optional<double> PoaView::start_time() const {
  if (samples.empty()) return std::nullopt;
  const auto f = samples.front().fix();
  if (!f) return std::nullopt;
  return f->unix_time;
}

std::optional<double> PoaView::end_time() const {
  if (samples.empty()) return std::nullopt;
  const auto f = samples.back().fix();
  if (!f) return std::nullopt;
  return f->unix_time;
}

}  // namespace alidrone::core

#include "core/messages.h"

#include "net/codec.h"

namespace alidrone::core {

namespace {

crypto::RsaPublicKey key_from(const crypto::Bytes& n, const crypto::Bytes& e) {
  return {crypto::BigInt::from_bytes(n), crypto::BigInt::from_bytes(e)};
}

/// SubmitPoaRequest with the PoA borrowed from the request frame.
struct SubmitPoaRequestView {
  std::span<const std::uint8_t> poa;

  static constexpr auto fields(auto& m) { return SubmitPoaRequest::fields(m); }
};

}  // namespace

crypto::Bytes polygon_zone_payload(const std::vector<geo::GeoPoint>& vertices,
                                   const std::string& description) {
  return net::wire::encode_fields(std::tie(vertices, description));
}

// encoded_size_hint / encode / decode of every message, derived from its
// field list.
#define ALIDRONE_WIRE_MESSAGE(M)                                       \
  std::size_t M::encoded_size_hint() const {                           \
    return net::wire::encoded_size(*this);                             \
  }                                                                    \
  crypto::Bytes M::encode() const { return net::wire::encode(*this); } \
  std::optional<M> M::decode(std::span<const std::uint8_t> data) {     \
    return net::wire::decode<M>(data);                                 \
  }

ALIDRONE_WIRE_MESSAGE(RegisterDroneRequest)
ALIDRONE_WIRE_MESSAGE(RegisterDroneResponse)
ALIDRONE_WIRE_MESSAGE(RegisterZoneRequest)
ALIDRONE_WIRE_MESSAGE(RegisterZoneResponse)
ALIDRONE_WIRE_MESSAGE(ZoneQueryRequest)
ALIDRONE_WIRE_MESSAGE(ZoneQueryResponse)
ALIDRONE_WIRE_MESSAGE(SubmitPoaRequest)
ALIDRONE_WIRE_MESSAGE(PoaVerdict)
ALIDRONE_WIRE_MESSAGE(TeslaAnnounceRequest)
ALIDRONE_WIRE_MESSAGE(TeslaAck)
ALIDRONE_WIRE_MESSAGE(TeslaSampleBroadcast)
ALIDRONE_WIRE_MESSAGE(TeslaDiscloseRequest)
ALIDRONE_WIRE_MESSAGE(TeslaFinalizeRequest)
ALIDRONE_WIRE_MESSAGE(AccusationRequest)
ALIDRONE_WIRE_MESSAGE(AccusationResponse)

#undef ALIDRONE_WIRE_MESSAGE

std::optional<ZoneQueryRequestView> ZoneQueryRequestView::decode(
    std::span<const std::uint8_t> data) {
  return net::wire::decode<ZoneQueryRequestView>(data);
}

std::optional<TeslaSampleBroadcastView> TeslaSampleBroadcastView::decode(
    std::span<const std::uint8_t> data) {
  return net::wire::decode<TeslaSampleBroadcastView>(data);
}

std::optional<TeslaDiscloseRequestView> TeslaDiscloseRequestView::decode(
    std::span<const std::uint8_t> data) {
  return net::wire::decode<TeslaDiscloseRequestView>(data);
}

std::optional<std::span<const std::uint8_t>> SubmitPoaRequest::decode_view(
    std::span<const std::uint8_t> data) {
  const auto view = net::wire::decode<SubmitPoaRequestView>(data);
  if (!view) return std::nullopt;
  return view->poa;
}

crypto::RsaPublicKey RegisterDroneRequest::operator_key() const {
  return key_from(operator_key_n, operator_key_e);
}

crypto::RsaPublicKey RegisterDroneRequest::tee_key() const {
  return key_from(tee_key_n, tee_key_e);
}

crypto::Bytes RegisterZoneRequest::signed_payload() const {
  return net::wire::encode_prefix<2>(*this);
}

crypto::Bytes AccusationRequest::signed_payload() const {
  return net::wire::encode_prefix<3>(*this);
}

}  // namespace alidrone::core

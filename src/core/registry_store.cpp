#include "core/registry_store.h"

#include <fstream>

#include "net/codec.h"

namespace alidrone::core {

namespace {

constexpr std::uint32_t kMagic = 0xA11D4E61;  // "AliD registry v1"

void write_key(net::Writer& w, const crypto::RsaPublicKey& key) {
  w.bytes(key.n.to_bytes());
  w.bytes(key.e.to_bytes());
}

std::optional<crypto::RsaPublicKey> read_key(net::Reader& r) {
  auto n = r.bytes();
  auto e = r.bytes();
  if (!n || !e) return std::nullopt;
  return crypto::RsaPublicKey{crypto::BigInt::from_bytes(*n),
                              crypto::BigInt::from_bytes(*e)};
}

}  // namespace

void RegistryStore::save(const Snapshot& snapshot) const {
  net::Writer w;
  w.u32(kMagic);
  w.u32(static_cast<std::uint32_t>(snapshot.next_drone_number));
  w.u32(static_cast<std::uint32_t>(snapshot.next_zone_number));

  w.u32(static_cast<std::uint32_t>(snapshot.drones.size()));
  for (const auto& [id, record] : snapshot.drones) {
    w.str(id);
    write_key(w, record.operator_key);
    write_key(w, record.tee_key);
  }

  w.u32(static_cast<std::uint32_t>(snapshot.zones.size()));
  for (const auto& [id, record] : snapshot.zones) {
    w.str(id);
    w.f64(record.zone.center.lat_deg);
    w.f64(record.zone.center.lon_deg);
    w.f64(record.zone.radius_m);
    write_key(w, record.owner_key);
    w.str(record.description);
    w.u8(record.ceiling_m.has_value() ? 1 : 0);
    w.f64(record.ceiling_m.value_or(0.0));
  }

  const std::filesystem::path tmp = file_.string() + ".tmp";
  std::lock_guard<std::mutex> lock(mu_);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("RegistryStore: cannot write " + tmp.string());
    const crypto::Bytes& data = w.data();
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    if (!out) throw std::runtime_error("RegistryStore: short write");
  }
  std::filesystem::rename(tmp, file_);
}

std::optional<RegistryStore::Snapshot> RegistryStore::load() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ifstream in(file_, std::ios::binary);
  if (!in) return std::nullopt;
  const crypto::Bytes data((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());

  net::Reader r(data);
  const auto magic = r.u32();
  if (!magic || *magic != kMagic) return std::nullopt;

  Snapshot snapshot;
  const auto next_drone = r.u32();
  const auto next_zone = r.u32();
  const auto drone_count = r.u32();
  if (!next_drone || !next_zone || !drone_count) return std::nullopt;
  snapshot.next_drone_number = static_cast<int>(*next_drone);
  snapshot.next_zone_number = static_cast<int>(*next_zone);

  for (std::uint32_t i = 0; i < *drone_count; ++i) {
    auto id = r.str();
    auto op_key = read_key(r);
    auto tee_key = read_key(r);
    if (!id || !op_key || !tee_key) return std::nullopt;
    snapshot.drones[*id] = DroneRecord{*id, std::move(*op_key), std::move(*tee_key)};
  }

  const auto zone_count = r.u32();
  if (!zone_count) return std::nullopt;
  for (std::uint32_t i = 0; i < *zone_count; ++i) {
    auto id = r.str();
    auto lat = r.f64();
    auto lon = r.f64();
    auto radius = r.f64();
    auto owner_key = read_key(r);
    auto description = r.str();
    auto has_ceiling = r.u8();
    auto ceiling = r.f64();
    if (!id || !lat || !lon || !radius || !owner_key || !description ||
        !has_ceiling || !ceiling) {
      return std::nullopt;
    }
    // Geometry the Auditor would refuse to register is corruption.
    const geo::GeoZone zone{{*lat, *lon}, *radius};
    if (!geo::is_valid_zone(zone) || *has_ceiling > 1 ||
        (*has_ceiling == 1 && !geo::is_valid_ceiling(*ceiling))) {
      return std::nullopt;
    }
    ZoneRecord record{*id, zone, std::move(*owner_key), std::move(*description), {}};
    if (*has_ceiling == 1) record.ceiling_m = *ceiling;
    snapshot.zones[*id] = std::move(record);
  }

  if (!r.at_end()) return std::nullopt;
  return snapshot;
}

}  // namespace alidrone::core

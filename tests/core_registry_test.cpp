// Durable identity databases: the Auditor's drone/zone registries survive
// restarts through RegistryStore, including 3D ceilings and id counters.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <unistd.h>

#include "core/auditor.h"
#include "core/drone_client.h"
#include "core/zone_owner.h"
#include "net/message_bus.h"

namespace alidrone::core {
namespace {

constexpr std::size_t kTestKeyBits = 512;

class RegistryFixture : public ::testing::Test {
 protected:
  RegistryFixture()
      : file_(std::filesystem::temp_directory_path() /
              ("alidrone_registry_" + std::to_string(::getpid()) + ".bin")) {
    std::filesystem::remove(file_);
  }
  ~RegistryFixture() override { std::filesystem::remove(file_); }

  std::filesystem::path file_;
};

TEST_F(RegistryFixture, SnapshotRoundTrip) {
  RegistryStore store(file_);
  EXPECT_FALSE(store.load().has_value());  // nothing yet

  crypto::DeterministicRandom rng("registry-keys");
  const crypto::RsaKeyPair op = crypto::generate_rsa_keypair(512, rng);
  const crypto::RsaKeyPair tee = crypto::generate_rsa_keypair(512, rng);
  const crypto::RsaKeyPair owner = crypto::generate_rsa_keypair(512, rng);

  RegistryStore::Snapshot snapshot;
  snapshot.next_drone_number = 5;
  snapshot.next_zone_number = 9;
  snapshot.drones["drone-4"] = DroneRecord{"drone-4", op.pub, tee.pub};
  ZoneRecord zone{"zone-8", {{40.1, -88.2}, 33.0}, owner.pub, "lot", {}};
  zone.ceiling_m = 55.0;
  snapshot.zones["zone-8"] = zone;
  store.save(snapshot);

  const auto loaded = store.load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->next_drone_number, 5);
  EXPECT_EQ(loaded->next_zone_number, 9);
  ASSERT_EQ(loaded->drones.size(), 1u);
  EXPECT_EQ(loaded->drones.at("drone-4").tee_key, tee.pub);
  EXPECT_EQ(loaded->drones.at("drone-4").operator_key, op.pub);
  ASSERT_EQ(loaded->zones.size(), 1u);
  const ZoneRecord& z = loaded->zones.at("zone-8");
  EXPECT_DOUBLE_EQ(z.zone.radius_m, 33.0);
  EXPECT_EQ(z.description, "lot");
  ASSERT_TRUE(z.ceiling_m.has_value());
  EXPECT_DOUBLE_EQ(*z.ceiling_m, 55.0);
}

TEST_F(RegistryFixture, CorruptFileLoadsAsNullopt) {
  {
    std::ofstream bad(file_, std::ios::binary);
    bad << "garbage";
  }
  EXPECT_FALSE(RegistryStore(file_).load().has_value());
}

/// A one-zone snapshot written as-is: save() does not validate.
void save_zone(const std::filesystem::path& file, geo::GeoZone zone,
               std::optional<double> ceiling_m) {
  crypto::DeterministicRandom rng("registry-geometry");
  RegistryStore::Snapshot snapshot;
  snapshot.zones["zone-1"] = ZoneRecord{
      "zone-1", zone, crypto::generate_rsa_keypair(512, rng).pub, "lot", ceiling_m};
  RegistryStore(file).save(snapshot);
}

TEST_F(RegistryFixture, LoadRejectsCeilingFlagOtherThanZeroOrOne) {
  save_zone(file_, {{40.1, -88.2}, 33.0}, 55.0);
  ASSERT_TRUE(RegistryStore(file_).load().has_value());
  // The record ends with [has_ceiling u8][ceiling f64].
  std::fstream io(file_, std::ios::binary | std::ios::in | std::ios::out);
  io.seekp(-9, std::ios::end);
  io.put(2);
  io.close();
  EXPECT_FALSE(RegistryStore(file_).load().has_value());
}

TEST_F(RegistryFixture, LoadRejectsGeometryRegistrationRefuses) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    geo::GeoZone zone;
    std::optional<double> ceiling_m;
  } cases[] = {
      {{{nan, -88.2}, 33.0}, {}},  {{{40.1, nan}, 33.0}, {}},
      {{{91.0, -88.2}, 33.0}, {}}, {{{40.1, -88.2}, nan}, {}},
      {{{40.1, -88.2}, inf}, {}},  {{{40.1, -88.2}, 0.0}, {}},
      {{{40.1, -88.2}, 33.0}, nan}, {{{40.1, -88.2}, 33.0}, inf},
      {{{40.1, -88.2}, 33.0}, 0.0},
  };
  for (const auto& c : cases) {
    save_zone(file_, c.zone, c.ceiling_m);
    EXPECT_FALSE(RegistryStore(file_).load().has_value())
        << c.zone.center.lat_deg << " " << c.zone.center.lon_deg << " "
        << c.zone.radius_m << " " << c.ceiling_m.value_or(-1.0);
  }
}

TEST_F(RegistryFixture, AuditorRestartKeepsIdentitiesAndCounters) {
  crypto::DeterministicRandom owner_rng("registry-owner");
  ZoneOwner owner(kTestKeyBits, owner_rng);

  tee::DroneTee::Config config;
  config.key_bits = kTestKeyBits;
  config.manufacturing_seed = "registry-device";
  tee::DroneTee tee(config);

  // First life: register one drone and two zones (one with a ceiling).
  {
    crypto::DeterministicRandom auditor_rng("registry-auditor");
    Auditor auditor(kTestKeyBits, auditor_rng);
    auditor.attach_registry(std::make_shared<RegistryStore>(file_));
    net::MessageBus bus;
    auditor.bind(bus);

    crypto::DeterministicRandom operator_rng("registry-operator");
    DroneClient client(tee, kTestKeyBits, operator_rng);
    ASSERT_TRUE(client.register_with_auditor(bus));
    ASSERT_EQ(client.id(), "drone-1");

    ASSERT_EQ(owner.register_zone(bus, {{40.1, -88.2}, 20.0}, "a"), "zone-1");
    RegisterZoneRequest cyl = owner.make_zone_request({{40.2, -88.3}, 25.0}, "b");
    ASSERT_TRUE(auditor.register_zone_3d(cyl, 60.0).ok);
  }

  // Second life: everything restored, counters continue, queries work.
  {
    crypto::DeterministicRandom auditor_rng("registry-auditor");
    Auditor restarted(kTestKeyBits, auditor_rng);
    restarted.attach_registry(std::make_shared<RegistryStore>(file_));

    EXPECT_EQ(restarted.drone_count(), 1u);
    EXPECT_EQ(restarted.zone_count(), 2u);
    ASSERT_TRUE(restarted.zones().at("zone-2").ceiling_m.has_value());
    EXPECT_DOUBLE_EQ(*restarted.zones().at("zone-2").ceiling_m, 60.0);

    // The restored drone can query zones (operator key survived) and the
    // restored spatial index answers.
    net::MessageBus bus;
    restarted.bind(bus);
    crypto::DeterministicRandom operator_rng("registry-operator");
    DroneClient client(tee, kTestKeyBits, operator_rng);
    // The same TEE + operator key re-registering is idempotent: it gets
    // its original identity back, counted as a duplicate...
    EXPECT_TRUE(client.register_with_auditor(bus));
    EXPECT_EQ(client.id(), "drone-1");
    EXPECT_EQ(restarted.duplicate_registrations(), 1u);

    // ...but the same TEE under a different operator key is refused.
    crypto::DeterministicRandom other_rng("registry-operator-2");
    DroneClient impostor(tee, kTestKeyBits, other_rng);
    EXPECT_FALSE(impostor.register_with_auditor(bus));

    // ...but a new zone gets the next counter, not a recycled id.
    EXPECT_EQ(owner.register_zone(bus, {{40.3, -88.4}, 15.0}, "c"), "zone-3");
  }
}

}  // namespace
}  // namespace alidrone::core

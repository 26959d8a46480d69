// Ablation A5: TEE world-switch overhead and Auditor-side verification
// throughput — the two ends of the PoA pipeline Table II does not break
// out. Uses google-benchmark for the hot paths.
#include <benchmark/benchmark.h>

#include "core/auditor.h"
#include "core/drone_client.h"
#include "core/sampler.h"
#include "core/zone_index.h"
#include "net/message_bus.h"
#include "sim/planner.h"
#include "gps/receiver_sim.h"
#include "sim/scenarios.h"
#include "tee/gps_sampler_ta.h"
#include "tee/secure_monitor.h"

namespace alidrone {
namespace {

constexpr double kT0 = 1528400000.0;

tee::DroneTee& bench_tee() {
  static tee::DroneTee tee = [] {
    tee::DroneTee::Config config;
    config.key_bits = 512;
    config.manufacturing_seed = "tee-bench";
    tee::DroneTee t(config);
    gps::GpsReceiverSim::Config rc;
    rc.update_rate_hz = 5.0;
    rc.start_time = kT0;
    gps::GpsReceiverSim sim(rc, [](double tt) {
      gps::GpsFix f;
      f.position = {40.1164, -88.2434};
      f.unix_time = tt;
      return f;
    });
    for (const std::string& s : sim.advance_to(kT0)) t.feed_gps(s);
    return t;
  }();
  return tee;
}

/// Pure world-switch + dispatch cost: a command that does no crypto.
void BM_WorldSwitchRoundTrip(benchmark::State& state) {
  tee::DroneTee& tee = bench_tee();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tee.monitor().invoke(
        tee.sampler_uuid(),
        static_cast<std::uint32_t>(tee::SamplerCommand::kGetPublicKey)));
  }
}
BENCHMARK(BM_WorldSwitchRoundTrip);

/// Full GetGPSAuth: switch + read + sign (512-bit key on this host).
void BM_GetGpsAuth(benchmark::State& state) {
  tee::DroneTee& tee = bench_tee();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tee.monitor().invoke(
        tee.sampler_uuid(),
        static_cast<std::uint32_t>(tee::SamplerCommand::kGetGpsAuth)));
  }
}
BENCHMARK(BM_GetGpsAuth)->Unit(benchmark::kMicrosecond);

/// End-to-end Auditor verification of a residential-scenario PoA.
struct VerifySetup {
  crypto::DeterministicRandom auditor_rng{std::string_view("verify-bench-auditor")};
  crypto::DeterministicRandom operator_rng{std::string_view("verify-bench-operator")};
  net::MessageBus bus;
  core::Auditor auditor{512, auditor_rng};
  tee::DroneTee tee;
  core::DroneClient client;
  core::ProofOfAlibi poa;

  VerifySetup()
      : tee([] {
          tee::DroneTee::Config config;
          config.key_bits = 512;
          config.manufacturing_seed = "verify-bench-device";
          return config;
        }()),
        client(tee, 512, operator_rng) {
    auditor.bind(bus);
    client.register_with_auditor(bus);

    const sim::Scenario scenario = sim::make_residential_scenario(kT0);
    gps::GpsReceiverSim::Config rc;
    rc.update_rate_hz = 5.0;
    rc.start_time = scenario.route.start_time();
    gps::GpsReceiverSim receiver(rc, scenario.route.as_position_source());
    core::AdaptiveSampler policy(scenario.frame, scenario.local_zones(),
                                 geo::kFaaMaxSpeedMps, 5.0);
    core::FlightConfig config;
    config.end_time = scenario.route.end_time();
    config.frame = scenario.frame;
    config.local_zones = scenario.local_zones();
    poa = client.fly(receiver, policy, config);
  }
};

VerifySetup& verify_setup() {
  static VerifySetup setup;
  return setup;
}

void BM_AuditorVerifyPoa(benchmark::State& state) {
  VerifySetup& s = verify_setup();
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.auditor.verify_poa(s.poa, kT0 + 500));
  }
  state.counters["samples_per_poa"] =
      static_cast<double>(s.poa.samples.size());
  state.counters["verifies_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AuditorVerifyPoa)->Unit(benchmark::kMillisecond);

void BM_PoaSerializeParse(benchmark::State& state) {
  VerifySetup& s = verify_setup();
  for (auto _ : state) {
    const crypto::Bytes bytes = s.poa.serialize();
    benchmark::DoNotOptimize(core::ProofOfAlibi::parse(bytes));
  }
  state.counters["poa_bytes"] = static_cast<double>(s.poa.serialize().size());
}
BENCHMARK(BM_PoaSerializeParse);

/// The residential drive, one decoded fix per second, against `n` zones:
/// the first n of the 94 houses, then seeded extra 20 ft houses scattered
/// over a 4 km square around the route.
struct SufficiencySetup {
  std::vector<gps::GpsFix> fixes;
  std::vector<geo::GeoZone> zones;

  explicit SufficiencySetup(std::size_t n) {
    const sim::Scenario scenario = sim::make_residential_scenario(kT0);
    for (double t = scenario.route.start_time(); t <= scenario.route.end_time();
         t += 1.0) {
      fixes.push_back(scenario.route.state_at(t));
    }
    zones.assign(scenario.zones.begin(),
                 scenario.zones.begin() +
                     static_cast<std::ptrdiff_t>(std::min(n, scenario.zones.size())));
    crypto::DeterministicRandom rng("sufficiency-bench-houses");
    while (zones.size() < n) {
      const geo::Vec2 p{4000.0 * rng.uniform_double() - 2000.0,
                        4000.0 * rng.uniform_double() - 2000.0};
      zones.push_back({scenario.frame.to_geo(p), scenario.zones.front().radius_m});
    }
  }
};

void BM_SufficiencyCheck(benchmark::State& state) {
  const SufficiencySetup s(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::check_sufficiency(s.fixes, s.zones, geo::kFaaMaxSpeedMps));
  }
  state.counters["pairs"] = static_cast<double>(s.fixes.size() - 1);
  state.counters["zones"] = static_cast<double>(s.zones.size());
}
BENCHMARK(BM_SufficiencyCheck)
    ->ArgName("zones")
    ->Arg(1)
    ->Arg(94)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

/// The same 94 houses as 10 m-high cylinders (Section VII-B1).
void BM_SufficiencyCheck3d(benchmark::State& state) {
  const SufficiencySetup s(static_cast<std::size_t>(state.range(0)));
  std::vector<geo::GeoZone3> cylinders;
  for (const geo::GeoZone& z : s.zones) cylinders.push_back({z.center, z.radius_m, 10.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::check_sufficiency_3d(s.fixes, cylinders, geo::kFaaMaxSpeedMps));
  }
  state.counters["pairs"] = static_cast<double>(s.fixes.size() - 1);
  state.counters["zones"] = static_cast<double>(cylinders.size());
}
BENCHMARK(BM_SufficiencyCheck3d)->ArgName("zones")->Arg(94)->Unit(benchmark::kMicrosecond);

/// Zone-query scaling: spatial index vs linear scan at B4UFLY-like sizes.
struct ZoneDb {
  core::ZoneIndex index;
  std::vector<std::pair<core::ZoneId, geo::GeoZone>> flat;

  explicit ZoneDb(int n) {
    crypto::DeterministicRandom rng("zone-db-bench");
    for (int i = 0; i < n; ++i) {
      const geo::GeoZone z{{35.0 + 10.0 * rng.uniform_double(),
                            -95.0 + 10.0 * rng.uniform_double()},
                           50.0};
      const core::ZoneId id = "zone-" + std::to_string(i);
      index.insert(id, z);
      flat.emplace_back(id, z);
    }
  }
};

void BM_ZoneQueryIndexed(benchmark::State& state) {
  const ZoneDb db(static_cast<int>(state.range(0)));
  const core::QueryRect rect{{40.0, -90.5}, {40.3, -90.2}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.index.query_rect(rect));
  }
}
BENCHMARK(BM_ZoneQueryIndexed)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_ZoneQueryLinearScan(benchmark::State& state) {
  const ZoneDb db(static_cast<int>(state.range(0)));
  const core::QueryRect rect{{40.0, -90.5}, {40.3, -90.2}};
  for (auto _ : state) {
    std::vector<core::ZoneId> hits;
    for (const auto& [id, z] : db.flat) {
      if (rect.contains(z.center)) hits.push_back(id);
    }
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_ZoneQueryLinearScan)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_PlannerVisibilityGraph(benchmark::State& state) {
  crypto::DeterministicRandom rng("planner-bench");
  std::vector<geo::Circle> zones;
  for (int i = 0; i < state.range(0); ++i) {
    zones.push_back({{100.0 + 1000.0 * rng.uniform_double(),
                      -300.0 + 600.0 * rng.uniform_double()},
                     20.0 + 20.0 * rng.uniform_double()});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::plan_route({0, 0}, {1200, 0}, zones));
  }
}
BENCHMARK(BM_PlannerVisibilityGraph)->Arg(2)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace alidrone

BENCHMARK_MAIN();

// Tamper-evident ledger + replication bench (robustness PR).
//
// Three measurements, each with a built-in shape check so CI can run this
// as a smoke test without parsing numbers:
//
//   append       entries/sec into an in-memory ledger and into a durable
//                (CRC-framed, flushed) directory-backed ledger. Check:
//                both streams end on the byte-identical root.
//   proofs       inclusion-proof generation and verification per second
//                over the in-memory ledger. Check: every proof verifies
//                against the root, and none verifies under a flipped
//                leaf.
//   catch_up     wall time for a replica that missed W replicated writes
//                (its .apply endpoint dark the whole run) to pull the
//                backlog segment-by-segment from a peer. Check: the
//                reapplied count equals W and both replicas end on the
//                same root.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/replicated_auditor.h"
#include "core/zone_owner.h"
#include "crypto/random.h"
#include "geo/geopoint.h"
#include "ledger/ledger.h"
#include "net/message_bus.h"
#include "resilience/sim_clock.h"

namespace alidrone {
namespace {

constexpr double kT0 = 1528400000.0;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr std::size_t kAppends = 20000;
constexpr std::size_t kDurableAppends = 4000;
constexpr std::size_t kWrites = 100;  ///< replicated writes the laggard misses

crypto::Bytes entry_payload(std::size_t i) {
  const std::string line = std::to_string(kT0 + static_cast<double>(i)) +
                           "|poa_verdict|drone-" + std::to_string(i % 64) +
                           "|ok|speed plausible; zones clear";
  return crypto::Bytes(line.begin(), line.end());
}

std::size_t fill(ledger::Ledger& led, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    led.append(ledger::EntryKind::kAuditEvent, kT0 + static_cast<double>(i),
               entry_payload(i));
  }
  return count;
}

int run() {
  bool ok = true;

  // ---- append throughput -------------------------------------------------
  bench::print_header("ledger append (segment_capacity=256)");
  ledger::Ledger memory_ledger;
  double start = now_s();
  fill(memory_ledger, kAppends);
  const double memory_elapsed = now_s() - start;
  const double memory_aps = static_cast<double>(kAppends) / memory_elapsed;
  std::printf("  in-memory: %zu entries in %.3fs -> %.0f appends/sec\n",
              kAppends, memory_elapsed, memory_aps);

  const auto dir = std::filesystem::temp_directory_path() /
                   "alidrone-bench-ledger-replication";
  std::filesystem::remove_all(dir);
  double durable_aps = 0.0;
  {
    ledger::Ledger::Config config;
    config.directory = dir;
    ledger::Ledger durable_ledger(config);
    start = now_s();
    fill(durable_ledger, kDurableAppends);
    const double durable_elapsed = now_s() - start;
    durable_aps = static_cast<double>(kDurableAppends) / durable_elapsed;
    std::printf("  durable:   %zu entries in %.3fs -> %.0f appends/sec\n",
                kDurableAppends, durable_elapsed, durable_aps);

    // Shape check: the durable stream is the same stream — its root after
    // N entries equals the in-memory ledger's root after the same N.
    ledger::Ledger prefix_ledger;
    fill(prefix_ledger, kDurableAppends);
    if (durable_ledger.root_hash() != prefix_ledger.root_hash()) {
      std::printf("  FAIL: durable root differs from in-memory root\n");
      ok = false;
    }
  }
  std::filesystem::remove_all(dir);

  // ---- inclusion proofs --------------------------------------------------
  bench::print_header("inclusion proofs");
  const ledger::Digest root = memory_ledger.root_hash();
  std::vector<ledger::Ledger::InclusionProof> proofs;
  std::vector<ledger::Digest> leaves;
  proofs.reserve(kAppends);
  leaves.reserve(kAppends);
  start = now_s();
  for (std::uint64_t seq = 0; seq < kAppends; ++seq) {
    auto proof = memory_ledger.prove(seq);
    if (!proof) {
      std::printf("  FAIL: no proof for seq %llu\n",
                  static_cast<unsigned long long>(seq));
      ok = false;
      break;
    }
    leaves.push_back(memory_ledger.entry(seq)->leaf_hash());
    proofs.push_back(std::move(*proof));
  }
  const double prove_elapsed = now_s() - start;
  const double prove_ps = static_cast<double>(proofs.size()) / prove_elapsed;

  std::size_t verified = 0;
  start = now_s();
  for (std::size_t i = 0; i < proofs.size(); ++i) {
    if (ledger::Ledger::verify_inclusion(root, leaves[i], proofs[i])) {
      ++verified;
    }
  }
  const double verify_elapsed = now_s() - start;
  const double verify_ps = static_cast<double>(proofs.size()) / verify_elapsed;
  std::printf("  %zu proofs: %.0f prove/sec, %.0f verify/sec\n", proofs.size(),
              prove_ps, verify_ps);
  if (verified != proofs.size()) {
    std::printf("  FAIL: %zu/%zu proofs verified\n", verified, proofs.size());
    ok = false;
  }
  if (!proofs.empty()) {
    ledger::Digest flipped = leaves[0];
    flipped[0] ^= 0x01;
    if (ledger::Ledger::verify_inclusion(root, flipped, proofs[0])) {
      std::printf("  FAIL: flipped leaf still verified\n");
      ok = false;
    }
  }

  // ---- replication catch-up ----------------------------------------------
  bench::print_header("replication catch-up");
  net::MessageBus bus;
  resilience::SimClock clock(0.0);
  core::ReplicatedAuditor::Config fed_config;
  fed_config.replicas = 2;
  fed_config.key_bits = 512;
  fed_config.key_seed = "bench-ledger-replication";
  fed_config.segment_capacity = 64;
  core::ReplicatedAuditor fed(bus, clock, fed_config);

  // Replica 1 misses everything: its replication inlet is dark for the
  // whole write phase.
  net::MessageBus::FaultConfig faults;
  faults.seed = 1;
  net::FaultWindow window;
  window.endpoint = "auditor1.apply";
  window.start = 0.0;
  window.end = 1e12;
  window.kind = net::FaultKind::kOutage;
  window.probability = 1.0;
  faults.schedule.push_back(window);
  bus.set_faults(faults);

  crypto::DeterministicRandom owner_rng("bench-ledger-owner");
  core::ZoneOwner owner(512, owner_rng);
  const geo::LocalFrame frame(geo::GeoPoint{40.0, -88.0});
  for (std::size_t i = 0; i < kWrites; ++i) {
    const geo::GeoZone zone{
        frame.to_geo(geo::Vec2{static_cast<double>(i) * 50.0, 400.0}), 30.0};
    owner.register_zone(bus, zone, "bench zone " + std::to_string(i),
                        "auditor0");
  }

  bus.set_faults(net::MessageBus::FaultConfig{});  // the outage ends
  start = now_s();
  const auto reapplied = fed.catch_up(1, 0);
  const double catchup_elapsed = now_s() - start;
  const double catchup_wps =
      static_cast<double>(kWrites) / catchup_elapsed;
  std::printf("  %zu missed writes reapplied in %.3fs -> %.0f writes/sec\n",
              kWrites, catchup_elapsed, catchup_wps);
  if (!reapplied || *reapplied != kWrites || !fed.converged()) {
    std::printf("  FAIL: reapplied=%lld converged=%d (want %zu, true)\n",
                reapplied ? static_cast<long long>(*reapplied) : -1,
                fed.converged() ? 1 : 0, kWrites);
    ok = false;
  }

  bench::print_rule();
  std::printf("shape checks: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace alidrone

int main() { return alidrone::run(); }

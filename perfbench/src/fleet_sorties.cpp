// fleet_sorties — the closed-loop fleet workload.
//
// D drones each fly sortie after sortie as FlightActors on a
// FleetScheduler (2 step workers, serial flush) over the in-process bus;
// every PoA goes through AuditorIngest into the sharded Auditor and the
// Merkle ledger. This is the one workload with drone-side work in the
// timed path (GPS ticks, NMEA parsing, per-sample TEE RSA signing). All
// key generation happens in setup, so sorties measure flights, not keys.
#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "core/attacks.h"
#include "core/flight.h"
#include "core/flight_actor.h"
#include "core/sampler.h"
#include "crypto/bytes.h"
#include "crypto/sha256.h"
#include "geo/units.h"
#include "gps/receiver_sim.h"
#include "resilience/sim_clock.h"
#include "sim/campaign.h"
#include "sim/fleet_scheduler.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ad::sim::AttackClass;

/// Two step workers: the parallel path runs, and a stalled host vCPU does
/// not hold up every tick's barrier the way it does with four.
constexpr std::size_t kWorkers = 2;
/// Rounds take off an hour apart on the shared virtual clock; within a
/// round every drone takes off together, so each GPS tick is one batch of
/// D actors that the scheduler steps in parallel.
constexpr double kRoundSpacingS = 3600.0;
/// The campaign's drop-window operator: cut the zone-approach window
/// around `t_close` out of the PoA, always taking the three interior
/// samples nearest the approach; first and last samples survive.
ad::core::ProofOfAlibi drop_approach_window(const ad::core::ProofOfAlibi& poa,
                                            double t_close, double half_window_s) {
  const std::size_t n = poa.samples.size();
  if (n < 3) return poa;
  std::size_t from = n;
  std::size_t to = 0;
  std::size_t nearest = 1;
  double nearest_gap = std::numeric_limits<double>::infinity();
  for (std::size_t i = 1; i + 1 < n; ++i) {
    const auto fix = poa.samples[i].fix();
    if (!fix) continue;
    const double gap = std::abs(fix->unix_time - t_close);
    if (gap < nearest_gap) {
      nearest_gap = gap;
      nearest = i;
    }
    if (gap <= half_window_s) {
      from = std::min(from, i);
      to = std::max(to, i + 1);
    }
  }
  from = std::min(from, nearest >= 2 ? nearest - 1 : 1);
  to = std::max(to, std::min(nearest + 2, n - 1));
  return ad::core::attacks::drop_samples(poa, from, to);
}

/// Everything set up before the timed phase.
struct Fleet {
  World world;
  Family dense;
  Family sparse;
  ad::resilience::SimClock clock{kStartTime - 1.0};
  std::unique_ptr<Deployment> deployment;
  std::unique_ptr<ad::crypto::DeterministicRandom> owner_rng;
  std::unique_ptr<ad::core::ZoneOwner> owner;
  Drone donor;
  std::shared_ptr<ad::core::ProofOfAlibi> donor_poa;
  std::vector<Drone> drones;
  std::vector<ad::core::ProofOfAlibi> forged;  ///< chain-forge PoA per drone

  Fleet()
      : dense(make_family(world, world.residential, "residential", false)),
        sparse(make_family(world, world.airport, "airport", true)) {}
};

/// Zones, then the donor, then the fleet: registration order fixes ids.
bool register_all(Fleet& fleet, Deployment& deployment,
                  std::vector<double>& register_ms) {
  fleet.world.register_zones(*fleet.owner, deployment.local());
  bool ok = register_drone(fleet.donor, deployment.local(), register_ms);
  for (Drone& d : fleet.drones) ok = register_drone(d, deployment.local(), register_ms) && ok;
  return ok;
}

std::unique_ptr<Fleet> set_up(const Options& options, std::size_t drones,
                              std::vector<double>& keygen_ms,
                              std::vector<double>& register_ms, Report& report) {
  auto fleet = std::make_unique<Fleet>();
  fleet->deployment = std::make_unique<Deployment>(options.seed, nullptr, "");
  fleet->owner_rng = std::make_unique<ad::crypto::DeterministicRandom>(
      seed_tag(options.seed, 0, "owner"));
  fleet->owner = std::make_unique<ad::core::ZoneOwner>(kKeyBits, *fleet->owner_rng);
  ad::obs::MetricsRegistry* reg = &fleet->deployment->registry;
  fleet->donor = make_drone(options.seed, drones, reg, keygen_ms);
  for (std::size_t i = 0; i < drones; ++i) {
    fleet->drones.push_back(make_drone(options.seed, i, reg, keygen_ms));
  }
  report.check(register_all(*fleet, *fleet->deployment, register_ms),
               "fleet registration refused");

  // The replay donor's honest residential flight.
  const ad::sim::Scenario& res = fleet->world.residential;
  ad::gps::GpsReceiverSim::Config rc;
  rc.update_rate_hz = kGpsRateHz;
  rc.start_time = res.route.start_time();
  ad::gps::GpsReceiverSim receiver(rc, res.route.as_position_source());
  ad::core::AdaptiveSampler policy(res.frame, fleet->dense.local_zones,
                                   ad::geo::kFaaMaxSpeedMps, kGpsRateHz);
  ad::core::FlightConfig fc;
  fc.end_time = res.route.end_time();
  fc.frame = res.frame;
  fc.local_zones = fleet->dense.local_zones;
  fleet->donor_poa = std::make_shared<ad::core::ProofOfAlibi>(
      fleet->donor.client->fly(receiver, policy, fc));

  // Chain-forge PoAs: a fabricated trace 5 km north of every zone under a
  // fresh attacker key, one per drone, made here so no key generation
  // lands in the timed phase.
  for (std::size_t i = 0; i < drones; ++i) {
    std::vector<ad::gps::GpsFix> fixes;
    for (int s = 0; s < 20; ++s) {
      ad::gps::GpsFix fix;
      fix.position = res.frame.to_geo({10.0 * s, 6000.0});
      fix.unix_time = kStartTime + s;
      fix.speed_mps = 10.0;
      fixes.push_back(fix);
    }
    ad::crypto::DeterministicRandom rng(seed_tag(options.seed, i, "forge"));
    fleet->forged.push_back(ad::core::attacks::forge_trace(
        fleet->drones[i].client->id(), fixes, ad::crypto::HashAlgorithm::kSha1,
        kKeyBits, rng));
  }
  return fleet;
}

/// One sortie's inputs, all derived from (seed, sortie number).
struct Sortie {
  std::size_t number = 0;
  std::size_t drone = 0;
  AttackClass attack = AttackClass::kHonest;
  const Family* family = nullptr;
  std::unique_ptr<ad::sim::Route> route;
  std::unique_ptr<ad::gps::GpsReceiverSim> receiver;
  std::unique_ptr<ad::core::AdaptiveSampler> policy;
  std::unique_ptr<ad::core::FlightActor> actor;
};

/// Bresenham spread of 3/8 adversaries over the sortie sequence, cycling
/// the six attack classes in order — run_campaign's assignment.
AttackClass attack_for(std::size_t k) {
  const std::size_t before = (k * 3) / 8;
  if (((k + 1) * 3) / 8 == before) return AttackClass::kHonest;
  return static_cast<AttackClass>(1 + before % 6);
}

void build_sortie(Fleet& fleet, std::uint64_t seed, std::size_t round,
                  std::size_t d, std::size_t slot, Sortie& s) {
  const std::size_t drones = fleet.drones.size();
  // Attacks follow the slot, so every round has the same attack mix.
  const std::size_t k = round * drones + slot;
  s.number = k;
  s.drone = d;
  s.attack = attack_for(k);
  s.family = slot_is_dense(slot) ? &fleet.dense : &fleet.sparse;
  const double speed = slot_speed(slot, drones);
  const double take_off = kStartTime + static_cast<double>(round) * kRoundSpacingS;
  const Family& fam = *s.family;
  s.route = std::make_unique<ad::sim::Route>(
      scaled_route(*fam.scenario, take_off, speed));
  const double end = fam.end_time(*s.route);

  ad::gps::PositionSource source = s.route->as_position_source();
  if (s.attack == AttackClass::kNavDeviation) {
    source = ad::core::attacks::spoofed_drift_source(
        std::move(source), fam.scenario->frame, fam.nearest_center, take_off + 2.0,
        15.0);
  }
  ad::gps::GpsReceiverSim::Config rc;
  rc.update_rate_hz = kGpsRateHz;
  rc.start_time = take_off;
  rc.seed = mix64(seed ^ k);
  s.receiver = std::make_unique<ad::gps::GpsReceiverSim>(rc, std::move(source));
  s.policy = std::make_unique<ad::core::AdaptiveSampler>(
      fam.scenario->frame, fam.local_zones, ad::geo::kFaaMaxSpeedMps, kGpsRateHz);

  ad::core::FlightConfig fc;
  fc.end_time = end;
  fc.frame = fam.scenario->frame;
  fc.local_zones = fam.local_zones;
  Drone& drone = fleet.drones[d];
  s.actor = std::make_unique<ad::core::FlightActor>(*drone.tee, *s.receiver,
                                                    *s.policy, fc);

  ad::core::FlightActor::Submission sub;
  sub.drone_id = drone.client->id();
  sub.backoff_seed = seed_tag(seed, k, "backoff");
  const double t_close = take_off + fam.close_offset_s / speed;
  switch (s.attack) {
    case AttackClass::kHonest:
    case AttackClass::kNavDeviation:
      break;
    case AttackClass::kChainForge:
      sub.mutate = [forged = fleet.forged[d]](ad::core::ProofOfAlibi) { return forged; };
      break;
    case AttackClass::kReplay:
      sub.mutate = [donor = fleet.donor_poa, id = drone.client->id()](
                       ad::core::ProofOfAlibi) {
        return ad::core::attacks::relay(*donor, id);
      };
      break;
    case AttackClass::kTamper:
      sub.mutate = [center = fam.scenario->frame.to_geo(fam.nearest_center)](
                       ad::core::ProofOfAlibi poa) {
        return ad::core::attacks::tamper_position(poa, poa.samples.size() / 2, center);
      };
      break;
    case AttackClass::kDropWindow:
      sub.mutate = [t_close](ad::core::ProofOfAlibi poa) {
        return drop_approach_window(poa, t_close, 10.0);
      };
      break;
    case AttackClass::kThinningAbuse:
      sub.mutate = [](ad::core::ProofOfAlibi poa) {
        return ad::core::attacks::thinning_abuse(poa, 2);
      };
      break;
  }
  s.actor->set_submission(std::move(sub));
}

/// The verdict shape each class must get.
bool verdict_as_expected(AttackClass attack, const ad::core::PoaVerdict& v) {
  switch (attack) {
    case AttackClass::kHonest:
      return v.accepted && v.compliant && v.violation_count == 0;
    case AttackClass::kChainForge:
    case AttackClass::kReplay:
    case AttackClass::kTamper:
      return !v.accepted;
    case AttackClass::kDropWindow:
    case AttackClass::kThinningAbuse:
      return v.accepted && !v.compliant;
    case AttackClass::kNavDeviation:
      return v.accepted && !v.compliant && v.violation_count > 0;
  }
  return false;
}

struct Phase {
  double wall_s = 0.0;
  double rss_mb = 0.0;  ///< peak RSS after kRssRounds rounds
  std::size_t sorties = 0;
  std::size_t verdicts = 0;
  std::size_t requests = 0;
  std::vector<Window> slices;  ///< one per round
  ad::sim::FleetScheduler::Stats sched;
  std::uint64_t gps_ticks = 0;
  std::uint64_t samples_signed = 0;
};

/// Fly one round (one sortie per drone); returns the round's digest text.
std::string fly_round(Fleet& fleet, Deployment& deployment,
                      ad::resilience::SimClock& clock, const Options& options,
                      std::size_t round, std::size_t workers, Phase& phase,
                      Report& report) {
  const ScopedSpan root(kLayerBench);
  std::vector<Sortie> sorties(fleet.drones.size());
  ad::sim::FleetScheduler scheduler(ad::sim::FleetScheduler::Config{
      options.seed ^ mix64(round), workers, &clock, &deployment.local()});
  {
    const ScopedSpan span(kLayerRoute);
    const std::vector<std::size_t> slots =
        deal_slots(options.seed, round, sorties.size());
    for (std::size_t d = 0; d < sorties.size(); ++d) {
      build_sortie(fleet, options.seed, round, d, slots[d], sorties[d]);
      scheduler.add(*sorties[d].actor);
    }
  }
  {
    const ScopedSpan span(kLayerFlight);
    scheduler.run();
  }
  std::ostringstream digest;
  for (const Sortie& s : sorties) {
    const auto& verdict = s.actor->submission_verdict();
    const bool ok = verdict.has_value() && verdict_as_expected(s.attack, *verdict);
    report.op(ok, std::string("sortie ") + std::to_string(s.number) + " " +
                      ad::sim::attack_class_name(s.attack) + " over " +
                      s.family->name + ": " + (verdict ? verdict->detail : "no verdict"));
    ++phase.sorties;
    if (verdict) ++phase.verdicts;
    phase.requests += s.actor->submission_attempts();
    phase.gps_ticks += s.actor->flight().gps_updates;
    phase.samples_signed += s.actor->flight().authentications;
    digest << s.number << ' ' << ad::sim::attack_class_name(s.attack) << ' '
           << s.family->name;
    if (verdict) {
      digest << ' ' << verdict->accepted << verdict->compliant << ' '
             << verdict->violation_count;
    }
    digest << '\n';
  }
  const auto& st = scheduler.stats();
  phase.sched.steps += st.steps;
  phase.sched.batches += st.batches;
  phase.sched.parallel_batches += st.parallel_batches;
  digest << "ledger " << deployment.ledger().entry_count() << ' '
         << ad::crypto::to_hex(deployment.ledger().root_hash()) << '\n';
  return digest.str();
}

Phase run_phase(Fleet& fleet, const Options& options, std::size_t& next_round,
                Report& report, std::string* round0) {
  Phase phase;
  std::size_t rounds = 0;
  const std::int64_t t0 = now_ns();
  do {
    const std::int64_t r0 = now_ns();
    const std::size_t verdicts0 = phase.verdicts;
    const std::size_t requests0 = phase.requests;
    const std::string digest = fly_round(fleet, *fleet.deployment, fleet.clock,
                                         options, next_round, kWorkers, phase, report);
    Window slice;
    slice.wall_s = seconds_since(r0);
    slice.verdicts = static_cast<double>(phase.verdicts - verdicts0);
    slice.msgs = static_cast<double>(phase.requests - requests0);
    for (const auto& s : fleet.deployment->local().take_samples()) {
      if (s.endpoint == "auditor.submit_poa") slice.latency_ms.push_back(s.ms);
    }
    phase.slices.push_back(std::move(slice));
    if (round0 != nullptr && next_round == 0) *round0 = digest;
    ++next_round;
    if (++rounds == kRssRounds) phase.rss_mb = peak_rss_mb();
  } while (seconds_since(t0) < options.seconds || rounds < kRssRounds);
  phase.wall_s = seconds_since(t0);
  return phase;
}

std::string short_digest(const std::string& text) {
  const auto d = ad::crypto::Sha256::hash(text);
  return ad::crypto::to_hex(d).substr(0, 16);
}

}  // namespace

void run_fleet_sorties(const Options& options, Report& report) {
  const std::size_t drones = options.quick ? 4 : 16;
  const int reps = options.quick ? 1 : kSetupReps;

  std::vector<double> setup_s;
  std::vector<double> keygen_ms;
  std::vector<double> register_ms;
  std::unique_ptr<Fleet> fleet;
  for (int r = 0; r < reps; ++r) {
    fleet.reset();
    const std::int64_t t0 = now_ns();
    fleet = set_up(options, drones, keygen_ms, register_ms, report);
    setup_s.push_back(seconds_since(t0));
  }
  report.note("fleet: " + std::to_string(drones) + " drones, " +
              std::to_string(kWorkers) + " scheduler workers, setup reps " +
              std::to_string(reps));

  std::size_t next_round = 0;
  std::string round0;
  const Phase untraced = run_phase(*fleet, options, next_round, report, &round0);

  // Determinism: round 0 again on a fresh Auditor with a serial
  // scheduler must give the same verdicts and ledger root.
  {
    Deployment check(options.seed, nullptr, "");
    ad::resilience::SimClock clock(kStartTime - 1.0);
    std::vector<double> ignored;
    fleet->world.register_zones(*fleet->owner, check.local());
    bool ok = register_drone(fleet->donor, check.local(), ignored);
    for (Drone& d : fleet->drones) ok = register_drone(d, check.local(), ignored) && ok;
    Phase scratch;
    Report scratch_report;
    const std::string serial =
        fly_round(*fleet, check, clock, options, 0, 1, scratch, scratch_report);
    check.local().take_samples();
    report.check(ok && serial == round0,
                 "round 0 differs between 1 and " + std::to_string(kWorkers) +
                     " scheduler workers");
  }
  report.digest = short_digest(round0);

  // Every round has the same make-up, so each round is a window.
  const WindowedMetrics wm = window_means(untraced.slices, drones, 0.0);
  const double rate = wm.verdicts_per_s;
  report.note("untraced: " + std::to_string(untraced.sorties) + " sorties in " +
              std::to_string(untraced.wall_s) + " s, " + std::to_string(wm.windows) +
              " windows");
  if (!options.trace) {
    emit_end_to_end(report, median(setup_s), untraced.rss_mb, rate, wm.msgs_per_s,
                    wm.latency_p50_ms, wm.latency_p90_ms);
    return;
  }

  // Traced pass: same loop, spans on, counters diffed around it.
  ad::obs::MetricsRegistry& reg = fleet->deployment->registry;
  const auto counter = [&](const char* suffix) {
    return registry_sum(reg, "core.ingest#", suffix);
  };
  const double batches0 = counter(".batches");
  const double committed0 = counter(".committed");
  const double submitted0 = counter(".submitted");
  const double retry0 = counter(".retry_later");
  const double dup0 = counter(".duplicates");
  const double entries0 = static_cast<double>(fleet->deployment->ledger().entry_count());
  fleet->deployment->local().capture("auditor.submit_poa", 200);
  Tracer::get().clear();
  Tracer::get().set_enabled(true);
  const Phase traced = run_phase(*fleet, options, next_round, report, nullptr);
  Tracer::get().set_enabled(false);
  const VerifyDecode vd = time_verify_decode(
      fleet->deployment->auditor(), fleet->deployment->local().take_captured());
  const std::vector<Span> spans = Tracer::get().snapshot();
  if (!options.trace_out.empty()) Tracer::get().write_tsv(options.trace_out);
  const TraceSummary summary = summarize_trace(spans);

  std::map<std::string, double> m;
  const auto self = [&](const char* layer) {
    const auto it = summary.self_s.find(layer);
    return it == summary.self_s.end() ? 0.0 : it->second;
  };
  m["crypto.keygen_ms"] = mean(keygen_ms);
  m["core.register_ms"] = mean(register_ms);
  m["core.flight_actor.self_s"] = self(kLayerFlight);
  m["tee.samples_signed"] = static_cast<double>(traced.samples_signed);
  m["tee.sign_us_per_sample"] =
      traced.samples_signed > 0
          ? self(kLayerFlight) * 1e6 / static_cast<double>(traced.samples_signed)
          : 0.0;
  m["gps.ticks"] = static_cast<double>(traced.gps_ticks);
  m["sim.steps"] = static_cast<double>(traced.sched.steps);
  m["sim.batches"] = static_cast<double>(traced.sched.batches);
  m["sim.parallel_batches"] = static_cast<double>(traced.sched.parallel_batches);
  m["sim.route.self_s"] = self(kLayerRoute);
  m["core.ingest.self_s"] = self(kLayerIngest);
  m["core.ingest.submit_us_p50"] = percentile(summary.handler_us, 0.5);
  m["core.ingest.submit_us_p99"] = percentile(summary.handler_us, 0.99);
  const double batches = counter(".batches") - batches0;
  m["core.ingest.mean_batch"] = batches > 0 ? (counter(".committed") - committed0) / batches : 0.0;
  const double submitted = counter(".submitted") - submitted0;
  m["core.ingest.retry_later_ratio"] =
      submitted > 0 ? (counter(".retry_later") - retry0) / submitted : 0.0;
  m["core.ingest.dup_hits"] = counter(".duplicates") - dup0;
  m["core.auditor.self_s"] = self(kLayerAuditor);
  m["core.auditor.verify_us_per_sample"] = vd.verify_us_per_sample;
  m["core.messages.decode_us"] = vd.decode_us;
  m["net.self_s"] = self(kLayerBus);
  m["ledger.entries_per_op"] =
      (static_cast<double>(fleet->deployment->ledger().entry_count()) - entries0) /
      static_cast<double>(std::max<std::size_t>(traced.sorties, 1));
  m["latency_p99_ms"] = pooled_p99(untraced.slices);
  m["bench.self_s"] = self(kLayerBench);
  m["trace.accounted_ratio"] = summary.root_s > 0 ? summary.accounted : 0.0;
  const double traced_rate =
      window_means(traced.slices, drones, 0.0).verdicts_per_s;
  m["trace.overhead_pct"] = (rate / traced_rate - 1.0) * 100.0;
  report.check(std::abs(summary.accounted - 1.0) <= 0.10,
               "traced layer self times cover " +
                   std::to_string(summary.accounted * 100.0) +
                   "% of the timed wall time (want 90-110%)");
  emit_layer_metrics(report, m);
}

}  // namespace perfbench

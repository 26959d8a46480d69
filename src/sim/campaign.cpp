#include "sim/campaign.h"

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>

#include "core/attacks.h"
#include "core/audit_log.h"
#include "core/auditor.h"
#include "core/drone_client.h"
#include "core/flight.h"
#include "core/flight_actor.h"
#include "core/zone_owner.h"
#include "crypto/bytes.h"
#include "geo/units.h"
#include "geo/zone.h"
#include "ledger/ledger.h"
#include "net/message_bus.h"
#include "obs/metrics.h"
#include "resilience/sim_clock.h"
#include "sim/route.h"

namespace alidrone::sim {

namespace {

constexpr std::size_t kTestKeyBits = 512;
constexpr double kZoneRadiusM = 300.0;
constexpr double kFamilySpacingM = 4000.0;
constexpr std::size_t kStaggerGroups = 8;

const char* const kFamilyNames[3] = {"swarm", "delivery", "corridor"};

std::string seed_tag(std::uint64_t seed, std::size_t i, const char* what) {
  return "campaign-" + std::to_string(seed) + "-" + std::string(what) + "-" +
         std::to_string(i);
}

/// Family zone center in the shared local frame: three geographically
/// separated zones, one per route family.
geo::Vec2 family_zone_center(std::size_t family) {
  return {static_cast<double>(family) * kFamilySpacingM, 1000.0};
}

/// One route of `family`'s shape, jittered laterally by `jitter_y`
/// (meters, away from the zone). Every family skirts its zone — closest
/// boundary approach 120–205 m, near enough that cutting the approach
/// window out of a PoA (or over-thinning it) violates eq. (1), far
/// enough that the honest trace stays compliant.
Route make_family_route(const geo::LocalFrame& frame, std::size_t family,
                        double take_off, double jitter_y) {
  const double fx = family_zone_center(family).x;
  std::vector<Waypoint> wps;
  switch (family) {
    case 0:  // swarm staging loop: dip toward the zone mid-route
      wps = {{{fx - 800.0, 1450.0 + jitter_y}, 40.0},
             {{fx, 1420.0 + jitter_y}, 40.0},
             {{fx + 800.0, 1450.0 + jitter_y}, 40.0}};
      break;
    case 1:  // delivery out-and-back with the drop point nearest the zone
      wps = {{{fx - 700.0, 1500.0 + jitter_y}, 35.0},
             {{fx, 1430.0 + jitter_y}, 35.0},
             {{fx + 700.0, 1500.0 + jitter_y}, 35.0}};
      break;
    default:  // transit corridor: straight traverse past the zone
      wps = {{{fx - 900.0, 1480.0 + jitter_y}, 42.0},
             {{fx + 900.0, 1480.0 + jitter_y}, 42.0}};
  }
  return Route(frame, std::move(wps), take_off);
}

/// Innocuous fabricated trace for the chain-forge operator: a straight
/// line 5 km north of every zone, spanning the flight window.
std::vector<gps::GpsFix> fake_route_fixes(const geo::LocalFrame& frame,
                                          double start, double end,
                                          double rate_hz) {
  std::vector<gps::GpsFix> fixes;
  const double period = 1.0 / rate_hz;
  for (double t = start; t <= end + 1e-9; t += period) {
    gps::GpsFix fix;
    fix.position = frame.to_geo({(t - start) * 10.0, 6000.0});
    fix.unix_time = t;
    fix.speed_mps = 10.0;
    fixes.push_back(fix);
  }
  return fixes;
}

/// Cut the zone-approach window out of the PoA — the drop-window
/// operator hiding where the flight came closest. Drops every sample
/// within ±`half_window_s` of `t_mid` and always at least the three
/// interior samples nearest the approach: adaptive sampling spaces
/// near-zone samples at the sufficiency threshold, so the window can
/// straddle a single long recording interval and catch nothing — but
/// removing the nearest samples merges threshold-tight pairs, whose
/// combined allowance exceeds the surviving focal sum by roughly twice
/// the dropped samples' boundary distances (eq. (1) margin). First and
/// last samples survive, keeping the claimed flight window anchored.
core::ProofOfAlibi drop_approach_window(const core::ProofOfAlibi& poa,
                                        double t_mid, double half_window_s) {
  const std::size_t n = poa.samples.size();
  if (n < 3) return poa;  // nothing interior to hide
  std::size_t from = n;
  std::size_t to = 0;
  std::size_t nearest = 1;
  double nearest_gap = std::numeric_limits<double>::infinity();
  for (std::size_t i = 1; i + 1 < n; ++i) {
    const auto fix = poa.samples[i].fix();
    if (!fix) continue;
    const double gap = std::abs(fix->unix_time - t_mid);
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
  return core::attacks::drop_samples(poa, from, to);
}

struct Rig {
  std::unique_ptr<tee::DroneTee> tee;
  std::unique_ptr<crypto::DeterministicRandom> operator_rng;
  std::unique_ptr<core::DroneClient> client;
  std::unique_ptr<Route> route;
  std::unique_ptr<gps::GpsReceiverSim> receiver;
  std::unique_ptr<core::AdaptiveSampler> policy;
  std::unique_ptr<core::FlightActor> actor;
  AttackClass attack = AttackClass::kHonest;
  std::size_t family = 0;
};

}  // namespace

const char* attack_class_name(AttackClass c) {
  switch (c) {
    case AttackClass::kHonest:
      return "honest";
    case AttackClass::kChainForge:
      return "chain-forge";
    case AttackClass::kReplay:
      return "replay";
    case AttackClass::kTamper:
      return "tamper";
    case AttackClass::kDropWindow:
      return "drop-window";
    case AttackClass::kNavDeviation:
      return "nav-deviation";
    case AttackClass::kThinningAbuse:
      return "thinning-abuse";
  }
  return "unknown";
}

std::string CampaignReport::fingerprint() const {
  std::ostringstream out;
  out << "alidrone-campaign v1 seed=" << seed << " flights=" << outcomes.size()
      << "\n";
  for (const FlightOutcome& o : outcomes) {
    out << o.drone_id << " class=" << attack_class_name(o.attack)
        << " family=" << o.route_family;
    if (o.verdict) {
      out << " accepted=" << (o.verdict->accepted ? 1 : 0)
          << " compliant=" << (o.verdict->compliant ? 1 : 0)
          << " violations=" << o.verdict->violation_count;
    } else {
      out << " verdict=none";
    }
    out << " attempts=" << o.submit_attempts << "\n";
  }
  out << "ingest submitted=" << ingest.submitted
      << " admitted=" << ingest.admitted << " committed=" << ingest.committed
      << " duplicates=" << ingest.duplicates
      << " malformed=" << ingest.malformed
      << " retry_later=" << ingest.retry_later << "\n";
  out << "audit events=" << audit_events << "\n";
  out << "ledger entries=" << ledger_entries << " root=" << ledger_root_hex
      << "\n";
  return out.str();
}

CampaignReport run_campaign(const CampaignConfig& config) {
  // ---- Deployment: one Auditor, batched ingest, ledger-anchored audit ----
  obs::MetricsRegistry metrics;
  resilience::SimClock clock(config.start_time);
  net::MessageBus bus(&metrics);

  crypto::DeterministicRandom auditor_rng(seed_tag(config.seed, 0, "auditor"));
  core::ProtocolParams params;
  params.auditor_shards = config.auditor_shards;
  params.metrics = &metrics;
  core::Auditor auditor(kTestKeyBits, auditor_rng, params);

  auto audit_log = std::make_shared<core::AuditLog>();
  auto audit_ledger = std::make_shared<ledger::Ledger>(
      ledger::Ledger::Config{{}, 256, &metrics});
  audit_log->attach_ledger(audit_ledger);
  auditor.attach_audit_log(audit_log);
  auditor.bind(bus);

  core::AuditorIngest::Config ingest_config;
  ingest_config.queue_capacity = config.ingest_queue_capacity;
  ingest_config.max_batch = config.ingest_max_batch;
  ingest_config.verify_threads = config.ingest_verify_threads;
  core::AuditorIngest ingest(auditor, ingest_config);
  ingest.bind(bus);

  const geo::LocalFrame frame(geo::GeoPoint{47.60, -122.33});
  crypto::DeterministicRandom owner_rng(seed_tag(config.seed, 0, "owner"));
  core::ZoneOwner owner(kTestKeyBits, owner_rng);
  std::vector<geo::GeoZone> zones;
  for (std::size_t family = 0; family < 3; ++family) {
    const geo::GeoZone zone{frame.to_geo(family_zone_center(family)),
                            kZoneRadiusM};
    owner.register_zone(bus, zone,
                        std::string(kFamilyNames[family]) + " exclusion zone");
    zones.push_back(zone);
  }
  const std::vector<geo::Circle> local_zones = geo::to_local(frame, zones);

  // ---- The replay donor: one honest pre-campaign flight whose PoA the
  // replay operators relabel. Registered first, so fleet drone ids are
  // stable offsets of the flight index. ----
  auto donor_poa = std::make_shared<core::ProofOfAlibi>();
  {
    tee::DroneTee::Config tee_config;
    tee_config.key_bits = kTestKeyBits;
    tee_config.manufacturing_seed = seed_tag(config.seed, 0, "donor-tee");
    tee::DroneTee donor_tee(tee_config);
    crypto::DeterministicRandom donor_rng(seed_tag(config.seed, 0, "donor"));
    core::DroneClient donor(donor_tee, kTestKeyBits, donor_rng, &metrics);
    donor.register_with_auditor(bus);

    const Route route =
        make_family_route(frame, 0, config.start_time - 300.0, 5.0);
    gps::GpsReceiverSim::Config rc;
    rc.update_rate_hz = config.update_rate_hz;
    rc.start_time = route.start_time();
    rc.seed = config.seed;
    gps::GpsReceiverSim receiver(rc, route.as_position_source());
    core::AdaptiveSampler policy(frame, local_zones, geo::kFaaMaxSpeedMps,
                                 config.update_rate_hz);
    core::FlightConfig fc;
    fc.end_time = route.end_time();
    fc.frame = frame;
    fc.local_zones = local_zones;
    *donor_poa = donor.fly(receiver, policy, fc);
  }

  // ---- Fleet assembly ----
  const std::size_t n = config.flights;
  const std::size_t adversaries = static_cast<std::size_t>(
      std::llround(static_cast<double>(n) * config.adversary_fraction));

  std::vector<Rig> rigs(n);
  FleetScheduler scheduler(FleetScheduler::Config{
      config.seed, config.scheduler_workers, &clock, &bus});

  std::size_t adversary_index = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Rig& rig = rigs[i];
    rig.family = i % 3;

    // Bresenham spread: `adversaries` attackers distributed evenly over
    // the fleet, cycling the six attack classes in order.
    const bool adversarial = ((i + 1) * adversaries) / n > (i * adversaries) / n;
    if (adversarial) {
      rig.attack = static_cast<AttackClass>(1 + (adversary_index % 6));
      ++adversary_index;
    }

    tee::DroneTee::Config tee_config;
    tee_config.key_bits = kTestKeyBits;
    tee_config.manufacturing_seed = seed_tag(config.seed, i, "tee");
    rig.tee = std::make_unique<tee::DroneTee>(tee_config);
    rig.operator_rng = std::make_unique<crypto::DeterministicRandom>(
        seed_tag(config.seed, i, "operator"));
    rig.client = std::make_unique<core::DroneClient>(*rig.tee, kTestKeyBits,
                                                     *rig.operator_rng, &metrics);
    rig.client->register_with_auditor(bus);

    crypto::DeterministicRandom route_rng(seed_tag(config.seed, i, "route"));
    const double jitter_y = route_rng.uniform_double() * 25.0;
    const double take_off =
        config.start_time +
        static_cast<double>(i % kStaggerGroups) * config.stagger_s;
    rig.route = std::make_unique<Route>(
        make_family_route(frame, rig.family, take_off, jitter_y));

    gps::PositionSource source = rig.route->as_position_source();
    if (rig.attack == AttackClass::kNavDeviation) {
      // Gradual spoofing from 2 s after take-off drifts the drone into
      // its family zone around mid-flight; the TEE signs the deviation.
      source = core::attacks::spoofed_drift_source(
          std::move(source), frame, family_zone_center(rig.family),
          take_off + 2.0, 15.0);
    }

    gps::GpsReceiverSim::Config rc;
    rc.update_rate_hz = config.update_rate_hz;
    rc.start_time = rig.route->start_time();
    rc.seed = config.seed ^ (i * 0x9E3779B97F4A7C15ULL);
    rig.receiver = std::make_unique<gps::GpsReceiverSim>(rc, std::move(source));
    rig.policy = std::make_unique<core::AdaptiveSampler>(
        frame, local_zones, geo::kFaaMaxSpeedMps, config.update_rate_hz);

    core::FlightConfig fc;
    fc.end_time = rig.route->end_time();
    fc.frame = frame;
    fc.local_zones = local_zones;
    // No drone-side audit log: actors step concurrently under workers>1
    // and must not share a mutable sink during the step phase.
    rig.actor = std::make_unique<core::FlightActor>(*rig.tee, *rig.receiver,
                                                    *rig.policy, fc);

    core::FlightActor::Submission submission;
    submission.drone_id = rig.client->id();
    submission.backoff_seed = seed_tag(config.seed, i, "backoff");
    const double t_mid = rig.route->start_time() + rig.route->duration() / 2.0;
    switch (rig.attack) {
      case AttackClass::kHonest:
      case AttackClass::kNavDeviation:
        break;  // submit what the TEE signed
      case AttackClass::kChainForge:
        submission.mutate = [drone_id = rig.client->id(),
                             fixes = fake_route_fixes(frame,
                                                      rig.route->start_time(),
                                                      rig.route->end_time(),
                                                      config.update_rate_hz),
                             seed = seed_tag(config.seed, i, "forge")](
                                core::ProofOfAlibi) {
          crypto::DeterministicRandom rng(seed);
          return core::attacks::forge_trace(
              drone_id, fixes, crypto::HashAlgorithm::kSha1, kTestKeyBits, rng);
        };
        break;
      case AttackClass::kReplay:
        submission.mutate = [donor_poa, drone_id = rig.client->id()](
                                core::ProofOfAlibi) {
          return core::attacks::relay(*donor_poa, drone_id);
        };
        break;
      case AttackClass::kTamper:
        submission.mutate = [center = zones[rig.family].center](
                                core::ProofOfAlibi poa) {
          return core::attacks::tamper_position(poa, poa.samples.size() / 2,
                                                center);
        };
        break;
      case AttackClass::kDropWindow:
        submission.mutate = [t_mid](core::ProofOfAlibi poa) {
          return drop_approach_window(poa, t_mid, 10.0);
        };
        break;
      case AttackClass::kThinningAbuse:
        submission.mutate = [](core::ProofOfAlibi poa) {
          return core::attacks::thinning_abuse(poa, 2);
        };
        break;
    }
    rig.actor->set_submission(std::move(submission));
    scheduler.add(*rig.actor);
  }

  // ---- Fly the campaign ----
  scheduler.run();
  ingest.stop();  // drain before reading counters / the ledger root

  // ---- Score ----
  CampaignReport report;
  report.seed = config.seed;
  report.outcomes.reserve(n);
  for (const Rig& rig : rigs) {
    FlightOutcome outcome;
    outcome.drone_id = rig.client->id();
    outcome.attack = rig.attack;
    outcome.route_family = kFamilyNames[rig.family];
    outcome.verdict = rig.actor->submission_verdict();
    outcome.submit_attempts = rig.actor->submission_attempts();
    report.outcomes.push_back(std::move(outcome));
  }

  for (const FlightOutcome& o : report.outcomes) {
    ClassMetrics& m = report.per_class[static_cast<std::size_t>(o.attack)];
    ++m.flights;
    if (o.flagged()) ++m.flagged;
  }
  const std::size_t honest_fp =
      report.per_class[static_cast<std::size_t>(AttackClass::kHonest)].flagged;
  for (std::size_t c = 0; c < kAttackClassCount; ++c) {
    ClassMetrics& m = report.per_class[c];
    if (c == static_cast<std::size_t>(AttackClass::kHonest)) {
      // For the honest cohort, "recall" is the correct-accept rate; the
      // precision slot is unused and stays 1.0.
      if (m.flights > 0) {
        m.recall = static_cast<double>(m.flights - m.flagged) /
                   static_cast<double>(m.flights);
      }
      continue;
    }
    if (m.flights > 0) {
      m.recall = static_cast<double>(m.flagged) / static_cast<double>(m.flights);
    }
    if (m.flagged + honest_fp > 0) {
      m.precision = static_cast<double>(m.flagged) /
                    static_cast<double>(m.flagged + honest_fp);
    }
  }

  report.ingest = ingest.counters();
  report.audit_events = audit_log->events().size();
  report.ledger_entries = audit_ledger->entry_count();
  report.ledger_root_hex = crypto::to_hex(audit_ledger->root_hash());
  report.scheduler = scheduler.stats();
  return report;
}

}  // namespace alidrone::sim

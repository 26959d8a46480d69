// tesla_stream — the closed-loop TESLA broadcast workload.
//
// D drones fly TESLA-broadcast FlightActors on a FleetScheduler whose
// transport is a TransportClient on the server's Unix-domain socket; the
// server Auditor's receive-time clock is the scheduler's VirtualClock.
// Each message is small (announce, one tagged sample, one key
// disclosure, finalize) and each flight makes one RSA signature, so
// per-message transport, decode and serial commit dominate: the opposite
// use of the net and core.ingest layers from submit_open's large proofs.
#include <unistd.h>

#include <sstream>

#include "core/flight_actor.h"
#include "core/sampler.h"
#include "core/tesla.h"
#include "crypto/bytes.h"
#include "crypto/sha256.h"
#include "geo/units.h"
#include "gps/receiver_sim.h"
#include "net/transport/client.h"
#include "resilience/sim_clock.h"
#include "sim/fleet_scheduler.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Two step workers, as in fleet_sorties: fewer threads to wake per tick.
constexpr std::size_t kWorkers = 2;
constexpr double kRoundSpacingS = 3600.0;

struct Setup {
  World world;
  Family dense;
  Family sparse;
  ad::resilience::SimClock clock{kStartTime - 1.0};
  std::unique_ptr<Deployment> deployment;
  std::unique_ptr<ad::crypto::DeterministicRandom> owner_rng;
  std::unique_ptr<ad::core::ZoneOwner> owner;
  std::vector<Drone> drones;
  std::unique_ptr<ad::net::transport::TransportClient> client;
  std::unique_ptr<TimingTransport> timing;

  Setup()
      : dense(make_family(world, world.residential, "residential", false)),
        sparse(make_family(world, world.airport, "airport", true)) {}
  ~Setup() {
    timing.reset();
    client.reset();  // close the connection before the server drains
  }
};

std::unique_ptr<Setup> set_up(const Options& options, const std::string& socket_path,
                              std::size_t drones, std::vector<double>& keygen_ms,
                              std::vector<double>& register_ms, Report& report) {
  auto s = std::make_unique<Setup>();
  s->deployment = std::make_unique<Deployment>(options.seed, &s->clock, socket_path);
  Deployment& dep = *s->deployment;
  s->owner_rng = std::make_unique<ad::crypto::DeterministicRandom>(
      seed_tag(options.seed, 0, "owner"));
  s->owner = std::make_unique<ad::core::ZoneOwner>(kKeyBits, *s->owner_rng);
  s->world.register_zones(*s->owner, dep.local());
  for (std::size_t i = 0; i < drones; ++i) {
    s->drones.push_back(make_drone(options.seed, i, &dep.registry, keygen_ms));
    report.check(register_drone(s->drones.back(), dep.local(), register_ms),
                 "registration refused");
  }
  ad::net::transport::TransportClient::Config config;
  config.address = dep.address();
  config.connections = 1;
  config.registry = &dep.registry;
  s->client = std::make_unique<ad::net::transport::TransportClient>(config);
  s->timing = std::make_unique<TimingTransport>(*s->client, kLayerTransport);
  dep.local().take_samples();
  return s;
}

struct Sortie {
  std::size_t number = 0;
  const Family* family = nullptr;
  std::unique_ptr<ad::sim::Route> route;
  std::unique_ptr<ad::gps::GpsReceiverSim> receiver;
  std::unique_ptr<ad::core::AdaptiveSampler> policy;
  std::unique_ptr<ad::core::FlightActor> actor;
};

struct Phase {
  double wall_s = 0.0;
  double rss_mb = 0.0;  ///< peak RSS after kRssRounds rounds
  std::size_t flights = 0;
  std::size_t finalized = 0;
  std::size_t msgs = 0;
  std::vector<Window> slices;  ///< one per round
  ad::sim::FleetScheduler::Stats sched;
  std::uint64_t gps_ticks = 0;
  std::uint64_t samples_tagged = 0;  ///< TEE HMAC tags, one per broadcast
};

std::string fly_round(Setup& s, const Options& options, std::size_t round,
                      Phase& phase, Report& report) {
  const ScopedSpan root(kLayerBench);
  std::vector<Sortie> sorties(s.drones.size());
  ad::sim::FleetScheduler scheduler(ad::sim::FleetScheduler::Config{
      options.seed ^ mix64(round), kWorkers, &s.clock, s.timing.get()});
  {
    const ScopedSpan span(kLayerRoute);
    const double take_off = kStartTime + static_cast<double>(round + 1) * kRoundSpacingS;
    const std::vector<std::size_t> slots =
        deal_slots(options.seed, round, sorties.size());
    for (std::size_t d = 0; d < sorties.size(); ++d) {
      Sortie& so = sorties[d];
      const std::size_t k = round * s.drones.size() + d;
      so.number = k;
      so.family = slot_is_dense(slots[d]) ? &s.dense : &s.sparse;
      const Family& fam = *so.family;
      so.route = std::make_unique<ad::sim::Route>(scaled_route(
          *fam.scenario, take_off, slot_speed(slots[d], sorties.size())));
      ad::gps::GpsReceiverSim::Config rc;
      rc.update_rate_hz = kGpsRateHz;
      rc.start_time = take_off;
      so.receiver = std::make_unique<ad::gps::GpsReceiverSim>(
          rc, so.route->as_position_source());
      so.policy = std::make_unique<ad::core::AdaptiveSampler>(
          fam.scenario->frame, fam.local_zones, ad::geo::kFaaMaxSpeedMps, kGpsRateHz);
      ad::core::TeslaFlightConfig tc;
      tc.end_time = fam.end_time(*so.route);
      tc.session_nonce = k + 1;
      tc.disclosure_delay = 2;
      tc.interval_s = 1.0;
      tc.local_zones = fam.local_zones;
      tc.frame = fam.scenario->frame;
      Drone& drone = s.drones[d];
      so.actor = std::make_unique<ad::core::FlightActor>(
          *drone.tee, *so.receiver, *so.policy, drone.client->id(), tc);
      scheduler.add(*so.actor);
    }
  }
  {
    const ScopedSpan span(kLayerFlight);
    scheduler.run();
  }
  std::ostringstream digest;
  for (const Sortie& so : sorties) {
    const ad::core::TeslaFlightResult& r = so.actor->tesla();
    const bool ok = r.announced && r.finalized && r.verdict.accepted &&
                    r.verdict.compliant && r.samples_dropped == 0 &&
                    r.samples_rejected == 0 && r.disclosures_dropped == 0;
    report.op(ok, "TESLA flight " + std::to_string(so.number) + " over " +
                      so.family->name + ": " + r.verdict.detail + ", " +
                      std::to_string(r.samples_dropped) + " dropped, " +
                      std::to_string(r.samples_rejected) + " rejected");
    ++phase.flights;
    if (r.finalized) ++phase.finalized;
    phase.gps_ticks += r.gps_updates;
    phase.samples_tagged += r.samples_sent;
    digest << so.number << ' ' << so.family->name << ' ' << r.samples_sent << ' '
           << r.disclosures_sent << ' ' << r.verdict.accepted << r.verdict.compliant
           << ' ' << r.verdict.detail << '\n';
  }
  const auto& st = scheduler.stats();
  phase.sched.steps += st.steps;
  phase.sched.batches += st.batches;
  phase.sched.parallel_batches += st.parallel_batches;
  return digest.str();
}

Phase run_phase(Setup& s, const Options& options, std::size_t& next_round,
                Report& report, std::string* round0) {
  Phase phase;
  std::size_t rounds = 0;
  const std::int64_t t0 = now_ns();
  do {
    const std::int64_t r0 = now_ns();
    const std::size_t finalized0 = phase.finalized;
    const std::string digest = fly_round(s, options, next_round, phase, report);
    Window slice;
    slice.wall_s = seconds_since(r0);
    slice.verdicts = static_cast<double>(phase.finalized - finalized0);
    for (const auto& sample : s.timing->take_samples()) {
      slice.latency_ms.push_back(sample.ms);
    }
    slice.msgs = static_cast<double>(slice.latency_ms.size());
    phase.msgs += slice.latency_ms.size();
    phase.slices.push_back(std::move(slice));
    if (round0 != nullptr && next_round == 0) *round0 = digest;
    ++next_round;
    if (++rounds == kRssRounds) phase.rss_mb = peak_rss_mb();
  } while (seconds_since(t0) < options.seconds || rounds < kRssRounds);
  phase.wall_s = seconds_since(t0);
  return phase;
}

}  // namespace

void run_tesla_stream(const Options& options, Report& report) {
  const std::size_t drones = options.quick ? 4 : 8;
  const int reps = options.quick ? 1 : kSetupReps;
  const std::string socket_path =
      options.scratch_dir + "/perfbench-" + std::to_string(::getpid()) + ".sock";

  std::vector<double> setup_s;
  std::vector<double> keygen_ms;
  std::vector<double> register_ms;
  std::unique_ptr<Setup> setup;
  for (int r = 0; r < reps; ++r) {
    setup.reset();
    const std::int64_t t0 = now_ns();
    setup = set_up(options, socket_path, drones, keygen_ms, register_ms, report);
    setup_s.push_back(seconds_since(t0));
  }
  report.note("tesla_stream: " + std::to_string(drones) + " drones, " +
              std::to_string(kWorkers) + " scheduler workers, 1 connection");

  std::size_t next_round = 0;
  std::string round0;
  const Phase untraced = run_phase(*setup, options, next_round, report, &round0);
  report.digest = ad::crypto::to_hex(ad::crypto::Sha256::hash(round0)).substr(0, 16);
  // Each round (about 4000 messages) is a window.
  const WindowedMetrics wm = window_means(untraced.slices, 1000, 0.0);
  const double msg_rate = wm.msgs_per_s;
  report.note("untraced: " + std::to_string(untraced.flights) + " flights, " +
              std::to_string(untraced.msgs) + " messages in " +
              std::to_string(untraced.wall_s) + " s, " + std::to_string(wm.windows) +
              " windows");
  if (!options.trace) {
    emit_end_to_end(report, median(setup_s), untraced.rss_mb, wm.verdicts_per_s,
                    msg_rate, wm.latency_p50_ms, wm.latency_p90_ms);
    return;
  }

  Deployment& dep = *setup->deployment;
  ad::obs::MetricsRegistry& reg = dep.registry;
  const auto sum = [&](const char* prefix, const char* suffix) {
    return registry_sum(reg, prefix, suffix);
  };
  const double admitted0 = sum("core.auditor#", ".tesla.samples_buffered");
  const double settled0 = sum("core.auditor#", ".tesla.samples_accepted");
  const double rejected0 = sum("core.auditor#", ".tesla.samples_rejected");
  const double keys0 = sum("core.auditor#", ".tesla.keys_accepted");
  const double batches0 = sum("core.ingest#", ".batches");
  const double committed0 = sum("core.ingest#", ".committed");
  const double submitted0 = sum("core.ingest#", ".submitted");
  const double retry0 = sum("core.ingest#", ".retry_later");
  const double frames0 = sum("net.transport.server#", ".frames_in");
  const double torn0 = sum("net.transport.server#", ".torn_frames");
  const double entries0 = static_cast<double>(dep.ledger().entry_count());
  Tracer::get().clear();
  Tracer::get().set_enabled(true);
  const Phase traced = run_phase(*setup, options, next_round, report, nullptr);
  Tracer::get().set_enabled(false);
  const std::vector<Span> spans = Tracer::get().snapshot();
  if (!options.trace_out.empty()) Tracer::get().write_tsv(options.trace_out);
  const TraceSummary summary = summarize_trace(spans);
  const auto self = [&](const char* layer) {
    const auto it = summary.self_s.find(layer);
    return it == summary.self_s.end() ? 0.0 : it->second;
  };

  std::map<std::string, double> m;
  m["crypto.keygen_ms"] = mean(keygen_ms);
  m["core.register_ms"] = mean(register_ms);
  m["core.flight_actor.self_s"] = self(kLayerFlight);
  // TESLA authenticates samples with HMAC tags (one RSA signature per
  // flight, on the commitment).
  const double tagged = static_cast<double>(traced.samples_tagged);
  m["tee.samples_signed"] = tagged;
  m["tee.sign_us_per_sample"] = tagged > 0 ? self(kLayerFlight) * 1e6 / tagged : 0.0;
  m["gps.ticks"] = static_cast<double>(traced.gps_ticks);
  m["sim.steps"] = static_cast<double>(traced.sched.steps);
  m["sim.batches"] = static_cast<double>(traced.sched.batches);
  m["sim.parallel_batches"] = static_cast<double>(traced.sched.parallel_batches);
  m["sim.route.self_s"] = self(kLayerRoute);
  m["core.ingest.self_s"] = self(kLayerIngest);
  m["core.ingest.submit_us_p50"] = percentile(summary.handler_us, 0.5);
  m["core.ingest.submit_us_p99"] = percentile(summary.handler_us, 0.99);
  const double batches = sum("core.ingest#", ".batches") - batches0;
  m["core.ingest.mean_batch"] =
      batches > 0 ? (sum("core.ingest#", ".committed") - committed0) / batches : 0.0;
  const double submitted = sum("core.ingest#", ".submitted") - submitted0;
  m["core.ingest.retry_later_ratio"] =
      submitted > 0 ? (sum("core.ingest#", ".retry_later") - retry0) / submitted : 0.0;
  m["core.auditor.self_s"] = self(kLayerAuditor);
  m["net.self_s"] = self(kLayerTransport);
  m["net.transport.overhead_us_p50"] = percentile(summary.overhead_us, 0.5);
  m["net.transport.overhead_us_p99"] = percentile(summary.overhead_us, 0.99);
  m["net.transport.frames_in"] = sum("net.transport.server#", ".frames_in") - frames0;
  m["net.transport.torn_frames"] = sum("net.transport.server#", ".torn_frames") - torn0;
  m["core.tesla.samples_admitted"] = sum("core.auditor#", ".tesla.samples_buffered") - admitted0;
  m["core.tesla.samples_settled"] = sum("core.auditor#", ".tesla.samples_accepted") - settled0;
  m["core.tesla.samples_rejected"] = sum("core.auditor#", ".tesla.samples_rejected") - rejected0;
  m["core.tesla.disclosures"] = sum("core.auditor#", ".tesla.keys_accepted") - keys0;
  m["ledger.entries_per_op"] =
      (static_cast<double>(dep.ledger().entry_count()) - entries0) /
      static_cast<double>(std::max<std::size_t>(traced.msgs, 1));
  m["latency_p99_ms"] = pooled_p99(untraced.slices);
  m["bench.self_s"] = self(kLayerBench);
  m["trace.accounted_ratio"] = summary.accounted;
  const double traced_rate =
      window_means(traced.slices, 1000, 0.0).msgs_per_s;
  m["trace.overhead_pct"] = (msg_rate / traced_rate - 1.0) * 100.0;
  report.check(std::abs(summary.accounted - 1.0) <= 0.10,
               "traced layer self times cover " +
                   std::to_string(summary.accounted * 100.0) +
                   "% of the timed wall time (want 90-110%)");
  emit_layer_metrics(report, m);
}

}  // namespace perfbench

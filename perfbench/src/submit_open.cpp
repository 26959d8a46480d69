// submit_open — the open-loop socket workload.
//
// The server is the alidrone_auditord composition on a Unix-domain
// socket. One generator thread sends a seeded Poisson schedule over 4
// non-blocking connections, whether or not earlier requests have been
// answered, and times each request from its due time. The load is a
// corpus built in setup from real flights: fresh dense and sparse proofs
// (prefix/suffix cuts of honest flights, each with its own digest),
// duplicates that hit the dedup cache, tampered proofs rejected only at
// their last signature, and Zone Owner accusations against flights whose
// proofs were acknowledged in setup. The nominal rate gives the headline
// latencies; a ladder of fixed rates finds the highest one whose p99 meets
// the latency limit without a growing backlog.
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <sstream>

#include "core/flight.h"
#include "core/flight_actor.h"
#include "core/messages.h"
#include "core/sampler.h"
#include "crypto/bytes.h"
#include "crypto/sha256.h"
#include "geo/units.h"
#include "gps/receiver_sim.h"
#include "net/transport/frame.h"
#include "net/transport/sockets.h"
#include "resilience/sim_clock.h"
#include "sim/fleet_scheduler.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kConnections = 4;
constexpr double kDrainTimeoutS = 10.0;

enum Kind : std::uint8_t { kFreshDense, kFreshSparse, kDuplicate, kTampered, kAccuse };
constexpr const char* kKindNames[] = {"fresh-dense", "fresh-sparse", "duplicate",
                                      "tampered", "accuse"};
/// Request mix (cumulative thresholds over a uniform draw): 35% fresh
/// dense, 10% fresh sparse, 15% duplicates, 30% tampered, 10% accusations.
/// The full-verification share (65%) puts the median well inside one mode,
/// away from its lower edge.
constexpr double kMix[] = {0.35, 0.45, 0.60, 0.90, 1.00};

/// One request body the generator can send, with the reply it must get.
struct Item {
  Kind kind = kFreshDense;
  std::string endpoint;
  ad::crypto::Bytes body;
  ad::crypto::Bytes expected;
  std::uint64_t id = 0;  ///< fingerprint(body)
};

struct Corpus {
  std::vector<Item> fresh_dense;
  std::vector<Item> fresh_sparse;
  std::vector<Item> acknowledged;  ///< the base proofs, submitted in setup
  std::vector<Item> tampered;
  std::vector<Item> accusations;
};

struct Setup {
  World world;
  std::unique_ptr<Deployment> deployment;
  std::unique_ptr<ad::crypto::DeterministicRandom> owner_rng;
  std::unique_ptr<ad::core::ZoneOwner> owner;
  std::vector<Drone> drones;
  Corpus corpus;
  // What building the corpus did on the drone side.
  double flight_s = 0.0;
  std::uint64_t gps_ticks = 0;
  std::uint64_t samples_signed = 0;
  ad::sim::FleetScheduler::Stats sched;
};

Item make_submit(Kind kind, const ad::core::ProofOfAlibi& poa) {
  Item item;
  item.kind = kind;
  item.endpoint = "auditor.submit_poa";
  item.body = ad::core::SubmitPoaRequest{poa.serialize()}.encode();
  item.id = fingerprint(item.body);
  return item;
}

/// Prefix and suffix cuts of an honest proof: every consecutive pair is
/// one the drone signed, so each cut is a fresh, sufficient alibi.
std::vector<ad::core::ProofOfAlibi> cuts(const ad::core::ProofOfAlibi& poa,
                                         std::size_t per_side) {
  std::vector<ad::core::ProofOfAlibi> out;
  const std::size_t n = poa.samples.size();
  for (std::size_t j = 1; j <= per_side && n >= j + 3; ++j) {
    ad::core::ProofOfAlibi prefix = poa;
    prefix.samples.resize(n - j);
    out.push_back(std::move(prefix));
    ad::core::ProofOfAlibi suffix = poa;
    suffix.samples.erase(suffix.samples.begin(),
                         suffix.samples.begin() + static_cast<std::ptrdiff_t>(j));
    out.push_back(std::move(suffix));
  }
  return out;
}

std::unique_ptr<Setup> set_up(const Options& options, const std::string& socket_path,
                              std::size_t drones, std::size_t cuts_per_side,
                              std::vector<double>& keygen_ms,
                              std::vector<double>& register_ms, Report& report) {
  auto s = std::make_unique<Setup>();
  s->deployment = std::make_unique<Deployment>(options.seed, nullptr, socket_path);
  Deployment& dep = *s->deployment;
  s->owner_rng = std::make_unique<ad::crypto::DeterministicRandom>(
      seed_tag(options.seed, 0, "owner"));
  s->owner = std::make_unique<ad::core::ZoneOwner>(kKeyBits, *s->owner_rng);
  const std::vector<std::string> zone_ids = s->world.register_zones(*s->owner, dep.local());
  for (std::size_t i = 0; i < drones; ++i) {
    s->drones.push_back(make_drone(options.seed, i, &dep.registry, keygen_ms));
    report.check(register_drone(s->drones.back(), dep.local(), register_ms),
                 "registration refused");
  }

  // Fly one dense (residential) and one sparse (full airport drive) base
  // flight per drone, stepped in parallel on a FleetScheduler.
  struct Base {
    bool dense = true;
    std::size_t drone = 0;
    std::unique_ptr<ad::sim::Route> route;
    std::unique_ptr<ad::gps::GpsReceiverSim> receiver;
    std::unique_ptr<ad::core::AdaptiveSampler> policy;
    std::unique_ptr<ad::core::FlightActor> actor;
    ad::core::FlightConfig config;
  };
  std::vector<Base> bases(2 * drones);
  for (std::size_t b = 0; b < bases.size(); ++b) {
    Base& base = bases[b];
    base.dense = b % 2 == 0;
    base.drone = b / 2;
    const ad::sim::Scenario& sc = base.dense ? s->world.residential : s->world.airport;
    const double speed = slot_speed(base.drone, drones);
    base.route = std::make_unique<ad::sim::Route>(scaled_route(sc, kStartTime, speed));
    ad::gps::GpsReceiverSim::Config rc;
    rc.update_rate_hz = kGpsRateHz;
    rc.start_time = kStartTime;
    base.receiver =
        std::make_unique<ad::gps::GpsReceiverSim>(rc, base.route->as_position_source());
    const auto local = s->world.local_zones(sc.frame);
    base.policy = std::make_unique<ad::core::AdaptiveSampler>(
        sc.frame, local, ad::geo::kFaaMaxSpeedMps, kGpsRateHz);
    base.config.end_time = base.route->end_time();
    base.config.frame = sc.frame;
    base.config.local_zones = local;
    base.actor = std::make_unique<ad::core::FlightActor>(
        *s->drones[base.drone].tee, *base.receiver, *base.policy, base.config);
  }
  // A TEE must not be stepped by two actors at once: dense flights fly in
  // one scheduler run, sparse ones in a second.
  const std::int64_t fly0 = now_ns();
  for (std::size_t pass = 0; pass < 2; ++pass) {
    ad::resilience::SimClock clock(kStartTime - 1.0);
    ad::sim::FleetScheduler scheduler(
        ad::sim::FleetScheduler::Config{options.seed + pass, 4, &clock, &dep.local()});
    for (std::size_t b = pass; b < bases.size(); b += 2) scheduler.add(*bases[b].actor);
    scheduler.run();
    const auto& st = scheduler.stats();
    s->sched.steps += st.steps;
    s->sched.batches += st.batches;
    s->sched.parallel_batches += st.parallel_batches;
  }
  s->flight_s = seconds_since(fly0);

  // Derive the corpus and record every expected reply by submitting the
  // acknowledged base proofs, one of each tampered proof and accusation
  // through the server's own endpoint table.
  Corpus& c = s->corpus;
  TimingTransport& local = dep.local();
  for (Base& base : bases) {
    s->gps_ticks += base.actor->flight().gps_updates;
    s->samples_signed += base.actor->flight().authentications;
    const Drone& drone = s->drones[base.drone];
    const ad::core::ProofOfAlibi poa = ad::core::assemble_poa(
        drone.client->id(), base.config, ad::crypto::HashAlgorithm::kSha1,
        base.actor->flight());
    Item ack = make_submit(kDuplicate, poa);
    ack.expected = local.request(ack.endpoint, ack.body);
    const auto verdict = ad::core::PoaVerdict::decode(ack.expected);
    report.check(verdict && verdict->accepted && verdict->compliant,
                 "base proof not accepted as compliant: " +
                     (verdict ? verdict->detail : std::string("undecodable")));
    const Kind fresh_kind = base.dense ? kFreshDense : kFreshSparse;
    for (const ad::core::ProofOfAlibi& cut : cuts(poa, cuts_per_side)) {
      Item item = make_submit(fresh_kind, cut);
      item.expected = ack.expected;  // the same sufficient-alibi verdict
      (base.dense ? c.fresh_dense : c.fresh_sparse).push_back(std::move(item));
    }
    if (base.dense) {
      ad::core::ProofOfAlibi bad = poa;
      bad.samples.back().signature.back() ^= 0x01;
      Item t = make_submit(kTampered, bad);
      t.expected = local.request(t.endpoint, t.body);
      const auto tv = ad::core::PoaVerdict::decode(t.expected);
      report.check(tv && !tv->accepted, "tampered proof accepted");
      c.tampered.push_back(std::move(t));

      // Accuse the drone at mid-flight over the zone it passed closest.
      const double t_mid = base.route->start_time() + base.route->duration() / 2.0;
      const ad::geo::Vec2 p = base.route->local_position_at(t_mid);
      std::size_t nearest = 0;
      double best = 1e300;
      for (std::size_t z = 0; z < base.config.local_zones.size(); ++z) {
        const double d = base.config.local_zones[z].boundary_distance(p);
        if (d < best) {
          best = d;
          nearest = z;
        }
      }
      Item a;
      a.kind = kAccuse;
      a.endpoint = "auditor.accuse";
      a.body = s->owner->make_accusation(zone_ids[nearest], drone.client->id(), t_mid)
                   .encode();
      a.id = fingerprint(a.body);
      a.expected = local.request(a.endpoint, a.body);
      const auto av = ad::core::AccusationResponse::decode(a.expected);
      report.check(av && av->ok && av->alibi_holds,
                   "accusation against a compliant flight did not exonerate: " +
                       (av ? av->detail : std::string("undecodable")));
      c.accusations.push_back(std::move(a));
    }
    c.acknowledged.push_back(std::move(ack));
  }
  // Shuffle the fresh proofs so consecutive ones come from different drones.
  const auto shuffle = [](std::vector<Item>& items, std::uint64_t seed) {
    const std::vector<std::size_t> slot = deal_slots(seed, 0, items.size());
    std::vector<Item> out(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) out[slot[i]] = std::move(items[i]);
    items.swap(out);
  };
  shuffle(c.fresh_dense, options.seed);
  shuffle(c.fresh_sparse, options.seed + 1);
  local.take_samples();
  return s;
}

// ---- the open-loop generator ------------------------------------------------

struct Request {
  const Item* item = nullptr;
  double due = 0.0;   ///< seconds after the step started
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t recv_ns = 0;
  bool ok = false;
  bool answered = false;
};

/// Seeded Poisson schedule at `rate` over `duration_s`: rate x duration
/// arrivals at sorted uniform times (a Poisson process given its count, so
/// every seed offers the same load), drawing fresh proofs from the corpus
/// cursor (duplicates once it runs dry).
std::vector<Request> schedule(const Corpus& corpus, std::uint64_t seed,
                              std::uint64_t salt, double rate, double duration_s,
                              std::size_t& dense_cursor, std::size_t& sparse_cursor,
                              std::vector<const Item*>& sent_fresh) {
  const std::size_t count = static_cast<std::size_t>(std::llround(rate * duration_s));
  std::vector<double> due(count);
  for (std::size_t i = 0; i < count; ++i) due[i] = unit_draw(seed, i, salt) * duration_s;
  std::sort(due.begin(), due.end());
  std::vector<Request> out;
  for (std::uint64_t i = 0; i < count; ++i) {
    const double u = unit_draw(seed, i, salt + 1);
    Kind kind = kAccuse;
    for (int k = 0; k < 5; ++k) {
      if (u < kMix[k]) {
        kind = static_cast<Kind>(k);
        break;
      }
    }
    const std::uint64_t pick = mix64(seed ^ (salt << 32) ^ i);
    const Item* item = nullptr;
    if (kind == kFreshDense && dense_cursor < corpus.fresh_dense.size()) {
      item = &corpus.fresh_dense[dense_cursor++];
    } else if (kind == kFreshSparse && sparse_cursor < corpus.fresh_sparse.size()) {
      item = &corpus.fresh_sparse[sparse_cursor++];
    } else if (kind == kTampered) {
      item = &corpus.tampered[pick % corpus.tampered.size()];
    } else if (kind == kAccuse) {
      item = &corpus.accusations[pick % corpus.accusations.size()];
    } else {
      // A duplicate of a proof already sent (or acknowledged in setup).
      const std::size_t pool = corpus.acknowledged.size() + sent_fresh.size();
      const std::size_t j = pick % pool;
      item = j < corpus.acknowledged.size()
                 ? &corpus.acknowledged[j]
                 : sent_fresh[j - corpus.acknowledged.size()];
    }
    if (item->kind == kFreshDense || item->kind == kFreshSparse) sent_fresh.push_back(item);
    Request r;
    r.item = item;
    r.due = due[i];
    out.push_back(r);
  }
  return out;
}

struct Conn {
  int fd = -1;
  std::unique_ptr<ad::net::transport::FrameAssembler> assembler;
  ad::crypto::Bytes out;
  std::size_t out_off = 0;
};

struct StepResult {
  double rate = 0.0;
  std::vector<double> latency_ms;  ///< answered requests, from due time
  std::vector<double> late_ms;     ///< generator lateness per request
  std::vector<Window> slices;      ///< one per second of due time
  double wall_s = 0.0;             ///< step start to last reply
  double verdicts = 0.0;           ///< PoA verdicts (every reply but accusations)
  std::size_t max_backlog = 0;
  std::size_t end_backlog = 0;     ///< outstanding when the last was sent
  std::size_t sent = 0;
  std::size_t failed = 0;
};

class Generator {
 public:
  explicit Generator(const std::string& address) {
    for (std::size_t i = 0; i < kConnections; ++i) {
      Conn c;
      c.fd = ad::net::transport::connect_socket(address, 5.0);
      ad::net::transport::make_nonblocking(c.fd);
      c.assembler = std::make_unique<ad::net::transport::FrameAssembler>();
      conns_.push_back(std::move(c));
    }
  }
  ~Generator() {
    for (Conn& c : conns_) ::close(c.fd);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Send `requests` on their schedule; wait for every answer.
  StepResult run(std::vector<Request>& requests, double rate, Report& report,
                 bool trace) {
    StepResult res;
    res.rate = rate;
    const std::int64_t t0 = now_ns();
    for (Request& r : requests) r.due_ns = t0 + static_cast<std::int64_t>(r.due * 1e9);
    std::size_t next = 0;
    std::size_t outstanding = 0;
    const std::int64_t give_up =
        t0 + static_cast<std::int64_t>(
                 ((requests.empty() ? 0.0 : requests.back().due) + kDrainTimeoutS) * 1e9);
    std::vector<pollfd> pfds(conns_.size());
    while (next < requests.size() || outstanding > 0) {
      std::int64_t now = now_ns();
      while (next < requests.size() && requests[next].due_ns <= now) {
        Request& r = requests[next];
        const std::uint64_t corr = next_corr_++;
        Conn& c = conns_[corr % conns_.size()];
        ad::net::transport::append_request_frame(c.out, corr, r.item->endpoint,
                                                 r.item->body);
        in_flight_[corr] = &r;
        r.sent_ns = now_ns();
        ++outstanding;
        ++next;
        res.max_backlog = std::max(res.max_backlog, outstanding);
        if (next == requests.size()) res.end_backlog = outstanding;
        flush(c);
      }
      if (now > give_up) {
        throw std::runtime_error("generator: " + std::to_string(outstanding) +
                                 " requests unanswered after the drain timeout");
      }
      std::int64_t wait_ns = 50'000'000;
      if (next < requests.size()) {
        wait_ns = std::max<std::int64_t>(0, requests[next].due_ns - now_ns());
      }
      const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                             static_cast<long>(wait_ns % 1'000'000'000)};
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        pfds[i] = {conns_[i].fd,
                   static_cast<short>(POLLIN |
                                      (conns_[i].out_off < conns_[i].out.size() ? POLLOUT : 0)),
                   0};
      }
      const int ready = ::ppoll(pfds.data(), pfds.size(), &timeout, nullptr);
      if (ready < 0 && errno != EINTR) throw std::runtime_error("generator: poll failed");
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if (pfds[i].revents & POLLOUT) flush(conns_[i]);
        if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
          outstanding -= read_replies(conns_[i], report, res);
        }
      }
    }
    // The loop above leaves only once every request has been answered.
    for (Request& r : requests) {
      const double latency = static_cast<double>(r.recv_ns - r.due_ns) * 1e-6;
      res.latency_ms.push_back(latency);
      res.late_ms.push_back(static_cast<double>(r.sent_ns - r.due_ns) * 1e-6);
      const std::size_t second = static_cast<std::size_t>(r.due);
      if (res.slices.size() <= second) res.slices.resize(second + 1, Window{1.0, 0.0, 0.0, {}});
      Window& slice = res.slices[second];
      slice.latency_ms.push_back(latency);
      slice.msgs += 1.0;
      if (r.item->kind != kAccuse) slice.verdicts += 1.0;
      res.verdicts += r.item->kind != kAccuse ? 1.0 : 0.0;
      res.wall_s = std::max(res.wall_s, static_cast<double>(r.recv_ns - t0) * 1e-9);
      if (trace) record_spans(r);
    }
    res.sent = next;
    in_flight_.clear();
    return res;
  }

 private:
  void flush(Conn& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::write(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      throw std::runtime_error("generator: write failed");
    }
    c.out.clear();
    c.out_off = 0;
  }

  std::size_t read_replies(Conn& c, Report& report, StepResult& res) {
    std::size_t done = 0;
    for (;;) {
      const std::span<std::uint8_t> dst = c.assembler->writable(65536);
      const ssize_t n = ::read(c.fd, dst.data(), dst.size());
      if (n <= 0) {
        c.assembler->commit(0, 65536, [](std::span<const std::uint8_t>) { return std::string(); });
        if (n == 0) throw std::runtime_error("generator: server closed a connection");
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return done;
        throw std::runtime_error("generator: read failed");
      }
      const std::int64_t t = now_ns();
      const std::string err = c.assembler->commit(
          static_cast<std::size_t>(n), 65536,
          [&](std::span<const std::uint8_t> payload) -> std::string {
            ad::net::transport::ResponseEnvelope env;
            const std::string perr = ad::net::transport::parse_response(payload, env);
            if (!perr.empty()) return perr;
            const auto it = in_flight_.find(env.correlation_id);
            if (it == in_flight_.end()) return "unknown correlation id";
            Request& r = *it->second;
            in_flight_.erase(it);
            r.recv_ns = t;
            r.answered = true;
            r.ok = env.status == ad::net::transport::kStatusOk &&
                   std::equal(env.body.begin(), env.body.end(),
                              r.item->expected.begin(), r.item->expected.end());
            report.op(r.ok, std::string(kKindNames[r.item->kind]) +
                                " reply differs from the one recorded in setup");
            if (!r.ok) ++res.failed;
            ++done;
            return std::string();
          });
      if (!err.empty()) throw std::runtime_error("generator: " + err);
    }
  }

  static void record_spans(const Request& r) {
    Tracer& tracer = Tracer::get();
    const std::int64_t root = tracer.record(kLayerBench, r.due_ns, r.recv_ns, -1, r.item->id);
    tracer.record(kLayerGen, r.due_ns, r.sent_ns, root, r.item->id);
    tracer.record(kLayerTransport, r.sent_ns, r.recv_ns, root, r.item->id);
  }

  std::vector<Conn> conns_;
  std::map<std::uint64_t, Request*> in_flight_;
  std::uint64_t next_corr_ = 1;
};

bool step_passes(const StepResult& r, double limit_ms) {
  const double limit_backlog = std::max(8.0, r.rate * limit_ms * 1e-3 * 2.0);
  return r.failed == 0 && percentile(r.latency_ms, 0.99) <= limit_ms &&
         percentile(r.late_ms, 0.99) <= limit_ms / 4.0 &&
         static_cast<double>(r.end_backlog) <= limit_backlog;
}

std::string describe(const StepResult& r) {
  std::ostringstream out;
  out << "rate " << r.rate << "/s: sent " << r.sent << ", p50 "
      << percentile(r.latency_ms, 0.5) << " ms, p99 " << percentile(r.latency_ms, 0.99)
      << " ms, late p99 " << percentile(r.late_ms, 0.99) << " ms, max backlog "
      << r.max_backlog << ", end backlog " << r.end_backlog;
  return out.str();
}

}  // namespace

void run_submit_open(const Options& options, Report& report) {
  const std::size_t drones = options.quick ? 4 : 8;
  const std::size_t cuts_per_side = options.quick ? 20 : 80;
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
    setup = set_up(options, socket_path, drones, cuts_per_side, keygen_ms, register_ms,
                   report);
    setup_s.push_back(seconds_since(t0));
  }
  Deployment& dep = *setup->deployment;
  const Corpus& corpus = setup->corpus;
  report.note("submit_open: corpus " + std::to_string(corpus.fresh_dense.size()) +
              " fresh dense, " + std::to_string(corpus.fresh_sparse.size()) +
              " fresh sparse, " + std::to_string(corpus.tampered.size()) +
              " tampered, " + std::to_string(corpus.accusations.size()) +
              " accusations; nominal " + std::to_string(options.nominal_rate) +
              "/s, p99 limit " + std::to_string(options.limit_ms) + " ms");

  Generator gen(dep.address());
  std::size_t dense_cursor = 0;
  std::size_t sparse_cursor = 0;
  std::vector<const Item*> sent_fresh;
  std::uint64_t salt = 10;
  // Digest of the deterministic outputs: the nominal schedule and the
  // reply each request got (checked equal to the one recorded in setup).
  ad::crypto::Sha256 digest;
  const auto run_step = [&](double rate, double duration, bool trace) {
    std::vector<Request> reqs = schedule(corpus, options.seed, salt, rate, duration,
                                         dense_cursor, sparse_cursor, sent_fresh);
    if (salt == 10) {
      for (const Request& r : reqs) {
        const std::uint64_t id = r.item->id;
        digest.update({reinterpret_cast<const std::uint8_t*>(&id), sizeof(id)});
        digest.update(r.item->expected);
      }
    }
    salt += 2;
    return gen.run(reqs, rate, report, trace);
  };

  // Nominal rate for 60% of the run (five 3 s windows of about 150
  // requests), then the ladder in the rest.
  const double nominal_s = options.seconds * 0.6;
  const StepResult nominal = run_step(options.nominal_rate, nominal_s, false);
  const double rss_mb = peak_rss_mb();
  report.digest = ad::crypto::to_hex(digest.finalize()).substr(0, 16);
  report.note("nominal " + describe(nominal));
  // A generator that falls behind is flagged (gen.behind), not failed: its
  // latencies are still timed from the due times.
  const bool behind = percentile(nominal.late_ms, 0.99) > options.limit_ms / 4.0;
  if (behind) report.note("FLAG: generator fell behind its schedule at the nominal rate");

  double max_rate = 0.0;
  std::size_t gen_max_backlog = nominal.max_backlog;
  double gen_late_p99 = percentile(nominal.late_ms, 0.99);
  const double step_s =
      options.seconds * 0.4 / static_cast<double>(options.ladder_rates.size());
  for (const double rate : options.ladder_rates) {
    const StepResult r = run_step(rate, step_s, false);
    const bool pass = step_passes(r, options.limit_ms);
    report.note(std::string(pass ? "pass " : "FAIL ") + describe(r));
    gen_max_backlog = std::max(gen_max_backlog, r.max_backlog);
    if (!pass) break;
    max_rate = rate;
  }
  report.note("max rate meeting p99 <= " + std::to_string(options.limit_ms) +
              " ms: " + std::to_string(max_rate) + "/s");

  if (!options.trace) {
    // Latency windows: at least 50 requests and 1 s of due time. Rates:
    // replies over the whole nominal phase, from its start to its last
    // reply, so a server that falls behind reads lower.
    const WindowedMetrics wm = window_means(nominal.slices, 50, 1.0);
    report.note("nominal windows: " + std::to_string(wm.windows));
    emit_end_to_end(report, median(setup_s), rss_mb, nominal.verdicts / nominal.wall_s,
                    static_cast<double>(nominal.sent) / nominal.wall_s, wm.latency_p50_ms,
                    wm.latency_p90_ms);
    return;
  }

  // Traced pass at the nominal rate.
  ad::obs::MetricsRegistry& reg = dep.registry;
  const auto ingest = [&](const char* suffix) { return registry_sum(reg, "core.ingest#", suffix); };
  const auto server = [&](const char* suffix) {
    return registry_sum(reg, "net.transport.server#", suffix);
  };
  const double batches0 = ingest(".batches");
  const double committed0 = ingest(".committed");
  const double submitted0 = ingest(".submitted");
  const double retry0 = ingest(".retry_later");
  const double dup0 = ingest(".duplicates");
  const double frames0 = server(".frames_in");
  const double torn0 = server(".torn_frames");
  const double entries0 = static_cast<double>(dep.ledger().entry_count());
  Tracer::get().clear();
  Tracer::get().set_enabled(true);
  const StepResult traced = run_step(options.nominal_rate, nominal_s, true);
  Tracer::get().set_enabled(false);
  const std::vector<Span> spans = Tracer::get().snapshot();
  if (!options.trace_out.empty()) Tracer::get().write_tsv(options.trace_out);
  const TraceSummary summary = summarize_trace(spans);
  const auto self = [&](const char* layer) {
    const auto it = summary.self_s.find(layer);
    return it == summary.self_s.end() ? 0.0 : it->second;
  };

  std::vector<ad::crypto::Bytes> frames;
  for (std::size_t i = dense_cursor; i < corpus.fresh_dense.size() && frames.size() < 100; ++i) {
    frames.push_back(corpus.fresh_dense[i].body);
  }
  for (const Item& t : corpus.tampered) frames.push_back(t.body);
  const VerifyDecode vd = time_verify_decode(dep.auditor(), frames);

  std::map<std::string, double> m;
  m["crypto.keygen_ms"] = mean(keygen_ms);
  m["core.register_ms"] = mean(register_ms);
  m["core.flight_actor.self_s"] = setup->flight_s;
  m["tee.samples_signed"] = static_cast<double>(setup->samples_signed);
  m["tee.sign_us_per_sample"] =
      setup->samples_signed > 0
          ? setup->flight_s * 1e6 / static_cast<double>(setup->samples_signed)
          : 0.0;
  m["gps.ticks"] = static_cast<double>(setup->gps_ticks);
  m["sim.steps"] = static_cast<double>(setup->sched.steps);
  m["sim.batches"] = static_cast<double>(setup->sched.batches);
  m["sim.parallel_batches"] = static_cast<double>(setup->sched.parallel_batches);
  m["core.ingest.self_s"] = self(kLayerIngest);
  m["core.ingest.submit_us_p50"] = percentile(summary.handler_us, 0.5);
  m["core.ingest.submit_us_p99"] = percentile(summary.handler_us, 0.99);
  const double batches = ingest(".batches") - batches0;
  m["core.ingest.mean_batch"] = batches > 0 ? (ingest(".committed") - committed0) / batches : 0.0;
  const double submitted = ingest(".submitted") - submitted0;
  m["core.ingest.retry_later_ratio"] =
      submitted > 0 ? (ingest(".retry_later") - retry0) / submitted : 0.0;
  m["core.ingest.dup_hits"] = ingest(".duplicates") - dup0;
  m["core.auditor.self_s"] = self(kLayerAuditor);
  m["core.auditor.verify_us_per_sample"] = vd.verify_us_per_sample;
  m["core.messages.decode_us"] = vd.decode_us;
  m["net.self_s"] = self(kLayerTransport);
  m["net.transport.overhead_us_p50"] = percentile(summary.overhead_us, 0.5);
  m["net.transport.overhead_us_p99"] = percentile(summary.overhead_us, 0.99);
  m["net.transport.frames_in"] = server(".frames_in") - frames0;
  m["net.transport.torn_frames"] = server(".torn_frames") - torn0;
  m["ledger.entries_per_op"] =
      (static_cast<double>(dep.ledger().entry_count()) - entries0) /
      static_cast<double>(std::max<std::size_t>(traced.sent, 1));
  m["gen.late_ms_p99"] = gen_late_p99;
  m["gen.max_backlog"] = static_cast<double>(gen_max_backlog);
  m["gen.behind"] = behind ? 1.0 : 0.0;
  m["submit.max_rate"] = max_rate;
  m["latency_p99_ms"] = percentile(nominal.latency_ms, 0.99);
  m["bench.self_s"] = self(kLayerBench);
  m["trace.accounted_ratio"] = summary.accounted;
  m["trace.overhead_pct"] =
      (mean(traced.latency_ms) / std::max(mean(nominal.latency_ms), 1e-9) - 1.0) * 100.0;
  report.check(std::abs(summary.accounted - 1.0) <= 0.10,
               "traced layer self times cover " +
                   std::to_string(summary.accounted * 100.0) +
                   "% of the requests' latency (want 90-110%)");
  emit_layer_metrics(report, m);
}

}  // namespace perfbench

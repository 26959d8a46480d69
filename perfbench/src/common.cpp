#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>
#include <unordered_map>

namespace perfbench {

// ---- report --------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(what);
  }
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void Report::note(const std::string& line) { notes_.push_back(line); }

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

void Report::print() const {
  for (const std::string& n : notes_) std::cout << "# " << n << "\n";
  for (const std::string& f : failures_) std::cout << "# CHECK FAILED: " << f << "\n";
  if (!digest.empty()) std::cout << "# digest " << digest << "\n";
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << metrics_[i].first << "\": {\"value\": "
        << json_number(metrics_[i].second.first) << ", \"unit\": \""
        << metrics_[i].second.second << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

// ---- statistics ----------------------------------------------------------

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[index];
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double trimmed_mean(std::vector<double> values, double cut) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t drop = static_cast<std::size_t>(cut * static_cast<double>(values.size()));
  double sum = 0.0;
  for (std::size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

constexpr double kWindowTrim = 0.2;

WindowedMetrics window_means(const std::vector<Window>& slices,
                             std::size_t min_samples, double min_wall_s) {
  std::vector<double> verdicts, msgs, p50, p90;
  for (const Window& w : coalesce(slices, min_samples, min_wall_s)) {
    verdicts.push_back(w.verdicts / w.wall_s);
    msgs.push_back(w.msgs / w.wall_s);
    p50.push_back(percentile(w.latency_ms, 0.5));
  }
  for (const Window& w : coalesce(slices, std::max<std::size_t>(min_samples, 100), min_wall_s)) {
    p90.push_back(percentile(w.latency_ms, 0.90));
  }
  WindowedMetrics out;
  out.verdicts_per_s = trimmed_mean(verdicts, kWindowTrim);
  out.msgs_per_s = trimmed_mean(msgs, kWindowTrim);
  out.latency_p50_ms = trimmed_mean(p50, kWindowTrim);
  out.latency_p90_ms = trimmed_mean(p90, kWindowTrim);
  out.windows = p50.size();
  return out;
}

double pooled_p99(const std::vector<Window>& windows) {
  std::vector<double> all;
  for (const Window& w : windows) all.insert(all.end(), w.latency_ms.begin(), w.latency_ms.end());
  return percentile(std::move(all), 0.99);
}

std::vector<Window> coalesce(const std::vector<Window>& slices,
                             std::size_t min_samples, double min_wall_s) {
  std::vector<Window> out;
  Window cur;
  for (const Window& s : slices) {
    cur.wall_s += s.wall_s;
    cur.verdicts += s.verdicts;
    cur.msgs += s.msgs;
    cur.latency_ms.insert(cur.latency_ms.end(), s.latency_ms.begin(), s.latency_ms.end());
    if (cur.latency_ms.size() >= min_samples && cur.wall_s >= min_wall_s) {
      out.push_back(std::move(cur));
      cur = Window{};
    }
  }
  if (cur.wall_s > 0.0) {
    if (out.empty()) {
      out.push_back(std::move(cur));
    } else {
      Window& last = out.back();
      last.wall_s += cur.wall_s;
      last.verdicts += cur.verdicts;
      last.msgs += cur.msgs;
      last.latency_ms.insert(last.latency_ms.end(), cur.latency_ms.begin(),
                             cur.latency_ms.end());
    }
  }
  return out;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double unit_draw(std::uint64_t seed, std::uint64_t index, std::uint64_t salt) {
  const std::uint64_t bits = mix64(mix64(seed ^ (salt * 0xD1B54A32D192ED03ULL)) + index);
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

double registry_sum(const ad::obs::MetricsRegistry& registry,
                    const std::string& prefix, const std::string& suffix) {
  double total = 0.0;
  for (const ad::obs::MetricRecord& r : registry.snapshot()) {
    if (r.name.size() >= prefix.size() + suffix.size() &&
        r.name.compare(0, prefix.size(), prefix) == 0 &&
        r.name.compare(r.name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += r.value;
    }
  }
  return total;
}

std::uint64_t fingerprint(const ad::crypto::Bytes& body) {
  std::uint64_t tail = 0;
  const std::size_t n = std::min<std::size_t>(body.size(), 8);
  if (n > 0) std::memcpy(&tail, body.data() + body.size() - n, n);
  return mix64(tail ^ (static_cast<std::uint64_t>(body.size()) << 40)) | 1;
}

// ---- timing transport ----------------------------------------------------

namespace {

const char* handler_layer(const std::string& endpoint) {
  // AuditorIngest::bind takes over submit_poa and the TESLA endpoints.
  if (endpoint.find(".submit_poa") != std::string::npos ||
      endpoint.find(".tesla_") != std::string::npos) {
    return kLayerIngest;
  }
  return kLayerAuditor;
}

}  // namespace

void TimingTransport::register_endpoint(const std::string& name, Handler handler) {
  const char* layer = handler_layer(name);
  inner_.register_endpoint(
      name, [layer, handler = std::move(handler)](const ad::crypto::Bytes& in) {
        if (!Tracer::get().enabled()) return handler(in);
        // Same-thread callers (the bus) nest automatically; a socket
        // handler's span is attached to its client span afterwards by
        // request id.
        const ScopedSpan span(layer, fingerprint(in));
        return handler(in);
      });
}

ad::crypto::Bytes TimingTransport::request(const std::string& endpoint,
                                           const ad::crypto::Bytes& payload) {
  return request(endpoint, payload, 0.0);
}

ad::crypto::Bytes TimingTransport::request(const std::string& endpoint,
                                           const ad::crypto::Bytes& payload,
                                           double deadline_s) {
  const std::int64_t t0 = now_ns();
  ad::crypto::Bytes reply;
  {
    const ScopedSpan span(client_layer_, fingerprint(payload));
    reply = deadline_s > 0.0 ? inner_.request(endpoint, payload, deadline_s)
                             : inner_.request(endpoint, payload);
  }
  const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
  std::lock_guard<std::mutex> lock(mu_);
  samples_.push_back({endpoint, ms});
  if (captured_.size() < capture_max_ && endpoint == capture_endpoint_) {
    captured_.push_back(payload);
  }
  return reply;
}

std::vector<TimingTransport::Sample> TimingTransport::take_samples() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Sample> out;
  out.swap(samples_);
  return out;
}

void TimingTransport::capture(const std::string& endpoint, std::size_t max) {
  std::lock_guard<std::mutex> lock(mu_);
  capture_endpoint_ = endpoint;
  capture_max_ = max;
}

std::vector<ad::crypto::Bytes> TimingTransport::take_captured() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ad::crypto::Bytes> out;
  out.swap(captured_);
  capture_max_ = 0;
  return out;
}

VerifyDecode time_verify_decode(ad::core::Auditor& auditor,
                                const std::vector<ad::crypto::Bytes>& frames) {
  VerifyDecode out;
  if (frames.empty()) return out;
  ad::core::PoaView view;
  std::int64_t decode_ns = 0;
  std::int64_t verify_ns = 0;
  std::size_t samples = 0;
  for (const ad::crypto::Bytes& frame : frames) {
    const std::int64_t t0 = now_ns();
    const auto poa = ad::core::SubmitPoaRequest::decode_view(frame);
    const bool parsed = poa && ad::core::PoaView::parse_into(*poa, view);
    decode_ns += now_ns() - t0;
    if (!parsed) continue;
    samples += view.samples.size();
    const std::int64_t t1 = now_ns();
    auditor.verify_poa_bytes(*poa, kStartTime);
    verify_ns += now_ns() - t1;
  }
  out.decode_us = static_cast<double>(decode_ns) * 1e-3 / static_cast<double>(frames.size());
  out.verify_us_per_sample =
      samples > 0 ? static_cast<double>(verify_ns) * 1e-3 / static_cast<double>(samples) : 0.0;
  return out;
}

// ---- deployment ----------------------------------------------------------

Deployment::Deployment(std::uint64_t seed, const ad::obs::Clock* clock,
                       const std::string& uds_path)
    : auditor_rng_(seed_tag(seed, 0, "auditor")), uds_path_(uds_path) {
  ad::core::ProtocolParams params;
  params.auditor_shards = 8;
  params.metrics = &registry;
  params.clock = clock;
  auditor_ = std::make_unique<ad::core::Auditor>(kKeyBits, auditor_rng_, params);

  ledger_ = std::make_shared<ad::ledger::Ledger>(
      ad::ledger::Ledger::Config{{}, 256, &registry});
  audit_log_ = std::make_shared<ad::core::AuditLog>();
  audit_log_->attach_ledger(ledger_);
  auditor_->attach_audit_log(audit_log_);

  ingest_ = std::make_unique<ad::core::AuditorIngest>(
      *auditor_, ad::core::AuditorIngest::Config{});

  if (uds_path.empty()) {
    bus_ = std::make_unique<ad::net::MessageBus>(&registry);
    timing_ = std::make_unique<TimingTransport>(*bus_, kLayerBus);
  } else {
    ::unlink(uds_path.c_str());
    ad::net::transport::TransportServer::Config config;
    config.listen = {"uds:" + uds_path};
    config.workers = 2;
    config.registry = &registry;
    server_ = std::make_unique<ad::net::transport::TransportServer>(config);
    timing_ = std::make_unique<TimingTransport>(*server_, kLayerTransport);
  }
  auditor_->bind(*timing_);
  ingest_->bind(*timing_);
  if (server_) {
    server_->start();
    address_ = server_->bound_addresses().front();
  }
}

Deployment::~Deployment() {
  if (server_) {
    server_->stop();
    ::unlink(uds_path_.c_str());
  }
  ingest_->stop();
}

// ---- geography -----------------------------------------------------------

World::World()
    : residential(ad::sim::make_residential_scenario(kStartTime)),
      airport(ad::sim::make_airport_scenario(kStartTime)) {
  zones = residential.zones;
  zones.insert(zones.end(), airport.zones.begin(), airport.zones.end());
}

std::vector<ad::geo::Circle> World::local_zones(
    const ad::geo::LocalFrame& frame) const {
  std::vector<ad::geo::Circle> out;
  out.reserve(zones.size());
  for (const ad::geo::GeoZone& z : zones) out.push_back(ad::geo::to_local(frame, z));
  return out;
}

std::vector<std::string> World::register_zones(const ad::core::ZoneOwner& owner,
                                               ad::net::Transport& bus) const {
  std::vector<std::string> ids;
  ids.reserve(zones.size());
  for (std::size_t i = 0; i < zones.size(); ++i) {
    ids.push_back(owner.register_zone(bus, zones[i], "zone " + std::to_string(i)));
  }
  return ids;
}

ad::sim::Route scaled_route(const ad::sim::Scenario& scenario, double take_off,
                            double speed_factor) {
  std::vector<ad::sim::Waypoint> wps = scenario.route.waypoints();
  for (ad::sim::Waypoint& w : wps) w.speed_mps *= speed_factor;
  return ad::sim::Route(scenario.frame, std::move(wps), take_off);
}

std::vector<std::size_t> deal_slots(std::uint64_t seed, std::size_t round,
                                    std::size_t drones) {
  std::vector<std::pair<std::uint64_t, std::size_t>> keyed;
  for (std::size_t d = 0; d < drones; ++d) {
    keyed.push_back({mix64(mix64(seed ^ (round * 0x9E3779B97F4A7C15ULL)) + d), d});
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<std::size_t> slot_of(drones);
  for (std::size_t s = 0; s < drones; ++s) slot_of[keyed[s].second] = s;
  return slot_of;
}

Family make_family(const World& world, const ad::sim::Scenario& scenario,
                   const char* name, bool truncate) {
  Family f;
  f.scenario = &scenario;
  f.name = name;
  f.local_zones = world.local_zones(scenario.frame);
  f.truncate = truncate;
  const ad::sim::Route& route = scenario.route;
  double best = std::numeric_limits<double>::infinity();
  for (double t = route.start_time(); t <= f.end_time(route); t += 0.25) {
    const ad::geo::Vec2 p = route.local_position_at(t);
    for (const ad::geo::Circle& z : f.local_zones) {
      const double d = z.boundary_distance(p);
      if (d < best) {
        best = d;
        f.close_offset_s = t - route.start_time();
        f.nearest_center = z.center;
      }
    }
  }
  return f;
}

std::string seed_tag(std::uint64_t seed, std::size_t index, const char* what) {
  return "perfbench-" + std::to_string(seed) + "-" + what + "-" +
         std::to_string(index);
}

Drone make_drone(std::uint64_t seed, std::size_t index,
                 ad::obs::MetricsRegistry* registry,
                 std::vector<double>& keygen_ms) {
  const std::int64_t t0 = now_ns();
  Drone d;
  ad::tee::DroneTee::Config config;
  config.key_bits = kKeyBits;
  config.manufacturing_seed = seed_tag(seed, index, "tee");
  config.metrics = registry;
  d.tee = std::make_unique<ad::tee::DroneTee>(config);
  d.operator_rng = std::make_unique<ad::crypto::DeterministicRandom>(
      seed_tag(seed, index, "operator"));
  d.client = std::make_unique<ad::core::DroneClient>(*d.tee, kKeyBits,
                                                     *d.operator_rng, registry);
  keygen_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  return d;
}

bool register_drone(Drone& drone, ad::net::Transport& bus,
                    std::vector<double>& register_ms) {
  const std::int64_t t0 = now_ns();
  const bool ok = drone.client->register_with_auditor(bus);
  register_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  return ok;
}

void stamp(Report& report, const Options& options) {
#ifdef NDEBUG
  const char* build = "optimized (NDEBUG)";
#else
  const char* build = "assertions on";
#endif
  std::ostringstream out;
  out << "stamp workload=" << options.workload << " seed=" << options.seed
      << " seconds=" << options.seconds << " trace=" << (options.trace ? 1 : 0)
      << " nproc=" << std::thread::hardware_concurrency() << " build=\"" << build
      << "\" compiler=\"" << __VERSION__ << "\"";
  report.note(out.str());
}

// ---- trace summary -------------------------------------------------------

TraceSummary summarize_trace(std::vector<Span> spans) {
  // Attach parentless handler spans (socket workers) to the client span
  // with the same request id that encloses them.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> clients;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (std::strcmp(s.layer, kLayerTransport) == 0 && s.request != 0) {
      clients[s.request].push_back(i);
    }
  }
  std::vector<bool> taken(spans.size(), false);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Span& s = spans[i];
    const bool handler = std::strcmp(s.layer, kLayerIngest) == 0 ||
                         std::strcmp(s.layer, kLayerAuditor) == 0;
    if (!handler || s.parent >= 0 || s.request == 0) continue;
    const auto it = clients.find(s.request);
    if (it == clients.end()) continue;
    for (const std::size_t c : it->second) {
      if (taken[c]) continue;
      if (spans[c].start_ns <= s.start_ns && s.end_ns <= spans[c].end_ns) {
        s.parent = static_cast<std::int64_t>(c);
        taken[c] = true;
        break;
      }
    }
  }

  TraceSummary summary;
  summary.self_s = self_seconds_by_layer(spans);
  std::vector<std::int64_t> handler_ns(spans.size(), 0);
  for (const Span& s : spans) {
    const bool ingest = std::strcmp(s.layer, kLayerIngest) == 0;
    if (ingest) {
      summary.handler_us.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
    if (std::strcmp(s.layer, kLayerBench) == 0) {
      summary.root_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
    if ((ingest || std::strcmp(s.layer, kLayerAuditor) == 0) && s.parent >= 0) {
      handler_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (std::strcmp(s.layer, kLayerTransport) == 0 && handler_ns[i] > 0) {
      summary.overhead_us.push_back(
          static_cast<double>(s.end_ns - s.start_ns - handler_ns[i]) * 1e-3);
    }
  }
  double layers = 0.0;
  for (const auto& [layer, s] : summary.self_s) {
    if (layer != kLayerBench) layers += s;
  }
  summary.accounted = summary.root_s > 0.0 ? layers / summary.root_s : 0.0;
  return summary;
}

// ---- per-layer metrics -----------------------------------------------------

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every workload emits all of these; a layer the workload does not reach
// reads 0. Keep in step with BENCHMARK.json's per_layer list.
constexpr LayerMetric kLayerMetrics[] = {
    {"crypto.keygen_ms", "ms"},
    {"core.register_ms", "ms"},
    {"core.flight_actor.self_s", "s"},
    {"tee.samples_signed", "count"},
    {"tee.sign_us_per_sample", "us"},
    {"gps.ticks", "count"},
    {"sim.steps", "count"},
    {"sim.batches", "count"},
    {"sim.parallel_batches", "count"},
    {"sim.route.self_s", "s"},
    {"core.ingest.self_s", "s"},
    {"core.ingest.submit_us_p50", "us"},
    {"core.ingest.submit_us_p99", "us"},
    {"core.ingest.mean_batch", "count"},
    {"core.ingest.retry_later_ratio", "ratio"},
    {"core.ingest.dup_hits", "count"},
    {"core.auditor.self_s", "s"},
    {"core.auditor.verify_us_per_sample", "us"},
    {"core.messages.decode_us", "us"},
    {"net.self_s", "s"},
    {"net.transport.overhead_us_p50", "us"},
    {"net.transport.overhead_us_p99", "us"},
    {"net.transport.frames_in", "count"},
    {"net.transport.torn_frames", "count"},
    {"core.tesla.samples_admitted", "count"},
    {"core.tesla.samples_settled", "count"},
    {"core.tesla.samples_rejected", "count"},
    {"core.tesla.disclosures", "count"},
    {"ledger.entries_per_op", "ratio"},
    {"latency_p99_ms", "ms"},
    {"gen.late_ms_p99", "ms"},
    {"gen.max_backlog", "count"},
    {"gen.behind", "count"},
    {"submit.max_rate", "1/s"},
    {"bench.self_s", "s"},
    {"trace.accounted_ratio", "ratio"},
    {"trace.overhead_pct", "%"},
};

}  // namespace

void emit_layer_metrics(Report& report, const std::map<std::string, double>& values) {
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = values.find(m.name);
    report.metric(m.name, it == values.end() ? 0.0 : it->second, m.unit);
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const LayerMetric& m : kLayerMetrics) known = known || name == m.name;
    report.check(known, "per-layer metric without a declared unit: " + name);
  }
}

}  // namespace perfbench

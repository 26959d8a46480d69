// Shared pieces of the end-to-end benchmark: command-line options, the
// result report, order statistics, the Auditor server composition every
// workload runs against, the fleet's geography, and the timing transport
// decorator that takes the benchmark's spans around library calls.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/audit_log.h"
#include "core/auditor.h"
#include "core/drone_client.h"
#include "core/ingest.h"
#include "core/poa.h"
#include "core/zone_owner.h"
#include "crypto/random.h"
#include "geo/zone.h"
#include "ledger/ledger.h"
#include "net/message_bus.h"
#include "net/transport.h"
#include "net/transport/server.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "sim/scenarios.h"
#include "tee/secure_monitor.h"
#include "trace.h"

namespace perfbench {

namespace ad = alidrone;

inline constexpr std::size_t kKeyBits = 512;
inline constexpr double kStartTime = 1528400000.0;
inline constexpr double kGpsRateHz = 5.0;

// Layer names used for spans and per-layer metrics (the src/ modules).
inline constexpr const char* kLayerBench = "bench";
inline constexpr const char* kLayerFlight = "core.flight_actor";
inline constexpr const char* kLayerRoute = "sim.route";
inline constexpr const char* kLayerBus = "net.bus";
inline constexpr const char* kLayerTransport = "net.transport";
inline constexpr const char* kLayerIngest = "core.ingest";
inline constexpr const char* kLayerAuditor = "core.auditor";
inline constexpr const char* kLayerGen = "gen";

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small fleet, one setup repetition: the benchmark's own self-test.
  bool quick = false;
  /// submit_open schedule (from BENCHMARK.json via run.py).
  double nominal_rate = 0.0;
  std::vector<double> ladder_rates;
  double limit_ms = 0.0;
  std::string trace_out;  ///< where the traced run writes its spans
  std::string scratch_dir = ".";
};

/// One workload's result: metrics, operation counts, correctness checks
/// and a digest of the deterministic outputs.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Count one checked operation; a false `ok` is a failure with `what`.
  void op(bool ok, const std::string& what);
  /// A check that is not an operation (a digest comparison, a count).
  void check(bool ok, const std::string& what);
  void note(const std::string& line);

  std::uint64_t attempted() const { return attempted_; }
  bool correct() const { return failures_.empty(); }

  std::string digest;

  /// Info lines, then the one-line JSON result as the last line.
  void print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---- statistics ----------------------------------------------------------

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);
double peak_rss_mb();
double seconds_since(std::int64_t start_ns);

/// A slice of a timed phase: wall time, verdicts, messages, latencies.
struct Window {
  double wall_s = 0.0;
  double verdicts = 0.0;
  double msgs = 0.0;
  std::vector<double> latency_ms;
};

/// Mean of `values` without the lowest and the highest `cut` share.
double trimmed_mean(std::vector<double> values, double cut);

/// A timed phase's rates and latency percentiles. The host's CPU speed
/// flips between two levels every few seconds, and the share of time a run
/// spends at each varies from run to run; now and then it also stalls. A
/// median over windows reads whichever level held the run longer, and a
/// plain mean follows the stalls. So each metric is the mean of its
/// per-window values without the lowest and highest fifth: it moves in
/// proportion to the share of time at each level, and a few stalled
/// windows do not move it.
struct WindowedMetrics {
  double verdicts_per_s = 0.0;
  double msgs_per_s = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
  std::size_t windows = 0;  ///< windows behind the rates and the p50
};
/// Rates and the p50 come from the windows `slices` coalesce into with at
/// least `min_samples` latencies and `min_wall_s` seconds; the p90 from
/// windows of at least 100 latencies, so that ten lie beyond it.
WindowedMetrics window_means(const std::vector<Window>& slices,
                             std::size_t min_samples, double min_wall_s);

/// p99 of every latency in `windows` together (the untraced phase's tail,
/// reported per layer: on a shared host it is mostly scheduling jitter).
double pooled_p99(const std::vector<Window>& windows);

/// Merge consecutive slices into windows of at least `min_samples`
/// latencies and `min_wall_s` seconds; a short tail joins the last window.
std::vector<Window> coalesce(const std::vector<Window>& slices,
                             std::size_t min_samples, double min_wall_s);

/// splitmix64: per-item seeded draws that do not depend on draw order.
std::uint64_t mix64(std::uint64_t x);
double unit_draw(std::uint64_t seed, std::uint64_t index, std::uint64_t salt);

/// Sum of every registry counter/gauge whose name starts with `prefix`
/// and ends with `suffix` (instances "x#0.y", "x#1.y" add up).
double registry_sum(const ad::obs::MetricsRegistry& registry,
                    const std::string& prefix, const std::string& suffix);

/// Cheap content fingerprint of a request body (size and last 8 bytes);
/// the benchmark's request id, computable on both sides of a socket.
std::uint64_t fingerprint(const ad::crypto::Bytes& body);

// ---- timing transport ----------------------------------------------------

/// net::Transport decorator. Endpoints registered through it run inside a
/// handler span (core.ingest for the ingest-bound endpoints, core.auditor
/// for the rest); requests sent through it are timed and, when tracing,
/// run inside a `client_layer` span. Untraced, a handler costs one relaxed
/// load and a request two clock reads.
class TimingTransport : public ad::net::Transport {
 public:
  TimingTransport(ad::net::Transport& inner, const char* client_layer)
      : inner_(inner), client_layer_(client_layer) {}

  void register_endpoint(const std::string& name, Handler handler) override;
  ad::crypto::Bytes request(const std::string& endpoint,
                            const ad::crypto::Bytes& payload) override;
  ad::crypto::Bytes request(const std::string& endpoint,
                            const ad::crypto::Bytes& payload,
                            double deadline_s) override;
  void set_clock(ad::obs::VirtualClock* clock) override {
    inner_.set_clock(clock);
  }

  struct Sample {
    std::string endpoint;
    double ms = 0.0;
  };
  /// Round trips recorded since the last reset.
  std::vector<Sample> take_samples();

  /// Keep copies of up to `max` request payloads sent to `endpoint`.
  void capture(const std::string& endpoint, std::size_t max);
  std::vector<ad::crypto::Bytes> take_captured();

 private:
  ad::net::Transport& inner_;
  const char* client_layer_;
  std::mutex mu_;
  std::vector<Sample> samples_;
  std::string capture_endpoint_;
  std::size_t capture_max_ = 0;
  std::vector<ad::crypto::Bytes> captured_;
};

/// Serial passes over a corpus of SubmitPoaRequest frames: the mean
/// decode time per frame (decode_view + PoaView::parse_into) and the
/// Auditor::verify_poa_bytes time per PoA sample.
struct VerifyDecode {
  double decode_us = 0.0;
  double verify_us_per_sample = 0.0;
};
VerifyDecode time_verify_decode(ad::core::Auditor& auditor,
                                const std::vector<ad::crypto::Bytes>& frames);

// ---- the server composition ----------------------------------------------

/// The Auditor as examples/alidrone_auditord.cpp composes it: 8 shards,
/// an AuditLog anchored in a Merkle Ledger, AuditorIngest with its library
/// default Config, and (for the socket workloads) a TransportServer with
/// 2 workers. Endpoints bind through a TimingTransport over the carrier.
class Deployment {
 public:
  /// `uds_path` empty: an in-process MessageBus carries the endpoints.
  Deployment(std::uint64_t seed, const ad::obs::Clock* clock,
             const std::string& uds_path);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  ad::obs::MetricsRegistry registry;
  ad::core::Auditor& auditor() { return *auditor_; }
  ad::ledger::Ledger& ledger() { return *ledger_; }
  /// In-process endpoint table (the bus, or the server's loopback).
  TimingTransport& local() { return *timing_; }
  std::string address() const { return address_; }

 private:
  ad::crypto::DeterministicRandom auditor_rng_;
  std::unique_ptr<ad::core::Auditor> auditor_;
  std::shared_ptr<ad::ledger::Ledger> ledger_;
  std::shared_ptr<ad::core::AuditLog> audit_log_;
  std::unique_ptr<ad::core::AuditorIngest> ingest_;
  std::unique_ptr<ad::net::MessageBus> bus_;
  std::unique_ptr<ad::net::transport::TransportServer> server_;
  std::unique_ptr<TimingTransport> timing_;
  std::string uds_path_;
  std::string address_;
};

// ---- geography -----------------------------------------------------------

/// The fleet's world: the Fig. 8 residential street with its 94 house
/// NFZs and the Fig. 6 airport NFZ, registered in one Auditor.
struct World {
  World();
  ad::sim::Scenario residential;
  ad::sim::Scenario airport;
  std::vector<ad::geo::GeoZone> zones;  ///< houses, then the airport

  /// Zones as seen in `frame`.
  std::vector<ad::geo::Circle> local_zones(const ad::geo::LocalFrame& frame) const;
  /// Register every zone through `owner`; returns the issued ids.
  std::vector<std::string> register_zones(const ad::core::ZoneOwner& owner,
                                          ad::net::Transport& bus) const;
};

/// One route of a scenario's shape, speeds scaled by `speed_factor`,
/// taking off at `take_off`.
ad::sim::Route scaled_route(const ad::sim::Scenario& scenario, double take_off,
                            double speed_factor);

/// A round of a closed-loop fleet has one sortie per drone, and every
/// round has the same make-up: slot s of D flies the airport route when
/// s % 4 == 3 (a quarter of the fleet) and the residential one otherwise,
/// at speed factor 0.9 + 0.2 (s + 1/2) / D. The seed deals the drones to
/// the slots, so keys and roles move between runs while the load does not.
std::vector<std::size_t> deal_slots(std::uint64_t seed, std::size_t round,
                                    std::size_t drones);
inline bool slot_is_dense(std::size_t slot) { return slot % 4 != 3; }
inline double slot_speed(std::size_t slot, std::size_t drones) {
  return 0.9 + 0.2 * (static_cast<double>(slot) + 0.5) / static_cast<double>(drones);
}

/// Airport sorties fly the first three minutes of the Fig. 6 drive.
inline constexpr double kAirportFlightS = 180.0;

/// A route family of the closed-loop fleets, and where it comes closest
/// to any zone.
struct Family {
  const ad::sim::Scenario* scenario = nullptr;
  const char* name = "";
  std::vector<ad::geo::Circle> local_zones;
  double close_offset_s = 0.0;  ///< after take-off, at speed factor 1
  ad::geo::Vec2 nearest_center;
  bool truncate = false;  ///< airport: cut at kAirportFlightS

  double end_time(const ad::sim::Route& route) const {
    return truncate ? route.start_time() + kAirportFlightS : route.end_time();
  }
};
Family make_family(const World& world, const ad::sim::Scenario& scenario,
                   const char* name, bool truncate);

/// A registered drone: TEE, operator key and client.
struct Drone {
  std::unique_ptr<ad::tee::DroneTee> tee;
  std::unique_ptr<ad::crypto::DeterministicRandom> operator_rng;
  std::unique_ptr<ad::core::DroneClient> client;
};

/// Manufacture drone `index` (TEE + operator keygen), timing it into
/// `keygen_ms`.
Drone make_drone(std::uint64_t seed, std::size_t index,
                 ad::obs::MetricsRegistry* registry,
                 std::vector<double>& keygen_ms);

/// Register `drone`, timing it into `register_ms`; false on refusal.
bool register_drone(Drone& drone, ad::net::Transport& bus,
                    std::vector<double>& register_ms);

std::string seed_tag(std::uint64_t seed, std::size_t index, const char* what);

/// Stamp every workload: the seed, nproc and the build.
void stamp(Report& report, const Options& options);

/// Per-layer self seconds from the traced phase, with request-matched
/// cross-thread handler spans attached to their client spans.
struct TraceSummary {
  std::map<std::string, double> self_s;
  double root_s = 0.0;      ///< total duration of the bench root spans
  double accounted = 0.0;   ///< layer self time / root time
  std::vector<double> handler_us;   ///< core.ingest handler durations
  std::vector<double> overhead_us;  ///< client round trip minus handler
};
TraceSummary summarize_trace(std::vector<Span> spans);

/// Emit the per-layer metrics every workload reports; `values` holds the
/// workload's own, the rest read 0 (layer absent on this workload).
void emit_layer_metrics(Report& report, const std::map<std::string, double>& values);

}  // namespace perfbench

// The three workloads. Each sets up (timed separately, several times),
// runs its timed phase for Options::seconds, checks every output, and
// fills the report with the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run: an untraced pass, then a traced one).
#pragma once

#include "common.h"

namespace perfbench {

/// Closed loop over the in-process MessageBus: a fleet of drones flies
/// repeated sorties (three residential routes to one airport route,
/// 3/8 of them attacking) on a FleetScheduler.
void run_fleet_sorties(const Options& options, Report& report);

/// Open loop over a Unix-domain socket: a seeded Poisson schedule of PoA
/// submissions and accusations from a prebuilt corpus, at fixed rates.
void run_submit_open(const Options& options, Report& report);

/// Closed loop over a Unix-domain socket: TESLA-broadcast flights whose
/// every message is a small request to the server.
void run_tesla_stream(const Options& options, Report& report);

/// End-to-end metric names and units (BENCHMARK.json's end_to_end list).
/// `rss_mb` is the peak RSS read after a fixed amount of timed work, so it
/// does not grow with how fast the host happened to run.
void emit_end_to_end(Report& report, double setup_s, double rss_mb,
                     double verdicts_per_s, double msgs_per_s,
                     double latency_p50_ms, double latency_p90_ms);

/// Set-ups per run; the run reports their median time and keeps the last.
inline constexpr int kSetupReps = 7;

/// Closed-loop phases read the peak RSS after this many rounds and run at
/// least this many.
inline constexpr std::size_t kRssRounds = 24;

}  // namespace perfbench

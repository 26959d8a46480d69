// AuditorIngest — batched, backpressured PoA admission for fleet traffic.
//
// Many drones submit proofs concurrently; one Auditor must verify them at
// near-hardware speed without giving up the serial path's determinism.
// The pipeline in front of Auditor::verify does four things:
//
//   admit    producer threads decode (zero-copy), dedup against the
//            Auditor's content-digest cache, copy the proof into a pooled
//            frame and push it onto a bounded MPMC queue. A full queue is
//            answered with net::retry_later_reply() — explicit
//            backpressure ReliableChannel retries without charging its
//            circuit breaker — instead of unbounded buffering.
//   batch    one ingest thread drains up to max_batch queued submissions.
//   verify   the batch is parsed into reused PoaView scratch and run
//            through Auditor::evaluate_batch, fanned out by index on an
//            internal ThreadPool when verify_threads > 0 (pure reads:
//            shard locks + zone snapshot; see Auditor::evaluate_poa).
//   commit   each proof goes through Auditor::commit_submission, the same
//            commit step as the unbatched submit_poa endpoint, serially in
//            admission order — the queue is FIFO, so commit order equals
//            arrival order and verdicts/audit logs are byte-identical to
//            the unbatched serial path for any shard, thread or batch size.
//
// TESLA broadcast operations skip the queue: submit_tesla hands each frame
// to Auditor::handle_frame on the calling thread, under the same commit
// mutex the batch commit loop holds, so they stay serial with PoA commits.
//
// Exactly-once: commit_submission re-checks the digest, so two copies of
// the same proof admitted into one batch still produce one retention and
// one audit event (the second gets the first's cached verdict).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/auditor.h"
#include "crypto/bytes.h"
#include "net/buffer_pool.h"
#include "net/transport.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "runtime/mpmc_queue.h"
#include "runtime/thread_pool.h"

namespace alidrone::core {

class AuditorIngest {
 public:
  struct Config {
    /// Admission queue bound; pushes beyond it get kRetryLater.
    std::size_t queue_capacity = 256;
    /// Max submissions verified per batch.
    std::size_t max_batch = 32;
    /// Verifier threads for parallel evaluation; 0 = evaluate on the
    /// ingest thread (serial).
    std::size_t verify_threads = 0;
    /// Trace batch evaluate/commit phases (null disables tracing).
    obs::FlightRecorder* recorder = nullptr;
  };

  explicit AuditorIngest(Auditor& auditor);
  AuditorIngest(Auditor& auditor, Config config);
  ~AuditorIngest();

  AuditorIngest(const AuditorIngest&) = delete;
  AuditorIngest& operator=(const AuditorIngest&) = delete;

  /// Submit one serialized SubmitPoaRequest frame; blocks until the
  /// pipeline commits the verdict (or answers from the dedup cache /
  /// rejects with retry-later). Safe from any number of threads.
  crypto::Bytes submit(std::span<const std::uint8_t> request_frame);

  /// Apply one TESLA operation frame (`method` is one of the kTesla*
  /// methods) on the calling thread, through Auditor::handle_frame.
  /// Each op is cheap (symmetric crypto plus at most one RSA verify per
  /// flight) but order-sensitive (chain frontiers, buffered intervals),
  /// so it runs under the commit mutex that the batch commit loop also
  /// holds: TESLA ops are serial with each other and with PoA commits, in
  /// lock-acquisition order. For one synchronous caller that is its
  /// submission order, and verdicts and audit events are byte-identical
  /// to the unbatched serial path for any verify-thread or shard count.
  /// A full PoA queue does not turn TESLA ops away; an op waits for at
  /// most one batch's commit phase. No dedup (the verifier itself is
  /// idempotent where the protocol needs it). After stop() it answers
  /// retry-later, which a lossy broadcaster treats as a drop.
  crypto::Bytes submit_tesla(Auditor::WireMethod method,
                             std::span<const std::uint8_t> frame);

  /// Re-register "<prefix>.submit_poa" and the "<prefix>.tesla_*"
  /// endpoints to run through the pipeline (call after Auditor::bind,
  /// which installs the unbatched handlers under the same prefix).
  void bind(net::Transport& bus, const std::string& prefix = "auditor");

  /// Stop admitting, drain everything already queued, join the ingest
  /// thread. Idempotent; the destructor calls it.
  void stop();

  /// Test hook: hold the ingest thread before its next batch, so tests
  /// can fill the queue deterministically and observe backpressure.
  /// TESLA ops do not wait for it.
  void pause();
  void resume();

  struct Counters {
    std::uint64_t submitted = 0;      ///< submit() and submit_tesla() calls
    std::uint64_t admitted = 0;       ///< entered the queue, or TESLA ops applied
    std::uint64_t retry_later = 0;    ///< rejected with kRetryLater
    std::uint64_t duplicates = 0;     ///< answered from the dedup cache
    std::uint64_t malformed = 0;      ///< undecodable request frames
    std::uint64_t batches = 0;        ///< batches processed
    std::uint64_t committed = 0;      ///< verdicts committed
    std::uint64_t max_batch_seen = 0; ///< largest batch drained
    /// Times the ingest thread parked at the pause gate with an item in
    /// hand — lets tests wait until a paused pipeline has provably
    /// drained one item out of the queue before filling it.
    std::uint64_t gate_waits = 0;
  };
  /// Point-in-time view over the pipeline's registry counters (instance
  /// scope "core.ingest" in the Auditor's ProtocolParams::metrics
  /// registry, or the process-wide registry when unset).
  Counters counters() const;

  net::BufferPool::Stats pool_stats() const { return pool_.stats(); }

 private:
  struct Item {
    crypto::Bytes frame;    ///< pooled; holds the PoA bytes
    crypto::Bytes digest;   ///< SHA-256 of the PoA bytes
    std::promise<crypto::Bytes> reply;
  };

  void ingest_loop();
  void process_batch(std::vector<Item>& batch);

  Auditor& auditor_;
  Config config_;
  net::BufferPool pool_;
  std::unique_ptr<runtime::ThreadPool> verify_pool_;
  runtime::MpmcQueue<Item> queue_;

  std::mutex pause_mu_;
  std::condition_variable pause_cv_;
  bool paused_ = false;
  std::atomic<bool> stopped_{false};  ///< written under pause_mu_

  /// Held by the batch commit loop and by every TESLA op.
  std::mutex commit_mu_;

  // Scratch reused across batches (ingest thread only).
  std::vector<PoaView> views_;

  // Registry-backed counters (the one source of truth for the pipeline).
  obs::Counter* submitted_;
  obs::Counter* admitted_;
  obs::Counter* retry_later_;
  obs::Counter* duplicates_;
  obs::Counter* malformed_;
  obs::Counter* batches_;
  obs::Counter* committed_;
  obs::Gauge* max_batch_seen_;
  obs::Counter* gate_waits_;

  std::thread ingest_thread_;
};

}  // namespace alidrone::core

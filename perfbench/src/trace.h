// In-memory span recorder for the traced benchmark run.
//
// Spans are taken by the benchmark's own code around each call it makes
// into a library layer (a scheduler run, a transport request, an endpoint
// handler), never from inside src/. Each span carries its layer name,
// start and end on the steady clock, the span that caused it and a
// request id. Nothing is recorded while the tracer is disabled, so the
// untraced run pays one relaxed load per call site.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady clock).
std::int64_t now_ns();

struct Span {
  const char* layer = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;   ///< index of the causing span, -1 for a root
  std::uint64_t request = 0;  ///< request id shared by one request's spans
  std::uint32_t thread = 0;
};

class Tracer {
 public:
  static Tracer& get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Open a span on the calling thread; its parent is the innermost span
  /// still open on this thread.
  std::int64_t begin(const char* layer, std::uint64_t request);
  void end(std::int64_t id);

  /// Record an already finished span (timestamps taken elsewhere).
  std::int64_t record(const char* layer, std::int64_t start_ns,
                      std::int64_t end_ns, std::int64_t parent,
                      std::uint64_t request);

  /// Innermost span open on the calling thread, -1 when none.
  std::int64_t current() const;

  std::vector<Span> snapshot() const;
  void clear();

  /// One line per span: index, layer, start, end, parent, request, thread.
  bool write_tsv(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op while the tracer is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* layer, std::uint64_t request = 0)
      : id_(Tracer::get().enabled() ? Tracer::get().begin(layer, request) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) Tracer::get().end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int64_t id_;
};

/// Self time per layer: each span's duration minus the part of it that
/// its children cover, summed by layer name (seconds).
std::map<std::string, double> self_seconds_by_layer(
    const std::vector<Span>& spans);

}  // namespace perfbench

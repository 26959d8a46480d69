#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

namespace perfbench {

namespace {

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t mine = next.fetch_add(1);
  return mine;
}

thread_local std::vector<std::int64_t> t_open;

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::begin(const char* layer, std::uint64_t request) {
  Span span;
  span.layer = layer;
  span.parent = current();
  span.request = request;
  span.thread = thread_number();
  std::int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<std::int64_t>(spans_.size());
    span.start_ns = now_ns();
    spans_.push_back(span);
  }
  t_open.push_back(id);
  return id;
}

void Tracer::end(std::int64_t id) {
  const std::int64_t t = now_ns();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
  }
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
}

std::int64_t Tracer::record(const char* layer, std::int64_t start_ns,
                            std::int64_t end_ns, std::int64_t parent,
                            std::uint64_t request) {
  Span span{layer, start_ns, end_ns, parent, request, thread_number()};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t Tracer::current() const {
  return t_open.empty() ? -1 : t_open.back();
}

std::vector<Span> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

bool Tracer::write_tsv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "id\tlayer\tstart_ns\tend_ns\tparent\trequest\tthread\n";
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.layer << '\t' << s.start_ns << '\t' << s.end_ns
        << '\t' << s.parent << '\t' << s.request << '\t' << s.thread << '\n';
  }
  return static_cast<bool>(out);
}

std::map<std::string, double> self_seconds_by_layer(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to this span.
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (const auto& [a, b] : kids) {
      const std::int64_t lo = std::max(a, cursor);
      const std::int64_t hi = std::min(b, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    const std::int64_t self = (s.end_ns - s.start_ns) - covered;
    out[s.layer] += static_cast<double>(std::max<std::int64_t>(self, 0)) * 1e-9;
  }
  return out;
}

}  // namespace perfbench

#include "crypto/hash_chain.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"

namespace alidrone::crypto {

namespace {

// Process-wide TESLA counters, obtained once (mont.cache_* idiom). The
// hot-path cost is one relaxed atomic add; the lookups never run inside
// the zero-allocation guard window because warm-up touches them first.
obs::Counter& tag_ops_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("crypto.tesla.tag_ops");
  return c;
}

obs::Counter& derive_hashes_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("crypto.tesla.derive_hashes");
  return c;
}

obs::Counter& frontier_hashes_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("crypto.tesla.frontier_hashes");
  return c;
}

}  // namespace

ChainKey chain_step(const ChainKey& key) { return Sha256::hash(key); }

HashChain::HashChain(const ChainKey& seed, std::size_t length,
                     std::size_t checkpoint_stride)
    : length_(length), stride_(checkpoint_stride) {
  if (length_ == 0) throw std::invalid_argument("HashChain: length == 0");
  if (stride_ == 0) {
    stride_ = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(length_))));
  }
  // Walk K_N .. K_0 once, capturing every stride_-th element. The walk
  // runs top-down but checkpoints_ is indexed bottom-up, so size it first
  // and fill by index.
  checkpoints_.assign(length_ / stride_, ChainKey{});
  ChainKey cur = seed;  // K_length
  for (std::size_t i = length_; i >= 1; --i) {
    if (i % stride_ == 0 && i / stride_ <= checkpoints_.size()) {
      checkpoints_[i / stride_ - 1] = cur;
    }
    cur = chain_step(cur);  // K_{i-1}
  }
  anchor_ = cur;  // K_0
  // The seed itself is the final fallback checkpoint so key(length) and
  // the tail above the last stride boundary stay cheap.
  checkpoints_.push_back(seed);
  // No segment spans more than a stride or the whole chain.
  span_ = std::min(stride_, length_);
  segment_keys_.resize(2 * span_);
}

ChainKey HashChain::key(std::size_t index) {
  if (index < 1 || index > length_) {
    throw std::out_of_range("HashChain::key: index outside [1, length]");
  }
  // Nearest checkpoint at or above index: checkpoints_[j] holds
  // K_{(j+1)*stride_}, with the seed (K_length) appended last.
  const std::size_t j = (index + stride_ - 1) / stride_ - 1;
  const bool below_seed = j < checkpoints_.size() - 1;
  const std::size_t top = below_seed ? (j + 1) * stride_ : length_;
  std::size_t slot = segments_[0].top == top ? 0 : 1;
  if (segments_[slot].top != top) {
    // Miss: refill the slot filled less recently. The TA's two access
    // points (i and i - delay) only move up, so it holds the lower,
    // finished segment.
    slot = next_slot_;
    next_slot_ ^= 1;
    segments_[slot] = {top, top};
    segment_keys_[slot * span_] =
        below_seed ? checkpoints_[j] : checkpoints_.back();
  }
  Segment& segment = segments_[slot];
  ChainKey* keys = segment_keys_.data() + slot * span_;
  std::uint64_t steps = 0;
  for (; segment.low > index; --segment.low, ++steps) {
    keys[top - segment.low + 1] = chain_step(keys[top - segment.low]);
  }
  if (steps != 0) {
    derive_hashes_ += steps;
    derive_hashes_counter().add(steps);
  }
  return keys[top - index];
}

ChainFrontier::ChainFrontier(const ChainKey& anchor, std::size_t length)
    : frontier_(anchor), length_(length) {}

bool ChainFrontier::accept(std::size_t index, const ChainKey& key) {
  if (index <= index_ || index > length_) return false;
  ChainKey cur = key;
  std::uint64_t steps = 0;
  for (std::size_t i = index; i > index_; --i, ++steps) {
    cur = chain_step(cur);
  }
  verify_hashes_ += steps;
  frontier_hashes_counter().add(steps);
  if (cur != frontier_) return false;
  frontier_ = key;
  index_ = index;
  return true;
}

ChainKey tesla_mac_key(const ChainKey& chain_key) {
  static constexpr std::string_view kContext = "alidrone.tesla.mac.v1";
  return HmacSha256(chain_key).mac_of(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kContext.data()), kContext.size()));
}

HmacSha256 tesla_tag_key(const ChainKey& chain_key) {
  return HmacSha256(tesla_mac_key(chain_key));
}

ChainKey tesla_tag(const HmacSha256& tag_key, std::uint64_t interval,
                   std::span<const std::uint8_t> sample) {
  std::array<std::uint8_t, 8> be{};
  store_be(be.data(), interval);
  tag_ops_counter().increment();
  return tag_key.mac_of(be, sample);
}

ChainKey TeslaTagger::tag(std::uint64_t interval,
                          std::span<const std::uint8_t> sample) {
  if (!key_ || interval != interval_) {
    key_.emplace(tesla_tag_key(chain_.key(interval)));
    interval_ = interval;
  }
  return tesla_tag(*key_, interval, sample);
}

}  // namespace alidrone::crypto

// TESLA hash chains (delayed-key-disclosure broadcast authentication).
//
// A flight's authentication keys form a one-way chain
//
//     K_N  --SHA-256-->  K_{N-1}  --SHA-256-->  ...  --SHA-256-->  K_0
//
// generated backwards from a random seed K_N. The drone commits to the
// *anchor* K_0 once per flight with a single TEE RSA signature; every
// GPS sample in interval i is then authenticated with one HMAC tag keyed
// by a value derived from the not-yet-disclosed K_i. Disclosing K_i
// after the delay lets anyone verify the tag, and the one-way chain lets
// anyone confirm K_i really belongs to the committed flight by hashing
// it down to a previously verified element.
//
// Two sides, two caching strategies:
//  - the sender (`HashChain`) keeps √N checkpoints so deriving K_i costs
//    O(√N) hashes worst case and zero heap allocations, and caches the
//    two segments it walked last, so in-order use costs ~N hashes total;
//  - the verifier (`ChainFrontier`) keeps only the highest verified
//    element (the frontier), so a whole flight's disclosures cost N
//    hashes total no matter how many are dropped or arrive out of order.
//
// Tags are HMACs under a per-interval key. Every side builds that keyed
// HMAC state once per interval (`tesla_tag_key`, 6 SHA-256 blocks) and
// then spends 2 blocks per sample (`tesla_tag`); `TeslaTagger` is the
// sender's per-interval cache.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/bytes.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace alidrone::crypto {

/// One chain element (SHA-256 wide).
using ChainKey = std::array<std::uint8_t, 32>;
inline constexpr std::size_t kChainKeySize = 32;

/// One step toward the anchor: returns SHA-256(key), i.e. K_{i-1} from K_i.
ChainKey chain_step(const ChainKey& key);

/// Sender-side chain with checkpoint caching.
///
/// Construction walks the full chain once (N hashes), storing every
/// `checkpoint_stride`-th element; `key(i)` then re-derives any element
/// from the nearest checkpoint above it without touching the heap.
/// stride = 1 caches the whole chain (O(1) lookup, N keys of memory);
/// stride = 0 picks ceil(√N) — the classic O(√N) time/memory balance.
///
/// The keys between two checkpoints form a segment. The two segments
/// walked most recently stay cached (2 · stride keys, allocated at
/// construction), so the TA's access pattern — tags at interval i,
/// disclosures at i − delay — walks each segment once instead of once per
/// key, even where i and i − delay straddle a checkpoint.
class HashChain {
 public:
  HashChain(const ChainKey& seed, std::size_t length,
            std::size_t checkpoint_stride = 0);

  /// Number of usable keys K_1..K_length (K_0 is the commitment anchor).
  std::size_t length() const { return length_; }
  std::size_t checkpoint_stride() const { return stride_; }

  /// K_0, the element committed by the per-flight TEE signature.
  const ChainKey& anchor() const { return anchor_; }

  /// Derive K_index (1 <= index <= length()). Zero allocations.
  ChainKey key(std::size_t index);

  /// Total SHA-256 invocations spent inside key() since construction
  /// (checkpoint-cache ablation metric; construction's N hashes excluded).
  std::uint64_t derive_hashes() const { return derive_hashes_; }

 private:
  /// A cached segment holds K_low..K_top, walked down from the checkpoint
  /// K_top; top == 0 marks an empty slot.
  struct Segment {
    std::size_t top = 0;
    std::size_t low = 0;
  };

  std::size_t length_;
  std::size_t stride_;
  std::size_t span_;  ///< keys per segment slot: min(stride_, length_)
  ChainKey anchor_;
  std::vector<ChainKey> checkpoints_;  ///< checkpoints_[j] = K_{(j+1)*stride_}
  std::array<Segment, 2> segments_{};
  /// Slot s holds K_i at segment_keys_[s * span_ + (top - i)].
  std::vector<ChainKey> segment_keys_;
  std::size_t next_slot_ = 0;  ///< the slot filled less recently
  std::uint64_t derive_hashes_ = 0;
};

/// Verifier-side incremental chain state: starts at the committed anchor
/// K_0 and advances as keys are disclosed. Accepting K_j hashes it down
/// j - frontier steps to the last verified element, so total verification
/// cost is N hashes per flight regardless of drops, duplicates or
/// reordering; a key that does not chain down to the frontier is forged
/// (or belongs to a forked chain) and is rejected without state change.
class ChainFrontier {
 public:
  ChainFrontier(const ChainKey& anchor, std::size_t length);

  /// Verify that `key` is K_index of the committed chain. On success the
  /// frontier advances to index. Rejects index <= frontier (replay /
  /// out-of-order disclosure), index > length, and keys that fail to
  /// chain down to the frontier.
  bool accept(std::size_t index, const ChainKey& key);

  std::size_t length() const { return length_; }
  std::size_t frontier_index() const { return index_; }
  const ChainKey& frontier_key() const { return frontier_; }

  /// Total SHA-256 invocations spent in accept() (bounded by length()).
  std::uint64_t verify_hashes() const { return verify_hashes_; }

 private:
  ChainKey frontier_;
  std::size_t index_ = 0;
  std::size_t length_;
  std::uint64_t verify_hashes_ = 0;
};

/// TESLA key-separation: the MAC key for interval i is not K_i itself but
/// K'_i = HMAC-SHA256(K_i, "alidrone.tesla.mac.v1"), so disclosed chain
/// elements are never directly usable as MAC keys. Zero allocations.
ChainKey tesla_mac_key(const ChainKey& chain_key);

/// The keyed HMAC state that tags interval i's samples: HMAC-SHA256 keyed
/// by K'_i, from the chain key K_i. Build it once per interval (6 SHA-256
/// blocks). Zero allocations.
HmacSha256 tesla_tag_key(const ChainKey& chain_key);

/// Per-sample tag: HMAC-SHA256(K'_i, BE64(interval) || sample) under the
/// interval's tag key. This is the entire per-sample signing cost of the
/// TESLA PoA mode — 2 SHA-256 blocks for a 32-byte sample, against ~ms
/// for a planned RSA private operation. Zero allocations.
ChainKey tesla_tag(const HmacSha256& tag_key, std::uint64_t interval,
                   std::span<const std::uint8_t> sample);

/// Sender-side tagging: the flight's chain plus the tag key of the
/// interval tagged last. A sender tags in interval order, so each
/// interval's key is derived and keyed once, however many samples it
/// holds. This is the TA's per-sample path.
class TeslaTagger {
 public:
  TeslaTagger(const ChainKey& seed, std::size_t length) : chain_(seed, length) {}

  HashChain& chain() { return chain_; }

  /// Tag one sample of `interval` (1 <= interval <= chain length).
  ChainKey tag(std::uint64_t interval, std::span<const std::uint8_t> sample);

 private:
  HashChain chain_;
  std::uint64_t interval_ = 0;  ///< interval of key_
  std::optional<HmacSha256> key_;
};

}  // namespace alidrone::crypto

#include "ledger/ledger.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "crypto/sha256.h"
#include "ledger/crc32.h"

namespace alidrone::ledger {

namespace {

// The manifest is an append-only file of CRC-framed, fixed-size records —
// one per sealed segment: u64 first_seq, u64 entries, root, end_chain.
constexpr std::size_t kManifestPayload = 8 + 8 + 2 * crypto::Sha256::kDigestSize;

struct ManifestRecord {
  std::uint64_t first_seq = 0;
  std::uint64_t entries = 0;
  Digest root = kZeroDigest;
  Digest end_chain = kZeroDigest;
};

crypto::Bytes read_file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return crypto::Bytes((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/// Scan CRC-framed manifest records; returns the clean prefix length so a
/// torn manifest tail (crash mid-seal) can be truncated away.
std::uint64_t scan_manifest(std::span<const std::uint8_t> data,
                            std::vector<ManifestRecord>& records) {
  std::size_t pos = 0;
  while (pos + 8 <= data.size()) {
    const std::uint32_t len = crypto::get_le<std::uint32_t>(data.data() + pos);
    const std::uint32_t crc = crypto::get_le<std::uint32_t>(data.data() + pos + 4);
    if (len != kManifestPayload || pos + 8 + len > data.size()) break;
    const std::span<const std::uint8_t> payload = data.subspan(pos + 8, len);
    if (crc32(payload) != crc) break;
    ManifestRecord rec;
    rec.first_seq = crypto::get_le<std::uint64_t>(payload.data());
    rec.entries = crypto::get_le<std::uint64_t>(payload.data() + 8);
    std::memcpy(rec.root.data(), payload.data() + 16, rec.root.size());
    std::memcpy(rec.end_chain.data(), payload.data() + 48, rec.end_chain.size());
    records.push_back(rec);
    pos += 8 + len;
  }
  return pos;
}

}  // namespace

Ledger::Ledger(Config config) : config_(std::move(config)) {
  obs::MetricsRegistry& reg =
      config_.metrics != nullptr ? *config_.metrics : obs::MetricsRegistry::global();
  const std::string scope = reg.instance_scope("ledger");
  appends_ = &reg.counter(scope + ".appends");
  bytes_appended_ = &reg.counter(scope + ".bytes_appended");
  seals_ = &reg.counter(scope + ".seals");
  compactions_ = &reg.counter(scope + ".compactions");
  recovered_tail_gauge_ = &reg.gauge(scope + ".recovered_tail");
  if (config_.segment_capacity == 0) config_.segment_capacity = 1;
  if (!config_.directory.empty()) {
    std::filesystem::create_directories(config_.directory);
    recover();
  }
}

std::filesystem::path Ledger::segment_path(std::uint64_t first_seq) const {
  char name[32];
  std::snprintf(name, sizeof(name), "segment-%012llu.seg",
                static_cast<unsigned long long>(first_seq));
  return config_.directory / name;
}

std::filesystem::path Ledger::manifest_path() const {
  return config_.directory / "manifest.bin";
}

void Ledger::recover() {
  // 1. Sealed history from the manifest. Records are trusted here (they
  //    are the commitments everything else is checked against); a torn
  //    trailing record is a crashed seal and is truncated away.
  std::vector<ManifestRecord> manifest;
  const crypto::Bytes manifest_data = read_file_bytes(manifest_path());
  const std::uint64_t manifest_valid = scan_manifest(manifest_data, manifest);
  if (manifest_valid < manifest_data.size()) {
    std::filesystem::resize_file(manifest_path(), manifest_valid);
  }
  for (const ManifestRecord& rec : manifest) {
    if (rec.first_seq != count_ || rec.entries == 0) break;  // non-contiguous: stop
    Segment seg;
    seg.first_seq = rec.first_seq;
    seg.prev_chain = chain_;
    seg.root = rec.root;
    seg.end_chain = rec.end_chain;
    seg.entry_count = rec.entries;
    seg.sealed = true;
    const std::filesystem::path path = segment_path(rec.first_seq);
    if (std::filesystem::exists(path)) {
      // Retained segment: reload entries for prove()/encode_segment().
      // Content is *not* re-verified here — audit_segments() does that and
      // names the segment if the file was tampered with.
      SegmentReadResult read = read_segment(path);
      seg.entries = std::move(read.entries);
      seg.leaves.reserve(seg.entries.size());
      for (const LedgerEntry& entry : seg.entries) {
        seg.leaves.push_back(entry.leaf_hash());
      }
    } else {
      seg.compacted = true;
    }
    chain_ = rec.end_chain;
    count_ = rec.first_seq + rec.entries;
    segments_.push_back(std::move(seg));
  }

  // 2. Unsealed segment files past the manifest. Normally at most one (the
  //    open segment); a full-but-unsealed file means the crash hit between
  //    the last append and the manifest write — re-seal it and move on.
  while (std::filesystem::exists(segment_path(count_))) {
    const std::filesystem::path path = segment_path(count_);
    SegmentReadResult read = read_segment(path);
    if (!read.header_ok || read.header.first_seq != count_) {
      // A crashed header write left nothing recoverable in this file.
      recovered_tail_ += 1;
      std::filesystem::remove(path);
      break;
    }
    Segment seg;
    seg.first_seq = count_;
    seg.prev_chain = chain_;
    std::uint64_t valid_bytes = read.valid_bytes;
    std::size_t accepted = 0;
    for (LedgerEntry& entry : read.entries) {
      if (entry.seq != count_ || accepted >= config_.segment_capacity) break;
      const Digest leaf = entry.leaf_hash();
      seg.leaves.push_back(leaf);
      chain_ = chain_link(chain_, leaf);
      seg.entries.push_back(std::move(entry));
      ++count_;
      ++accepted;
    }
    if (accepted < read.entries.size()) {
      // Out-of-order tail (or overfull file): recompute the clean prefix
      // length so the truncation below drops the bad records too.
      valid_bytes = 4 + 8 + crypto::Sha256::kDigestSize;
      for (const LedgerEntry& entry : seg.entries) {
        valid_bytes += 8 + entry.canonical_size();
      }
      recovered_tail_ += read.entries.size() - accepted;
    }
    recovered_tail_ += read.dropped_records;
    seg.entry_count = accepted;
    const bool full = accepted == config_.segment_capacity;
    const bool torn = read.dropped_bytes > 0 || accepted < read.entries.size();
    if (accepted == 0) {
      // Header-only or fully torn file: nothing to keep. The next append
      // recreates the file from scratch (its writer truncates).
      std::filesystem::remove(path);
      break;
    }
    if (full) {
      // Crash hit between the last append and the manifest write: the
      // segment is complete, so finish the seal it was owed.
      seg.root = merkle_root(seg.leaves);
      seg.end_chain = chain_;
      seg.sealed = true;
      if (torn) std::filesystem::resize_file(path, valid_bytes);
      segments_.push_back(std::move(seg));
      append_manifest(segments_.back());
      continue;  // the next file, if any, starts at the new count_
    }
    // Partially filled: this is the open segment; truncate any torn tail
    // and keep appending after it.
    writer_ = std::make_unique<SegmentWriter>(path, valid_bytes);
    segments_.push_back(std::move(seg));
    break;  // open segment found — nothing later can be contiguous
  }

  recovered_tail_gauge_->set(static_cast<double>(recovered_tail_));
  if (recovered_tail_ > 0 && config_.recorder != nullptr) {
    config_.recorder->record(obs::TraceKind::kLedgerRecoveredTail, 0.0,
                             recovered_tail_, count_, "ledger");
  }
}

std::uint64_t Ledger::append(EntryKind kind, double time,
                             std::span<const std::uint8_t> payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (segments_.empty() || segments_.back().sealed) {
    Segment seg;
    seg.first_seq = count_;
    seg.prev_chain = chain_;
    segments_.push_back(std::move(seg));
    if (!config_.directory.empty()) {
      SegmentHeader header{count_, chain_};
      writer_ = std::make_unique<SegmentWriter>(segment_path(count_), header);
    }
  }
  Segment& seg = segments_.back();
  LedgerEntry entry;
  entry.seq = count_;
  entry.kind = kind;
  entry.time = time;
  entry.payload.assign(payload.begin(), payload.end());
  const crypto::Bytes canonical = entry.canonical();
  if (writer_ != nullptr) writer_->append(canonical);
  const Digest leaf = entry.leaf_hash();
  seg.leaves.push_back(leaf);
  seg.entries.push_back(std::move(entry));
  seg.entry_count = seg.entries.size();
  chain_ = chain_link(chain_, leaf);
  const std::uint64_t seq = count_++;
  root_dirty_ = true;
  appends_->increment();
  bytes_appended_->add(canonical.size());
  if (seg.entries.size() >= config_.segment_capacity) seal_open_segment();
  return seq;
}

void Ledger::seal_open_segment() {
  Segment& seg = segments_.back();
  seg.root = merkle_root(seg.leaves);
  seg.end_chain = chain_;
  seg.sealed = true;
  writer_.reset();
  if (!config_.directory.empty()) append_manifest(seg);
  seals_->increment();
  if (config_.recorder != nullptr) {
    config_.recorder->record(obs::TraceKind::kLedgerSeal, 0.0,
                             segments_.size() - 1, seg.entry_count, "seal");
  }
}

void Ledger::append_manifest(const Segment& segment) {
  crypto::Bytes payload;
  payload.reserve(kManifestPayload);
  crypto::put_le<std::uint64_t>(payload, segment.first_seq);
  crypto::put_le<std::uint64_t>(payload, segment.entry_count);
  payload.insert(payload.end(), segment.root.begin(), segment.root.end());
  payload.insert(payload.end(), segment.end_chain.begin(),
                 segment.end_chain.end());
  crypto::Bytes frame;
  crypto::put_le<std::uint32_t>(frame, static_cast<std::uint32_t>(payload.size()));
  crypto::put_le<std::uint32_t>(frame, crc32(payload));
  frame.insert(frame.end(), payload.begin(), payload.end());
  std::ofstream out(manifest_path(), std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(frame.data()),
            static_cast<std::streamsize>(frame.size()));
  out.flush();
  if (!out) {
    throw std::runtime_error("ledger: manifest append failed: " +
                             manifest_path().string());
  }
}

std::uint64_t Ledger::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

Digest Ledger::chain_tip() const {
  std::lock_guard<std::mutex> lock(mu_);
  return chain_;
}

std::vector<Digest> Ledger::top_leaves() const {
  std::vector<Digest> leaves;
  leaves.reserve(segments_.size());
  for (const Segment& seg : segments_) {
    leaves.push_back(seg.sealed ? seg.root : merkle_root(seg.leaves));
  }
  return leaves;
}

Digest Ledger::bind_root(const Digest& core, const Digest& chain,
                         std::uint64_t count) {
  crypto::Sha256 h;
  const std::uint8_t tag = 0x03;
  h.update({&tag, 1});
  h.update(core);
  h.update(chain);
  crypto::Bytes le;
  crypto::put_le<std::uint64_t>(le, count);
  h.update(le);
  return h.finalize();
}

Digest Ledger::compute_root() const {
  const std::vector<Digest> leaves = top_leaves();
  return bind_root(merkle_root(leaves), chain_, count_);
}

Digest Ledger::root_hash() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (root_dirty_) {
    root_cache_ = compute_root();
    root_dirty_ = false;
  }
  return root_cache_;
}

std::size_t Ledger::segment_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.size();
}

std::optional<Ledger::SegmentInfo> Ledger::segment_info(
    std::size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (index >= segments_.size()) return std::nullopt;
  const Segment& seg = segments_[index];
  SegmentInfo info;
  info.first_seq = seg.first_seq;
  info.entries = seg.entry_count;
  info.root = seg.sealed ? seg.root : merkle_root(seg.leaves);
  info.end_chain = seg.sealed ? seg.end_chain : chain_;
  info.sealed = seg.sealed;
  info.compacted = seg.compacted;
  return info;
}

Digest Ledger::segment_range_hash(std::size_t lo, std::size_t hi) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<Digest> leaves = top_leaves();
  if (lo >= hi || hi > leaves.size()) return kZeroDigest;
  return merkle_range(leaves, lo, hi);
}

crypto::Bytes Ledger::encode_segment(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (index >= segments_.size()) return {};
  const Segment& seg = segments_[index];
  if (seg.compacted) return {};
  SegmentHeader header{seg.first_seq, seg.prev_chain};
  return ledger::encode_segment(header, seg.entries);
}

std::optional<LedgerEntry> Ledger::entry(std::uint64_t seq) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Segment& seg : segments_) {
    if (seq < seg.first_seq || seq >= seg.first_seq + seg.entry_count) continue;
    if (seg.compacted) return std::nullopt;
    return seg.entries[static_cast<std::size_t>(seq - seg.first_seq)];
  }
  return std::nullopt;
}

std::optional<Ledger::InclusionProof> Ledger::prove(std::uint64_t seq) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const Segment& seg = segments_[i];
    if (seq < seg.first_seq || seq >= seg.first_seq + seg.entry_count) continue;
    if (seg.compacted) return std::nullopt;
    InclusionProof proof;
    proof.seq = seq;
    proof.entry_index = static_cast<std::size_t>(seq - seg.first_seq);
    proof.segment_entries = seg.leaves.size();
    proof.entry_path = merkle_path(seg.leaves, proof.entry_index);
    const std::vector<Digest> top = top_leaves();
    proof.segment_index = i;
    proof.segment_count = top.size();
    proof.segment_path = merkle_path(top, i);
    proof.chain_tip = chain_;
    proof.total_entries = count_;
    return proof;
  }
  return std::nullopt;
}

bool Ledger::verify_inclusion(const Digest& root, const Digest& leaf,
                              const InclusionProof& proof) {
  if (proof.segment_entries == 0 || proof.entry_index >= proof.segment_entries ||
      proof.segment_count == 0 || proof.segment_index >= proof.segment_count) {
    return false;
  }
  const Digest seg_root = merkle_fold(leaf, proof.entry_index,
                                      proof.segment_entries, proof.entry_path);
  const Digest core = merkle_fold(seg_root, proof.segment_index,
                                  proof.segment_count, proof.segment_path);
  return bind_root(core, proof.chain_tip, proof.total_entries) == root;
}

Ledger::AuditReport Ledger::audit_segments() const {
  std::lock_guard<std::mutex> lock(mu_);
  AuditReport report;
  const bool durable = !config_.directory.empty();
  Digest chain = kZeroDigest;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const Segment& seg = segments_[i];
    if (seg.compacted) {
      // Payload gone by design; the manifest root still splices the chain.
      chain = seg.end_chain;
      continue;
    }
    ++report.segments_checked;
    std::vector<LedgerEntry> entries;
    if (durable) {
      SegmentReadResult read = read_segment(segment_path(seg.first_seq));
      if (!read.header_ok || read.header.first_seq != seg.first_seq ||
          read.header.prev_chain != chain) {
        report.first_divergent = i;
        report.detail = "segment header mismatch";
        return report;
      }
      if (seg.sealed && read.dropped_bytes > 0) {
        report.first_divergent = i;
        report.detail = "sealed segment has torn or corrupt records";
        return report;
      }
      entries = std::move(read.entries);
    } else {
      entries = seg.entries;
    }
    if (entries.size() != seg.entry_count) {
      report.first_divergent = i;
      report.detail = "segment entry count mismatch";
      return report;
    }
    std::vector<Digest> leaves;
    leaves.reserve(entries.size());
    for (const LedgerEntry& entry : entries) {
      if (entry.seq != seg.first_seq + leaves.size()) {
        report.first_divergent = i;
        report.detail = "segment sequence discontinuity";
        return report;
      }
      const Digest leaf = entry.leaf_hash();
      leaves.push_back(leaf);
      chain = chain_link(chain, leaf);
    }
    const Digest recomputed = merkle_root(leaves);
    const Digest expected = seg.sealed ? seg.root : merkle_root(seg.leaves);
    if (recomputed != expected ||
        (seg.sealed && chain != seg.end_chain)) {
      report.first_divergent = i;
      report.detail = "segment root or chain splice mismatch";
      return report;
    }
  }
  return report;
}

std::size_t Ledger::compact_before(std::uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t compacted = 0;
  for (Segment& seg : segments_) {
    if (!seg.sealed || seg.compacted) continue;
    if (seg.first_seq + seg.entry_count > seq) break;
    if (!config_.directory.empty()) {
      std::error_code ec;
      std::filesystem::remove(segment_path(seg.first_seq), ec);
    }
    seg.entries.clear();
    seg.entries.shrink_to_fit();
    seg.leaves.clear();
    seg.leaves.shrink_to_fit();
    seg.compacted = true;
    ++compacted;
    compactions_->increment();
  }
  return compacted;
}

std::uint64_t Ledger::recovered_tail_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recovered_tail_;
}

}  // namespace alidrone::ledger

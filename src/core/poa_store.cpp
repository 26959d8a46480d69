#include "core/poa_store.h"

#include <algorithm>
#include <charconv>
#include <fstream>

#include "crypto/sha256.h"
#include "ledger/crc32.h"
#include "net/codec.h"

namespace alidrone::core {

namespace {
constexpr std::uint32_t kMagicV1 = 0xA11D0A01;  // "AliD PoA v1" (no CRC)
constexpr std::uint32_t kMagicV2 = 0xA11D0A02;  // v2: u32 crc32 after magic
constexpr const char* kExtension = ".poa";

/// Sequence number out of "poa-<seq>.poa"; nullopt for foreign names.
std::optional<std::uint64_t> filename_sequence(const std::string& name) {
  constexpr std::string_view kPrefix = "poa-";
  if (name.size() <= kPrefix.size() || name.compare(0, kPrefix.size(), kPrefix) != 0) {
    return std::nullopt;
  }
  const char* begin = name.data() + kPrefix.size();
  const char* end = name.data() + name.size() - 4;  // strip ".poa"
  if (begin >= end) return std::nullopt;
  std::uint64_t seq = 0;
  const auto [ptr, ec] = std::from_chars(begin, end, seq);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return seq;
}
}  // namespace

PoaStore::PoaStore(std::filesystem::path directory,
                   obs::MetricsRegistry* metrics)
    : directory_(std::move(directory)) {
  obs::MetricsRegistry& reg =
      metrics != nullptr ? *metrics : obs::MetricsRegistry::global();
  recovered_tail_gauge_ =
      &reg.gauge(reg.instance_scope("core.poa_store") + ".recovered_tail");
  if (std::filesystem::exists(directory_)) {
    if (!std::filesystem::is_directory(directory_)) {
      throw std::runtime_error("PoaStore: not a directory: " + directory_.string());
    }
  } else {
    std::filesystem::create_directories(directory_);
  }
  // One scan: continue sequence numbers after any existing files and
  // build the per-drone index. Unreadable files stay out of the index
  // (they are never loaded or expired, exactly as before) — except the
  // highest-sequence file when it alone is unreadable: that is the
  // signature of a crash mid-save, and the torn file is dropped rather
  // than reported as corruption.
  struct FailedFile {
    std::filesystem::path path;
    std::optional<std::uint64_t> seq;
  };
  std::vector<FailedFile> failed;
  std::optional<std::uint64_t> max_seq;
  for (const auto& entry : std::filesystem::directory_iterator(directory_)) {
    if (entry.path().extension() != kExtension) continue;
    const auto seq = filename_sequence(entry.path().filename().string());
    if (seq && (!max_seq || *seq > *max_seq)) max_seq = *seq;
    if (const auto stored = read_file(entry.path(), /*count_corrupt=*/false)) {
      IndexShard& shard = index_[index_shard_of(stored->drone_id)];
      shard.entries[stored->drone_id].push_back(
          {entry.path().filename().string(), stored->submission_time});
    } else {
      failed.push_back({entry.path(), seq});
    }
  }
  if (max_seq) {
    next_sequence_.store(*max_seq + 1, std::memory_order_relaxed);
  }
  if (failed.size() == 1 && failed[0].seq && max_seq &&
      *failed[0].seq == *max_seq) {
    std::error_code ec;
    std::filesystem::remove(failed[0].path, ec);
    recovered_tail_ = 1;
  } else {
    corrupt_.fetch_add(failed.size(), std::memory_order_relaxed);
  }
  recovered_tail_gauge_->set(static_cast<double>(recovered_tail_));
  // Deterministic order within each drone regardless of scan order.
  for (IndexShard& shard : index_) {
    for (auto& [id, list] : shard.entries) {
      std::sort(list.begin(), list.end(),
                [](const IndexEntry& a, const IndexEntry& b) {
                  return a.submission_time != b.submission_time
                             ? a.submission_time < b.submission_time
                             : a.filename < b.filename;
                });
    }
  }
}

void PoaStore::attach_ledger(std::shared_ptr<ledger::Ledger> ledger) {
  const std::lock_guard<std::mutex> lock(ledger_mu_);
  ledger_ = std::move(ledger);
}

std::size_t PoaStore::index_shard_of(std::string_view drone_id) const {
  std::uint64_t x = 0xcbf29ce484222325ull;
  for (const char c : drone_id) {
    x ^= static_cast<unsigned char>(c);
    x *= 0x100000001b3ull;
  }
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return static_cast<std::size_t>((x ^ (x >> 31)) % kIndexShards);
}

std::filesystem::path PoaStore::save(const DroneId& drone_id,
                                     double submission_time,
                                     const ProofOfAlibi& poa) {
  const crypto::Bytes poa_bytes = poa.serialize();
  net::Writer body;
  body.reserve(net::Writer::field_size(drone_id.size()) + 8 +
               net::Writer::field_size(poa_bytes.size()));
  body.str(drone_id);
  body.f64(submission_time);
  body.bytes(poa_bytes);
  const crypto::Bytes body_bytes = std::move(body).take();

  // v2 layout: u32 magic, u32 crc32(body), body — the CRC is what lets a
  // reopening store tell a crashed (torn) save from honest data.
  crypto::Bytes data;
  data.reserve(8 + body_bytes.size());
  const std::uint32_t crc = ledger::crc32(body_bytes);
  crypto::put_le(data, kMagicV2);
  crypto::put_le(data, crc);
  data.insert(data.end(), body_bytes.begin(), body_bytes.end());

  // Filename avoids trusting the drone id's characters.
  const std::string filename =
      "poa-" +
      std::to_string(next_sequence_.fetch_add(1, std::memory_order_relaxed)) +
      kExtension;
  const std::filesystem::path path = directory_ / filename;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("PoaStore: cannot write " + path.string());
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  out.flush();
  if (!out) throw std::runtime_error("PoaStore: short write to " + path.string());

  {
    const std::lock_guard<std::mutex> lock(ledger_mu_);
    if (ledger_ != nullptr) {
      const crypto::Sha256::Digest digest = crypto::Sha256::hash(poa_bytes);
      net::Writer anchor;
      anchor.str(drone_id);
      anchor.f64(submission_time);
      anchor.bytes(crypto::Bytes(digest.begin(), digest.end()));
      const crypto::Bytes anchor_bytes = std::move(anchor).take();
      ledger_->append(ledger::EntryKind::kPoaAnchor, submission_time,
                      anchor_bytes);
    }
  }

  {
    IndexShard& shard = index_[index_shard_of(drone_id)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto& list = shard.entries[drone_id];
    IndexEntry entry{filename, submission_time};
    // Keep the per-drone list sorted by (time, filename); submissions
    // normally arrive in time order, so this is an append.
    const auto pos = std::upper_bound(
        list.begin(), list.end(), entry,
        [](const IndexEntry& a, const IndexEntry& b) {
          return a.submission_time != b.submission_time
                     ? a.submission_time < b.submission_time
                     : a.filename < b.filename;
        });
    list.insert(pos, std::move(entry));
  }
  return path;
}

std::optional<PoaStore::StoredPoa> PoaStore::read_file(
    const std::filesystem::path& path, bool count_corrupt) const {
  const auto fail = [&]() -> std::optional<StoredPoa> {
    if (count_corrupt) corrupt_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  };
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail();
  crypto::Bytes data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());

  net::Reader r(data);
  const auto magic = r.u32();
  if (!magic || (*magic != kMagicV1 && *magic != kMagicV2)) return fail();
  if (*magic == kMagicV2) {
    // v2: verify the body CRC before trusting any field — a torn or
    // bit-flipped file fails here instead of half-parsing.
    const auto crc = r.u32();
    if (!crc || data.size() < 8 ||
        ledger::crc32({data.data() + 8, data.size() - 8}) != *crc) {
      return fail();
    }
  }
  const auto drone_id = r.str();
  const auto time = r.f64();
  const auto poa_bytes = r.bytes_view();
  if (!drone_id || !time || !poa_bytes || !r.at_end()) return fail();
  const auto poa = ProofOfAlibi::parse(*poa_bytes);
  if (!poa) return fail();
  return StoredPoa{*drone_id, *time, *poa};
}

std::vector<PoaStore::StoredPoa> PoaStore::load_all() const {
  std::vector<StoredPoa> out;
  for (const auto& entry : std::filesystem::directory_iterator(directory_)) {
    if (entry.path().extension() != kExtension) continue;
    if (auto stored = read_file(entry.path())) out.push_back(std::move(*stored));
  }
  std::sort(out.begin(), out.end(), [](const StoredPoa& a, const StoredPoa& b) {
    return a.submission_time < b.submission_time;
  });
  return out;
}

std::vector<PoaStore::StoredPoa> PoaStore::load_for_drone(
    const DroneId& drone_id) const {
  // Copy the (small) entry list under the lock, then do file I/O outside.
  std::vector<IndexEntry> entries;
  {
    const IndexShard& shard = index_[index_shard_of(drone_id)];
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.entries.find(drone_id);
    if (it != shard.entries.end()) entries = it->second;
  }
  std::vector<StoredPoa> out;
  out.reserve(entries.size());
  for (const IndexEntry& entry : entries) {
    if (auto stored = read_file(directory_ / entry.filename)) {
      out.push_back(std::move(*stored));
    }
  }
  return out;  // index order is already (time, filename)
}

std::size_t PoaStore::expire_before(double cutoff_time) {
  std::size_t deleted = 0;
  for (IndexShard& shard : index_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.entries.begin(); it != shard.entries.end();) {
      auto& list = it->second;
      std::erase_if(list, [&](const IndexEntry& entry) {
        if (entry.submission_time >= cutoff_time) return false;
        if (std::filesystem::remove(directory_ / entry.filename)) ++deleted;
        return true;
      });
      it = list.empty() ? shard.entries.erase(it) : std::next(it);
    }
  }
  return deleted;
}

std::size_t PoaStore::count() const {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(directory_)) {
    if (entry.path().extension() == kExtension) ++n;
  }
  return n;
}

}  // namespace alidrone::core

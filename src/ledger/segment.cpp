#include "ledger/segment.h"

#include <cstring>
#include <stdexcept>

#include "ledger/crc32.h"
#include "net/codec.h"

namespace alidrone::ledger {

namespace {

constexpr std::size_t kHeaderBytes = 4 + 8 + crypto::Sha256::kDigestSize;

crypto::Bytes header_bytes(const SegmentHeader& header) {
  crypto::Bytes out;
  out.reserve(kHeaderBytes);
  crypto::put_le<std::uint32_t>(out, kSegmentMagic);
  crypto::put_le<std::uint64_t>(out, header.first_seq);
  out.insert(out.end(), header.prev_chain.begin(), header.prev_chain.end());
  return out;
}

crypto::Bytes record_bytes(std::span<const std::uint8_t> payload) {
  crypto::Bytes out;
  out.reserve(8 + payload.size());
  crypto::put_le<std::uint32_t>(out, static_cast<std::uint32_t>(payload.size()));
  crypto::put_le<std::uint32_t>(out, crc32(payload));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

/// Parse records out of `data` starting at `pos`; shared by the file and
/// wire paths. Returns the offset after the last whole, CRC-clean record.
std::uint64_t scan_records(std::span<const std::uint8_t> data, std::size_t pos,
                           std::vector<LedgerEntry>& entries,
                           std::size_t* bad_records) {
  while (pos + 8 <= data.size()) {
    const std::uint32_t len = crypto::get_le<std::uint32_t>(data.data() + pos);
    const std::uint32_t crc = crypto::get_le<std::uint32_t>(data.data() + pos + 4);
    if (pos + 8 + len > data.size()) break;  // torn: record runs past EOF
    const std::span<const std::uint8_t> payload = data.subspan(pos + 8, len);
    if (crc32(payload) != crc) break;  // torn or flipped bytes
    auto entry = LedgerEntry::parse(payload);
    if (!entry) break;  // CRC-clean but undecodable: treat as corrupt
    entries.push_back(std::move(*entry));
    pos += 8 + len;
  }
  if (bad_records != nullptr && pos < data.size()) *bad_records = 1;
  return pos;
}

}  // namespace

SegmentWriter::SegmentWriter(const std::filesystem::path& path,
                             const SegmentHeader& header)
    : out_(path, std::ios::binary | std::ios::trunc), path_(path) {
  if (!out_) {
    throw std::runtime_error("ledger: cannot create segment " + path.string());
  }
  const crypto::Bytes bytes = header_bytes(header);
  out_.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  out_.flush();
  if (!out_) {
    throw std::runtime_error("ledger: short header write to " + path.string());
  }
}

SegmentWriter::SegmentWriter(const std::filesystem::path& path,
                             std::uint64_t valid_bytes)
    : path_(path) {
  std::filesystem::resize_file(path, valid_bytes);
  out_.open(path, std::ios::binary | std::ios::app);
  if (!out_) {
    throw std::runtime_error("ledger: cannot reopen segment " + path.string());
  }
}

void SegmentWriter::append(std::span<const std::uint8_t> canonical_entry) {
  const crypto::Bytes bytes = record_bytes(canonical_entry);
  out_.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  out_.flush();
  if (!out_) {
    throw std::runtime_error("ledger: short append to " + path_.string());
  }
}

SegmentReadResult read_segment(const std::filesystem::path& path) {
  SegmentReadResult result;
  std::ifstream in(path, std::ios::binary);
  if (!in) return result;
  const crypto::Bytes data((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  if (data.size() < kHeaderBytes ||
      crypto::get_le<std::uint32_t>(data.data()) != kSegmentMagic) {
    return result;
  }
  result.header_ok = true;
  result.header.first_seq = crypto::get_le<std::uint64_t>(data.data() + 4);
  std::memcpy(result.header.prev_chain.data(), data.data() + 12,
              result.header.prev_chain.size());
  result.valid_bytes =
      scan_records(data, kHeaderBytes, result.entries, &result.dropped_records);
  result.dropped_bytes = data.size() - result.valid_bytes;
  return result;
}

crypto::Bytes encode_segment(const SegmentHeader& header,
                             std::span<const LedgerEntry> entries) {
  crypto::Bytes out = header_bytes(header);
  for (const LedgerEntry& entry : entries) {
    const crypto::Bytes record = record_bytes(entry.canonical());
    out.insert(out.end(), record.begin(), record.end());
  }
  return out;
}

std::optional<DecodedSegment> decode_segment(
    std::span<const std::uint8_t> frame) {
  if (frame.size() < kHeaderBytes ||
      crypto::get_le<std::uint32_t>(frame.data()) != kSegmentMagic) {
    return std::nullopt;
  }
  DecodedSegment decoded;
  decoded.header.first_seq = crypto::get_le<std::uint64_t>(frame.data() + 4);
  std::memcpy(decoded.header.prev_chain.data(), frame.data() + 12,
              decoded.header.prev_chain.size());
  std::size_t bad = 0;
  const std::uint64_t valid =
      scan_records(frame, kHeaderBytes, decoded.entries, &bad);
  // The wire frame must be whole: a torn network frame is a decode error,
  // not a recoverable tail.
  if (valid != frame.size()) return std::nullopt;
  return decoded;
}

}  // namespace alidrone::ledger

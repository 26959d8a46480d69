#include "net/codec.h"

#include <bit>
#include <cstring>
#include <utility>

#include "net/buffer_pool.h"

namespace alidrone::net {

Writer::Writer(BufferPool& pool) : out_(pool.acquire()), pool_(&pool) {}

Writer::~Writer() {
  if (pool_ != nullptr && !taken_) pool_->release(std::move(out_));
}

crypto::Bytes Writer::take() && {
  taken_ = true;
  return std::move(out_);
}

void Writer::u32(std::uint32_t v) { crypto::put_le(out_, v); }

void Writer::u64(std::uint64_t v) { crypto::put_le(out_, v); }

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::bytes(std::span<const std::uint8_t> data) {
  u32(static_cast<std::uint32_t>(data.size()));
  out_.insert(out_.end(), data.begin(), data.end());
}

void Writer::str(std::string_view s) {
  bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

std::optional<std::int64_t> Reader::i64() {
  const auto v = u64();
  if (!v) return std::nullopt;
  return static_cast<std::int64_t>(*v);
}

std::optional<crypto::Bytes> Reader::bytes() {
  const auto view = bytes_view();
  if (!view) return std::nullopt;
  return crypto::Bytes(view->begin(), view->end());
}

std::optional<std::string> Reader::str() {
  const auto v = str_view();
  if (!v) return std::nullopt;
  return std::string(*v);
}

}  // namespace alidrone::net

// Binary message codec: a small, deterministic writer/reader pair used for
// every protocol message between the drone client and the AliDrone server.
//
// Encoding: little-endian fixed-width integers, IEEE-754 doubles by bit
// pattern, and length-prefixed byte strings. Readers are strict: reading
// past the end or trailing garbage are errors (a hostile peer must not be
// able to smuggle data past the parser).
//
// Two allocation disciplines coexist:
//   - owning accessors (`bytes()`, `str()`) copy out of the frame — the
//     safe default for cold paths and anything that outlives the frame;
//   - borrowing accessors (`bytes_view()`, `str_view()`) return spans into
//     the frame with identical strictness — the Auditor's ingestion path
//     decodes thousands of messages per second and must not pay a heap
//     allocation per field. Views die with the frame.
//
// Wire structs do not hand-write their encoders. Each one declares a
// single field list — `static constexpr auto fields(auto& m)` returning
// std::tie of its members in wire order — and net::wire (below) derives
// from it the encoder, the exact encoded size (so a Writer reserves the
// whole message up front, or borrows a BufferPool buffer), the strict
// owning decoder and, for a view struct with the same member names and
// borrowing member types, the zero-copy decoder.
#pragma once

#include <cstdint>
#include <bit>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "crypto/bytes.h"

namespace alidrone::net {

class BufferPool;

class Writer {
 public:
  Writer() = default;
  /// Checks the backing buffer out of `pool` (capacity retained from its
  /// previous use). The destructor returns it unless take() was called —
  /// the taker then owns the buffer and may release() it back.
  explicit Writer(BufferPool& pool);
  ~Writer();

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Pre-size the buffer for `total_bytes` of output so a whole message
  /// encodes without reallocation (size it with wire::encoded_size()).
  void reserve(std::size_t total_bytes) { out_.reserve(total_bytes); }
  std::size_t size() const { return out_.size(); }
  std::size_t capacity() const { return out_.capacity(); }

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void bytes(std::span<const std::uint8_t> data);  ///< length-prefixed
  void str(std::string_view s);

  const crypto::Bytes& data() const& { return out_; }
  crypto::Bytes take() &&;

  /// Encoded size of one length-prefixed byte/string field.
  static constexpr std::size_t field_size(std::size_t payload_len) {
    return 4 + payload_len;
  }

 private:
  crypto::Bytes out_;
  BufferPool* pool_ = nullptr;
  bool taken_ = false;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::optional<std::uint8_t> u8();
  std::optional<std::uint32_t> u32();
  std::optional<std::uint64_t> u64();
  std::optional<std::int64_t> i64();
  std::optional<double> f64();
  std::optional<crypto::Bytes> bytes();
  std::optional<std::string> str();

  /// Zero-copy variants of bytes()/str(): the same length-prefix format
  /// and strictness, but the result borrows the frame — valid only while
  /// the frame outlives the view and is not mutated.
  std::optional<std::span<const std::uint8_t>> bytes_view();
  std::optional<std::string_view> str_view();

  bool at_end() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// The fixed-width and borrowing reads are inline: a view decoder then
// compiles to straight-line code over the frame, with no per-field call.
inline std::optional<std::uint8_t> Reader::u8() {
  if (remaining() < 1) return std::nullopt;
  return data_[pos_++];
}

inline std::optional<std::uint32_t> Reader::u32() {
  if (remaining() < 4) return std::nullopt;
  const auto v = crypto::get_le<std::uint32_t>(data_.data() + pos_);
  pos_ += 4;
  return v;
}

inline std::optional<std::uint64_t> Reader::u64() {
  if (remaining() < 8) return std::nullopt;
  const auto v = crypto::get_le<std::uint64_t>(data_.data() + pos_);
  pos_ += 8;
  return v;
}

inline std::optional<double> Reader::f64() {
  const auto v = u64();
  if (!v) return std::nullopt;
  return std::bit_cast<double>(*v);
}

inline std::optional<std::span<const std::uint8_t>> Reader::bytes_view() {
  const auto len = u32();
  if (!len || remaining() < *len) return std::nullopt;
  auto view = data_.subspan(pos_, *len);
  pos_ += *len;
  return view;
}

inline std::optional<std::string_view> Reader::str_view() {
  const auto view = bytes_view();
  if (!view) return std::nullopt;
  return std::string_view(reinterpret_cast<const char*>(view->data()), view->size());
}

// ---- wire: codecs derived from one field list per struct ---------------
//
// Field wire types follow the member's C++ type:
//   bool                        u8, decoder accepts only 0 or 1
//   enum E                      u8, decoder accepts 0..wire_max(E{}) (ADL)
//   std::uint32_t / uint64_t    u32 / u64
//   double                      f64
//   std::string / string_view   length-prefixed (owning / borrowed)
//   crypto::Bytes / span        length-prefixed (owning / borrowed)
//   record (has fields())       its own fields, inline
//   std::vector<record>         u32 count, then each element
namespace wire {

template <class T>
concept Record = requires(T& t) { T::fields(t); };

template <class T>
concept Text = std::is_same_v<T, std::string> || std::is_same_v<T, std::string_view>;

template <class T>
concept ByteString = Text<T> || std::is_same_v<T, crypto::Bytes> ||
                     std::is_same_v<T, std::span<const std::uint8_t>>;

template <class T>
concept Repeated =
    !ByteString<T> && std::is_same_v<T, std::vector<typename T::value_type>>;

template <class T>
using Fields = decltype(T::fields(std::declval<T&>()));

template <class T>
constexpr std::size_t min_size();
template <class T>
std::size_t encoded_size(const T& v);
template <class T>
void write(Writer& w, const T& v);
template <class T>
bool read(Reader& r, T& out);

template <class Tuple>
struct MinSize;
template <class... F>
struct MinSize<std::tuple<F&...>> {
  static constexpr std::size_t value = (std::size_t{0} + ... + min_size<F>());
};

/// Fewest bytes any encoding of T takes; bounds a hostile repeat count
/// before the decoder reserves for it.
template <class T>
constexpr std::size_t min_size() {
  if constexpr (Record<T>) {
    return MinSize<Fields<T>>::value;
  } else if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
    return 1;
  } else if constexpr (std::is_arithmetic_v<T>) {
    return sizeof(T);
  } else {
    return 4;  // length or count prefix
  }
}

template <class... F>
std::size_t fields_size(const std::tuple<F&...>& fields) {
  return std::apply(
      [](const auto&... f) { return (std::size_t{0} + ... + encoded_size(f)); }, fields);
}

template <class... F>
void write_fields(Writer& w, const std::tuple<F&...>& fields) {
  std::apply([&w](const auto&... f) { (write(w, f), ...); }, fields);
}

template <class... F>
bool read_fields(Reader& r, const std::tuple<F&...>& fields) {
  return std::apply([&r](auto&... f) { return (read(r, f) && ...); }, fields);
}

/// Exact encoded size of one value.
template <class T>
std::size_t encoded_size(const T& v) {
  if constexpr (Record<T>) {
    return fields_size(T::fields(v));
  } else if constexpr (ByteString<T>) {
    return Writer::field_size(v.size());
  } else if constexpr (Repeated<T>) {
    std::size_t n = 4;
    for (const auto& e : v) n += encoded_size(e);
    return n;
  } else {
    return min_size<T>();
  }
}

template <class T>
void write(Writer& w, const T& v) {
  if constexpr (Record<T>) {
    write_fields(w, T::fields(v));
  } else if constexpr (Text<T>) {
    w.str(v);
  } else if constexpr (ByteString<T>) {
    w.bytes(v);
  } else if constexpr (Repeated<T>) {
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& e : v) write(w, e);
  } else if constexpr (std::is_same_v<T, bool>) {
    w.u8(v ? 1 : 0);
  } else if constexpr (std::is_enum_v<T>) {
    w.u8(static_cast<std::uint8_t>(v));
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    w.u32(v);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    w.u64(v);
  } else {
    static_assert(std::is_same_v<T, double>, "no wire type for this field");
    w.f64(v);
  }
}

template <class V, class T>
bool store(const std::optional<V>& v, T& out) {
  if (v) out = T(*v);
  return v.has_value();
}

template <class T>
bool read(Reader& r, T& out) {
  if constexpr (Record<T>) {
    return read_fields(r, T::fields(out));
  } else if constexpr (Text<T>) {
    return store(r.str_view(), out);
  } else if constexpr (std::is_same_v<T, crypto::Bytes>) {  // copy out of the frame
    const auto v = r.bytes_view();
    if (v) out.assign(v->begin(), v->end());
    return v.has_value();
  } else if constexpr (ByteString<T>) {
    return store(r.bytes_view(), out);
  } else if constexpr (Repeated<T>) {
    const auto count = r.u32();
    if (!count || *count > r.remaining() / min_size<typename T::value_type>()) {
      return false;
    }
    out.clear();  // capacity is kept for scratch views reused across frames
    out.reserve(*count);
    for (std::uint32_t i = 0; i < *count; ++i) {
      if (!read(r, out.emplace_back())) return false;
    }
    return true;
  } else if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
    const auto v = r.u8();
    std::uint8_t max = 1;
    if constexpr (std::is_enum_v<T>) max = static_cast<std::uint8_t>(wire_max(T{}));
    if (!v || *v > max) return false;
    out = static_cast<T>(*v);
    return true;
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    return store(r.u32(), out);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    return store(r.u64(), out);
  } else {
    return store(r.f64(), out);
  }
}

/// Encodes a tuple of field references (std::tie) in order.
template <class... F>
crypto::Bytes encode_fields(const std::tuple<F&...>& fields) {
  Writer w;
  w.reserve(fields_size(fields));
  write_fields(w, fields);
  return std::move(w).take();
}

template <Record M>
crypto::Bytes encode(const M& m) {
  return encode_fields(M::fields(m));
}

/// The first N fields of `m` — a signed payload that the full message
/// extends with its signature.
template <std::size_t N, Record M>
crypto::Bytes encode_prefix(const M& m) {
  const auto all = M::fields(m);
  return [&all]<std::size_t... I>(std::index_sequence<I...>) {
    return encode_fields(std::tie(std::get<I>(all)...));
  }(std::make_index_sequence<N>{});
}

/// Strict decode into `out`: every field present and valid, no trailing
/// bytes. `out` is unspecified on failure.
template <Record M>
bool decode_into(std::span<const std::uint8_t> data, M& out) {
  Reader r(data);
  return read_fields(r, M::fields(out)) && r.at_end();
}

template <Record M>
std::optional<M> decode(std::span<const std::uint8_t> data) {
  std::optional<M> m(std::in_place);
  if (!decode_into(data, *m)) m.reset();
  return m;
}

/// Field-by-field copy between two records that share one field list:
/// an owning struct and its borrowing view, in either direction.
template <class From, class To>
void convert(const From& from, To& to) {
  if constexpr (Record<To>) {
    const auto src = From::fields(from);
    const auto dst = To::fields(to);
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      (convert(std::get<I>(src), std::get<I>(dst)), ...);
    }(std::make_index_sequence<std::tuple_size_v<decltype(dst)>>{});
  } else if constexpr (std::is_same_v<To, crypto::Bytes>) {
    to.assign(from.begin(), from.end());
  } else if constexpr (Repeated<To>) {
    to.resize(from.size());
    for (std::size_t i = 0; i < from.size(); ++i) convert(from[i], to[i]);
  } else {
    to = To(from);
  }
}

}  // namespace wire

}  // namespace alidrone::net

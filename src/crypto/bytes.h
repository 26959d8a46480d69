// Byte-buffer helpers shared across the crypto library.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace alidrone::crypto {

using Bytes = std::vector<std::uint8_t>;

/// Lowercase hex encoding of a byte buffer.
std::string to_hex(std::span<const std::uint8_t> data);

/// Parse a hex string (even length, upper or lower case).
/// Throws std::invalid_argument on malformed input.
Bytes from_hex(std::string_view hex);

/// Bytes of a string, unchanged.
inline Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

inline std::string to_string(std::span<const std::uint8_t> data) {
  return std::string(data.begin(), data.end());
}

/// Constant-time equality (length leaks; contents do not).
bool constant_time_equal(std::span<const std::uint8_t> a,
                         std::span<const std::uint8_t> b);

// Fixed-width unsigned integers in a fixed byte order: every wire, TEE and
// on-disk format in the tree encodes its integers through these. store_*
// writes sizeof(T) bytes at `p`, put_* appends them to `out`, get_* reads
// sizeof(T) bytes at `p`; the caller has checked the buffer's size.

template <std::unsigned_integral T>
void store_be(std::uint8_t* p, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * (sizeof(T) - 1 - i)));
  }
}

template <std::unsigned_integral T>
void put_be(Bytes& out, T v) {
  out.resize(out.size() + sizeof(T));
  store_be(out.data() + out.size() - sizeof(T), v);
}

/// One integer as its own big-endian buffer (TEE command parameters).
template <std::unsigned_integral T>
Bytes be_bytes(T v) {
  Bytes out(sizeof(T));
  store_be(out.data(), v);
  return out;
}

template <std::unsigned_integral T>
T get_be(const std::uint8_t* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) v = static_cast<T>((v << 8) | p[i]);
  return v;
}

template <std::unsigned_integral T>
void put_le(Bytes& out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

template <std::unsigned_integral T>
T get_le(const std::uint8_t* p) {
  T v = 0;
  for (std::size_t i = sizeof(T); i-- > 0;) v = static_cast<T>((v << 8) | p[i]);
  return v;
}

}  // namespace alidrone::crypto

#include "crypto/random.h"

#include <cassert>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "crypto/chacha20.h"
#include "crypto/sha256.h"

namespace alidrone::crypto {

Bytes RandomSource::bytes(std::size_t n) {
  Bytes out(n);
  fill(out);
  return out;
}

std::uint64_t RandomSource::next_u64() {
  std::uint8_t buf[8];
  fill(buf);
  return get_be<std::uint64_t>(buf);
}

std::uint64_t RandomSource::uniform(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("RandomSource::uniform: zero bound");
  // Rejection sampling over the largest multiple of bound below 2^64.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % bound;
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return v % bound;
}

double RandomSource::uniform_double() {
  // 53 uniform bits into [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

BigInt RandomSource::random_bits(std::size_t bits) {
  if (bits == 0) return BigInt();
  const std::size_t nbytes = (bits + 7) / 8;
  Bytes buf = bytes(nbytes);
  // Clear excess leading bits, then set the top bit so the bit length is
  // exactly `bits`.
  const std::size_t excess = nbytes * 8 - bits;
  buf[0] &= static_cast<std::uint8_t>(0xFF >> excess);
  buf[0] |= static_cast<std::uint8_t>(0x80 >> excess);
  return BigInt::from_bytes(buf);
}

BigInt RandomSource::random_range(const BigInt& min, const BigInt& max) {
  if (min > max) throw std::invalid_argument("RandomSource::random_range: min > max");
  const BigInt span = max - min + BigInt(1);
  const std::size_t bits = span.bit_length();
  const std::size_t nbytes = (bits + 7) / 8;
  // Rejection sampling: draw `bits`-wide values until one is below span.
  for (;;) {
    Bytes buf = bytes(nbytes);
    const std::size_t excess = nbytes * 8 - bits;
    buf[0] &= static_cast<std::uint8_t>(0xFF >> excess);
    const BigInt candidate = BigInt::from_bytes(buf);
    if (candidate < span) return min + candidate;
  }
}

void SecureRandom::fill(std::span<std::uint8_t> out) {
  static thread_local std::ifstream urandom("/dev/urandom", std::ios::binary);
  if (!urandom.good()) throw std::runtime_error("SecureRandom: cannot open /dev/urandom");
  urandom.read(reinterpret_cast<char*>(out.data()),
               static_cast<std::streamsize>(out.size()));
  if (urandom.gcount() != static_cast<std::streamsize>(out.size())) {
    throw std::runtime_error("SecureRandom: short read from /dev/urandom");
  }
}

DeterministicRandom::DeterministicRandom(std::uint64_t seed) {
  Bytes seed_bytes(8);
  for (int i = 0; i < 8; ++i) {
    seed_bytes[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((seed >> (56 - 8 * i)) & 0xFF);
  }
  const Sha256::Digest d = Sha256::hash(seed_bytes);
  key_.assign(d.begin(), d.end());
  nonce_.assign(ChaCha20::kNonceSize, 0);
}

DeterministicRandom::DeterministicRandom(std::string_view seed) {
  const Sha256::Digest d = Sha256::hash(seed);
  key_.assign(d.begin(), d.end());
  nonce_.assign(ChaCha20::kNonceSize, 0);
}

void DeterministicRandom::refill() {
  const ChaCha20 cipher(key_, nonce_);
  const auto block = cipher.block(static_cast<std::uint32_t>(block_counter_++));
  pool_.assign(block.begin(), block.end());
  pool_pos_ = 0;
  if (block_counter_ > 0xFFFFFFFFull) {
    // Counter exhausted: ratchet the key and restart the counter.
    const Sha256::Digest d = Sha256::hash(key_);
    key_.assign(d.begin(), d.end());
    block_counter_ = 0;
  }
}

bool DeterministicRandom::claim_current_thread() {
  if (owner_ == std::thread::id()) owner_ = std::this_thread::get_id();
  return owner_ == std::this_thread::get_id();
}

DeterministicRandom DeterministicRandom::fork(std::uint64_t stream) const {
  // Child seed = this stream's key material || the big-endian stream
  // index; the string_view constructor hashes it into a fresh key.
  Bytes material = key_;
  for (int i = 0; i < 8; ++i) {
    material.push_back(static_cast<std::uint8_t>((stream >> (56 - 8 * i)) & 0xFF));
  }
  return DeterministicRandom(std::string_view(
      reinterpret_cast<const char*>(material.data()), material.size()));
}

void DeterministicRandom::fill(std::span<std::uint8_t> out) {
  assert(claim_current_thread() &&
         "DeterministicRandom is not thread-safe: fork() per-thread streams "
         "instead of sharing one instance");
  std::size_t written = 0;
  while (written < out.size()) {
    if (pool_pos_ >= pool_.size()) refill();
    const std::size_t take = std::min(out.size() - written, pool_.size() - pool_pos_);
    std::memcpy(out.data() + written, pool_.data() + pool_pos_, take);
    pool_pos_ += take;
    written += take;
  }
}

}  // namespace alidrone::crypto

// HMAC (RFC 2104) over any of the library's hash classes.
//
// Used by the symmetric-key signing extension (paper Section VII-A1a):
// a drone TEE and the Auditor can establish an ephemeral session key and
// authenticate GPS samples with HMAC instead of per-sample RSA signatures.
// TESLA mode keys one Hmac per interval and tags each of the interval's
// samples with it (crypto/hash_chain.h).
#pragma once

#include <algorithm>
#include <array>
#include <span>

#include "crypto/bytes.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace alidrone::crypto {

/// Generic HMAC over a FIPS-180-style hash H (Sha1 or Sha256).
///
/// The constructor absorbs the key's ipad and opad blocks once and keeps
/// the two hash states; every MAC under the key starts from copies of
/// them, so a key reused across messages pays for its pad blocks once.
/// Nothing here touches the heap.
template <typename H>
class Hmac {
 public:
  static constexpr std::size_t kDigestSize = H::kDigestSize;
  using Digest = typename H::Digest;

  explicit Hmac(std::span<const std::uint8_t> key) {
    std::array<std::uint8_t, H::kBlockSize> pad{};
    if (key.size() > H::kBlockSize) {
      const Digest d = H::hash(key);
      std::copy(d.begin(), d.end(), pad.begin());
    } else {
      std::copy(key.begin(), key.end(), pad.begin());
    }
    for (auto& b : pad) b ^= 0x36;
    keyed_inner_.update(pad);
    for (auto& b : pad) b ^= 0x36 ^ 0x5c;  // flip ipad to opad in place
    keyed_outer_.update(pad);
    reset();
  }

  void reset() { inner_ = keyed_inner_; }

  void update(std::span<const std::uint8_t> data) { inner_.update(data); }

  Digest finalize() { return finish(inner_); }

  /// MAC of `part1 || part2` under this key; the streaming state that
  /// update()/finalize() use is left alone.
  Digest mac_of(std::span<const std::uint8_t> part1,
                std::span<const std::uint8_t> part2 = {}) const {
    H inner = keyed_inner_;
    inner.update(part1);
    inner.update(part2);
    return finish(inner);
  }

  static Digest mac(std::span<const std::uint8_t> key,
                    std::span<const std::uint8_t> data) {
    return Hmac(key).mac_of(data);
  }

 private:
  Digest finish(H& inner) const {
    const Digest inner_digest = inner.finalize();
    H outer = keyed_outer_;
    outer.update(inner_digest);
    return outer.finalize();
  }

  H keyed_inner_;  ///< state after the key ^ ipad block
  H keyed_outer_;  ///< state after the key ^ opad block
  H inner_;        ///< streaming state of update()/finalize()
};

using HmacSha1 = Hmac<Sha1>;
using HmacSha256 = Hmac<Sha256>;

}  // namespace alidrone::crypto

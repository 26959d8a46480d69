#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <string>

#include "crypto/prime.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"

namespace alidrone::crypto {
namespace {

// Key generation is the slow part; share fixtures across tests.
const RsaKeyPair& test_key_512() {
  static const RsaKeyPair kp = [] {
    DeterministicRandom rng("alidrone-test-key-512");
    return generate_rsa_keypair(512, rng);
  }();
  return kp;
}

const RsaKeyPair& test_key_1024() {
  static const RsaKeyPair kp = [] {
    DeterministicRandom rng("alidrone-test-key-1024");
    return generate_rsa_keypair(1024, rng);
  }();
  return kp;
}

TEST(Prime, SmallKnownPrimesAndComposites) {
  DeterministicRandom rng(1);
  for (std::int64_t p : {2, 3, 5, 7, 65537, 1000000007}) {
    EXPECT_TRUE(is_probable_prime(BigInt(p), rng)) << p;
  }
  for (std::int64_t c : {0, 1, 4, 9, 561, 41041, 1000000008}) {
    EXPECT_FALSE(is_probable_prime(BigInt(c), rng)) << c;
  }
}

TEST(Prime, CarmichaelNumbersRejected) {
  // Carmichael numbers fool Fermat tests but not Miller-Rabin.
  DeterministicRandom rng(2);
  for (std::int64_t c : {561, 1105, 1729, 2465, 2821, 6601, 8911}) {
    EXPECT_FALSE(is_probable_prime(BigInt(c), rng)) << c;
  }
}

TEST(Prime, LargeKnownPrime) {
  DeterministicRandom rng(3);
  // 2^127 - 1 (Mersenne prime).
  const BigInt m127 = (BigInt(1) << 127) - BigInt(1);
  EXPECT_TRUE(is_probable_prime(m127, rng));
  // 2^128 - 1 is composite.
  EXPECT_FALSE(is_probable_prime((BigInt(1) << 128) - BigInt(1), rng));
}

TEST(Prime, GeneratedPrimeHasRequestedSizeAndPassesTest) {
  DeterministicRandom rng(4);
  const BigInt p = generate_prime(256, rng);
  EXPECT_EQ(p.bit_length(), 256u);
  EXPECT_TRUE(p.is_odd());
  EXPECT_TRUE(is_probable_prime(p, rng, 64));
}

TEST(Prime, TrialDivisionCatchesSmallFactors) {
  EXPECT_FALSE(passes_trial_division(BigInt(3) * BigInt(65521)));
  EXPECT_TRUE(passes_trial_division(BigInt::from_string("0xffffffffffffffc5")));
  // A small prime itself must pass.
  EXPECT_TRUE(passes_trial_division(BigInt(65521)));
}

// generate_prime before the window sieve: trial division on every
// candidate, then is_probable_prime (which repeats it) on the survivors.
// The sieved search must return the same prime and leave the RNG in the
// same state, so every key made from a seed stays byte-identical.
BigInt reference_generate_prime(std::size_t bits, RandomSource& rng) {
  for (;;) {
    BigInt candidate = rng.random_bits(bits);
    if (candidate.is_even()) candidate += BigInt(1);
    for (int step = 0; step < 512; ++step) {
      if (candidate.bit_length() != bits) break;
      if (passes_trial_division(candidate) && is_probable_prime(candidate, rng)) {
        return candidate;
      }
      candidate += BigInt(2);
    }
  }
}

/// Serves one scripted draw (the search's first random start), then a
/// seeded stream.
class ScriptedStart final : public RandomSource {
 public:
  ScriptedStart(const BigInt& start, std::size_t bits, std::uint64_t seed)
      : start_(start.to_bytes((bits + 7) / 8)), rest_(seed) {}

  void fill(std::span<std::uint8_t> out) override {
    if (!start_.empty()) {
      ASSERT_EQ(out.size(), start_.size());
      std::copy(start_.begin(), start_.end(), out.begin());
      start_.clear();
      return;
    }
    rest_.fill(out);
  }

 private:
  Bytes start_;
  DeterministicRandom rest_;
};

void expect_same_as_reference(std::size_t bits, RandomSource& sieved,
                              RandomSource& reference) {
  EXPECT_EQ(generate_prime(bits, sieved), reference_generate_prime(bits, reference))
      << bits << " bits";
  EXPECT_EQ(sieved.bytes(16), reference.bytes(16)) << bits << " bits";
}

TEST(Prime, SievedSearchMatchesTrialDivisionAtSmallSizes) {
  // Up to 16 bits every window holds primes below 2^16, which divide
  // only themselves and must stay candidates.
  for (std::size_t bits = 8; bits <= 24; ++bits) {
    for (std::uint64_t seed = 0; seed < 48; ++seed) {
      SCOPED_TRACE(seed);
      DeterministicRandom sieved(seed);
      DeterministicRandom reference(seed);
      expect_same_as_reference(bits, sieved, reference);
    }
  }
}

TEST(Prime, SievedSearchMatchesTrialDivisionAcrossTheTopOfTheRange) {
  // Starts just below 2^bits: the walk crosses 2^bits and redraws.
  for (std::size_t bits = 8; bits <= 24; ++bits) {
    const BigInt top = BigInt(1) << bits;
    for (std::uint64_t k = 0; k < 40; ++k) {
      SCOPED_TRACE(k);
      const BigInt start = top - BigInt(static_cast<std::int64_t>(2 * k + 1));
      ScriptedStart sieved(start, bits, k);
      ScriptedStart reference(start, bits, k);
      expect_same_as_reference(bits, sieved, reference);
    }
  }
}

TEST(Prime, SievedSearchMatchesTrialDivisionAt256Bits) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    SCOPED_TRACE(seed);
    DeterministicRandom sieved(seed);
    DeterministicRandom reference(seed);
    expect_same_as_reference(256, sieved, reference);
  }
}

TEST(RsaKeygen, KnownAnswerKeys) {
  // SHA-256(n || p || next 16 RNG bytes), recorded before the window sieve.
  struct Case {
    const char* seed;
    std::size_t bits;
    const char* digest;
  };
  const Case cases[] = {
      {"keygen-kat-a", 512, "16bf9727055ea7402569e64ce7d17fab02048a634fae8e2baf31cf1b05459ac8"},
      {"keygen-kat-a", 1024, "110cdf5370f468a72086672170ee776d1d4b2b27c7a19c79b53bf62730717cca"},
      {"keygen-kat-b", 512, "dec2268469cd1ee78f839db97420b2b620a4a9abf26d410a2ab01fae3d1e6fad"},
      {"keygen-kat-b", 1024, "91ba73904e2f9d6b59f665e75ebf23e34803b19d49a793bf591b7b38cf722c7e"},
  };
  for (const Case& c : cases) {
    DeterministicRandom rng(c.seed);
    const RsaKeyPair kp = generate_rsa_keypair(c.bits, rng);
    Sha256 h;
    h.update(kp.priv.n.to_bytes());
    h.update(kp.priv.p.to_bytes());
    h.update(rng.bytes(16));
    const Sha256::Digest d = h.finalize();
    EXPECT_EQ(to_hex(d), c.digest) << c.seed << " " << c.bits;
  }
}

TEST(RsaKeygen, KeyPairInternallyConsistent) {
  const RsaKeyPair& kp = test_key_512();
  EXPECT_EQ(kp.pub.n, kp.priv.n);
  EXPECT_EQ(kp.pub.modulus_bits(), 512u);
  EXPECT_EQ(kp.priv.p * kp.priv.q, kp.priv.n);
  EXPECT_TRUE(kp.priv.has_crt());
  EXPECT_GT(kp.priv.p, kp.priv.q);
  // e*d = 1 mod phi
  const BigInt phi = (kp.priv.p - BigInt(1)) * (kp.priv.q - BigInt(1));
  EXPECT_EQ((kp.priv.e * kp.priv.d).mod(phi), BigInt(1));
  // CRT params
  EXPECT_EQ(kp.priv.d_p, kp.priv.d % (kp.priv.p - BigInt(1)));
  EXPECT_EQ((kp.priv.q_inv * kp.priv.q).mod(kp.priv.p), BigInt(1));
}

TEST(RsaKeygen, DeterministicSeedsReproduceKeys) {
  DeterministicRandom rng1("fixed-seed");
  DeterministicRandom rng2("fixed-seed");
  const RsaKeyPair a = generate_rsa_keypair(512, rng1);
  const RsaKeyPair b = generate_rsa_keypair(512, rng2);
  EXPECT_EQ(a.pub.n, b.pub.n);
  EXPECT_EQ(a.priv.d, b.priv.d);
}

TEST(RsaKeygen, RejectsBadParameters) {
  DeterministicRandom rng(1);
  EXPECT_THROW(generate_rsa_keypair(128, rng), std::invalid_argument);
  EXPECT_THROW(generate_rsa_keypair(513, rng), std::invalid_argument);
}

TEST(RsaPrivateOp, CrtMatchesPlainExponentiation) {
  const RsaKeyPair& kp = test_key_512();
  DeterministicRandom rng(11);
  for (int i = 0; i < 5; ++i) {
    const BigInt m = rng.random_range(BigInt(2), kp.priv.n - BigInt(2));
    RsaPrivateKey no_crt = kp.priv;
    no_crt.p = BigInt();
    no_crt.q = BigInt();
    EXPECT_EQ(rsa_private_op(kp.priv, m), rsa_private_op(no_crt, m));
  }
}

TEST(RsaPrivateOp, RoundTripsWithPublicExponent) {
  const RsaKeyPair& kp = test_key_512();
  const BigInt m(123456789);
  const BigInt s = rsa_private_op(kp.priv, m);
  EXPECT_EQ(s.mod_pow(kp.pub.e, kp.pub.n), m);
}

TEST(RsaPrivateOp, BlindedMatchesUnblinded) {
  // Kocher blinding must be a pure countermeasure: same output, random
  // internal representative.
  const RsaKeyPair& kp = test_key_512();
  DeterministicRandom value_rng(31);
  for (int i = 0; i < 5; ++i) {
    const BigInt m = value_rng.random_range(BigInt(2), kp.priv.n - BigInt(2));
    DeterministicRandom blind_a(100 + i);
    DeterministicRandom blind_b(200 + i);  // different blinding factors...
    const BigInt plain = rsa_private_op(kp.priv, m);
    EXPECT_EQ(rsa_private_op_blinded(kp.priv, m, blind_a), plain);
    EXPECT_EQ(rsa_private_op_blinded(kp.priv, m, blind_b), plain);  // ...same result
  }
}

TEST(RsaPrivateOp, BlindedRejectsOutOfRange) {
  const RsaKeyPair& kp = test_key_512();
  DeterministicRandom rng(1);
  EXPECT_THROW(rsa_private_op_blinded(kp.priv, kp.priv.n, rng), std::domain_error);
  EXPECT_THROW(rsa_private_op_blinded(kp.priv, BigInt(-1), rng), std::domain_error);
}

TEST(RsaSign, SignVerifyRoundTripSha1AndSha256) {
  const RsaKeyPair& kp = test_key_1024();
  const Bytes msg = to_bytes("GPS sample 40.1164,-88.2434 @ t=1528395000");
  for (const HashAlgorithm h : {HashAlgorithm::kSha1, HashAlgorithm::kSha256}) {
    const Bytes sig = rsa_sign(kp.priv, msg, h);
    EXPECT_EQ(sig.size(), kp.pub.modulus_bytes());
    EXPECT_TRUE(rsa_verify(kp.pub, msg, sig, h)) << to_string(h);
  }
}

TEST(RsaSign, TamperedMessageFailsVerification) {
  const RsaKeyPair& kp = test_key_1024();
  Bytes msg = to_bytes("lat=40.1164,lon=-88.2434,t=100.0");
  const Bytes sig = rsa_sign(kp.priv, msg, HashAlgorithm::kSha256);
  msg[4] ^= 0x01;  // flip one bit of the latitude
  EXPECT_FALSE(rsa_verify(kp.pub, msg, sig, HashAlgorithm::kSha256));
}

TEST(RsaSign, TamperedSignatureFailsVerification) {
  const RsaKeyPair& kp = test_key_1024();
  const Bytes msg = to_bytes("alibi");
  Bytes sig = rsa_sign(kp.priv, msg, HashAlgorithm::kSha256);
  sig[sig.size() / 2] ^= 0x80;
  EXPECT_FALSE(rsa_verify(kp.pub, msg, sig, HashAlgorithm::kSha256));
}

TEST(RsaSign, WrongKeyFailsVerification) {
  const RsaKeyPair& kp = test_key_1024();
  DeterministicRandom rng("attacker-key");
  const RsaKeyPair attacker = generate_rsa_keypair(1024, rng);
  const Bytes msg = to_bytes("alibi");
  const Bytes sig = rsa_sign(attacker.priv, msg, HashAlgorithm::kSha256);
  EXPECT_FALSE(rsa_verify(kp.pub, msg, sig, HashAlgorithm::kSha256));
}

TEST(RsaSign, WrongHashAlgorithmFailsVerification) {
  const RsaKeyPair& kp = test_key_1024();
  const Bytes msg = to_bytes("alibi");
  const Bytes sig = rsa_sign(kp.priv, msg, HashAlgorithm::kSha1);
  EXPECT_FALSE(rsa_verify(kp.pub, msg, sig, HashAlgorithm::kSha256));
}

TEST(RsaVerify, MalformedSignaturesRejectedWithoutThrowing) {
  const RsaKeyPair& kp = test_key_1024();
  const Bytes msg = to_bytes("alibi");
  EXPECT_FALSE(rsa_verify(kp.pub, msg, Bytes{}, HashAlgorithm::kSha256));
  EXPECT_FALSE(rsa_verify(kp.pub, msg, Bytes(10, 0xFF), HashAlgorithm::kSha256));
  // Signature numerically >= n.
  const Bytes too_big = (kp.pub.n + BigInt(1)).to_bytes(kp.pub.modulus_bytes() + 1);
  EXPECT_FALSE(rsa_verify(kp.pub, msg,
                          std::span<const std::uint8_t>(too_big).subspan(1),
                          HashAlgorithm::kSha256));
}

TEST(RsaEncrypt, EncryptDecryptRoundTrip) {
  const RsaKeyPair& kp = test_key_1024();
  DeterministicRandom rng(21);
  const Bytes msg = to_bytes("session-key-material-0123456789");
  const Bytes ct = rsa_encrypt(kp.pub, msg, rng);
  EXPECT_EQ(ct.size(), kp.pub.modulus_bytes());
  const std::optional<Bytes> pt = rsa_decrypt(kp.priv, ct);
  ASSERT_TRUE(pt.has_value());
  EXPECT_EQ(*pt, msg);
}

TEST(RsaEncrypt, RandomizedPaddingProducesDistinctCiphertexts) {
  const RsaKeyPair& kp = test_key_1024();
  DeterministicRandom rng(22);
  const Bytes msg = to_bytes("same message");
  EXPECT_NE(rsa_encrypt(kp.pub, msg, rng), rsa_encrypt(kp.pub, msg, rng));
}

TEST(RsaEncrypt, MessageTooLongThrows) {
  const RsaKeyPair& kp = test_key_512();
  DeterministicRandom rng(23);
  const Bytes msg(kp.pub.modulus_bytes() - 10, 0x41);  // needs k-11 max
  EXPECT_THROW(rsa_encrypt(kp.pub, msg, rng), std::length_error);
  const Bytes ok(kp.pub.modulus_bytes() - 11, 0x41);
  EXPECT_NO_THROW(rsa_encrypt(kp.pub, ok, rng));
}

TEST(RsaDecrypt, CorruptedCiphertextRejected) {
  const RsaKeyPair& kp = test_key_1024();
  DeterministicRandom rng(24);
  Bytes ct = rsa_encrypt(kp.pub, to_bytes("secret"), rng);
  ct[0] ^= 0x01;
  // Either padding fails (nullopt) or decrypts to something else; both are
  // acceptable for PKCS1 v1.5, but it must not equal the plaintext.
  const auto pt = rsa_decrypt(kp.priv, ct);
  if (pt.has_value()) {
    EXPECT_NE(*pt, to_bytes("secret"));
  }
  EXPECT_EQ(rsa_decrypt(kp.priv, Bytes(3, 0)), std::nullopt);
}

TEST(RsaPublicKey, FingerprintStableAndDistinct) {
  const RsaKeyPair& a = test_key_512();
  const RsaKeyPair& b = test_key_1024();
  EXPECT_EQ(a.pub.fingerprint(), a.pub.fingerprint());
  EXPECT_NE(a.pub.fingerprint(), b.pub.fingerprint());
  EXPECT_EQ(a.pub.fingerprint().size(), 32u);
}

// Property sweep: sign/verify across key sizes and both digests.
struct RsaParam {
  std::size_t bits;
  HashAlgorithm hash;
};

// Names the case ("512_Sha1") and prints the parameter, so test names never
// include the struct's padding bytes.
std::string rsa_param_name(const RsaParam& p) {
  return std::to_string(p.bits) + (p.hash == HashAlgorithm::kSha1 ? "_Sha1" : "_Sha256");
}
void PrintTo(const RsaParam& p, std::ostream* os) { *os << rsa_param_name(p); }

class RsaRoundTrip : public ::testing::TestWithParam<RsaParam> {};

TEST_P(RsaRoundTrip, SignVerifyAndEncryptDecrypt) {
  const auto [bits, hash] = GetParam();
  DeterministicRandom rng("rsa-roundtrip-" + std::to_string(bits));
  const RsaKeyPair kp = generate_rsa_keypair(bits, rng);

  for (int i = 0; i < 3; ++i) {
    const Bytes msg = rng.bytes(20 + i * 40);
    const Bytes sig = rsa_sign(kp.priv, msg, hash);
    EXPECT_TRUE(rsa_verify(kp.pub, msg, sig, hash));

    Bytes corrupted = sig;
    corrupted[static_cast<std::size_t>(i) % corrupted.size()] ^= 0x40;
    EXPECT_FALSE(rsa_verify(kp.pub, msg, corrupted, hash));
  }

  const Bytes secret = rng.bytes(24);
  EXPECT_EQ(rsa_decrypt(kp.priv, rsa_encrypt(kp.pub, secret, rng)), secret);
}

INSTANTIATE_TEST_SUITE_P(
    KeySizesAndHashes, RsaRoundTrip,
    ::testing::Values(RsaParam{512, HashAlgorithm::kSha1},
                      RsaParam{512, HashAlgorithm::kSha256},
                      RsaParam{768, HashAlgorithm::kSha256},
                      RsaParam{1024, HashAlgorithm::kSha1},
                      RsaParam{1024, HashAlgorithm::kSha256}),
    [](const ::testing::TestParamInfo<RsaParam>& info) {
      return rsa_param_name(info.param);
    });

}  // namespace
}  // namespace alidrone::crypto

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <stdexcept>

#include "crypto/bigint.h"
#include "crypto/random.h"

namespace alidrone::crypto {
namespace {

TEST(BigInt, DefaultIsZero) {
  const BigInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_FALSE(z.is_negative());
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z.to_decimal_string(), "0");
}

TEST(BigInt, SmallValueRoundTrip) {
  EXPECT_EQ(BigInt(42).to_decimal_string(), "42");
  EXPECT_EQ(BigInt(-42).to_decimal_string(), "-42");
  EXPECT_EQ(BigInt(1000000007).to_decimal_string(), "1000000007");
}

TEST(BigInt, Int64MinHandledCorrectly) {
  const BigInt v(INT64_MIN);
  EXPECT_EQ(v.to_decimal_string(), "-9223372036854775808");
  EXPECT_EQ((-v).to_decimal_string(), "9223372036854775808");
}

TEST(BigInt, ParseDecimalAndHex) {
  EXPECT_EQ(BigInt::from_string("123456789012345678901234567890").to_decimal_string(),
            "123456789012345678901234567890");
  EXPECT_EQ(BigInt::from_string("0xff"), BigInt(255));
  EXPECT_EQ(BigInt::from_string("-0x100"), BigInt(-256));
  EXPECT_THROW(BigInt::from_string(""), std::invalid_argument);
  EXPECT_THROW(BigInt::from_string("12a"), std::invalid_argument);
  EXPECT_THROW(BigInt::from_string("0x"), std::invalid_argument);
}

TEST(BigInt, HexStringRoundTrip) {
  const BigInt v = BigInt::from_string("0xdeadbeefcafebabe0123456789");
  EXPECT_EQ(v.to_hex_string(), "0xdeadbeefcafebabe0123456789");
  EXPECT_EQ(BigInt::from_string(v.to_hex_string()), v);
}

TEST(BigInt, AdditionCarriesAcrossLimbs) {
  const BigInt a = BigInt::from_string("0xffffffffffffffff");
  EXPECT_EQ((a + BigInt(1)).to_hex_string(), "0x10000000000000000");
}

TEST(BigInt, SignedAddSub) {
  const BigInt a(100);
  const BigInt b(-250);
  EXPECT_EQ(a + b, BigInt(-150));
  EXPECT_EQ(a - b, BigInt(350));
  EXPECT_EQ(b - a, BigInt(-350));
  EXPECT_EQ(a - a, BigInt(0));
}

TEST(BigInt, MultiplicationLargeValues) {
  const BigInt a = BigInt::from_string("123456789012345678901234567890");
  const BigInt b = BigInt::from_string("987654321098765432109876543210");
  EXPECT_EQ((a * b).to_decimal_string(),
            "121932631137021795226185032733622923332237463801111263526900");
}

TEST(BigInt, MultiplicationSigns) {
  EXPECT_EQ(BigInt(-3) * BigInt(7), BigInt(-21));
  EXPECT_EQ(BigInt(-3) * BigInt(-7), BigInt(21));
  EXPECT_EQ(BigInt(0) * BigInt(-7), BigInt(0));
  EXPECT_FALSE((BigInt(0) * BigInt(-7)).is_negative());
}

TEST(BigInt, DivisionBasic) {
  EXPECT_EQ(BigInt(100) / BigInt(7), BigInt(14));
  EXPECT_EQ(BigInt(100) % BigInt(7), BigInt(2));
  EXPECT_THROW(BigInt(1) / BigInt(0), std::domain_error);
}

TEST(BigInt, DivisionTruncatedSignRules) {
  // C-style truncated division: remainder takes the dividend's sign.
  EXPECT_EQ(BigInt(-100) / BigInt(7), BigInt(-14));
  EXPECT_EQ(BigInt(-100) % BigInt(7), BigInt(-2));
  EXPECT_EQ(BigInt(100) / BigInt(-7), BigInt(-14));
  EXPECT_EQ(BigInt(100) % BigInt(-7), BigInt(2));
}

TEST(BigInt, DivisionMultiLimbKnuthD) {
  const BigInt a = BigInt::from_string(
      "340282366920938463463374607431768211455123456789");
  const BigInt b = BigInt::from_string("18446744073709551629");
  const auto dm = a.divmod(b);
  EXPECT_EQ(dm.quotient * b + dm.remainder, a);
  EXPECT_TRUE(dm.remainder < b);
  EXPECT_FALSE(dm.remainder.is_negative());
}

TEST(BigInt, DivisionAddBackCase) {
  // Exercise the rare "add back" branch of Knuth D (base 2^64). The
  // divisor 2^191 + 1 is already normalized: limbs 2^63, 0, 1. For the
  // dividend's top limbs 2 and 2^63 the two-limb estimate is
  // q_hat = (2 * 2^64 + 2^63) / 2^63 = 5 with remainder 0, the zero
  // middle limb lets it pass the second-limb test, and the true digit
  // is 4: the multiply-subtract goes negative and must be added back.
  const BigInt b = (BigInt(1) << 191) + BigInt(1);
  const BigInt a = (BigInt(1) << 193) + (BigInt(1) << 191) + BigInt(3);
  const auto dm = a.divmod(b);
  EXPECT_EQ(dm.quotient, BigInt(4));
  EXPECT_EQ(dm.remainder, (BigInt(1) << 191) - BigInt(1));
  EXPECT_EQ(dm.quotient * b + dm.remainder, a);
}

TEST(BigInt, ShiftsRoundTrip) {
  const BigInt v = BigInt::from_string("0x123456789abcdef");
  EXPECT_EQ((v << 64) >> 64, v);
  EXPECT_EQ((v << 13) >> 13, v);
  EXPECT_EQ(v >> 200, BigInt(0));
  EXPECT_EQ(BigInt(1) << 32, BigInt::from_string("0x100000000"));
}

TEST(BigInt, ModNonNegativeResidue) {
  EXPECT_EQ(BigInt(-1).mod(BigInt(5)), BigInt(4));
  EXPECT_EQ(BigInt(-10).mod(BigInt(5)), BigInt(0));
  EXPECT_EQ(BigInt(13).mod(BigInt(5)), BigInt(3));
  EXPECT_THROW(BigInt(1).mod(BigInt(0)), std::domain_error);
  EXPECT_THROW(BigInt(1).mod(BigInt(-5)), std::domain_error);
}

TEST(BigInt, ModU32) {
  EXPECT_EQ(BigInt::from_string("123456789012345678901234567890").mod_u32(97u),
            BigInt::from_string("123456789012345678901234567890").mod(BigInt(97)).mod_u32(100000u));
  EXPECT_EQ(BigInt(100).mod_u32(7u), 2u);
  EXPECT_THROW(BigInt(1).mod_u32(0u), std::domain_error);
}

TEST(BigInt, ModPowSmallKnownValues) {
  EXPECT_EQ(BigInt(2).mod_pow(BigInt(10), BigInt(1000)), BigInt(24));
  EXPECT_EQ(BigInt(3).mod_pow(BigInt(0), BigInt(7)), BigInt(1));
  EXPECT_EQ(BigInt(5).mod_pow(BigInt(117), BigInt(1)), BigInt(0));
}

TEST(BigInt, ModPowFermatLittleTheorem) {
  // a^(p-1) = 1 mod p for prime p and gcd(a, p) = 1.
  const BigInt p = BigInt::from_string("1000000007");
  for (std::int64_t a : {2, 3, 65537, 999999999}) {
    EXPECT_EQ(BigInt(a).mod_pow(p - BigInt(1), p), BigInt(1)) << a;
  }
}

TEST(BigInt, ModPowMatchesRepeatedMultiplication) {
  const BigInt m = BigInt::from_string("0xfffffffb");
  BigInt expected(1);
  const BigInt base(12345);
  for (int i = 0; i < 77; ++i) expected = (expected * base).mod(m);
  EXPECT_EQ(base.mod_pow(BigInt(77), m), expected);
}

TEST(BigInt, GcdAndInverse) {
  EXPECT_EQ(BigInt::gcd(BigInt(48), BigInt(36)), BigInt(12));
  EXPECT_EQ(BigInt::gcd(BigInt(17), BigInt(0)), BigInt(17));
  EXPECT_EQ(BigInt::gcd(BigInt(-48), BigInt(36)), BigInt(12));

  const BigInt inv = BigInt(3).mod_inverse(BigInt(11));
  EXPECT_EQ(inv, BigInt(4));
  EXPECT_THROW(BigInt(4).mod_inverse(BigInt(8)), std::domain_error);
}

TEST(BigInt, ModInverseLarge) {
  const BigInt m = BigInt::from_string("0xffffffffffffffffffffffffffffff61");
  const BigInt a = BigInt::from_string("0x123456789abcdef0123456789abcdef");
  const BigInt inv = a.mod_inverse(m);
  EXPECT_EQ((a * inv).mod(m), BigInt(1));
}

TEST(BigInt, BytesRoundTripBigEndian) {
  const Bytes be{0x01, 0x02, 0x03, 0x04, 0x05};
  const BigInt v = BigInt::from_bytes(be);
  EXPECT_EQ(v.to_hex_string(), "0x102030405");
  EXPECT_EQ(v.to_bytes(), be);
}

TEST(BigInt, ToBytesPadding) {
  const BigInt v(0xABCD);
  const Bytes padded = v.to_bytes(4);
  EXPECT_EQ(padded, (Bytes{0x00, 0x00, 0xAB, 0xCD}));
  EXPECT_THROW(v.to_bytes(1), std::length_error);
}

TEST(BigInt, FromBytesLeadingZerosIgnored) {
  const Bytes be{0x00, 0x00, 0x12, 0x34};
  EXPECT_EQ(BigInt::from_bytes(be), BigInt(0x1234));
}

TEST(BigInt, BitAccess) {
  const BigInt v = BigInt::from_string("0x8000000000000001");
  EXPECT_TRUE(v.bit(0));
  EXPECT_TRUE(v.bit(63));
  EXPECT_FALSE(v.bit(1));
  EXPECT_FALSE(v.bit(64));
  EXPECT_EQ(v.bit_length(), 64u);
}

TEST(BigInt, CompareTotalOrder) {
  EXPECT_LT(BigInt(-5), BigInt(3));
  EXPECT_LT(BigInt(-5), BigInt(-3));
  EXPECT_GT(BigInt(100), BigInt(99));
  EXPECT_LE(BigInt(7), BigInt(7));
}

// Property sweeps over random operands: algebraic laws that must hold for
// any correct big-integer implementation.
// Odd seeds mix in limb-boundary magnitudes, where carries, borrows and
// Knuth D's estimates cross whole 64-bit limbs: each second draw takes the
// next one in turn, starting at a seed-dependent offset.
class BigIntAlgebra : public ::testing::TestWithParam<int> {
 protected:
  DeterministicRandom rng_{static_cast<std::uint64_t>(GetParam()) * 7919u + 3u};
  std::size_t draws_ = 0;

  static BigInt limb_boundary(std::size_t i) {
    const BigInt one(1);
    const BigInt values[] = {
        (one << 63) - one,  (one << 63) + one,  (one << 64) - one,
        (one << 64) + one,  (one << 128) - one, (one << 192) - one,
        (one << 256) - one, (one << 256) - (one << 64),  // all-ones limbs
    };
    return values[i % std::size(values)];
  }

  BigInt random_value(std::size_t max_bits) {
    BigInt v;
    if (GetParam() % 2 == 1 && draws_++ % 2 == 0) {
      v = limb_boundary(static_cast<std::size_t>(GetParam()) / 2 + draws_ / 2);
    } else {
      const std::size_t bits = 1 + rng_.uniform(max_bits);
      v = rng_.random_bits(bits);
    }
    if (rng_.uniform(2) == 1) v = -v;
    return v;
  }
};

TEST_P(BigIntAlgebra, AddCommutesAndAssociates) {
  const BigInt a = random_value(512);
  const BigInt b = random_value(512);
  const BigInt c = random_value(512);
  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_EQ(a + BigInt(0), a);
  EXPECT_EQ(a - a, BigInt(0));
}

TEST_P(BigIntAlgebra, MulDistributesOverAdd) {
  const BigInt a = random_value(384);
  const BigInt b = random_value(384);
  const BigInt c = random_value(384);
  EXPECT_EQ(a * (b + c), a * b + a * c);
  EXPECT_EQ(a * b, b * a);
  EXPECT_EQ(a * BigInt(1), a);
}

TEST_P(BigIntAlgebra, DivModReconstructsDividend) {
  const BigInt a = random_value(768);
  BigInt b = random_value(320);
  if (b.is_zero()) b = BigInt(1);
  const auto dm = a.divmod(b);
  EXPECT_EQ(dm.quotient * b + dm.remainder, a);
  EXPECT_LT(dm.remainder.compare_magnitude(b), 0);
}

TEST_P(BigIntAlgebra, ShiftEquivalentToMulByPowerOfTwo) {
  const BigInt a = random_value(300);
  const std::size_t k = rng_.uniform(130);
  EXPECT_EQ(a << k, a * (BigInt(1) << k));
}

TEST_P(BigIntAlgebra, BytesRoundTrip) {
  BigInt a = random_value(520);
  if (a.is_negative()) a = -a;
  EXPECT_EQ(BigInt::from_bytes(a.to_bytes()), a);
}

TEST_P(BigIntAlgebra, ModPowMultiplicative) {
  // (a*b)^e = a^e * b^e (mod m)
  BigInt m = random_value(160);
  if (m.is_negative()) m = -m;
  m += BigInt(2);
  const BigInt a = random_value(200);
  const BigInt b = random_value(200);
  const BigInt e(65537);
  const BigInt lhs = (a * b).mod(m).mod_pow(e, m);
  const BigInt rhs = (a.mod_pow(e, m) * b.mod_pow(e, m)).mod(m);
  EXPECT_EQ(lhs, rhs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntAlgebra, ::testing::Range(0, 24));

// Large operands, 16 to 128 limbs: the schoolbook product checked against
// division (its exact inverse) and distributivity.
class LargeOperandProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LargeOperandProperty, ProductConsistentWithDivision) {
  const std::size_t bits = GetParam();
  DeterministicRandom rng(bits);
  const BigInt a = rng.random_bits(bits);
  const BigInt b = rng.random_bits(bits / 2 + 17);
  const BigInt p = a * b;
  EXPECT_EQ(p / a, b);
  EXPECT_EQ(p % a, BigInt(0));
  EXPECT_EQ(p / b, a);
  // Distributivity with a one-limb addend.
  const BigInt c = rng.random_bits(64);
  EXPECT_EQ((a + c) * b, p + c * b);
}

TEST_P(LargeOperandProperty, AsymmetricOperandSizes) {
  const std::size_t bits = GetParam();
  DeterministicRandom rng(bits + 999);
  const BigInt a = rng.random_bits(bits);
  const BigInt b = rng.random_bits(1100);  // 18 limbs
  const BigInt p = a * b;
  EXPECT_EQ(p / b, a);
  EXPECT_EQ(p % b, BigInt(0));
}

INSTANTIATE_TEST_SUITE_P(Sizes, LargeOperandProperty,
                         ::testing::Values(1024, 1536, 2048, 4096, 8192));

}  // namespace
}  // namespace alidrone::crypto

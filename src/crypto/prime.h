// Probabilistic primality testing and prime generation for RSA keygen.
#pragma once

#include <cstddef>

#include "crypto/bigint.h"
#include "crypto/random.h"

namespace alidrone::crypto {

/// Miller-Rabin with `rounds` random bases (error probability <= 4^-rounds
/// for composites). Handles small values and even numbers exactly.
bool is_probable_prime(const BigInt& n, RandomSource& rng, int rounds = 32);

/// Quick composite filter: trial division by primes below 2^16.
/// Returns false when a small factor exists (and n is not that prime).
bool passes_trial_division(const BigInt& n);

/// The first probable prime at or after a uniformly random odd start with
/// exactly `bits` bits (top bit set, so p*q has full length). The search
/// walks up to 512 odd numbers from the start, sieved once by the primes
/// below 2^16, and draws a new start when the window holds no prime or
/// walks past 2^bits. Primes that follow long gaps are therefore more
/// likely than others: the result is not uniform over the primes.
BigInt generate_prime(std::size_t bits, RandomSource& rng, int mr_rounds = 32);

}  // namespace alidrone::crypto

// Copyright (c) 2026 The SOS Authors. MIT License.
//
// A real binary BCH codec.
//
// The EccScheme capability model answers "would a t-error-correcting code
// decode this page?" analytically; this module is the bit-exact counterpart
// for the sizes where running a genuine decoder is cheap: a binary BCH code
// over GF(2^m) with configurable correction capability t.
//
//   - Encoding: systematic, data bits followed by parity bits computed as
//     the remainder of x^(n-k) * d(x) modulo the generator polynomial.
//   - Decoding: syndrome computation, Berlekamp-Massey to find the error
//     locator polynomial, Chien search to find error positions, and bit
//     flips to correct. Up to t errors are corrected; heavier corruption is
//     detected with overwhelming probability.
//
// A test oracle only: the simulation path keeps the fast capability model,
// and tests/bch_test.cc validates the two against each other.

#ifndef SOS_TESTS_ORACLE_BCH_H_
#define SOS_TESTS_ORACLE_BCH_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"

namespace sos {

// Binary BCH code over GF(2^m), codeword length n = 2^m - 1 bits, correcting
// up to t bit errors. k (data bits) is determined by the generator
// polynomial degree: k = n - deg(g).
class BchCode {
 public:
  // Constructs the code; m in [4, 14], t >= 1 and small enough that k > 0.
  BchCode(int m, int t);

  int n() const { return n_; }          // codeword length in bits
  int k() const { return k_; }          // data bits per codeword
  int t() const { return t_; }          // designed correction capability
  int parity_bits() const { return n_ - k_; }

  // Encodes k data bits (LSB-first bit vector) into an n-bit codeword.
  // data.size() must equal k().
  std::vector<uint8_t> Encode(const std::vector<uint8_t>& data_bits) const;

  struct DecodeResult {
    bool ok = false;                 // decoded within capability
    int errors_corrected = 0;
    std::vector<uint8_t> data_bits;  // k bits, valid iff ok
  };

  // Decodes an n-bit (possibly corrupted) codeword.
  DecodeResult Decode(const std::vector<uint8_t>& codeword_bits) const;

 private:
  // GF(2^m) arithmetic via log/antilog tables.
  int GfMul(int a, int b) const;
  int GfInv(int a) const;
  int GfPow(int base, int exp) const;

  void BuildField();
  void BuildGenerator();

  int m_;
  int t_;
  int n_;
  int k_;
  std::vector<int> alpha_to_;  // antilog table
  std::vector<int> index_of_;  // log table
  std::vector<uint8_t> generator_;  // generator polynomial coefficients (GF(2))
};

}  // namespace sos

#endif  // SOS_TESTS_ORACLE_BCH_H_

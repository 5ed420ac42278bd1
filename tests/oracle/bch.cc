// Copyright (c) 2026 The SOS Authors. MIT License.

#include "tests/oracle/bch.h"

#include <algorithm>
#include <array>
#include <cassert>

namespace sos {
namespace {

// Primitive polynomials for GF(2^m), m = 4..14 (standard tables; the value
// is the polynomial with the x^m term omitted, e.g. m=4: x^4 + x + 1 -> 0b0011).
constexpr std::array<int, 15> kPrimitivePoly = {
    0, 0, 0, 0,
    0b0011,        // m=4:  x^4+x+1
    0b00101,       // m=5:  x^5+x^2+1
    0b000011,      // m=6:  x^6+x+1
    0b0001001,     // m=7:  x^7+x^3+1
    0b00011101,    // m=8:  x^8+x^4+x^3+x^2+1
    0b000010001,   // m=9:  x^9+x^4+1
    0b0000001001,  // m=10: x^10+x^3+1
    0b00000000101, // m=11: x^11+x^2+1
    0b000001010011,// m=12: x^12+x^6+x^4+x+1
    0b0000000011011,// m=13: x^13+x^4+x^3+x+1
    0b00000000101011,// m=14: x^14+x^5+x^3+x+1
};

}  // namespace

BchCode::BchCode(int m, int t) : m_(m), t_(t) {
  assert(m >= 4 && m <= 14);
  assert(t >= 1);
  n_ = (1 << m_) - 1;
  BuildField();
  BuildGenerator();
  k_ = n_ - static_cast<int>(generator_.size()) + 1;
  assert(k_ > 0 && "t too large for this field");
}

void BchCode::BuildField() {
  alpha_to_.assign(static_cast<size_t>(n_) + 1, 0);
  index_of_.assign(static_cast<size_t>(n_) + 1, -1);
  int mask = 1;
  for (int i = 0; i < m_; ++i) {
    alpha_to_[static_cast<size_t>(i)] = mask;
    index_of_[static_cast<size_t>(mask)] = i;
    mask <<= 1;
  }
  // alpha^m = primitive polynomial tail.
  alpha_to_[static_cast<size_t>(m_)] = kPrimitivePoly[static_cast<size_t>(m_)] | 0;
  // Fill the rest: alpha^(i) = alpha^(i-1) * alpha.
  const int poly = kPrimitivePoly[static_cast<size_t>(m_)];
  mask = alpha_to_[static_cast<size_t>(m_ - 1)];
  for (int i = m_; i < n_; ++i) {
    const int prev = alpha_to_[static_cast<size_t>(i - 1)];
    int next = prev << 1;
    if (next & (1 << m_)) {
      next = (next ^ (1 << m_)) ^ poly;
    }
    alpha_to_[static_cast<size_t>(i)] = next;
    index_of_[static_cast<size_t>(next)] = i;
  }
  (void)mask;
  index_of_[0] = -1;
}

int BchCode::GfMul(int a, int b) const {
  if (a == 0 || b == 0) {
    return 0;
  }
  const int log_sum = (index_of_[static_cast<size_t>(a)] + index_of_[static_cast<size_t>(b)]) % n_;
  return alpha_to_[static_cast<size_t>(log_sum)];
}

int BchCode::GfInv(int a) const {
  assert(a != 0);
  const int log_a = index_of_[static_cast<size_t>(a)];
  return alpha_to_[static_cast<size_t>((n_ - log_a) % n_)];
}

int BchCode::GfPow(int base, int exp) const {
  if (base == 0) {
    return exp == 0 ? 1 : 0;
  }
  const int log_b = index_of_[static_cast<size_t>(base)];
  const int log_r = static_cast<int>((static_cast<int64_t>(log_b) * exp) % n_);
  return alpha_to_[static_cast<size_t>((log_r + n_) % n_)];
}

void BchCode::BuildGenerator() {
  // g(x) = lcm of minimal polynomials of alpha^1 .. alpha^(2t).
  // Work over GF(2): find the cyclotomic cosets, then multiply the minimal
  // polynomials together.
  std::vector<bool> used(static_cast<size_t>(n_) + 1, false);
  std::vector<uint8_t> g = {1};  // polynomial "1"

  auto poly_mul_gf2 = [](const std::vector<uint8_t>& a, const std::vector<uint8_t>& b) {
    std::vector<uint8_t> out(a.size() + b.size() - 1, 0);
    for (size_t i = 0; i < a.size(); ++i) {
      if (!a[i]) {
        continue;
      }
      for (size_t j = 0; j < b.size(); ++j) {
        out[i + j] = static_cast<uint8_t>(out[i + j] ^ (a[i] & b[j]));
      }
    }
    return out;
  };

  for (int power = 1; power <= 2 * t_; ++power) {
    if (used[static_cast<size_t>(power)]) {
      continue;
    }
    // Cyclotomic coset of `power`: {power, 2p, 4p, ...} mod n.
    std::vector<int> coset;
    int cur = power;
    do {
      coset.push_back(cur);
      used[static_cast<size_t>(cur)] = true;
      cur = (cur * 2) % n_;
    } while (cur != power);

    // Minimal polynomial = prod (x - alpha^c) over the coset, computed in
    // GF(2^m) then reduced to GF(2) coefficients (they come out 0/1).
    std::vector<int> min_poly = {1};  // coefficients in GF(2^m), low degree first
    for (int c : coset) {
      const int root = alpha_to_[static_cast<size_t>(c)];
      std::vector<int> next(min_poly.size() + 1, 0);
      for (size_t i = 0; i < min_poly.size(); ++i) {
        next[i + 1] ^= min_poly[i];           // x * term
        next[i] ^= GfMul(min_poly[i], root);  // root * term (char 2: minus == plus)
      }
      min_poly = std::move(next);
    }
    std::vector<uint8_t> min_poly_gf2(min_poly.size());
    for (size_t i = 0; i < min_poly.size(); ++i) {
      assert(min_poly[i] == 0 || min_poly[i] == 1);
      min_poly_gf2[i] = static_cast<uint8_t>(min_poly[i]);
    }
    g = poly_mul_gf2(g, min_poly_gf2);
  }
  generator_ = std::move(g);
}

std::vector<uint8_t> BchCode::Encode(const std::vector<uint8_t>& data_bits) const {
  assert(static_cast<int>(data_bits.size()) == k_);
  const int parity = n_ - k_;
  // Systematic encoding: codeword = [parity | data]; parity = remainder of
  // x^parity * d(x) / g(x). Compute with a simple LFSR-style division.
  std::vector<uint8_t> remainder(static_cast<size_t>(parity), 0);
  for (int i = k_ - 1; i >= 0; --i) {
    const uint8_t feedback =
        static_cast<uint8_t>(data_bits[static_cast<size_t>(i)] ^ remainder[static_cast<size_t>(parity - 1)]);
    for (int j = parity - 1; j > 0; --j) {
      remainder[static_cast<size_t>(j)] = static_cast<uint8_t>(
          remainder[static_cast<size_t>(j - 1)] ^
          (feedback & generator_[static_cast<size_t>(j)]));
    }
    remainder[0] = static_cast<uint8_t>(feedback & generator_[0]);
  }
  std::vector<uint8_t> codeword(static_cast<size_t>(n_), 0);
  for (int i = 0; i < parity; ++i) {
    codeword[static_cast<size_t>(i)] = remainder[static_cast<size_t>(i)];
  }
  for (int i = 0; i < k_; ++i) {
    codeword[static_cast<size_t>(parity + i)] = data_bits[static_cast<size_t>(i)];
  }
  return codeword;
}

BchCode::DecodeResult BchCode::Decode(const std::vector<uint8_t>& codeword_bits) const {
  assert(static_cast<int>(codeword_bits.size()) == n_);
  DecodeResult result;

  // Syndromes S_1 .. S_2t: S_j = r(alpha^j).
  std::vector<int> syndrome(static_cast<size_t>(2 * t_ + 1), 0);
  bool all_zero = true;
  for (int j = 1; j <= 2 * t_; ++j) {
    int s = 0;
    for (int i = 0; i < n_; ++i) {
      if (codeword_bits[static_cast<size_t>(i)]) {
        s ^= GfPow(alpha_to_[1], i * j % n_);
      }
    }
    syndrome[static_cast<size_t>(j)] = s;
    all_zero = all_zero && s == 0;
  }

  auto extract_data = [&](const std::vector<uint8_t>& bits) {
    return std::vector<uint8_t>(bits.begin() + (n_ - k_), bits.end());
  };

  if (all_zero) {
    result.ok = true;
    result.data_bits = extract_data(codeword_bits);
    return result;
  }

  // Berlekamp-Massey: find the error locator polynomial sigma(x).
  std::vector<int> sigma = {1};
  std::vector<int> prev_sigma = {1};
  int l = 0;          // current LFSR length
  int prev_discrep = 1;
  int shift = 1;
  for (int step = 1; step <= 2 * t_; ++step) {
    // Discrepancy.
    int d = syndrome[static_cast<size_t>(step)];
    for (int i = 1; i <= l && i < static_cast<int>(sigma.size()); ++i) {
      d ^= GfMul(sigma[static_cast<size_t>(i)], syndrome[static_cast<size_t>(step - i)]);
    }
    if (d == 0) {
      ++shift;
      continue;
    }
    // sigma' = sigma - (d/prev_d) * x^shift * prev_sigma
    std::vector<int> new_sigma = sigma;
    const int coef = GfMul(d, GfInv(prev_discrep));
    if (static_cast<int>(new_sigma.size()) < static_cast<int>(prev_sigma.size()) + shift) {
      new_sigma.resize(prev_sigma.size() + static_cast<size_t>(shift), 0);
    }
    for (size_t i = 0; i < prev_sigma.size(); ++i) {
      new_sigma[i + static_cast<size_t>(shift)] ^= GfMul(coef, prev_sigma[i]);
    }
    if (2 * l <= step - 1) {
      prev_sigma = sigma;
      prev_discrep = d;
      l = step - l;
      shift = 1;
    } else {
      ++shift;
    }
    sigma = std::move(new_sigma);
  }

  const int degree = static_cast<int>(sigma.size()) - 1;
  if (l > t_ || degree > t_) {
    return result;  // more errors than the code can locate
  }

  // Chien search: roots of sigma give error positions. sigma(alpha^-i) == 0
  // means an error at position i.
  std::vector<int> error_positions;
  for (int i = 0; i < n_; ++i) {
    int value = 0;
    for (size_t j = 0; j < sigma.size(); ++j) {
      if (sigma[j] != 0) {
        value ^= GfMul(sigma[j], GfPow(alpha_to_[1],
                                       static_cast<int>((static_cast<int64_t>(n_ - i) *
                                                         static_cast<int64_t>(j)) %
                                                        n_)));
      }
    }
    if (value == 0) {
      error_positions.push_back(i);
    }
  }
  if (static_cast<int>(error_positions.size()) != l) {
    return result;  // locator degree and root count disagree -> uncorrectable
  }

  std::vector<uint8_t> corrected = codeword_bits;
  for (int pos : error_positions) {
    corrected[static_cast<size_t>(pos)] ^= 1;
  }
  // Verify: recompute one syndrome as a cheap consistency check.
  {
    int s1 = 0;
    for (int i = 0; i < n_; ++i) {
      if (corrected[static_cast<size_t>(i)]) {
        s1 ^= GfPow(alpha_to_[1], i % n_);
      }
    }
    if (s1 != 0) {
      return result;
    }
  }
  result.ok = true;
  result.errors_corrected = static_cast<int>(error_positions.size());
  result.data_bits = extract_data(corrected);
  return result;
}

}  // namespace sos

// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Error-correction scheme model.
//
// SOS splits the device into a SYS partition stored "conservatively with
// additional redundancy" and a SPARE partition stored "with weak protection
// (e.g., no ECC)" (paper §4.2). This module models ECC at the granularity
// real controllers use -- a page is a sequence of codewords, each correcting
// up to `t` bit errors -- and provides the analytical page-failure math used
// by the retirement policies and the lifetime benchmarks.
//
// The decode path is a *capability model*: we do not run a real BCH decoder
// over megabytes of payload (that would dominate simulation time for zero
// fidelity gain); instead the sampled raw error count of a page is split
// across its codewords and each codeword succeeds iff its share is <= t.
// Pages ECC cannot decode are rebuilt, where the pool has parity, by the
// FTL's intra-block XOR stripe (Ftl::AppendPage/WriteParityPage), the one
// parity mechanism.

#ifndef SOS_SRC_ECC_ECC_SCHEME_H_
#define SOS_SRC_ECC_ECC_SCHEME_H_

#include <cstdint>

#include "src/common/units.h"

namespace sos {

// Correction strength presets used by the SOS partitions and baselines.
enum class EccPreset {
  kNone,      // approximate storage: raw cells, errors flow to the app
  kWeakBch,   // t=8  per 1KiB codeword: early-TLC-grade protection
  kBch,       // t=40 per 1KiB codeword: standard QLC-grade BCH
  kLdpc,      // t=72 per 1KiB codeword: LDPC-class, dense-flash grade
};

struct EccScheme {
  EccPreset preset = EccPreset::kBch;
  uint32_t codeword_bytes = kKiB;  // data bytes protected per codeword
  uint32_t correctable_bits = 40;  // t: max raw bit errors corrected
  double parity_overhead = 0.10;   // fraction of extra cells for parity

  static EccScheme FromPreset(EccPreset preset);

  // True when `raw_errors` bit errors decode however they fall across the
  // codewords: no codeword can then hold more than t of them.
  bool CorrectsAll(uint64_t raw_errors) const { return raw_errors <= correctable_bits; }

  // Codewords needed to protect a page of `page_bytes` (ceil division).
  uint32_t CodewordsPerPage(uint32_t page_bytes) const;

  // Probability a single codeword fails to decode at raw bit error rate
  // `rber` (binomial tail beyond `correctable_bits`).
  double CodewordFailureProb(double rber) const;

  // Probability at least one codeword of a page fails at `rber`.
  double PageFailureProb(double rber, uint32_t page_bytes) const;

  // Highest RBER this scheme sustains while keeping the page failure
  // probability below `target` (bisection; monotone in rber).
  double MaxCorrectableRber(uint32_t page_bytes, double target = 1e-6) const;
};

// Outcome of decoding one page.
struct DecodeOutcome {
  bool corrected = false;       // every codeword decoded
  uint64_t residual_errors = 0; // raw bit errors leaking to the payload
  uint32_t failed_codewords = 0;
};

// Splits `raw_errors` across the page's codewords (deterministically, from
// `stream_seed`) and decodes each. With EccPreset::kNone, decoding never
// corrects anything and all errors are residual. When
// scheme.CorrectsAll(raw_errors) the page decodes whatever `stream_seed` is,
// so a caller may skip deriving it.
DecodeOutcome DecodePage(const EccScheme& scheme, uint32_t page_bytes, uint64_t raw_errors,
                         uint64_t stream_seed);

}  // namespace sos

#endif  // SOS_SRC_ECC_ECC_SCHEME_H_

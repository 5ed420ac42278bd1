// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Fleet report rendering. bench_fleet renders both a single-process run and
// a `--merge` of shard partials through it, so the two emit byte-identical
// text and metrics JSON for the same population.

#ifndef SOS_SRC_FLEET_REPORT_H_
#define SOS_SRC_FLEET_REPORT_H_

#include <string>

#include "src/fleet/partial.h"

namespace sos::fleet {

// Human-readable fleet report: population table per archetype, outcome
// distributions, and the carbon ledger with the paper's people-equivalent
// framing. Deterministic text -- every number renders from the ledger's
// exact integers.
std::string FleetReport(const FleetPartial& partial);

// The metrics JSON document for --metrics-out / the golden diff: the ledger
// under "fleet." plus the population echo under "fleet.config.".
std::string FleetMetricsJson(const FleetPartial& partial);

}  // namespace sos::fleet

#endif  // SOS_SRC_FLEET_REPORT_H_

// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/fleet/partial.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <string_view>
#include <type_traits>

#include "src/obs/metrics.h"

namespace sos::fleet {

namespace {

// Every field after schema_version, in file order: the header, then the
// ledger's cells (FleetLedger::ForEachCell is the ledger schema).
template <typename Visit, typename Partial>
void ForEachField(Visit&& visit, Partial& partial) {
  visit("fleet_seed", partial.fleet_seed);
  visit("fleet_devices", partial.fleet_devices);
  visit("mix", partial.mix);
  visit("shard_index", partial.shard_index);
  visit("shard_count", partial.shard_count);
  visit("shard_devices", partial.shard_devices);
  FleetLedger::ForEachCell(visit, partial.ledger);
}

// --- Writer ------------------------------------------------------------------

void AppendValue(std::string& out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void AppendValue(std::string& out, int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

void AppendValue(std::string& out, const std::string& v) {
  out += '"';
  obs::AppendJsonEscaped(out, v);
  out += '"';
}

void AppendValue(std::string& out, const std::vector<uint64_t>& v) {
  out += '[';
  for (size_t i = 0; i < v.size(); ++i) {
    out += i > 0 ? ", " : "";
    AppendValue(out, v[i]);
  }
  out += ']';
}

void AppendValue(std::string& out, const FleetHistogram& h) {
  const char* separator = "{";
  FleetHistogram::ForEachPart(
      [&](const std::string& key, const auto& part) {
        out += separator;
        AppendValue(out, key);
        out += ": ";
        AppendValue(out, part);
        separator = ", ";
      },
      h);
  out += '}';
}

// --- Reader ------------------------------------------------------------------

// Strict reader for the token stream PartialToJson writes: the same keys in
// the same order, integers that fit their cell's type, and nothing else;
// only whitespace between tokens is free. Errors are sticky -- after the
// first, every call is a no-op -- so a walk reads straight through and the
// caller checks status() once.
class Cursor {
 public:
  explicit Cursor(std::string_view input) : input_(input) {}

  const Status& status() const { return status_; }

  void Expect(char token) {
    SkipSpace();
    if (pos_ < input_.size() && input_[pos_] == token) {
      ++pos_;
    } else {
      Fail(std::string("expected '") + token + "'");
    }
  }

  void Key(const std::string& key) {
    key_ = key;
    std::string found;
    Take(found);
    if (status_.ok() && found != key) {
      Fail("expected key");
    }
    Expect(':');
  }

  void Take(uint64_t& v) { TakeInteger(v); }
  void Take(int64_t& v) { TakeInteger(v); }

  // Reads exactly v.size() elements: the shape comes from the caller.
  void Take(std::vector<uint64_t>& v) {
    Expect('[');
    for (size_t i = 0; i < v.size(); ++i) {
      if (i > 0) {
        Expect(',');
      }
      Take(v[i]);
    }
    Expect(']');
  }

  void Take(FleetHistogram& h) {
    char separator = '{';
    FleetHistogram::ForEachPart(
        [&](const std::string& key, auto& part) {
          Expect(separator);
          Key(key);
          Take(part);
          separator = ',';
        },
        h);
    Expect('}');
  }

  // A string as obs::AppendJsonEscaped writes it; the partial's only string
  // is the mix echo, so \" and \\ are the only escapes accepted.
  void Take(std::string& v) {
    Expect('"');
    v.clear();
    while (status_.ok() && pos_ < input_.size() && input_[pos_] != '"') {
      if (input_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= input_.size() || (input_[pos_] != '"' && input_[pos_] != '\\')) {
          Fail("unsupported escape");
          return;
        }
      }
      v += input_[pos_++];
    }
    Expect('"');
  }

  void End() {
    SkipSpace();
    if (status_.ok() && pos_ != input_.size()) {
      Fail("trailing characters");
    }
  }

 private:
  void SkipSpace() {
    while (pos_ < input_.size() && (input_[pos_] == ' ' || input_[pos_] == '\n' ||
                                    input_[pos_] == '\t' || input_[pos_] == '\r')) {
      ++pos_;
    }
  }

  // std::from_chars refuses a sign on unsigned types and reports overflow,
  // so a value outside the cell's type is an error, not a saturated read.
  template <typename Int>
  void TakeInteger(Int& v) {
    SkipSpace();
    if (!status_.ok()) {
      return;
    }
    const char* first = input_.data() + pos_;
    const auto [last, ec] = std::from_chars(first, input_.data() + input_.size(), v);
    if (ec == std::errc::result_out_of_range) {
      Fail("integer out of range");
    } else if (ec != std::errc()) {
      Fail("expected an integer");
    }
    pos_ += static_cast<size_t>(last - first);
  }

  void Fail(const std::string& what) {
    if (!status_.ok()) {
      return;
    }
    char at[32];
    std::snprintf(at, sizeof(at), " at byte %zu", pos_);
    const std::string context = key_.empty() ? "" : " (last key '" + key_ + "')";
    status_ = Status(StatusCode::kInvalidArgument, "partial json: " + what + at + context);
  }

  std::string_view input_;
  size_t pos_ = 0;
  std::string key_;  // last key read, for messages
  Status status_;
};

// True iff `parts` sum to exactly `total`, with no wrap-around.
template <typename Parts>
bool SumsTo(uint64_t total, const Parts& parts) {
  for (uint64_t part : parts) {
    if (part > total) {
      return false;
    }
    total -= part;
  }
  return total == 0;
}

// The count identities Fold and Merge preserve. A partial that breaks one
// was edited or damaged, and merging it would corrupt the fleet totals.
// The ledger's device count is the sum of its (archetype, kind) cells, so
// the identities left to check tie it to the header and the histograms.
Status CheckCounts(const FleetPartial& partial) {
  const FleetLedger& ledger = partial.ledger;
  const uint64_t devices = ledger.devices();
  std::string broken = partial.shard_devices != devices ? "shard_devices" : "";
  FleetLedger::ForEachCell(
      [&](const std::string& key, const auto& cell) {
        if constexpr (std::is_same_v<decltype(cell), const FleetHistogram&>) {
          if (broken.empty() && (cell.count() != devices || !SumsTo(devices, cell.buckets()))) {
            broken = key;
          }
        }
      },
      ledger);
  if (!broken.empty()) {
    return Status(StatusCode::kInvalidArgument,
                  "partial json: '" + broken + "' does not match devices");
  }
  return Status::Ok();
}

}  // namespace

std::string PartialToJson(const FleetPartial& partial) {
  std::string out = "{\n  \"fleet_partial\": {\n    \"schema_version\": ";
  AppendValue(out, partial.schema_version);
  ForEachField(
      [&](const std::string& key, const auto& value) {
        out += ",\n    ";
        AppendValue(out, key);
        out += ": ";
        AppendValue(out, value);
      },
      partial);
  out += "\n  }\n}\n";
  return out;
}

Result<FleetPartial> ParsePartialJson(const std::string& json) {
  FleetPartial partial;
  Cursor in(json);
  in.Expect('{');
  in.Key("fleet_partial");
  in.Expect('{');
  in.Key("schema_version");
  in.Take(partial.schema_version);
  if (in.status().ok() && partial.schema_version != kPartialSchemaVersion) {
    return Status(StatusCode::kInvalidArgument,
                  "partial json: schema version " + std::to_string(partial.schema_version) +
                      " is not supported (this build reads version " +
                      std::to_string(kPartialSchemaVersion) + ")");
  }
  ForEachField(
      [&](const std::string& key, auto& value) {
        in.Expect(',');
        in.Key(key);
        in.Take(value);
      },
      partial);
  in.Expect('}');
  in.Expect('}');
  in.End();
  if (!in.status().ok()) {
    return in.status();
  }
  if (Status status = CheckCounts(partial); !status.ok()) {
    return status;
  }
  return partial;
}

Result<FleetPartial> ReadPartialFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status(StatusCode::kUnavailable, "cannot open " + path);
  }
  std::string content;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status(StatusCode::kUnavailable, "read error on " + path);
  }
  Result<FleetPartial> partial = ParsePartialJson(content);
  if (!partial.ok()) {
    return Status(partial.status().code(), path + ": " + partial.status().message());
  }
  return partial;
}

Result<FleetPartial> MergePartials(std::vector<FleetPartial> partials) {
  if (partials.empty()) {
    return Status(StatusCode::kInvalidArgument, "merge: no partials given");
  }
  const FleetPartial& first = partials.front();
  const uint64_t shard_count = first.shard_count;
  if (partials.size() != shard_count) {
    return Status(StatusCode::kInvalidArgument, "merge: shard set incomplete or oversized");
  }
  std::vector<bool> seen(shard_count, false);
  for (const FleetPartial& p : partials) {
    if (p.fleet_seed != first.fleet_seed || p.fleet_devices != first.fleet_devices ||
        p.mix != first.mix || p.shard_count != shard_count) {
      return Status(StatusCode::kInvalidArgument,
                    "merge: partials describe different populations");
    }
    if (p.shard_index >= shard_count) {
      return Status(StatusCode::kInvalidArgument, "merge: shard index out of range");
    }
    if (seen[p.shard_index]) {
      return Status(StatusCode::kInvalidArgument, "merge: duplicate shard");
    }
    seen[p.shard_index] = true;
  }

  // Canonical order (the ledger algebra is order-insensitive; sorting keeps
  // even hypothetical future non-commutative fields honest).
  std::vector<const FleetPartial*> ordered(shard_count, nullptr);
  for (const FleetPartial& p : partials) {
    ordered[p.shard_index] = &p;
  }

  FleetPartial merged;
  merged.fleet_seed = first.fleet_seed;
  merged.fleet_devices = first.fleet_devices;
  merged.mix = first.mix;
  merged.shard_index = 0;
  merged.shard_count = 1;
  for (const FleetPartial* p : ordered) {
    merged.shard_devices += p->shard_devices;
    Status status = merged.ledger.Merge(p->ledger);
    if (!status.ok()) {
      return status;
    }
  }
  if (merged.shard_devices != merged.fleet_devices) {
    return Status(StatusCode::kInvalidArgument,
                  "merge: shard device counts do not cover the fleet");
  }
  return merged;
}

}  // namespace sos::fleet

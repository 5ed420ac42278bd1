// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/fleet/partial.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/obs/metrics.h"

namespace sos::fleet {

// Assembles a ledger from parsed parts. Lives here (not in ledger.cc) so the
// private-field assignment stays next to the only reader that needs it.
struct LedgerCodec {
  struct Totals {
    uint64_t autodelete_files = 0;
    uint64_t autodelete_bytes = 0;
    uint64_t create_failures = 0;
    uint64_t host_bytes = 0;
    uint64_t daemon_activations = 0;
    uint64_t trace_dropped = 0;
  };

  static FleetLedger Build(uint64_t devices,
                           const std::array<uint64_t, kNumArchetypes>& archetype_devices,
                           uint64_t sos_devices, uint64_t baseline_devices,
                           FleetHistogram lifetime, FleetHistogram capacity,
                           FleetHistogram autodelete, FleetHistogram pec,
                           const CarbonAccumulator& carbon,
                           const std::array<CarbonAccumulator, kNumArchetypes>& archetype_carbon,
                           const Totals& totals) {
    FleetLedger ledger;
    ledger.devices_ = devices;
    ledger.archetype_devices_ = archetype_devices;
    ledger.sos_devices_ = sos_devices;
    ledger.baseline_devices_ = baseline_devices;
    ledger.lifetime_years_ = std::move(lifetime);
    ledger.capacity_retained_ = std::move(capacity);
    ledger.autodelete_files_ = std::move(autodelete);
    ledger.pec_variance_ = std::move(pec);
    ledger.carbon_ = carbon;
    ledger.archetype_carbon_ = archetype_carbon;
    ledger.autodelete_files_total_ = totals.autodelete_files;
    ledger.autodelete_bytes_total_ = totals.autodelete_bytes;
    ledger.create_failures_total_ = totals.create_failures;
    ledger.host_bytes_total_ = totals.host_bytes;
    ledger.daemon_activations_total_ = totals.daemon_activations;
    ledger.trace_dropped_total_ = totals.trace_dropped;
    return ledger;
  }
};

namespace {

// --- Writer ------------------------------------------------------------------

void AppendU64(std::string& out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void AppendI64(std::string& out, int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

void AppendHistogram(std::string& out, const char* name, const FleetHistogram& h) {
  out += "      \"";
  out += name;
  out += "\": {\"count\": ";
  AppendU64(out, h.count());
  out += ", \"micro_sum\": ";
  AppendI64(out, h.micro_sum());
  out += ", \"buckets\": [";
  for (size_t i = 0; i < h.buckets().size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    AppendU64(out, h.buckets()[i]);
  }
  out += "]}";
}

void AppendCarbon(std::string& out, const CarbonAccumulator& c) {
  out += "[";
  AppendI64(out, c.actual_micro_kg);
  out += ", ";
  AppendI64(out, c.tlc_counterfactual_micro_kg);
  out += ", ";
  AppendI64(out, c.capacity_micro_gb);
  out += "]";
}

// --- Minimal JSON reader -----------------------------------------------------
//
// Parses exactly the subset PartialToJson emits: objects with string keys,
// arrays, signed integers, and strings with \"/\\ escapes. Object members
// are kept as an ordered vector (no hash iteration; soslint R1) and looked
// up by key.

struct JsonValue {
  enum class Kind : uint8_t { kObject, kArray, kNumber, kString };
  Kind kind = Kind::kNumber;
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject
  std::vector<JsonValue> elements;                         // kArray
  std::string text;                                        // kNumber / kString

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : members) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& input) : input_(input) {}

  Result<JsonValue> Parse() {
    Result<JsonValue> value = ParseValue();
    if (!value.ok()) {
      return value;
    }
    SkipSpace();
    if (pos_ != input_.size()) {
      return Error("trailing characters");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " at byte %zu", pos_);
    return Status(StatusCode::kInvalidArgument, "partial json: " + what + buf);
  }

  void SkipSpace() {
    while (pos_ < input_.size() &&
           (input_[pos_] == ' ' || input_[pos_] == '\n' || input_[pos_] == '\t' ||
            input_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < input_.size() && input_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    SkipSpace();
    if (pos_ >= input_.size()) {
      return Error("unexpected end of input");
    }
    const char c = input_[pos_];
    if (c == '{') {
      return ParseObject();
    }
    if (c == '[') {
      return ParseArray();
    }
    if (c == '"') {
      return ParseString();
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      return ParseNumber();
    }
    return Error(std::string("unexpected character '") + c + "'");
  }

  Result<JsonValue> ParseObject() {
    ++pos_;  // '{'
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    if (Consume('}')) {
      return value;
    }
    while (true) {
      SkipSpace();
      Result<JsonValue> key = ParseString();
      if (!key.ok()) {
        return key;
      }
      if (!Consume(':')) {
        return Error("expected ':'");
      }
      Result<JsonValue> member = ParseValue();
      if (!member.ok()) {
        return member;
      }
      value.members.emplace_back(key.value().text, std::move(member.value()));
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return value;
      }
      return Error("expected ',' or '}'");
    }
  }

  Result<JsonValue> ParseArray() {
    ++pos_;  // '['
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    if (Consume(']')) {
      return value;
    }
    while (true) {
      Result<JsonValue> element = ParseValue();
      if (!element.ok()) {
        return element;
      }
      value.elements.push_back(std::move(element.value()));
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return value;
      }
      return Error("expected ',' or ']'");
    }
  }

  Result<JsonValue> ParseString() {
    SkipSpace();
    if (pos_ >= input_.size() || input_[pos_] != '"') {
      return Error("expected string");
    }
    ++pos_;
    JsonValue value;
    value.kind = JsonValue::Kind::kString;
    while (pos_ < input_.size() && input_[pos_] != '"') {
      char c = input_[pos_];
      if (c == '\\') {
        ++pos_;
        if (pos_ >= input_.size()) {
          return Error("dangling escape");
        }
        c = input_[pos_];
        if (c != '"' && c != '\\') {
          return Error("unsupported escape");
        }
      }
      value.text += c;
      ++pos_;
    }
    if (pos_ >= input_.size()) {
      return Error("unterminated string");
    }
    ++pos_;  // closing quote
    return value;
  }

  Result<JsonValue> ParseNumber() {
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    if (input_[pos_] == '-') {
      value.text += '-';
      ++pos_;
    }
    while (pos_ < input_.size() && input_[pos_] >= '0' && input_[pos_] <= '9') {
      value.text += input_[pos_];
      ++pos_;
    }
    if (value.text.empty() || value.text == "-") {
      return Error("malformed number");
    }
    return value;
  }

  const std::string& input_;
  size_t pos_ = 0;
};

Result<uint64_t> GetU64(const JsonValue& object, const std::string& key) {
  const JsonValue* v = object.Find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber || v->text.empty() ||
      v->text[0] == '-') {
    return Status(StatusCode::kInvalidArgument, "partial json: missing/invalid u64 '" + key + "'");
  }
  return static_cast<uint64_t>(std::strtoull(v->text.c_str(), nullptr, 10));
}

Result<int64_t> GetI64(const JsonValue& object, const std::string& key) {
  const JsonValue* v = object.Find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) {
    return Status(StatusCode::kInvalidArgument, "partial json: missing/invalid i64 '" + key + "'");
  }
  return static_cast<int64_t>(std::strtoll(v->text.c_str(), nullptr, 10));
}

Result<std::string> GetString(const JsonValue& object, const std::string& key) {
  const JsonValue* v = object.Find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kString) {
    return Status(StatusCode::kInvalidArgument, "partial json: missing string '" + key + "'");
  }
  return v->text;
}

Result<FleetHistogram> ParseHistogram(const JsonValue& histograms, const std::string& name,
                                      const FleetHistogram& shape) {
  const JsonValue* v = histograms.Find(name);
  if (v == nullptr || v->kind != JsonValue::Kind::kObject) {
    return Status(StatusCode::kInvalidArgument, "partial json: missing histogram '" + name + "'");
  }
  Result<uint64_t> count = GetU64(*v, "count");
  if (!count.ok()) {
    return count.status();
  }
  Result<int64_t> micro_sum = GetI64(*v, "micro_sum");
  if (!micro_sum.ok()) {
    return micro_sum.status();
  }
  const JsonValue* buckets = v->Find("buckets");
  if (buckets == nullptr || buckets->kind != JsonValue::Kind::kArray ||
      buckets->elements.size() != shape.bounds().size() + 1) {
    return Status(StatusCode::kInvalidArgument,
                  "partial json: histogram '" + name + "' has wrong bucket count");
  }
  std::vector<uint64_t> counts;
  counts.reserve(buckets->elements.size());
  for (const JsonValue& e : buckets->elements) {
    if (e.kind != JsonValue::Kind::kNumber || e.text.empty() || e.text[0] == '-') {
      return Status(StatusCode::kInvalidArgument,
                    "partial json: histogram '" + name + "' has non-u64 bucket");
    }
    counts.push_back(static_cast<uint64_t>(std::strtoull(e.text.c_str(), nullptr, 10)));
  }
  return FleetHistogram::FromParts(shape.bounds(), std::move(counts), count.value(),
                                   micro_sum.value());
}

Result<CarbonAccumulator> ParseCarbon(const JsonValue& array) {
  if (array.kind != JsonValue::Kind::kArray || array.elements.size() != 3) {
    return Status(StatusCode::kInvalidArgument, "partial json: carbon must be [a, tlc, gb]");
  }
  CarbonAccumulator acc;
  int64_t* fields[3] = {&acc.actual_micro_kg, &acc.tlc_counterfactual_micro_kg,
                        &acc.capacity_micro_gb};
  for (size_t i = 0; i < 3; ++i) {
    const JsonValue& e = array.elements[i];
    if (e.kind != JsonValue::Kind::kNumber) {
      return Status(StatusCode::kInvalidArgument, "partial json: carbon entry not a number");
    }
    *fields[i] = static_cast<int64_t>(std::strtoll(e.text.c_str(), nullptr, 10));
  }
  return acc;
}

}  // namespace

std::string PartialToJson(const FleetPartial& partial) {
  const FleetLedger& ledger = partial.ledger;
  std::string out = "{\n  \"fleet_partial\": {\n";
  out += "    \"schema_version\": ";
  AppendU64(out, partial.schema_version);
  out += ",\n    \"fleet_seed\": ";
  AppendU64(out, partial.fleet_seed);
  out += ",\n    \"fleet_devices\": ";
  AppendU64(out, partial.fleet_devices);
  out += ",\n    \"mix\": \"";
  obs::AppendJsonEscaped(out, partial.mix);
  out += "\",\n    \"shard_index\": ";
  AppendU64(out, partial.shard_index);
  out += ",\n    \"shard_count\": ";
  AppendU64(out, partial.shard_count);
  out += ",\n    \"shard_devices\": ";
  AppendU64(out, partial.shard_devices);
  out += ",\n    \"devices\": ";
  AppendU64(out, ledger.devices());
  out += ",\n    \"archetype_devices\": [";
  for (size_t i = 0; i < kNumArchetypes; ++i) {
    if (i > 0) {
      out += ", ";
    }
    AppendU64(out, ledger.archetype_devices()[i]);
  }
  out += "],\n    \"sos_devices\": ";
  AppendU64(out, ledger.sos_devices());
  out += ",\n    \"baseline_devices\": ";
  AppendU64(out, ledger.baseline_devices());
  out += ",\n    \"histograms\": {\n";
  AppendHistogram(out, "lifetime_years", ledger.lifetime_years());
  out += ",\n";
  AppendHistogram(out, "capacity_retained", ledger.capacity_retained());
  out += ",\n";
  AppendHistogram(out, "autodelete_files", ledger.autodelete_files());
  out += ",\n";
  AppendHistogram(out, "pec_variance", ledger.pec_variance());
  out += "\n    },\n    \"carbon\": ";
  AppendCarbon(out, ledger.carbon());
  out += ",\n    \"archetype_carbon\": [";
  for (size_t i = 0; i < kNumArchetypes; ++i) {
    if (i > 0) {
      out += ", ";
    }
    AppendCarbon(out, ledger.archetype_carbon()[i]);
  }
  out += "],\n    \"totals\": [";
  AppendU64(out, ledger.autodelete_files_total());
  out += ", ";
  AppendU64(out, ledger.autodelete_bytes_total());
  out += ", ";
  AppendU64(out, ledger.create_failures_total());
  out += ", ";
  AppendU64(out, ledger.host_bytes_total());
  out += ", ";
  AppendU64(out, ledger.daemon_activations_total());
  out += ", ";
  AppendU64(out, ledger.trace_dropped_total());
  out += "]\n  }\n}\n";
  return out;
}

Result<FleetPartial> ParsePartialJson(const std::string& json) {
  Result<JsonValue> parsed = JsonParser(json).Parse();
  if (!parsed.ok()) {
    return parsed.status();
  }
  const JsonValue* root = parsed.value().Find("fleet_partial");
  if (root == nullptr || root->kind != JsonValue::Kind::kObject) {
    return Status(StatusCode::kInvalidArgument, "partial json: missing 'fleet_partial' object");
  }

  FleetPartial partial;
  struct U64Field {
    const char* key;
    uint64_t* dst;
  };
  const U64Field header[] = {
      {"schema_version", &partial.schema_version},
      {"fleet_seed", &partial.fleet_seed},
      {"fleet_devices", &partial.fleet_devices},
      {"shard_index", &partial.shard_index},
      {"shard_count", &partial.shard_count},
      {"shard_devices", &partial.shard_devices},
  };
  for (const U64Field& field : header) {
    Result<uint64_t> value = GetU64(*root, field.key);
    if (!value.ok()) {
      return value.status();
    }
    *field.dst = value.value();
  }
  if (partial.schema_version != kPartialSchemaVersion) {
    return Status(StatusCode::kInvalidArgument, "partial json: unsupported schema version");
  }
  Result<std::string> mix = GetString(*root, "mix");
  if (!mix.ok()) {
    return mix.status();
  }
  partial.mix = mix.value();

  Result<uint64_t> devices = GetU64(*root, "devices");
  if (!devices.ok()) {
    return devices.status();
  }
  const JsonValue* arch_devices = root->Find("archetype_devices");
  if (arch_devices == nullptr || arch_devices->kind != JsonValue::Kind::kArray ||
      arch_devices->elements.size() != kNumArchetypes) {
    return Status(StatusCode::kInvalidArgument, "partial json: bad archetype_devices");
  }
  std::array<uint64_t, kNumArchetypes> archetype_devices = {};
  for (size_t i = 0; i < kNumArchetypes; ++i) {
    const JsonValue& e = arch_devices->elements[i];
    if (e.kind != JsonValue::Kind::kNumber || e.text.empty() || e.text[0] == '-') {
      return Status(StatusCode::kInvalidArgument, "partial json: bad archetype_devices entry");
    }
    archetype_devices[i] = static_cast<uint64_t>(std::strtoull(e.text.c_str(), nullptr, 10));
  }
  Result<uint64_t> sos_devices = GetU64(*root, "sos_devices");
  if (!sos_devices.ok()) {
    return sos_devices.status();
  }
  Result<uint64_t> baseline_devices = GetU64(*root, "baseline_devices");
  if (!baseline_devices.ok()) {
    return baseline_devices.status();
  }

  const JsonValue* histograms = root->Find("histograms");
  if (histograms == nullptr || histograms->kind != JsonValue::Kind::kObject) {
    return Status(StatusCode::kInvalidArgument, "partial json: missing 'histograms'");
  }
  const FleetLedger shape;  // supplies the fixed bucket bounds
  Result<FleetHistogram> lifetime =
      ParseHistogram(*histograms, "lifetime_years", shape.lifetime_years());
  if (!lifetime.ok()) {
    return lifetime.status();
  }
  Result<FleetHistogram> capacity =
      ParseHistogram(*histograms, "capacity_retained", shape.capacity_retained());
  if (!capacity.ok()) {
    return capacity.status();
  }
  Result<FleetHistogram> autodelete =
      ParseHistogram(*histograms, "autodelete_files", shape.autodelete_files());
  if (!autodelete.ok()) {
    return autodelete.status();
  }
  Result<FleetHistogram> pec = ParseHistogram(*histograms, "pec_variance", shape.pec_variance());
  if (!pec.ok()) {
    return pec.status();
  }

  const JsonValue* carbon_value = root->Find("carbon");
  if (carbon_value == nullptr) {
    return Status(StatusCode::kInvalidArgument, "partial json: missing 'carbon'");
  }
  Result<CarbonAccumulator> carbon = ParseCarbon(*carbon_value);
  if (!carbon.ok()) {
    return carbon.status();
  }
  const JsonValue* arch_carbon_value = root->Find("archetype_carbon");
  if (arch_carbon_value == nullptr || arch_carbon_value->kind != JsonValue::Kind::kArray ||
      arch_carbon_value->elements.size() != kNumArchetypes) {
    return Status(StatusCode::kInvalidArgument, "partial json: bad archetype_carbon");
  }
  std::array<CarbonAccumulator, kNumArchetypes> archetype_carbon = {};
  for (size_t i = 0; i < kNumArchetypes; ++i) {
    Result<CarbonAccumulator> acc = ParseCarbon(arch_carbon_value->elements[i]);
    if (!acc.ok()) {
      return acc.status();
    }
    archetype_carbon[i] = acc.value();
  }

  const JsonValue* totals_value = root->Find("totals");
  if (totals_value == nullptr || totals_value->kind != JsonValue::Kind::kArray ||
      totals_value->elements.size() != 6) {
    return Status(StatusCode::kInvalidArgument, "partial json: bad 'totals'");
  }
  LedgerCodec::Totals totals;
  uint64_t* total_fields[6] = {&totals.autodelete_files,   &totals.autodelete_bytes,
                               &totals.create_failures,    &totals.host_bytes,
                               &totals.daemon_activations, &totals.trace_dropped};
  for (size_t i = 0; i < 6; ++i) {
    const JsonValue& e = totals_value->elements[i];
    if (e.kind != JsonValue::Kind::kNumber || e.text.empty() || e.text[0] == '-') {
      return Status(StatusCode::kInvalidArgument, "partial json: bad totals entry");
    }
    *total_fields[i] = static_cast<uint64_t>(std::strtoull(e.text.c_str(), nullptr, 10));
  }

  partial.ledger = LedgerCodec::Build(
      devices.value(), archetype_devices, sos_devices.value(), baseline_devices.value(),
      std::move(lifetime.value()), std::move(capacity.value()), std::move(autodelete.value()),
      std::move(pec.value()), carbon.value(), archetype_carbon, totals);
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

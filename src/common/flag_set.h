// Copyright (c) 2026 The SOS Authors. MIT License.
//
// FlagSet: declarative, strict command-line parsing for the benches and
// tools. Programs declare the flags they accept (`flags.Size("jobs", ...)`),
// then Parse() validates strictly -- unknown flags and malformed values are
// hard errors with usage text, never silent no-ops.

#ifndef SOS_SRC_COMMON_FLAG_SET_H_
#define SOS_SRC_COMMON_FLAG_SET_H_

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace sos {

// Parses an exact non-negative decimal into `out`. Empty strings, sign
// prefixes, leading whitespace, trailing characters ("4x") and values above
// 2^64 - 1 are rejected, never truncated or clamped; the error message
// starts with `what`.
[[nodiscard]] inline Status ParseDecimalU64(std::string_view what, std::string_view text,
                                            uint64_t* out) {
  const std::string buf(text);
  // strtoull silently wraps negatives and skips leading whitespace; demand
  // a bare decimal so "--jobs=-1" and "--jobs= 4" fail instead of lying.
  if (buf.empty() || buf[0] < '0' || buf[0] > '9') {
    return Status(StatusCode::kInvalidArgument,
                  std::string(what) + ": '" + buf + "' is not a non-negative integer");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(buf.c_str(), &end, 10);
  if (errno == ERANGE) {
    return Status(StatusCode::kInvalidArgument,
                  std::string(what) + ": '" + buf + "' is out of range");
  }
  if (end != buf.c_str() + buf.size()) {
    return Status(StatusCode::kInvalidArgument,
                  std::string(what) + ": '" + buf + "' has trailing characters");
  }
  *out = value;
  return Status::Ok();
}

// Declare-then-parse flag registry. Each declaration returns a stable pointer
// to the parsed value (valid for the FlagSet's lifetime); Parse() fills the
// values in and rejects anything not declared:
//
//   FlagSet flags("bench_lifetime_gap", "E4: the wear gap");
//   size_t* jobs = flags.Size("jobs", 1, "parallel sims (0 = hw concurrency)");
//   std::string* out = flags.Path("metrics-out", "write metrics JSON here");
//   flags.ParseOrDie(argc, argv);
//
// Accepted syntax: --name=value and --name value. --help prints usage and
// exits 0. Numeric values must be exact non-negative decimals: empty strings,
// trailing garbage ("4x"), sign prefixes and overflow are all rejected --
// never truncated or defaulted.
class FlagSet {
 public:
  FlagSet(std::string program, std::string description)
      : program_(std::move(program)), description_(std::move(description)) {}

  FlagSet(const FlagSet&) = delete;
  FlagSet& operator=(const FlagSet&) = delete;

  // A size_t flag (worker counts, iteration counts).
  size_t* Size(const std::string& name, size_t default_value, const std::string& help) {
    Flag& flag = Declare(name, Kind::kSize, help, FormatU64(default_value));
    flag.size_value = default_value;
    return &flag.size_value;
  }

  // A uint64_t flag (seeds, byte counts).
  uint64_t* U64(const std::string& name, uint64_t default_value, const std::string& help) {
    Flag& flag = Declare(name, Kind::kU64, help, FormatU64(default_value));
    flag.u64_value = default_value;
    return &flag.u64_value;
  }

  // A file-path flag; empty (the default) means "feature off".
  std::string* Path(const std::string& name, const std::string& help) {
    Flag& flag = Declare(name, Kind::kPath, help, "unset");
    return &flag.path_value;
  }

  // An enum-valued flag: the parsed value is always one of `choices`, spelled
  // exactly. Anything else -- including case variants and abbreviations -- is
  // a hard parse error that names the accepted set. The default must itself
  // be a choice (a bench bug otherwise, caught at declaration time).
  std::string* Enum(const std::string& name, const std::string& default_value,
                    std::vector<std::string> choices, const std::string& help) {
    bool default_ok = false;
    for (const std::string& choice : choices) {
      default_ok = default_ok || choice == default_value;
    }
    if (!default_ok) {
      std::fprintf(stderr, "FlagSet: default '%s' for --%s is not one of its choices\n",
                   default_value.c_str(), name.c_str());
      std::abort();
    }
    Flag& flag = Declare(name, Kind::kEnum, help, default_value);
    flag.choices = std::move(choices);
    flag.enum_value = default_value;
    return &flag.enum_value;
  }

  // A repeatable string-valued flag: every occurrence appends, in command-line
  // order, so `--fault=power_cut@1000 --fault=die_fail@2,d3` yields both
  // specs. Values are opaque strings here; the bench parses them (and rejects
  // malformed ones) after Parse() returns. Empty values are hard errors.
  std::vector<std::string>* StringList(const std::string& name, const std::string& help) {
    Flag& flag = Declare(name, Kind::kList, help + " (repeatable)", "none");
    return &flag.list_value;
  }

  // Strict parse. On --help: prints usage to stdout and exits 0. Returns
  // kInvalidArgument for unknown flags, missing values and malformed
  // numbers; on error the flag values are unspecified.
  [[nodiscard]] Status Parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        std::fputs(Usage().c_str(), stdout);
        std::exit(0);
      }
      if (arg.size() < 3 || arg.substr(0, 2) != "--") {
        return Status(StatusCode::kInvalidArgument,
                      "unexpected argument '" + std::string(arg) + "'");
      }
      std::string_view name = arg.substr(2);
      std::string_view value;
      bool have_value = false;
      if (const size_t eq = name.find('='); eq != std::string_view::npos) {
        value = name.substr(eq + 1);
        name = name.substr(0, eq);
        have_value = true;
      }
      Flag* flag = Find(name);
      if (flag == nullptr) {
        return Status(StatusCode::kInvalidArgument, "unknown flag --" + std::string(name));
      }
      if (!have_value) {
        if (i + 1 >= argc) {
          return Status(StatusCode::kInvalidArgument,
                        "flag --" + std::string(name) + " requires a value");
        }
        value = argv[++i];
      }
      if (Status s = Assign(*flag, value); !s.ok()) {
        return s;
      }
    }
    return Status::Ok();
  }

  // Parse() or print the error plus usage to stderr and exit 2. The right
  // call for bench main(): a typo'd sweep should fail loudly, not run with
  // defaults.
  void ParseOrDie(int argc, char** argv) {
    if (Status s = Parse(argc, argv); !s.ok()) {
      std::fprintf(stderr, "%s: %s\n\n%s", program_.c_str(), s.message().c_str(),
                   Usage().c_str());
      std::exit(2);
    }
  }

  std::string Usage() const {
    std::string out = "usage: " + program_ + " [flags]\n";
    if (!description_.empty()) {
      out += "  " + description_ + "\n";
    }
    out += "flags:\n";
    for (const Flag& flag : flags_) {
      const std::string value_text =
          flag.kind == Kind::kEnum ? JoinChoices(flag.choices) : KindName(flag.kind);
      out += "  --" + flag.name + "=<" + value_text + ">  " + flag.help +
             " (default: " + flag.default_text + ")\n";
    }
    out += "  --help  print this message and exit\n";
    return out;
  }

 private:
  enum class Kind { kSize, kU64, kPath, kList, kEnum };

  struct Flag {
    std::string name;
    Kind kind = Kind::kSize;
    std::string help;
    std::string default_text;
    size_t size_value = 0;
    uint64_t u64_value = 0;
    std::string path_value;
    std::vector<std::string> list_value;
    std::string enum_value;
    std::vector<std::string> choices;
  };

  static const char* KindName(Kind kind) {
    switch (kind) {
      case Kind::kSize:
      case Kind::kU64:
        return "N";
      case Kind::kPath:
        return "path";
      case Kind::kList:
        return "value";
      case Kind::kEnum:
        return "choice";
    }
    return "?";
  }

  static std::string JoinChoices(const std::vector<std::string>& choices) {
    std::string out;
    for (const std::string& choice : choices) {
      if (!out.empty()) {
        out += '|';
      }
      out += choice;
    }
    return out;
  }

  static std::string FormatU64(uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
    return buf;
  }

  Flag& Declare(const std::string& name, Kind kind, const std::string& help,
                std::string default_text) {
    // Duplicate declarations are a bench bug, not a user error.
    if (Find(name) != nullptr) {
      std::fprintf(stderr, "FlagSet: duplicate flag --%s\n", name.c_str());
      std::abort();
    }
    Flag flag;
    flag.name = name;
    flag.kind = kind;
    flag.help = help;
    flag.default_text = std::move(default_text);
    flags_.push_back(std::move(flag));
    return flags_.back();
  }

  Flag* Find(std::string_view name) {
    for (Flag& flag : flags_) {
      if (flag.name == name) {
        return &flag;
      }
    }
    return nullptr;
  }

  static Status Assign(Flag& flag, std::string_view value) {
    switch (flag.kind) {
      case Kind::kSize: {
        uint64_t parsed = 0;
        if (Status s = ParseDecimalU64("flag --" + flag.name, value, &parsed); !s.ok()) {
          return s;
        }
        flag.size_value = static_cast<size_t>(parsed);
        return Status::Ok();
      }
      case Kind::kU64:
        return ParseDecimalU64("flag --" + flag.name, value, &flag.u64_value);
      case Kind::kPath:
        if (value.empty()) {
          return Status(StatusCode::kInvalidArgument,
                        "flag --" + flag.name + " requires a non-empty path");
        }
        flag.path_value.assign(value.begin(), value.end());
        return Status::Ok();
      case Kind::kList:
        if (value.empty()) {
          return Status(StatusCode::kInvalidArgument,
                        "flag --" + flag.name + " requires a non-empty value");
        }
        flag.list_value.emplace_back(value.begin(), value.end());
        return Status::Ok();
      case Kind::kEnum:
        for (const std::string& choice : flag.choices) {
          if (choice == value) {
            flag.enum_value = choice;
            return Status::Ok();
          }
        }
        return Status(StatusCode::kInvalidArgument,
                      "flag --" + flag.name + ": '" + std::string(value) +
                          "' is not one of " + JoinChoices(flag.choices));
    }
    return Status(StatusCode::kInvalidArgument, "unhandled flag kind");
  }

  std::string program_;
  std::string description_;
  std::deque<Flag> flags_;  // deque: returned value pointers stay stable
};

}  // namespace sos

#endif  // SOS_SRC_COMMON_FLAG_SET_H_

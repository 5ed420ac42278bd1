// Copyright (c) 2026 The SOS Authors. MIT License.
//
// soslint driver: lints every .h/.cc/.cpp under the repo's source directories.
//
//   soslint <repo-root> [subdir ...] [options]
//
// Options:
//   --format=text|json        diagnostic output format (default text)
//   --json-out=<path>         additionally write the JSON report to a file
//                             (for CI artifacts, regardless of --format)
//
// With no subdirs, lints src/ tests/ bench/ examples/ tools/. Text output is
// one diagnostic per line in file:line: [Rn] form (sorted, so output is
// stable for CI diffing). Exit code: 0 clean, 1 violations, 2 usage/IO error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/soslint/soslint.h"

namespace {

namespace fs = std::filesystem;

bool IsSourceFile(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp";
}

std::string ReadFileOrDie(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "soslint: cannot read %s\n", path.string().c_str());
    std::exit(2);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFileOrDie(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  if (!out) {
    std::fprintf(stderr, "soslint: cannot write %s\n", path.c_str());
    std::exit(2);
  }
}

// Repo-relative path with '/' separators (header-guard names depend on it).
std::string RelativePath(const fs::path& root, const fs::path& path) {
  std::string rel = fs::relative(path, root).generic_string();
  return rel;
}

int Usage() {
  std::fprintf(stderr,
               "usage: soslint <repo-root> [subdir ...] [--format=text|json]\n"
               "               [--json-out=<path>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root_arg;
  std::vector<std::string> subdirs;
  std::string format = "text";
  std::string json_out;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const std::string& flag) {
      return arg.substr(flag.size());
    };
    if (arg.rfind("--format=", 0) == 0) {
      format = value_of("--format=");
      if (format != "text" && format != "json") {
        return Usage();
      }
    } else if (arg.rfind("--json-out=", 0) == 0) {
      json_out = value_of("--json-out=");
    } else if (arg.rfind("--", 0) == 0) {
      return Usage();
    } else if (root_arg.empty()) {
      root_arg = arg;
    } else {
      subdirs.push_back(arg);
    }
  }
  if (root_arg.empty()) {
    return Usage();
  }
  const fs::path root = root_arg;
  if (subdirs.empty()) {
    subdirs = {"src", "tests", "bench", "examples", "tools"};
  }

  std::vector<sos::lint::SourceFile> files;
  for (const std::string& subdir : subdirs) {
    const fs::path dir = root / subdir;
    if (!fs::exists(dir)) {
      continue;
    }
    if (fs::is_regular_file(dir)) {  // allow passing single files (CI diffs)
      files.push_back({RelativePath(root, dir), ReadFileOrDie(dir)});
      continue;
    }
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (entry.is_regular_file() && IsSourceFile(entry.path())) {
        files.push_back({RelativePath(root, entry.path()), ReadFileOrDie(entry.path())});
      }
    }
  }
  // Directory iteration order is filesystem-dependent; sort so pass-1 name
  // collection and diagnostics are reproducible. (Practicing what we lint.)
  std::sort(files.begin(), files.end(),
            [](const sos::lint::SourceFile& a, const sos::lint::SourceFile& b) {
              return a.path < b.path;
            });

  const std::vector<sos::lint::Diagnostic> diags = sos::lint::LintTree(files);

  const std::string json = sos::lint::FormatReportJson(diags, files.size());
  if (!json_out.empty()) {
    WriteFileOrDie(json_out, json);
  }
  if (format == "json") {
    std::fputs(json.c_str(), stdout);
  } else {
    for (const sos::lint::Diagnostic& diag : diags) {
      std::printf("%s\n", sos::lint::FormatDiagnostic(diag).c_str());
    }
  }
  if (!diags.empty()) {
    std::fprintf(stderr, "soslint: %zu violation(s) in %zu files scanned\n", diags.size(),
                 files.size());
    return 1;
  }
  std::fprintf(stderr, "soslint: clean (%zu files scanned)\n", files.size());
  return 0;
}

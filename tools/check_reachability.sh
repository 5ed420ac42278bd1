#!/usr/bin/env bash
# Fails when src/ defines a function that no entry point links.
#
# Usage: tools/check_reachability.sh <build-dir> <perfbench-build-dir>
#
# Lists the global out-of-line functions (nm type T) defined in the src/
# static libraries of <build-dir> that appear in none of the entry-point
# binaries: every bench (bench/bench_*), every example, tools/sosd/sosd and
# perfbench's sosbench. Prints each such function and exits 1 if there is
# any. There is no allow-list: a function nothing reaches is deleted or
# moved beside the test that uses it.
#
# Both trees must be built at -O0 with one section per function and section
# GC at link time, so a binary keeps exactly the functions its call graph
# reaches. -O0 matters: an optimized build inlines some reached callees
# away, and they would be reported. The Debug build type adds no -O flag of
# its own (RelWithDebInfo and Release would override the -O0):
#   flags=(-DCMAKE_BUILD_TYPE=Debug
#          -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections"
#          -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
#   cmake -B build-reach -S . -G Ninja "${flags[@]}"
#   cmake --build build-reach --target bench/all examples/all tools/sosd/all
#   cmake -B build-reach-pb -S perfbench -G Ninja "${flags[@]}"
#   cmake --build build-reach-pb --target sosbench
#   tools/check_reachability.sh build-reach build-reach-pb
set -euo pipefail
export LC_ALL=C

if [ "$#" -ne 2 ]; then
  echo "usage: $0 <build-dir> <perfbench-build-dir>" >&2
  exit 2
fi
build=$1
perfbench=$2

mapfile -t libs < <(find "$build/src" -name 'libsos_*.a' | sort)
mapfile -t bins < <({
  find "$build/bench" -maxdepth 1 -type f -executable -name 'bench_*'
  find "$build/examples" -maxdepth 1 -type f -executable
  echo "$build/tools/sosd/sosd"
  echo "$perfbench/sosbench"
} | sort)

if [ "${#libs[@]}" -eq 0 ]; then
  echo "no src/ libraries under $build/src" >&2
  exit 2
fi
for bin in "${bins[@]}"; do
  if [ ! -x "$bin" ]; then
    echo "missing entry point: $bin" >&2
    exit 2
  fi
done

# Demangled names of the global functions a file defines, one per line.
defined_functions() {
  nm -C --defined-only "$@" | sed -n 's/^[0-9a-f]* T //p' | sort -u
}

lib_functions=$(defined_functions "${libs[@]}")
unreached=$(comm -23 <(echo "$lib_functions") <(defined_functions "${bins[@]}"))
if [ -n "$unreached" ]; then
  echo "src/ functions no entry point reaches (delete them, or move them beside their tests):"
  echo "$unreached" | sed 's/^/  /'
  exit 1
fi
echo "all $(echo "$lib_functions" | wc -l) src/ functions are reached from ${#bins[@]} entry points"

# Copyright (c) 2026 The SOS Authors. MIT License.
#
# Artifact-level telemetry determinism check (ctest: bench_metrics_determinism).
#
# Runs a bench twice -- serial and with a worker pool -- and requires the
# exported metrics JSON, trace JSONL and the stdout report to be
# byte-identical. This is the end-to-end form of the repo's determinism
# contract: not just equal parsed values, but equal bytes, which is what CI
# diffs against the in-repo golden.
#
# Expects -DBENCH=<bench binary> and -DWORK_DIR=<scratch dir>.
# With -DGOLDEN=<file>, the serial arm's metrics JSON must also match that
# file byte for byte; with -DTRACE_GOLDEN_SHA256=<file>, the SHA-256 of the
# serial arm's trace JSONL must equal the hex digest that file holds (the
# trace is too large to commit). -DNO_TRACE=ON is for a bench without
# --trace-out: it then compares only the metrics JSON and stdout.

if(NOT DEFINED BENCH OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DBENCH=<bench binary> and -DWORK_DIR=<scratch dir>")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")

set(compared "metrics_serial.json|metrics_parallel.json" "stdout_serial.txt|stdout_parallel.txt")
if(NOT NO_TRACE)
  list(APPEND compared "trace_serial.jsonl|trace_parallel.jsonl")
endif()

foreach(arm IN ITEMS serial parallel)
  if(arm STREQUAL "serial")
    set(jobs 1)
  else()
    set(jobs 4)
  endif()
  set(trace_arg "--trace-out=${WORK_DIR}/trace_${arm}.jsonl")
  if(NO_TRACE)
    set(trace_arg "")
  endif()
  execute_process(
    COMMAND "${BENCH}"
      --jobs=${jobs}
      --metrics-out=${WORK_DIR}/metrics_${arm}.json
      ${trace_arg}
    OUTPUT_FILE "${WORK_DIR}/stdout_${arm}.txt"
    ERROR_VARIABLE bench_stderr
    RESULT_VARIABLE bench_rc)
  if(NOT bench_rc EQUAL 0)
    message(FATAL_ERROR "bench --jobs=${jobs} failed (rc=${bench_rc}): ${bench_stderr}")
  endif()
endforeach()

foreach(pair IN LISTS compared)
  string(REPLACE "|" ";" files "${pair}")
  list(GET files 0 a)
  list(GET files 1 b)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${WORK_DIR}/${a}" "${WORK_DIR}/${b}"
    RESULT_VARIABLE diff_rc)
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
        "${a} and ${b} differ: telemetry export depends on --jobs "
        "(scheduling leaked into the deterministic stream)")
  endif()
endforeach()

if(DEFINED GOLDEN)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${WORK_DIR}/metrics_serial.json" "${GOLDEN}"
    RESULT_VARIABLE golden_rc)
  if(NOT golden_rc EQUAL 0)
    message(FATAL_ERROR
        "${WORK_DIR}/metrics_serial.json differs from the golden ${GOLDEN}")
  endif()
endif()

if(DEFINED TRACE_GOLDEN_SHA256)
  file(SHA256 "${WORK_DIR}/trace_serial.jsonl" trace_sha256)
  file(STRINGS "${TRACE_GOLDEN_SHA256}" golden_sha256 LIMIT_COUNT 1)
  if(NOT trace_sha256 STREQUAL golden_sha256)
    message(FATAL_ERROR
        "${WORK_DIR}/trace_serial.jsonl has SHA-256 ${trace_sha256}, the golden "
        "${TRACE_GOLDEN_SHA256} holds ${golden_sha256}")
  endif()
endif()

message(STATUS "outputs byte-identical for --jobs=1 vs --jobs=4: ${compared}")

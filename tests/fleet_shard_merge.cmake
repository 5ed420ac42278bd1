# Copyright (c) 2026 The SOS Authors. MIT License.
#
# Fleet shard-merge determinism check (ctest: fleet_shard_merge).
#
# The fleet contract (DESIGN.md §13): the aggregate a fleet run reports is a
# pure function of (seed, devices, mix) -- never of --jobs or of how the
# population was split across shard processes. This script runs the same
# small fleet three ways and requires the metrics JSON and stdout report to
# be byte-identical across all of them:
#   1. one process, --jobs=1          (reference)
#   2. one process, --jobs=4          (thread fan-out)
#   3. two shards -> bench_fleet --merge   (process fan-out)
# The reference arm's metrics JSON must also match the golden byte for byte,
# so every build of the test suite (sanitizer builds included) checks the
# fleet's exported values, not only their invariance.
# It then feeds --merge three inputs it must refuse -- one shard twice, a
# truncated partial, a partial with an edited device-count cell -- and
# requires exit code 2 and no --metrics-out file for each.
#
# Expects -DBENCH=<bench_fleet>, -DWORK_DIR=<scratch dir> and
# -DGOLDEN=<metrics JSON of the reference arm>.

if(NOT DEFINED BENCH OR NOT DEFINED WORK_DIR OR NOT DEFINED GOLDEN)
  message(FATAL_ERROR
      "pass -DBENCH=<bench_fleet>, -DWORK_DIR=<scratch dir> and -DGOLDEN=<metrics JSON>")
endif()
if(NOT EXISTS "${GOLDEN}")
  message(FATAL_ERROR "the golden ${GOLDEN} does not exist")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(devices 48)
set(seed 5)

function(run_or_die label)
  execute_process(
    COMMAND ${ARGN}
    OUTPUT_FILE "${WORK_DIR}/stdout_${label}.txt"
    ERROR_VARIABLE run_stderr
    RESULT_VARIABLE run_rc)
  if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "${label} failed (rc=${run_rc}): ${run_stderr}")
  endif()
endfunction()

# Arms 1 and 2: unsharded, serial vs threaded.
run_or_die(serial "${BENCH}" --devices=${devices} --seed=${seed} --jobs=1
    --metrics-out=${WORK_DIR}/metrics_serial.json)
run_or_die(parallel "${BENCH}" --devices=${devices} --seed=${seed} --jobs=4
    --metrics-out=${WORK_DIR}/metrics_parallel.json)

# Arm 3: two shard processes, merged by the bench. Shard 1 runs threaded to
# also cross jobs with sharding.
run_or_die(shard0 "${BENCH}" --devices=${devices} --seed=${seed} --jobs=1
    --shard=0/2 --partial-out=${WORK_DIR}/p0.json)
run_or_die(shard1 "${BENCH}" --devices=${devices} --seed=${seed} --jobs=4
    --shard=1/2 --partial-out=${WORK_DIR}/p1.json)
# Merge in reversed order: the merge must canonicalize, not rely on input order.
run_or_die(merged "${BENCH}" --merge=${WORK_DIR}/p1.json --merge=${WORK_DIR}/p0.json
    --metrics-out=${WORK_DIR}/metrics_merged.json)

foreach(arm IN ITEMS parallel merged)
  foreach(kind IN ITEMS metrics stdout)
    if(kind STREQUAL "metrics")
      set(a "${WORK_DIR}/metrics_serial.json")
      set(b "${WORK_DIR}/metrics_${arm}.json")
    else()
      set(a "${WORK_DIR}/stdout_serial.txt")
      set(b "${WORK_DIR}/stdout_${arm}.txt")
    endif()
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files "${a}" "${b}"
      RESULT_VARIABLE diff_rc)
    if(NOT diff_rc EQUAL 0)
      message(FATAL_ERROR
          "${a} and ${b} differ: the fleet aggregate depends on --jobs or the "
          "shard split (determinism contract of DESIGN.md §13 broken)")
    endif()
  endforeach()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${WORK_DIR}/metrics_serial.json" "${GOLDEN}"
  RESULT_VARIABLE golden_rc)
if(NOT golden_rc EQUAL 0)
  message(FATAL_ERROR "${WORK_DIR}/metrics_serial.json differs from the golden ${GOLDEN}")
endif()

# Failure arms: a refused merge exits 2 and writes no metrics file.
function(expect_refused label)
  set(out "${WORK_DIR}/metrics_${label}.json")
  file(REMOVE "${out}")
  execute_process(
    COMMAND "${BENCH}" ${ARGN} --metrics-out=${out}
    OUTPUT_QUIET
    ERROR_VARIABLE run_stderr
    RESULT_VARIABLE run_rc)
  if(NOT run_rc EQUAL 2)
    message(FATAL_ERROR "${label}: expected exit 2, got ${run_rc}: ${run_stderr}")
  endif()
  if(EXISTS "${out}")
    message(FATAL_ERROR "${label}: the refused merge still wrote ${out}")
  endif()
endfunction()

expect_refused(duplicate --merge=${WORK_DIR}/p0.json --merge=${WORK_DIR}/p0.json)

file(READ "${WORK_DIR}/p0.json" p0)
string(LENGTH "${p0}" p0_length)
math(EXPR half "${p0_length} / 2")
string(SUBSTRING "${p0}" 0 ${half} p0_truncated)
file(WRITE "${WORK_DIR}/p0_truncated.json" "${p0_truncated}")
expect_refused(truncated --merge=${WORK_DIR}/p0_truncated.json --merge=${WORK_DIR}/p1.json)

# One more light SOS device than the shard simulated: the ledger's device
# count no longer matches its shard_devices header.
set(edited_key "archetype.light.devices.sos")
string(REGEX MATCH "\"${edited_key}\": ([0-9]+)," devices_cell "${p0}")
if(NOT devices_cell)
  message(FATAL_ERROR "p0.json has no \"${edited_key}\" cell to edit")
endif()
math(EXPR edited "${CMAKE_MATCH_1} + 1")
string(REPLACE "${devices_cell}" "\"${edited_key}\": ${edited}," p0_edited "${p0}")
file(WRITE "${WORK_DIR}/p0_edited.json" "${p0_edited}")
expect_refused(edited --merge=${WORK_DIR}/p0_edited.json --merge=${WORK_DIR}/p1.json)

message(STATUS
    "fleet aggregate byte-identical for jobs=1, jobs=4, 2-shard bench merge and the golden; "
    "duplicate, truncated and edited partials refused")

# --observe smoke: a bench's observed cell writes every artifact, writes
# it deterministically, and the tools that read the artifacts accept them.
#
# Invoked by ctest as:
#   cmake -DBENCH_FIG5=<bench_fig5 exe> -DBISECT=<divergence_bisect exe>
#         -DBLAME=<latency_blame exe> -DWORK_DIR=<scratch dir>
#         -P observe_smoke.cmake
#
# Runs `bench_fig5 --fast --observe=<a>`, then the same run into <b>.
# Requires the four artifacts (and no profile.json or trace.bin) in both
# directories, byte-identical trace.json and profile.folded,
# `divergence_bisect` to find the two hash series identical, and
# `latency_blame` to render a/blame.json and to diff a/ against b/ clean
# (exit 0) but refuse `--threshold=abc` (exit 2). profile.folded must be
# the blame partition: one `sim;<component>;vm<v>:q<queue> <ns>` frame per
# line, weights summing to blame.json's total_ns.

foreach(var BENCH_FIG5 BISECT BLAME WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "observe_smoke: ${var} is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")

foreach(run a b)
  execute_process(
    COMMAND "${BENCH_FIG5}" --fast --observe=${WORK_DIR}/${run}
            --out=${WORK_DIR}/out_${run}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "observe_smoke: run ${run} failed (${rc}):\n${out}")
  endif()
  foreach(f trace.json profile.folded blame.json hashes.json)
    if(NOT EXISTS "${WORK_DIR}/${run}/${f}")
      message(FATAL_ERROR "observe_smoke: run ${run} wrote no ${f}")
    endif()
  endforeach()
  foreach(f profile.json trace.bin)
    if(EXISTS "${WORK_DIR}/${run}/${f}")
      message(FATAL_ERROR "observe_smoke: run ${run} wrote a ${f}")
    endif()
  endforeach()
endforeach()

set(frame_re "^sim;(notify_wake|sched_delay|queue_wait|backend_service|suppression|vcpu_wait|msi_delivery|guest_service);vm[0-9]+:q-?[0-9]+ [0-9]+$")
file(STRINGS "${WORK_DIR}/a/profile.folded" folded_lines)
if(NOT folded_lines)
  message(FATAL_ERROR "observe_smoke: profile.folded is empty")
endif()
set(folded_sum 0)
foreach(line IN LISTS folded_lines)
  if(NOT line MATCHES "${frame_re}")
    message(FATAL_ERROR "observe_smoke: profile.folded line is not a blame "
                        "frame: ${line}")
  endif()
  string(REGEX REPLACE "^.* " "" weight "${line}")
  math(EXPR folded_sum "${folded_sum} + ${weight}")
endforeach()
file(READ "${WORK_DIR}/a/blame.json" blame_json)
string(REGEX MATCH "\"total_ns\": ([0-9]+)" _ "${blame_json}")
if(NOT folded_sum EQUAL "${CMAKE_MATCH_1}")
  message(FATAL_ERROR "observe_smoke: profile.folded weighs ${folded_sum} ns, "
                      "blame.json total_ns is '${CMAKE_MATCH_1}'")
endif()

foreach(f trace.json profile.folded)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${WORK_DIR}/a/${f}
            ${WORK_DIR}/b/${f}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "observe_smoke: same-seed runs wrote different ${f}")
  endif()
endforeach()

execute_process(
  COMMAND "${BISECT}" ${WORK_DIR}/a/hashes.json ${WORK_DIR}/b/hashes.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "observe_smoke: divergence_bisect exit ${rc}:\n${out}")
endif()

execute_process(
  COMMAND "${BLAME}" ${WORK_DIR}/a/blame.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "observe_smoke: latency_blame exit ${rc}:\n${out}")
endif()

execute_process(
  COMMAND "${BLAME}" --diff ${WORK_DIR}/a/blame.json ${WORK_DIR}/b/blame.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "observe_smoke: latency_blame --diff of same-seed runs "
                      "exit ${rc}:\n${out}")
endif()

execute_process(
  COMMAND "${BLAME}" --diff ${WORK_DIR}/a/blame.json ${WORK_DIR}/b/blame.json
          --threshold=abc
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "observe_smoke: latency_blame --threshold=abc exit "
                      "${rc}, expected 2:\n${out}")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
message(STATUS "observe_smoke ok: four artifacts, deterministic, tool-readable, "
               "profile.folded is the blame partition")

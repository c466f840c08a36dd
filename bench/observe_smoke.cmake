# --observe smoke: a bench's observed cell writes every artifact, writes
# it deterministically, and the tools that read the artifacts accept them.
#
# Invoked by ctest as:
#   cmake -DBENCH_FIG5=<bench_fig5 exe> -DBISECT=<divergence_bisect exe>
#         -DBLAME=<latency_blame exe> -DWORK_DIR=<scratch dir>
#         -P observe_smoke.cmake
#
# Runs `bench_fig5 --fast --observe=<a> --trace-smoke` (which re-reads
# a/trace.json and requires valid JSON with populated stage latencies),
# then the same run into <b>. Requires all six artifacts in both
# directories, a byte-identical trace.bin, `divergence_bisect` to find the
# two hash series identical and `latency_blame` to render a/blame.json.
# The profile artifacts must match their documented contract: profile.json
# is es2-prof-v2 and every profile.folded line is a `sim;` frame.

foreach(var BENCH_FIG5 BISECT BLAME WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "observe_smoke: ${var} is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")

foreach(run a b)
  execute_process(
    COMMAND "${BENCH_FIG5}" --fast --observe=${WORK_DIR}/${run} --trace-smoke
            --out=${WORK_DIR}/out_${run}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "observe_smoke: run ${run} failed (${rc}):\n${out}")
  endif()
  foreach(f trace.json trace.bin profile.folded profile.json blame.json
            hashes.json)
    if(NOT EXISTS "${WORK_DIR}/${run}/${f}")
      message(FATAL_ERROR "observe_smoke: run ${run} wrote no ${f}")
    endif()
  endforeach()
endforeach()

file(READ "${WORK_DIR}/a/profile.json" profile_json)
if(NOT profile_json MATCHES "\"schema\": \"es2-prof-v2\"")
  message(FATAL_ERROR "observe_smoke: profile.json is not es2-prof-v2")
endif()
file(STRINGS "${WORK_DIR}/a/profile.folded" folded_lines)
if(NOT folded_lines)
  message(FATAL_ERROR "observe_smoke: profile.folded is empty")
endif()
foreach(line IN LISTS folded_lines)
  if(NOT line MATCHES "^sim;")
    message(FATAL_ERROR "observe_smoke: profile.folded line is not a sim; "
                        "frame: ${line}")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${WORK_DIR}/a/trace.bin
          ${WORK_DIR}/b/trace.bin
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "observe_smoke: same-seed runs wrote different trace.bin")
endif()

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

file(REMOVE_RECURSE "${WORK_DIR}")
message(STATUS "observe_smoke ok: six artifacts, deterministic, tool-readable, "
               "es2-prof-v2 profile with sim; frames only")

# Golden-output check: the committed full-run CSVs are byte-exact.
#
# Invoked by ctest as:
#   cmake -DBENCH_BIN_DIR=<dir of the bench binaries> -DGOLDEN_DIR=<bench/out>
#         -DWORK_DIR=<scratch dir> -P golden_check.cmake
#
# Runs every figure bench plus the chaos sweep at default flags into
# WORK_DIR and byte-compares each committed CSV against the fresh one.
# Only bench_fig5 attaches a tracer, so this is also the check that the
# event-path hooks leave untraced goldens untouched. A mismatch names the
# file and its first differing line.

if(NOT DEFINED BENCH_BIN_DIR OR NOT DEFINED GOLDEN_DIR OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
    "golden_check: BENCH_BIN_DIR, GOLDEN_DIR and WORK_DIR are required")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

foreach(b table1 fig4 fig5 fig6 fig7 fig8 fig9 ablation related_work chaos)
  execute_process(
    COMMAND "${BENCH_BIN_DIR}/bench_${b}" --out=${WORK_DIR}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "golden_check: bench_${b} failed (${rc}):\n${out}")
  endif()
endforeach()

set(failed "")
foreach(name table1 fig4 fig5 fig5_blame fig6 fig7 fig8 fig9 ablation
             related_work chaos)
  set(golden "${GOLDEN_DIR}/${name}.csv")
  set(fresh "${WORK_DIR}/${name}.csv")
  if(NOT EXISTS "${fresh}")
    list(APPEND failed "${name}.csv: not written")
    continue()
  endif()
  file(READ "${golden}" golden_text)
  file(READ "${fresh}" fresh_text)
  if(golden_text STREQUAL fresh_text)
    continue()
  endif()
  file(STRINGS "${golden}" golden_lines)
  file(STRINGS "${fresh}" fresh_lines)
  list(LENGTH golden_lines golden_n)
  list(LENGTH fresh_lines fresh_n)
  set(line 0)
  set(want "<end of file>")
  set(got "<end of file>")
  while(line LESS golden_n OR line LESS fresh_n)
    set(want "<end of file>")
    set(got "<end of file>")
    if(line LESS golden_n)
      list(GET golden_lines ${line} want)
    endif()
    if(line LESS fresh_n)
      list(GET fresh_lines ${line} got)
    endif()
    if(NOT want STREQUAL got)
      break()
    endif()
    math(EXPR line "${line} + 1")
  endwhile()
  math(EXPR lineno "${line} + 1")
  list(APPEND failed
    "${name}.csv line ${lineno}:\n    golden: ${want}\n    fresh:  ${got}")
endforeach()

if(failed)
  list(JOIN failed "\n  " report)
  message(FATAL_ERROR "golden_check: outputs differ from ${GOLDEN_DIR}:\n  ${report}")
endif()

message(STATUS "golden_check ok: every committed CSV is byte-identical")

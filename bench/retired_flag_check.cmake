# Requires a bench to refuse a flag: nonzero exit plus a message matching
# EXPECT (for a retired flag, one that points at its replacement).
#
# Invoked by ctest as:
#   cmake -DBENCH=<bench exe> -DFLAG=<flag> -DEXPECT=<regex>
#         [-DARGS=<arg;arg...>] -P retired_flag_check.cmake
# ARGS, when given, are passed before FLAG.

execute_process(
  COMMAND "${BENCH}" ${ARGS} "${FLAG}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(rc EQUAL 0 OR NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR
    "retired_flag_check: ${FLAG} gave exit ${rc}, expected nonzero and "
    "/${EXPECT}/:\n${out}")
endif()
message(STATUS "retired_flag_check ok: ${FLAG} refused")

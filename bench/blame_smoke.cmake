# Checks the recv-TCP latency budgets bench_fig5 writes, from its output
# files alone: for each of Baseline, PI and PI+H, fig5_blame.csv's
# per-component shares must be the component ns over their sum (so the
# components partition the journey total), and BENCH_fig5.json must gate a
# recv_tcp.<stack>.* row set whose frac.<component> values agree with the
# CSV shares, plus journeys, attributed (at least one, at most journeys)
# and e2e_p99_ns.
#
# Invoked by ctest, after bench_fig5 --out=<dir>, as:
#   cmake -DOUT_DIR=<dir> -P blame_smoke.cmake

function(fail)
  string(JOIN "" msg ${ARGN})
  message(FATAL_ERROR "blame_smoke: ${msg}")
endfunction()

# Renders `m` millionths (m >= 0) as a decimal string "I.FFFFFF".
function(millionths_str m out)
  math(EXPR whole "${m} / 1000000")
  math(EXPR part "${m} % 1000000 + 1000000")
  string(SUBSTRING "${part}" 1 6 part)
  set(${out} "${whole}.${part}" PARENT_SCOPE)
endfunction()

file(READ "${OUT_DIR}/BENCH_fig5.json" report)
file(STRINGS "${OUT_DIR}/fig5_blame.csv" lines REGEX "^recv TCP,")

# Returns the gated value of metric `name`, failing if absent or ungated.
function(gated_value name out)
  string(JSON entry ERROR_VARIABLE err GET "${report}" metrics "${name}")
  if(err)
    fail("BENCH_fig5.json has no row ${name}")
  endif()
  string(JSON gate ERROR_VARIABLE err GET "${entry}" gate)
  if(err OR NOT gate)
    fail("row ${name} is not gated")
  endif()
  string(JSON value GET "${entry}" value)
  set(${out} "${value}" PARENT_SCOPE)
endfunction()

foreach(pair "Baseline=baseline" "PI=pi" "PI+H=pi_h")
  string(REPLACE "=" ";" pair "${pair}")
  list(GET pair 0 label)
  list(GET pair 1 key)

  gated_value("recv_tcp.${key}.journeys" journeys)
  gated_value("recv_tcp.${key}.attributed" attributed)
  gated_value("recv_tcp.${key}.e2e_p99_ns" p99)
  if(attributed LESS 1 OR attributed GREATER journeys)
    fail("recv TCP ${label}: attributed ${attributed} of ${journeys}")
  endif()

  set(components "")
  set(ns_values "")
  set(shares "")
  set(total 0)
  foreach(line IN LISTS lines)
    string(REPLACE "," ";" f "${line}")
    list(GET f 1 config)
    if(NOT config STREQUAL label)
      continue()
    endif()
    list(GET f 2 comp)
    list(GET f 4 ns)
    list(GET f 5 share)
    # "%.6f" share -> integer millionths, without leading zeros.
    string(REPLACE "." "" share "${share}")
    string(REGEX MATCH "^0*([0-9]+)$" share "${share}")
    set(share "${CMAKE_MATCH_1}")
    list(APPEND components "${comp}")
    list(APPEND ns_values "${ns}")
    list(APPEND shares "${share}")
    math(EXPR total "${total} + ${ns}")
  endforeach()
  list(LENGTH components n)
  if(n EQUAL 0 OR total LESS_EQUAL 0)
    fail("fig5_blame.csv has no recv TCP ${label} blame")
  endif()

  math(EXPR last "${n} - 1")
  foreach(i RANGE ${last})
    list(GET components ${i} comp)
    list(GET ns_values ${i} ns)
    list(GET shares ${i} share)
    math(EXPR expect "(${ns} * 1000000 + ${total} / 2) / ${total}")
    math(EXPR lo "${expect} - 1")
    math(EXPR hi "${expect} + 1")
    if(share LESS lo OR share GREATER hi)
      fail("recv TCP ${label} ${comp}: share ${share}e-6 is not "
           "${ns}/${total} of the component sum")
    endif()
    gated_value("recv_tcp.${key}.frac.${comp}" frac)
    if(lo LESS 0)
      set(lo 0)
    endif()
    millionths_str(${lo} lo_str)
    millionths_str(${hi} hi_str)
    if(frac LESS lo_str OR frac GREATER hi_str)
      fail("recv_tcp.${key}.frac.${comp} = ${frac}, but the CSV share is "
           "${share}e-6")
    endif()
  endforeach()
  message(STATUS "blame_smoke ok: recv TCP ${label}, ${n} components, "
                 "${attributed}/${journeys} journeys, p99 ${p99} ns")
endforeach()

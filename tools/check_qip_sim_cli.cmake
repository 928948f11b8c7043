# Command-line contracts of qip-sim and the bench mains.  Invoked by ctest
# as
#
#   cmake -DQIP_SIM=<exe> [-DFIG4_LAYOUT=<exe> -DFIG_METRO=<exe>]
#         -P check_qip_sim_cli.cmake
#
# (the bench binaries are passed when the benches are built).
#
#   * Every malformed or out-of-range flag value, flag missing its value and
#     unknown argument exits 2 with a "qip: invalid ..." diagnostic or the
#     usage text — never a silent run on a wrapped or truncated number or on a
#     flag the binary does not know.  Each case has its own timeout: a
#     negative churn that wraps to 2^32-1 steps would otherwise run for
#     hours.
#   * The same seed twice gives byte-identical stdout.
#   * --rounds 3 gives identical stdout at --jobs 1 and --jobs 4.
#   * fig4_layout --jobs 2 prints what a bare run prints.
cmake_minimum_required(VERSION 3.16)  # quoted if() operands stay strings
if(NOT DEFINED QIP_SIM)
  message(FATAL_ERROR "check_qip_sim_cli.cmake needs -DQIP_SIM=...")
endif()

# Each case is the variable holding the binary, then its arguments.  qip-sim
# cases run after --nodes 5 --duration 1, which keeps a wrongly accepted
# case short; a case naming --nodes itself overrides it.
set(cases
    "QIP_SIM --churn -1"
    "QIP_SIM --duration abc"
    "QIP_SIM --speed fast"
    "QIP_SIM --duration -3"
    "QIP_SIM --abrupt 7"
    "QIP_SIM --nodes 5x"
    "QIP_SIM --range wide"
    "QIP_SIM --pool 12q"
    "QIP_SIM --quorum majority"
    "FIG4_LAYOUT --quorum majority"
    "FIG4_LAYOUT --jobs"
    "FIG_METRO --nodes")
foreach(case IN LISTS cases)
  separate_arguments(args UNIX_COMMAND "${case}")
  list(POP_FRONT args bin)
  if(NOT DEFINED ${bin})
    continue()
  endif()
  if(bin STREQUAL "QIP_SIM")
    list(PREPEND args --nodes 5 --duration 1)
  endif()
  execute_process(
    COMMAND "${${bin}}" ${args}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc
    TIMEOUT 20
  )
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "${case}: expected exit 2, got '${rc}'")
  endif()
  if(NOT err MATCHES "qip: invalid|usage:")
    message(FATAL_ERROR "${case}: no diagnostic on stderr:\n${err}")
  endif()
endforeach()

# Runs `exe` with ARGN and stores its stdout in out_var.
function(run_ok out_var exe)
  execute_process(
    COMMAND "${exe}" ${ARGN}
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc
    TIMEOUT 120
  )
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "${exe} ${ARGN} exited with status ${rc}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

set(run --nodes 30 --duration 5 --churn 3 --seed 5)
run_ok(first "${QIP_SIM}" ${run})
run_ok(second "${QIP_SIM}" ${run})
if(NOT first STREQUAL second)
  message(FATAL_ERROR "qip-sim ${run} is not deterministic:\n"
      "${first}\n---\n${second}")
endif()

set(rounds --nodes 20 --duration 2 --churn 2 --rounds 3)
run_ok(jobs1 "${QIP_SIM}" ${rounds} --jobs 1)
run_ok(jobs4 "${QIP_SIM}" ${rounds} --jobs 4)
if(NOT jobs1 STREQUAL jobs4)
  message(FATAL_ERROR "qip-sim ${rounds} differs between --jobs 1 and 4:\n"
      "${jobs1}\n---\n${jobs4}")
endif()

if(DEFINED FIG4_LAYOUT)
  run_ok(bare "${FIG4_LAYOUT}")
  run_ok(jobs2 "${FIG4_LAYOUT}" --jobs 2)
  if(NOT bare STREQUAL jobs2)
    message(FATAL_ERROR "fig4_layout --jobs 2 differs from a bare run:\n"
        "${bare}\n---\n${jobs2}")
  endif()
endif()

# qip-sim's command-line contract.  Invoked by ctest as
#
#   cmake -DQIP_SIM=<exe> -P check_qip_sim_cli.cmake
#
#   * Every malformed or out-of-range flag value exits 2 with a
#     "qip: invalid ..." diagnostic or the usage text — never a silent run
#     on a wrapped or truncated number.  Each case has its own timeout: a
#     negative churn that wraps to 2^32-1 steps would otherwise run for
#     hours.
#   * The same seed twice gives byte-identical stdout.
#   * --rounds 3 gives identical stdout at --jobs 1 and --jobs 4.
if(NOT DEFINED QIP_SIM)
  message(FATAL_ERROR "check_qip_sim_cli.cmake needs -DQIP_SIM=...")
endif()

# --nodes 5 first keeps a wrongly accepted case short; a case naming
# --nodes itself overrides it.
set(cases
    "--churn -1"
    "--duration abc"
    "--speed fast"
    "--duration -3"
    "--abrupt 7"
    "--nodes 5x"
    "--range wide"
    "--pool 12q")
foreach(case IN LISTS cases)
  separate_arguments(args UNIX_COMMAND "${case}")
  execute_process(
    COMMAND "${QIP_SIM}" --nodes 5 --duration 1 ${args}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc
    TIMEOUT 20
  )
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "qip-sim ${case}: expected exit 2, got '${rc}'")
  endif()
  if(NOT err MATCHES "qip: invalid|usage:")
    message(FATAL_ERROR "qip-sim ${case}: no diagnostic on stderr:\n${err}")
  endif()
endforeach()

# Runs qip-sim with ARGN and stores its stdout in out_var.
function(run_sim out_var)
  execute_process(
    COMMAND "${QIP_SIM}" ${ARGN}
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc
    TIMEOUT 120
  )
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "qip-sim ${ARGN} exited with status ${rc}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

set(run --nodes 30 --duration 5 --churn 3 --seed 5)
run_sim(first ${run})
run_sim(second ${run})
if(NOT first STREQUAL second)
  message(FATAL_ERROR "qip-sim ${run} is not deterministic:\n"
      "${first}\n---\n${second}")
endif()

set(rounds --nodes 20 --duration 2 --churn 2 --rounds 3)
run_sim(jobs1 ${rounds} --jobs 1)
run_sim(jobs4 ${rounds} --jobs 4)
if(NOT jobs1 STREQUAL jobs4)
  message(FATAL_ERROR "qip-sim ${rounds} differs between --jobs 1 and 4:\n"
      "${jobs1}\n---\n${jobs4}")
endif()

# Byte-compares a bench's stdout under two environments.  Invoked by ctest
# (see qip_env_gates in tools/CMakeLists.txt) as
#
#   cmake -DBENCH=<exe> -DROUNDS=<n> "-DENV_A=K=V;..." "-DENV_B=K=V;..."
#         [-DEXPECT_FILE=<path>] -P check_env_invariance.cmake
#
# Every gate pins one contract: the variables that differ between A and B
# are mechanism, never policy, so they must not show up in the results.
#
#   * trace_invariance — QIP_TRACE_FILE unset vs set.  The TraceRecorder
#     draws no randomness and schedules nothing (docs/OBSERVABILITY.md).
#   * jobs_invariance — QIP_JOBS=1 vs 4.  Every replication cell runs on its
#     own SimContext, seeds its World from its (x, round) position, and
#     cells merge in (x, round) order (docs/PARALLELISM.md).  Needs
#     ROUNDS >= 2 so the runner has cells to interleave.
#
# ENV_A / ENV_B are lists of K=V pairs, each applied just before its run and
# unset again after it; an empty V unsets K.  Both runs get
# QIP_ROUNDS=ROUNDS: a divergence at one round would only compound at more.
# EXPECT_FILE, if given, must exist after run B and is then removed — a
# trace gate whose bench wrote no trace would compare nothing.
if(NOT DEFINED BENCH OR NOT DEFINED ROUNDS OR NOT DEFINED ENV_A
   OR NOT DEFINED ENV_B)
  message(FATAL_ERROR "check_env_invariance.cmake needs -DBENCH=... "
      "-DROUNDS=... -DENV_A=... and -DENV_B=...")
endif()

set(ENV{QIP_ROUNDS} "${ROUNDS}")

# Runs BENCH under the K=V list in ENV_<side> and stores stdout in out_var.
function(run_side side out_var)
  foreach(pair IN LISTS ENV_${side})
    if(NOT pair MATCHES "^([A-Za-z_][A-Za-z0-9_]*)=(.*)$")
      message(FATAL_ERROR "ENV_${side}: '${pair}' is not K=V")
    endif()
    if(CMAKE_MATCH_2 STREQUAL "")
      unset(ENV{${CMAKE_MATCH_1}})
    else()
      set(ENV{${CMAKE_MATCH_1}} "${CMAKE_MATCH_2}")
    endif()
  endforeach()
  execute_process(
    COMMAND "${BENCH}"
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc
  )
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} (${ENV_${side}}) exited with status ${rc}")
  endif()
  foreach(pair IN LISTS ENV_${side})
    string(REGEX REPLACE "=.*$" "" key "${pair}")
    unset(ENV{${key}})
  endforeach()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

run_side(A out_a)
run_side(B out_b)

if(DEFINED EXPECT_FILE)
  if(NOT EXISTS "${EXPECT_FILE}")
    message(FATAL_ERROR "${BENCH} (${ENV_B}) wrote no ${EXPECT_FILE}")
  endif()
  file(REMOVE "${EXPECT_FILE}")
endif()

if(NOT out_a STREQUAL out_b)
  get_filename_component(bench_name "${BENCH}" NAME)
  set(dump_a "${CMAKE_CURRENT_BINARY_DIR}/env_invariance_${bench_name}_a.txt")
  set(dump_b "${CMAKE_CURRENT_BINARY_DIR}/env_invariance_${bench_name}_b.txt")
  file(WRITE "${dump_a}" "${out_a}")
  file(WRITE "${dump_b}" "${out_b}")
  message(FATAL_ERROR
      "${BENCH} output differs between two environments that must not "
      "matter.\n${ENV_A}: ${dump_a}\n${ENV_B}: ${dump_b}")
endif()

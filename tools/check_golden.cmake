# Runs a deterministic figure bench and byte-compares its stdout against a
# committed golden file.  Invoked by ctest (see tools/CMakeLists.txt) as
#
#   cmake -DBENCH=<path-to-exe> -DGOLDEN=<path-to-golden> -P check_golden.cmake
#
# Any drift — including topology-cache behavior changes that would alter BFS
# or component ordering — fails the test with a pointer to the actual output.
if(NOT DEFINED BENCH OR NOT DEFINED GOLDEN)
  message(FATAL_ERROR "check_golden.cmake needs -DBENCH=... and -DGOLDEN=...")
endif()

execute_process(
  COMMAND "${BENCH}"
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE rc
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with status ${rc}")
endif()

file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  # Named after the bench, so golden tests failing together under ctest -j
  # do not overwrite each other's dump.
  get_filename_component(bench_name "${BENCH}" NAME_WE)
  set(dump "${CMAKE_CURRENT_BINARY_DIR}/golden_actual_${bench_name}.txt")
  file(WRITE "${dump}" "${actual}")
  message(FATAL_ERROR
      "output of ${BENCH} differs from golden file ${GOLDEN}\n"
      "actual output written to ${dump}\n"
      "If the change is intentional, regenerate the golden file by copying "
      "the actual output over it.")
endif()

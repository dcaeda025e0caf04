# ctest helper: run EXE with the space-separated ARGS and require exit
# status EXPECT, e.g. that a bench rejects a malformed argument with exit 2
# before it simulates anything:
#   cmake -DEXE=path/to/bench "-DARGS=--threads abc" -DEXPECT=2 -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${EXE} ${ARGS}: exit ${rc}, expected ${EXPECT}\n${err}")
endif()

# Runs one binary with one argument and fails unless it exits with the
# expected code:
#   cmake -DBIN=<path> -DARG=<argument> -DEXPECT=<exit code> -P expect_exit.cmake
execute_process(COMMAND ${BIN} ${ARG}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL EXPECT)
  message(FATAL_ERROR "${BIN} ${ARG}: exit '${rc}', expected ${EXPECT}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()

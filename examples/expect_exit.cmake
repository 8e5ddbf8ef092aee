# Runs a program (an example or a tool) with bad arguments and checks it
# fails cleanly:
#
#   cmake -DEXE=<binary> -DARGS="<args>" -DNAME=<name> -DEXPECT=2 \
#         -P expect_exit.cmake
#
# Passes only when the binary exits with EXPECT and its stderr starts with
# "<name>: " (a usage error, not an abort on an uncaught exception).
separate_arguments(argv UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${argv}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${NAME} ${ARGS}: exit '${rc}', expected ${EXPECT}\n${err}")
endif()
if(NOT err MATCHES "^${NAME}: ")
  message(FATAL_ERROR "${NAME} ${ARGS}: stderr lacks '${NAME}: '\n${err}")
endif()

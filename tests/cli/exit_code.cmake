# Runs the sigsub_cli binary once and checks its exit code and output:
#
#   cmake -DCLI=<sigsub_cli> -DARGS="<args>" -DEXPECT_CODE=<n>
#         [-DEXPECT_STDOUT=<regex>] [-DEXPECT_STDERR=<regex>]
#         -P exit_code.cmake
#
# ARGS is split like a shell command line. A failing run (nonzero code)
# must leave stdout empty: errors go to stderr only.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR "sigsub_cli ${ARGS}: exit code ${code}, expected "
                      "${EXPECT_CODE}\nstdout: ${out}\nstderr: ${err}")
endif()
if(DEFINED EXPECT_STDOUT AND NOT out MATCHES "${EXPECT_STDOUT}")
  message(FATAL_ERROR "sigsub_cli ${ARGS}: stdout does not match "
                      "\"${EXPECT_STDOUT}\":\n${out}")
endif()
if(DEFINED EXPECT_STDERR AND NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "sigsub_cli ${ARGS}: stderr does not match "
                      "\"${EXPECT_STDERR}\":\n${err}")
endif()
if(NOT code EQUAL 0 AND NOT out STREQUAL "")
  message(FATAL_ERROR "sigsub_cli ${ARGS}: failed but wrote to stdout:\n"
                      "${out}")
endif()

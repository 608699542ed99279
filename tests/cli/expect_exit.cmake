# Runs one bbrnash CLI command and fails unless it exits with EXPECT_RC and,
# when given, its stdout matches EXPECT_OUT and its stderr EXPECT_ERR.
#
#   cmake -DCLI=<bbrnash binary> "-DARGS=<space-separated arguments>"
#         -DEXPECT_RC=<exit code> [-DEXPECT_OUT=<regex>]
#         [-DEXPECT_ERR=<regex>] -P expect_exit.cmake
foreach(var CLI ARGS EXPECT_RC)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "expect_exit: -D${var}=... is required")
  endif()
endforeach()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND ${CLI} ${args}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)

set(report "bbrnash ${ARGS}\n--- stdout ---\n${out}\n--- stderr ---\n${err}")
if(NOT rc STREQUAL EXPECT_RC)
  message(FATAL_ERROR "expect_exit: exit ${rc}, expected ${EXPECT_RC}\n${report}")
endif()
if(DEFINED EXPECT_OUT AND NOT out MATCHES "${EXPECT_OUT}")
  message(FATAL_ERROR "expect_exit: stdout does not match '${EXPECT_OUT}'\n${report}")
endif()
if(DEFINED EXPECT_ERR AND NOT err MATCHES "${EXPECT_ERR}")
  message(FATAL_ERROR "expect_exit: stderr does not match '${EXPECT_ERR}'\n${report}")
endif()

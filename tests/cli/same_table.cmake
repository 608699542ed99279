# Runs one bbrnash CLI command two ways and fails unless both exit 0 and
# print the same stdout, byte for byte, apart from the `parallel:` telemetry
# line (its worker and steal counts describe the schedule, not the result).
#
#   cmake -DCLI=<bbrnash binary> "-DARGS_A=<arguments>" "-DARGS_B=<arguments>"
#         -P same_table.cmake
foreach(var CLI ARGS_A ARGS_B)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "same_table: -D${var}=... is required")
  endif()
endforeach()

foreach(side A B)
  separate_arguments(args UNIX_COMMAND "${ARGS_${side}}")
  execute_process(
    COMMAND ${CLI} ${args}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "same_table: bbrnash ${ARGS_${side}} exited with ${rc}\n${err}")
  endif()
  string(REGEX REPLACE "(^|\n)parallel:[^\n]*" "\\1" out_${side} "${out}")
endforeach()

if(out_A STREQUAL "")
  message(FATAL_ERROR "same_table: bbrnash ${ARGS_A} printed nothing")
endif()
if(NOT out_A STREQUAL out_B)
  message(FATAL_ERROR
    "same_table: outputs differ\n"
    "--- ${ARGS_A} ---\n${out_A}\n--- ${ARGS_B} ---\n${out_B}")
endif()

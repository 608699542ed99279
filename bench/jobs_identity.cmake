# Runs a figure driver with `--fidelity quick --csv --seed 16` at --jobs 1
# and at --jobs 4 and fails unless the two outputs are byte-identical (the
# parallel sweep engine's determinism contract, end to end through the
# driver's own scheduling).
#
#   cmake -DDRIVER=<path to a bench_fig* binary> -P jobs_identity.cmake
if(NOT DEFINED DRIVER)
  message(FATAL_ERROR "jobs_identity: -DDRIVER=... is required")
endif()

foreach(jobs 1 4)
  execute_process(
    COMMAND ${DRIVER} --fidelity quick --csv --seed 16 --jobs ${jobs}
    OUTPUT_VARIABLE out_${jobs}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "jobs_identity: ${DRIVER} --jobs ${jobs} exited with ${rc}")
  endif()
endforeach()

if(out_1 STREQUAL "")
  message(FATAL_ERROR "jobs_identity: ${DRIVER} printed nothing")
endif()
if(NOT out_1 STREQUAL out_4)
  message(FATAL_ERROR
    "jobs_identity: --jobs 1 and --jobs 4 outputs differ\n"
    "--- jobs 1 ---\n${out_1}\n--- jobs 4 ---\n${out_4}")
endif()

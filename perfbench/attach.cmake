# Attaches the benchmark harness to the repository's own CMake build.
#
# perfbench/run.py configures the repository's top-level CMakeLists.txt with
#   -DCMAKE_PROJECT_INCLUDE=<this file>
# so the harness links the library targets with exactly the flags, build
# type and link-time optimisation that build the program for users. The
# top-level file defines its targets after project(), so harness.cmake is
# included by a deferred call that runs once that file is done. (Deferred
# arguments are expanded when the call runs, hence the variable.)
include_guard(GLOBAL)
set(PERFBENCH_HARNESS_DIR "${CMAKE_CURRENT_LIST_DIR}/harness")
cmake_language(DEFER CALL include "${PERFBENCH_HARNESS_DIR}/harness.cmake")

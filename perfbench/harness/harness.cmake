# Benchmark harness: drives the program's public entry points
# (run_scenario_guarded, find_ne_crossing, PayoffOracle) for the workloads
# in BENCHMARK.json. Included only through perfbench/attach.cmake.
#
# Two binaries from one source: the untraced one links the stock
# allocator, exactly like the program; the traced one links the
# counting-allocator hook (bbrnash_alloccount) so the traced run can report
# allocations per event. The allocator choice is made at link time by the
# alloc_probe_*.cpp file each binary is built with.
add_executable(perfbench_harness
  "${PERFBENCH_HARNESS_DIR}/harness.cpp" "${PERFBENCH_HARNESS_DIR}/alloc_probe_stock.cpp")
target_link_libraries(perfbench_harness PRIVATE bbrnash_exp bbrnash_model)

add_executable(perfbench_harness_traced
  "${PERFBENCH_HARNESS_DIR}/harness.cpp" "${PERFBENCH_HARNESS_DIR}/alloc_probe_counted.cpp")
target_link_libraries(perfbench_harness_traced
  PRIVATE bbrnash_exp bbrnash_model bbrnash_alloccount)

set_target_properties(perfbench_harness perfbench_harness_traced PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY "${CMAKE_BINARY_DIR}/perfbench")

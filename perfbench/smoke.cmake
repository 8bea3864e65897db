# benchmark_smoke (ctest -L benchmark in the perfbench build): runs every
# workload untraced and traced at a tenth of its rows with 1 s phases, every
# correctness check on, then validates the outputs against BENCHMARK.json.
#   cmake -DBENCH=... -DPYTHON=... -DSOURCE_DIR=... -DOUT_DIR=... -P smoke.cmake
file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR}/runs)
foreach(workload batch_float batch_sq8 serve_sharded serve_mutable)
  foreach(trace 0 1)
    execute_process(
      COMMAND ${BENCH} --workload ${workload} --seed 1 --seconds 1
              --trace ${trace} --smoke --work-dir ${OUT_DIR}/work
              --trace-out ${OUT_DIR}/${workload}.spans.jsonl
      OUTPUT_FILE ${OUT_DIR}/runs/${workload}-trace${trace}.json
      RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
      message(FATAL_ERROR "${workload} --trace ${trace} exited ${status}")
    endif()
  endforeach()
endforeach()
execute_process(
  COMMAND ${PYTHON} ${SOURCE_DIR}/bench_compare.py
          --benchmark ${SOURCE_DIR}/../BENCHMARK.json
          --validate ${OUT_DIR}/runs
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "bench_compare.py --validate failed")
endif()

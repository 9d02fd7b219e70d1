# Runs the experiment bench BENCH and diffs its stdout against
# GOLDEN_DIR/<BENCH>.txt. The benches are seeded virtual-time simulations
# that print no wall times or paths, so any difference is a behavior
# change. Driven by the bench_outputs_gate.<bench> ctests, one per bench
# (bench/CMakeLists.txt), so ctest -j runs the benches in parallel.
set(current ${WORK_DIR}/${BENCH}.stdout)
execute_process(COMMAND ${BENCH_DIR}/${BENCH} OUTPUT_FILE ${current}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} failed (${rc})")
endif()
execute_process(COMMAND diff -u ${GOLDEN_DIR}/${BENCH}.txt ${current}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  # NOTICE prints verbatim, so the command stays on one pasteable line.
  message(NOTICE "If the change is intentional, regenerate with:\n"
    "for b in ${BENCH}; do ${BENCH_DIR}/$b > ${GOLDEN_DIR}/$b.txt; done")
  message(FATAL_ERROR "stdout differs from the golden: ${BENCH}")
endif()

# Runs each experiment bench in BENCHES and diffs its stdout against
# GOLDEN_DIR/<bench>.txt. The benches are seeded virtual-time simulations
# that print no wall times or paths, so any difference is a behavior
# change. Driven by the bench_outputs_gate ctest (bench/CMakeLists.txt).
set(failed "")
foreach(bench IN LISTS BENCHES)
  set(current ${WORK_DIR}/${bench}.stdout)
  execute_process(COMMAND ${BENCH_DIR}/${bench} OUTPUT_FILE ${current}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} failed (${rc})")
  endif()
  execute_process(COMMAND diff -u ${GOLDEN_DIR}/${bench}.txt ${current}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    list(APPEND failed ${bench})
  endif()
endforeach()

if(failed)
  list(JOIN BENCHES " " names)
  # NOTICE prints verbatim, so the command stays on one pasteable line.
  message(NOTICE "If the change is intentional, regenerate with:\n"
    "for b in ${names}; do ${BENCH_DIR}/$b > ${GOLDEN_DIR}/$b.txt; done")
  message(FATAL_ERROR "stdout differs from the golden: ${failed}")
endif()

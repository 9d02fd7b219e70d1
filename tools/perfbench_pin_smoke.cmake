# perfbench_pin_smoke ctest: results built from the committed pins (or with
# fewer allocations) pass; each way a result can break a pin or be
# unreadable must exit non-zero with a diagnosis naming it.

# One perfbench stdout: a human-readable line, then the JSON result.
function(write_result name correct p50 p99 allocs)
  file(WRITE ${WORK_DIR}/${name}.out "workload synthetic\n{\"correct\": \
${correct}, \"metrics\": {\"delay_p50_s\": {\"value\": ${p50}}, \
\"delay_p99_s\": {\"value\": ${p99}}, \
\"allocs_per_delivery\": {\"value\": ${allocs}}}}\n")
endfunction()

# `expect` is PASS or the diagnosis a rejection prints; ARGN the arguments.
function(expect_pin expect)
  execute_process(COMMAND ${PYTHON} ${PIN} ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(expect STREQUAL "PASS" AND NOT rc EQUAL 0)
    message(FATAL_ERROR "perfbench_pin.py rejected good results:\n${out}${err}")
  elseif(NOT expect STREQUAL "PASS" AND
         (rc EQUAL 0 OR NOT "${out}${err}" MATCHES "${expect}"))
    message(FATAL_ERROR
      "perfbench_pin.py did not reject with '${expect}' (exit ${rc}):\n${out}${err}")
  endif()
endfunction()

file(MAKE_DIRECTORY ${WORK_DIR})
file(READ ${PINS} pins)
foreach(name wan64 stream16)
  string(JSON p50 GET "${pins}" ${name} delay_p50_s equals)
  string(JSON p99 GET "${pins}" ${name} delay_p99_s equals)
  string(JSON allocs GET "${pins}" ${name} allocs_per_delivery at_most)
  write_result(${name} true ${p50} ${p99} ${allocs})
endforeach()
# Variants of stream16's result; a leading 1 puts a value above its pin.
write_result(fewer_allocs true ${p50} ${p99} 1)
write_result(delay true 1${p50} ${p99} ${allocs})
write_result(allocs true ${p50} ${p99} 1${allocs})
write_result(incorrect false ${p50} ${p99} ${allocs})
file(WRITE ${WORK_DIR}/no_metric.out "{\"correct\": true, \"metrics\": {}}\n")
file(WRITE ${WORK_DIR}/malformed.out "perfbench: build failed\n{\"correct\": t\n")
file(WRITE ${WORK_DIR}/bad_pins.json "{\"wan64\": {\"delay_p50_s\": {\"near\": 1}}}")

set(wan64 wan64=${WORK_DIR}/wan64.out)
set(s stream16=${WORK_DIR})
expect_pin(PASS ${PINS} ${wan64} ${s}/stream16.out)
expect_pin(PASS ${PINS} ${wan64} ${s}/fewer_allocs.out)
expect_pin("FAIL stream16.delay_p50_s 10.08" ${PINS} ${wan64} ${s}/delay.out)
expect_pin("FAIL stream16.allocs_per_delivery [0-9.]+ [(]at_most"
  ${PINS} ${wan64} ${s}/allocs.out)
expect_pin("stream16: perfbench reports correct = False"
  ${PINS} ${wan64} ${s}/incorrect.out)
expect_pin("stream16.delay_p99_s missing" ${PINS} ${wan64} ${s}/no_metric.out)
expect_pin("stream16: unreadable result" ${PINS} ${wan64} ${s}/malformed.out)
expect_pin("stream16: pinned workload has no result" ${PINS} ${wan64})
expect_pin("udp32: not a pinned workload"
  ${PINS} ${wan64} ${s}/stream16.out udp32=${WORK_DIR}/wan64.out)
expect_pin("malformed pin" ${WORK_DIR}/bad_pins.json ${wan64})

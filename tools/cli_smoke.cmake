# Numeric value smoke driven by the cli_flags_smoke ctest: every tool must
# refuse a malformed or out-of-range numeric value (a flag, or a digest in
# rbcast_check's pinned-digest file) before doing any work. (rbcast_sim's
# bad values are in trace_smoke.cmake.)

# Runs `tool` with the remaining arguments and requires exit 2, nothing on
# stdout and exactly one stderr line matching `what` (the flag's name): not
# an abort, not a silent misread, not an unrelated failure further on.
function(expect_refused tool what)
  execute_process(
    COMMAND ${tool} ${ARGN}
    TIMEOUT 30
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(STRIP "${err}" err_line)
  if(NOT rc EQUAL 2 OR NOT out STREQUAL "" OR err_line MATCHES "\n"
     OR NOT err_line MATCHES "${what}")
    message(FATAL_ERROR "${tool} ${ARGN}: want exit 2 and one stderr line "
                        "matching ${what}, got (${rc}):\n${out}${err}")
  endif()
endfunction()

expect_refused(${RBCAST_CHECK} --depth --depth x)
expect_refused(${RBCAST_CHECK} --hosts --hosts abc)
expect_refused(${RBCAST_CHECK} --hosts --hosts 0)
expect_refused(${RBCAST_CHECK} --inflight --inflight -1)
expect_refused(${RBCAST_CHECK} --clusters --hosts 2 --clusters 0,x)
expect_refused(${RBCAST_CHECK} --walks --walks 10k)
expect_refused(${RBCAST_CHECK} --seed --determinism-check --seed 1.5)
expect_refused(${RBCAST_CHECK} --mutant --mutant)
# A pinned digest is bare hex: "-1" must not read as ffffffffffffffff.
file(WRITE ${WORK_DIR}/bad_pins.txt "1 plain figure-3.2 -1\n")
expect_refused(${RBCAST_CHECK} "expected <seed>" --determinism-check
               --expect ${WORK_DIR}/bad_pins.txt)

expect_refused(${RBCAST_CHAOS} --seed --seed abc)
expect_refused(${RBCAST_CHAOS} --shrink-attempts --shrink-attempts 5x)
expect_refused(${RBCAST_CHAOS} --runs --runs 0)

expect_refused(${RBCAST_TRACE} --timeline --timeline abc missing.jsonl)
expect_refused(${RBCAST_TRACE} --lineage --lineage -2 missing.jsonl)

expect_refused(${RBCAST_NODE} --host --config missing.json --host abc)
expect_refused(${RBCAST_NODE} --run-s --config missing.json --all-hosts
               --run-s 5s)
expect_refused(${RBCAST_NODE} --run-s --config missing.json --all-hosts
               --run-s -1)
expect_refused(${RBCAST_NODE} --admin-port --config missing.json
               --all-hosts --admin-port 70000)

# A node config whose DATA frames or batches cannot fit one UDP datagram
# (65,507 bytes) is refused at load, naming the key, before any socket.
function(expect_node_config_refused what protocol)
  file(WRITE ${WORK_DIR}/bad_node.json
       "{\"hosts\": [{\"id\": 0, \"port\": 0}, {\"id\": 1, \"port\": 0}],"
       " \"messages\": 3, \"protocol\": {${protocol}}}\n")
  expect_refused(${RBCAST_NODE} ${what} --config ${WORK_DIR}/bad_node.json
                 --all-hosts --run-s 5)
endfunction()
expect_node_config_refused(data_bytes "\"data_bytes\": 2000000")
expect_node_config_refused(data_bytes "\"data_bytes\": 70000")
expect_node_config_refused(data_bytes "\"data_bytes\": -1")
expect_node_config_refused(batch_max_bytes
  "\"batch_flush_ms\": 50, \"batch_max_bytes\": 200000, \"data_bytes\": 20000")
expect_node_config_refused(batch_max_bytes "\"batch_max_bytes\": 0")

expect_refused(${RBCAST_TOP} --timeout-ms --once --timeout-ms abc 1)
expect_refused(${RBCAST_TOP} --interval-s --interval-s 0 1)
message(STATUS "cli value smoke passed")

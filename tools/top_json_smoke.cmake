# rbcast_top JSON smoke driven by the top_json_smoke ctest: one --once
# --json poll of an endpoint whose name contains a double quote. The
# endpoint cannot be resolved (its port is not a number), so rbcast_top
# must exit 1 (fleet not converged), yet its stdout must still be valid
# JSON that names the endpoint verbatim.
set(endpoint "127.0.0.1:9\"q")

execute_process(
  COMMAND ${RBCAST_TOP} --once --json --timeout-ms 500 ${endpoint}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR
    "rbcast_top should exit 1 for an unreachable endpoint, got ${rc}:\n"
    "${out}${err}")
endif()

string(JSON got ERROR_VARIABLE json_error GET "${out}" endpoints 0 endpoint)
if(json_error)
  message(FATAL_ERROR
    "rbcast_top --json printed invalid JSON (${json_error}):\n${out}")
endif()
if(NOT got STREQUAL endpoint)
  message(FATAL_ERROR "endpoint read back as [${got}], expected [${endpoint}]")
endif()
string(JSON reachable GET "${out}" endpoints 0 reachable)
string(JSON converged GET "${out}" fleet converged)
if(reachable OR converged)
  message(FATAL_ERROR "unreachable endpoint reported as reachable:\n${out}")
endif()
message(STATUS "rbcast_top JSON smoke passed: ${out}")

# End-to-end trace smoke driven by the trace_cli_smoke ctest: run a small
# traced scenario through rbcast_sim, then exercise every rbcast_trace
# query mode over the resulting JSONL file. Finally, bad rbcast_sim flag
# values must be refused before anything runs.
set(trace_file ${WORK_DIR}/trace_smoke.jsonl)
set(chrome_file ${WORK_DIR}/trace_smoke.chrome.json)

execute_process(
  COMMAND ${RBCAST_SIM} --clusters 2 --hosts 2 --messages 5 --seed 3
          --trace-out ${trace_file} --chrome-trace ${chrome_file}
          --sample-period-ms 500
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rbcast_sim traced run failed (${rc}):\n${out}${err}")
endif()
if(NOT out MATCHES "manifest: seed=3")
  message(FATAL_ERROR "rbcast_sim stdout lacks the run manifest:\n${out}")
endif()

foreach(mode_args IN ITEMS "--summary" "--timeline;1" "--lineage;2"
                           "--convergence")
  execute_process(
    COMMAND ${RBCAST_TRACE} ${mode_args} ${trace_file}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "rbcast_trace ${mode_args} failed (${rc}):\n${out}${err}")
  endif()
endforeach()

# Each bad value must exit 2 with a one-line message on stderr and nothing
# on stdout: not an abort from inside the library, not a silent misread.
foreach(bad_args IN ITEMS
    "--interval-ms;0" "--interval-ms;-5"
    "--partition-at;20;--partition-heal;10"
    "--burst;0;--arrivals;bursty"
    "--messages;abc" "--clusters;2x"
    "--loss;1.5" "--loss;-0.2" "--dup;1" "--deadline;0")
  execute_process(
    COMMAND ${RBCAST_SIM} --clusters 2 --hosts 2 --messages 5 ${bad_args}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(STRIP "${err}" err_line)
  if(NOT rc EQUAL 2 OR NOT out STREQUAL "" OR err_line STREQUAL ""
     OR err_line MATCHES "\n")
    message(FATAL_ERROR "rbcast_sim ${bad_args}: want exit 2 and one line "
                        "on stderr, got (${rc}):\n${out}${err}")
  endif()
endforeach()
message(STATUS "trace smoke passed: ${trace_file}")

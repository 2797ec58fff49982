# Smoke test of the churnlab CLI: simulate a tiny corpus, then run every
# read-side subcommand against it. Any non-zero exit fails the test.
#
# Invoked by CTest with -DCLI=<binary> -DWORK_DIR=<scratch dir>.

file(MAKE_DIRECTORY ${WORK_DIR})
set(DATASET ${WORK_DIR}/smoke.clb)

function(run_cli)
  execute_process(COMMAND ${CLI} ${ARGN}
                  RESULT_VARIABLE exit_code
                  OUTPUT_VARIABLE output
                  ERROR_VARIABLE errors)
  if(NOT exit_code EQUAL 0)
    message(FATAL_ERROR
      "churnlab ${ARGN} failed (${exit_code}):\n${output}\n${errors}")
  endif()
endfunction()

# Runs churnlab expecting failure; the error output must mention `needle`.
function(run_cli_fails needle)
  execute_process(COMMAND ${CLI} ${ARGN}
                  RESULT_VARIABLE exit_code
                  OUTPUT_VARIABLE output
                  ERROR_VARIABLE errors)
  if(exit_code EQUAL 0)
    message(FATAL_ERROR "churnlab ${ARGN} succeeded:\n${output}")
  endif()
  string(FIND "${errors}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR
      "churnlab ${ARGN} failed without '${needle}':\n${output}\n${errors}")
  endif()
endfunction()

run_cli(simulate --out ${DATASET} --loyal 40 --defecting 40 --seed 9)
run_cli(stats --data ${DATASET})
run_cli(score --data ${DATASET} --out ${WORK_DIR}/scores.csv)
run_cli(explain --data ${DATASET} --customer 50)
run_cli(profile --data ${DATASET} --customer 50)
run_cli(profile --data ${DATASET} --customer 50 --at 6 --top 5)
run_cli(evaluate --data ${DATASET} --first_month 12 --last_month 24)
run_cli(forecast --data ${DATASET} --decision 14 --horizon 6)

# Flag values beyond the option's integer type are rejected by name instead
# of wrapping (2^32 + 2 would score with a window of 2, 2^32 + 1 would
# explain customer 1, 2^32 would profile window 0), and a window span whose
# length in days overflows is rejected by the model.
run_cli_fails("--window 4294967298 is out of range"
              score --data ${DATASET} --window 4294967298)
run_cli_fails("--customer 4294967297 is out of range"
              explain --data ${DATASET} --customer 4294967297)
run_cli_fails("--at 4294967296 is out of range"
              profile --data ${DATASET} --customer 50 --at 4294967296)
run_cli_fails("window_span_months 100000000 overflows"
              score --data ${DATASET} --window 100000000)

# CSV round trip through the CLI.
run_cli(simulate --out ${WORK_DIR}/smoke_csv --csv --loyal 20 --defecting 20
        --seed 10)
run_cli(stats --data ${WORK_DIR}/smoke_csv)

# Telemetry: --metrics-out must produce a parseable versioned JSON document
# with at least one counter and one histogram (the dataset-load counters and
# the detailed-timing latency histograms are always populated by `score`).
set(METRICS_JSON ${WORK_DIR}/metrics.json)
run_cli(score --data ${DATASET} --metrics-out ${METRICS_JSON} --trace)
if(NOT EXISTS ${METRICS_JSON})
  message(FATAL_ERROR "--metrics-out did not write ${METRICS_JSON}")
endif()
file(READ ${METRICS_JSON} metrics_content)
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  string(JSON telemetry_version ERROR_VARIABLE json_error
         GET "${metrics_content}" churnlab_telemetry_version)
  if(NOT json_error STREQUAL "NOTFOUND")
    message(FATAL_ERROR "metrics JSON is unparseable: ${json_error}")
  endif()
  if(NOT telemetry_version EQUAL 1)
    message(FATAL_ERROR "unexpected telemetry version '${telemetry_version}'")
  endif()
  string(JSON num_counters LENGTH "${metrics_content}" counters)
  if(num_counters LESS 1)
    message(FATAL_ERROR "telemetry has no counters")
  endif()
  string(JSON num_histograms LENGTH "${metrics_content}" histograms)
  if(num_histograms LESS 1)
    message(FATAL_ERROR "telemetry has no histograms")
  endif()
  string(JSON trace_root ERROR_VARIABLE json_error
         GET "${metrics_content}" trace name)
  if(NOT trace_root STREQUAL "run")
    message(FATAL_ERROR "telemetry trace tree missing (root='${trace_root}')")
  endif()
else()
  # Pre-3.19 fallback: structural greps instead of real JSON parsing.
  foreach(needle "\"churnlab_telemetry_version\":1" "\"counters\":{\"churnlab."
          "\"histograms\":{\"churnlab." "\"trace\":")
    string(FIND "${metrics_content}" "${needle}" found)
    if(found EQUAL -1)
      message(FATAL_ERROR "telemetry JSON lacks ${needle}")
    endif()
  endforeach()
endif()

# The structured JSONL sink must be created and non-empty under --verbose.
run_cli(evaluate --data ${DATASET} --first_month 12 --last_month 24
        --verbose --log-json ${WORK_DIR}/events.jsonl)
if(NOT EXISTS ${WORK_DIR}/events.jsonl)
  message(FATAL_ERROR "--log-json did not write events.jsonl")
endif()

# Unknown flags and subcommands must fail.
execute_process(COMMAND ${CLI} stats --bogus-flag x
                RESULT_VARIABLE exit_code OUTPUT_QUIET ERROR_QUIET)
if(exit_code EQUAL 0)
  message(FATAL_ERROR "unknown flag was accepted")
endif()
execute_process(COMMAND ${CLI} frobnicate
                RESULT_VARIABLE exit_code OUTPUT_QUIET ERROR_QUIET)
if(exit_code EQUAL 0)
  message(FATAL_ERROR "unknown subcommand was accepted")
endif()

file(REMOVE_RECURSE ${WORK_DIR})

# End-to-end test of the live-telemetry CLI surface on serve-replay:
# quiet-by-default progress logging, the --telemetry-out time-series JSONL
# (schema version + monotonic seq), the --prom-out Prometheus textfile
# (format validation), and the --flight-recorder failpoint-triggered dump.
#
# Invoked by CTest with -DCLI=<binary> -DWORK_DIR=<scratch dir>.

file(MAKE_DIRECTORY ${WORK_DIR})
set(DATASET ${WORK_DIR}/replay.clb)

# Runs the CLI, failing the test on non-zero exit; the combined
# stdout/stderr is returned in `cli_output` for content assertions.
function(run_cli)
  execute_process(COMMAND ${CLI} ${ARGN}
                  RESULT_VARIABLE exit_code
                  OUTPUT_VARIABLE output
                  ERROR_VARIABLE errors)
  if(NOT exit_code EQUAL 0)
    message(FATAL_ERROR
      "churnlab ${ARGN} failed (${exit_code}):\n${output}\n${errors}")
  endif()
  set(cli_output "${output}${errors}" PARENT_SCOPE)
endfunction()

run_cli(simulate --out ${DATASET} --loyal 40 --defecting 40 --seed 9)

# --- Progress logging is opt-in: a default run must stay quiet. -------------
run_cli(serve-replay --data ${DATASET} --threads 2 --shards 8)
if(cli_output MATCHES "serve_replay_progress" OR cli_output MATCHES "fleet_health")
  message(FATAL_ERROR "non-verbose serve-replay emitted progress logs:\n${cli_output}")
endif()
if(NOT cli_output MATCHES "replayed [0-9]+ receipts")
  message(FATAL_ERROR "serve-replay summary line missing:\n${cli_output}")
endif()

# --- --verbose turns on rate/ETA progress and the fleet-health line. --------
run_cli(--verbose serve-replay --data ${DATASET} --threads 2 --shards 8)
if(NOT cli_output MATCHES "serve_replay_progress .*rate=[0-9]+/s eta=")
  message(FATAL_ERROR "verbose serve-replay lacks progress lines:\n${cli_output}")
endif()
if(NOT cli_output MATCHES "fleet_health shards=8 ")
  message(FATAL_ERROR "verbose serve-replay lacks fleet_health:\n${cli_output}")
endif()

# --- Time-series JSONL: schema version, monotonic seq, counter deltas. ------
set(TS_JSONL ${WORK_DIR}/ts.jsonl)
run_cli(--telemetry-out ${TS_JSONL} --telemetry-interval-ms 250
        serve-replay --data ${DATASET} --threads 2 --shards 8)
if(NOT EXISTS ${TS_JSONL})
  message(FATAL_ERROR "--telemetry-out did not write ${TS_JSONL}")
endif()
file(STRINGS ${TS_JSONL} ts_lines)
list(LENGTH ts_lines num_ts_lines)
if(num_ts_lines LESS 2)
  message(FATAL_ERROR "time series has ${num_ts_lines} lines; want header + samples")
endif()
list(GET ts_lines 0 ts_header)
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  string(JSON ts_version ERROR_VARIABLE json_error
         GET "${ts_header}" churnlab_timeseries_version)
  if(NOT json_error STREQUAL "NOTFOUND")
    message(FATAL_ERROR "time-series header unparseable: ${json_error}")
  endif()
  if(NOT ts_version EQUAL 1)
    message(FATAL_ERROR "unexpected time-series version '${ts_version}'")
  endif()
  string(JSON ts_interval GET "${ts_header}" interval_ms)
  if(NOT ts_interval EQUAL 250)
    message(FATAL_ERROR "header interval_ms=${ts_interval}, want 250")
  endif()
  # seq must be strictly monotonic across samples, and counters must carry
  # total + delta.
  set(prev_seq -1)
  math(EXPR last_index "${num_ts_lines} - 1")
  foreach(index RANGE 1 ${last_index})
    list(GET ts_lines ${index} sample)
    string(JSON seq ERROR_VARIABLE json_error GET "${sample}" seq)
    if(NOT json_error STREQUAL "NOTFOUND")
      message(FATAL_ERROR "sample ${index} unparseable: ${json_error}")
    endif()
    if(NOT seq GREATER prev_seq)
      message(FATAL_ERROR "seq not monotonic: ${prev_seq} -> ${seq}")
    endif()
    set(prev_seq ${seq})
    string(JSON ingested ERROR_VARIABLE json_error GET "${sample}"
           counters churnlab.serve.receipts_ingested total)
    if(json_error STREQUAL "NOTFOUND" AND NOT ingested GREATER_EQUAL 0)
      message(FATAL_ERROR "bad receipts_ingested total in: ${sample}")
    endif()
  endforeach()
else()
  foreach(needle "\"churnlab_timeseries_version\":1" "\"seq\":0"
          "\"total\":" "\"delta\":")
    string(FIND "${ts_header}${ts_lines}" "${needle}" found)
    if(found EQUAL -1)
      message(FATAL_ERROR "time series lacks ${needle}")
    endif()
  endforeach()
endif()

# --- Prometheus textfile: node-exporter-compatible exposition. --------------
set(PROM_OUT ${WORK_DIR}/metrics.prom)
run_cli(--prom-out ${PROM_OUT}
        serve-replay --data ${DATASET} --threads 2 --shards 8)
if(NOT EXISTS ${PROM_OUT})
  message(FATAL_ERROR "--prom-out did not write ${PROM_OUT}")
endif()
file(STRINGS ${PROM_OUT} prom_lines)
set(saw_receipts_total FALSE)
foreach(line IN LISTS prom_lines)
  if(line MATCHES "^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* ")
    continue()
  endif()
  # Every sample line: a spec-valid name, optional {labels}, one value.
  if(NOT line MATCHES "^[a-zA-Z_:][a-zA-Z0-9_:]*(\\{[^{}]*\\})? [^ ]+$")
    message(FATAL_ERROR "invalid exposition line: '${line}'")
  endif()
  if(line MATCHES "^churnlab_serve_receipts_ingested_total [0-9]+$")
    set(saw_receipts_total TRUE)
  endif()
endforeach()
if(NOT saw_receipts_total)
  message(FATAL_ERROR "churnlab_serve_receipts_ingested_total missing from ${PROM_OUT}")
endif()
if(NOT prom_lines MATCHES "# TYPE churnlab_serve_receipts_ingested_total counter")
  message(FATAL_ERROR "counter TYPE header missing from ${PROM_OUT}")
endif()
# Per-shard labeled gauges ride through the --prom-out detailed-timing path.
if(NOT prom_lines MATCHES "churnlab_serve_shard_receipts{shard=\"")
  message(FATAL_ERROR "labeled shard gauges missing from ${PROM_OUT}")
endif()

# --- Flight recorder: a firing failpoint dumps its own site's events. -------
set(FLIGHT_OUT ${WORK_DIR}/flight.jsonl)
run_cli(--flight-recorder ${FLIGHT_OUT}
        serve-replay --data ${DATASET} --threads 2 --shards 8
        --failpoints "serve.ingest.receipt=error@nth(50)")
if(NOT EXISTS ${FLIGHT_OUT})
  message(FATAL_ERROR "--flight-recorder did not write ${FLIGHT_OUT}")
endif()
file(READ ${FLIGHT_OUT} flight_content)
string(FIND "${flight_content}"
       "\"reason\":\"failpoint:failpoint.serve.ingest.receipt\"" found)
if(found EQUAL -1)
  message(FATAL_ERROR "failpoint-triggered dump missing:\n${flight_content}")
endif()
string(FIND "${flight_content}" "\"site\":\"failpoint.serve.ingest.receipt\""
       found)
if(found EQUAL -1)
  message(FATAL_ERROR "firing site's events missing from dump")
endif()
string(FIND "${flight_content}" "\"churnlab_flight_version\":1" found)
if(found EQUAL -1)
  message(FATAL_ERROR "flight dump header missing")
endif()
string(FIND "${flight_content}" "\"site\":\"serve.shard.task\"" found)
if(found EQUAL -1)
  message(FATAL_ERROR "shard-task spans missing from dump")
endif()

# --- Huge --batch-days: one batch, no hang. ---------------------------------
# 2^32 once truncated to a 0-day batch that never advanced; INT32_MAX past
# a nonzero first day overflowed the batch end.
foreach(batch_args "--batch-days;4294967296"
        "--batch-days;2147483647;--from-day;5")
  execute_process(COMMAND ${CLI} serve-replay --data ${DATASET} ${batch_args}
                  RESULT_VARIABLE exit_code
                  OUTPUT_VARIABLE output
                  ERROR_VARIABLE errors
                  TIMEOUT 30)
  if(NOT exit_code EQUAL 0)
    message(FATAL_ERROR
      "serve-replay ${batch_args} failed (${exit_code}):\n${output}\n${errors}")
  endif()
  if(NOT output MATCHES "replayed [0-9]+ receipts in 1 batches")
    message(FATAL_ERROR "serve-replay ${batch_args} did not use one batch:\n${output}")
  endif()
endforeach()

# --- Flag validation. -------------------------------------------------------
execute_process(COMMAND ${CLI} --telemetry-out ${WORK_DIR}/bad.jsonl
                        --telemetry-interval-ms 0
                        serve-replay --data ${DATASET}
                RESULT_VARIABLE exit_code OUTPUT_QUIET ERROR_QUIET)
if(exit_code EQUAL 0)
  message(FATAL_ERROR "--telemetry-interval-ms 0 was accepted")
endif()

file(REMOVE_RECURSE ${WORK_DIR})

# Command-line contract of ccsig_analyze:
#   - numeric flags reject negative, non-numeric and out-of-range values
#     with exit 2 (no silent atoi wrap-around), and --shards is bounded by
#     StreamConfig::kMaxShards (1024) — a larger count would allocate every
#     shard up front;
#   - the removed --stream / --mmap flags are usage errors;
#   - --flow-telemetry writes exactly the slow-start RTT samples each
#     verdict was computed from: one CSV row per sample, as many as
#     --verbose reports for the flow.
# Registered as the `ccsig_analyze_cli_test` ctest by tests/CMakeLists.txt.
#
# Invoked as:
#   cmake -DANALYZE_BIN=<ccsig_analyze> -DCAPTURE=<a capture with one flow>
#         -DOUT_DIR=<scratch dir> [-DOBS_OFF=ON] -P run_analyze_cli_test.cmake

foreach(var ANALYZE_BIN CAPTURE OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} must be passed with -D${var}=...")
  endif()
endforeach()
file(MAKE_DIRECTORY ${OUT_DIR})

function(expect_exit want)
  execute_process(COMMAND ${ANALYZE_BIN} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL want)
    message(FATAL_ERROR "ccsig_analyze ${ARGN}: exit ${rc}, want ${want}\n${err}")
  endif()
endfunction()

foreach(flag --min-samples --jobs --shards --max-flows --idle-timeout)
  foreach(bad -1 abc 12x "" 99999999999999999999999)
    expect_exit(2 ${CAPTURE} ${flag} "${bad}")
  endforeach()
  expect_exit(0 ${CAPTURE} ${flag} 1)
endforeach()
foreach(too_many 1025 100000000 4294967295)
  expect_exit(2 ${CAPTURE} --shards ${too_many})
endforeach()
expect_exit(0 ${CAPTURE} --shards 1024)
expect_exit(2 ${CAPTURE} --idle-timeout nan)
expect_exit(2 ${CAPTURE} --idle-timeout inf)
expect_exit(2 ${CAPTURE} --stream)
expect_exit(2 ${CAPTURE} --mmap)
expect_exit(2 ${CAPTURE} --jobs)

set(csv ${OUT_DIR}/telemetry.csv)
execute_process(
  COMMAND ${ANALYZE_BIN} ${CAPTURE} --verbose --flow-telemetry ${csv}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--flow-telemetry run exited ${rc}")
endif()
file(STRINGS ${csv} rows)
list(GET rows 0 header)
if(NOT header STREQUAL "flow,src_port,dst_port,time_s,rtt_s,acked_seq")
  message(FATAL_ERROR "unexpected telemetry header: ${header}")
endif()
list(LENGTH rows nrows)
math(EXPR samples_written "${nrows} - 1")
if(OBS_OFF)
  set(want_samples 0)  # the sample sink compiles away
else()
  string(REGEX MATCH "slow-start: ([0-9]+) RTT samples" _ "${out}")
  set(want_samples ${CMAKE_MATCH_1})
endif()
if(NOT samples_written EQUAL want_samples)
  message(FATAL_ERROR
    "telemetry has ${samples_written} samples, the verdict used "
    "${want_samples}")
endif()
message(STATUS "[analyze-cli] flag validation and telemetry OK "
               "(${samples_written} samples)")

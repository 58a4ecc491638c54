# Command-line contract of ccsigd:
#   - every numeric flag rejects negative, non-numeric, trailing-garbage and
#     out-of-range values with exit 2 (no silent atoi);
#   - --poll-records 0 is a usage error (a poll of nothing never finishes a
#     oneshot source), and so is one above 1048576 (the batch is reserved
#     up front; a huge value must not end in bad_alloc, exit 4);
#   - --shards above StreamConfig::kMaxShards (1024) and --window-slots
#     above 3600 are usage errors, not up-front allocations that abort;
#   - a valid oneshot run drains, logs its verdicts and exits 0.
# Every run has a timeout, so a hang fails the test instead of stalling it.
# Registered as the `ccsigd_cli_test` ctest by tests/CMakeLists.txt.
#
# Invoked as:
#   cmake -DCCSIGD_BIN=<ccsigd> -DCAPTURE=<a capture>
#         -DOUT_DIR=<scratch dir> -P run_ccsigd_cli_test.cmake

foreach(var CCSIGD_BIN CAPTURE OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} must be passed with -D${var}=...")
  endif()
endforeach()
file(MAKE_DIRECTORY ${OUT_DIR})
set(log ${OUT_DIR}/verdicts.log)

function(expect_exit want)
  file(REMOVE ${log})
  execute_process(
    COMMAND ${CCSIGD_BIN} --log ${log} --oneshot-source ${CAPTURE} --oneshot
            --quiet ${ARGN}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 60)
  if(NOT rc STREQUAL want)
    message(FATAL_ERROR "ccsigd ${ARGN}: exit ${rc}, want ${want}\n${err}")
  endif()
endfunction()

foreach(flag --window-tick-ms --window-slots --replay-pace-us --jobs --shards
             --max-flows --idle-timeout --poll-records --metrics-interval-ms)
  foreach(bad -1 abc 12x "" 99999999999999999999999)
    expect_exit(2 ${flag} "${bad}")
  endforeach()
  expect_exit(0 ${flag} 1)
endforeach()
expect_exit(2 --poll-records 0)
foreach(too_many 1048577 1000000000000 18446744073709551615)
  expect_exit(2 --poll-records ${too_many})
endforeach()
expect_exit(0 --poll-records 1048576)
foreach(too_many 1025 100000000 4294967295)
  expect_exit(2 --shards ${too_many})
endforeach()
expect_exit(0 --shards 1024)
expect_exit(2 --window-slots 3601)
expect_exit(2 --idle-timeout nan)
expect_exit(2 --idle-timeout inf)
expect_exit(2 --jobs)
expect_exit(0)
file(SIZE ${log} log_bytes)
if(log_bytes EQUAL 0)
  message(FATAL_ERROR "a valid oneshot run logged no verdict")
endif()
message(STATUS "[ccsigd-cli] flag validation OK")

# Command-line contract of train_pretrained, ccsig_run_testbed and
# ccsig_campaign:
#   - every numeric flag and positional number rejects negative,
#     non-numeric, trailing-garbage and out-of-range values with exit 2
#     (no silent atoi/atof/strtoull), before any simulation starts;
#   - each tool still completes one cheap valid run with exit 0.
# Every run has a timeout, so a hang fails the test instead of stalling it.
# Registered as the `tools_cli_test` ctest by tests/CMakeLists.txt.
#
# Invoked as:
#   cmake -DTRAIN_BIN=<train_pretrained> -DTESTBED_BIN=<ccsig_run_testbed>
#         -DCAMPAIGN_BIN=<ccsig_campaign> -DSWEEP_CSV=<a sweep cache CSV>
#         -DOUT_DIR=<scratch dir> -P run_tools_cli_test.cmake

foreach(var TRAIN_BIN TESTBED_BIN CAMPAIGN_BIN SWEEP_CSV OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} must be passed with -D${var}=...")
  endif()
endforeach()
file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR})
set(missing_csv ${OUT_DIR}/missing.csv)
set(model ${OUT_DIR}/model.inc)
set(store ${OUT_DIR}/campaign.ccrs)

function(expect_exit want)
  execute_process(
    COMMAND ${ARGN}
    WORKING_DIRECTORY ${OUT_DIR}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 120)
  if(NOT rc STREQUAL want)
    list(JOIN ARGN " " cmd)
    message(FATAL_ERROR "${cmd}: exit ${rc}, want ${want}\n${err}")
  endif()
endfunction()

# train_pretrained: a bad value must be refused before the missing CSV
# triggers a sweep.
foreach(flag --reps --jobs --seed)
  foreach(bad -1 abc 12x "" 99999999999999999999999)
    expect_exit(2 ${TRAIN_BIN} ${missing_csv} ${model} ${flag} "${bad}")
  endforeach()
endforeach()
expect_exit(2 ${TRAIN_BIN} ${missing_csv} ${model} --reps 0)
expect_exit(2 ${TRAIN_BIN} ${missing_csv} ${model} --jobs)
foreach(threshold 0.8x abc -0.5 0 1.5 nan inf)
  expect_exit(2 ${TRAIN_BIN} ${missing_csv} ${model} ${threshold} 4)
endforeach()
foreach(depth 4x -1 0 abc 2.5)
  expect_exit(2 ${TRAIN_BIN} ${missing_csv} ${model} 0.8 ${depth})
endforeach()
expect_exit(0 ${TRAIN_BIN} ${SWEEP_CSV} ${model} 0.8 4 --jobs 1 --seed 3)
file(SIZE ${model} model_bytes)
if(model_bytes EQUAL 0)
  message(FATAL_ERROR "train_pretrained wrote an empty model")
endif()

# ccsig_run_testbed.
foreach(flag --reps --jobs --seed --rate --latency --loss --buffer --duration)
  foreach(bad abc 12x "" -4)
    expect_exit(2 ${TESTBED_BIN} --quiet ${flag} "${bad}")
  endforeach()
endforeach()
expect_exit(2 ${TESTBED_BIN} --quiet --reps 0)
expect_exit(2 ${TESTBED_BIN} --quiet --rate 0)
expect_exit(2 ${TESTBED_BIN} --quiet --buffer 0)
expect_exit(2 ${TESTBED_BIN} --quiet --duration 0)
expect_exit(2 ${TESTBED_BIN} --quiet --duration inf)
expect_exit(2 ${TESTBED_BIN} --quiet --loss 1)
expect_exit(2 ${TESTBED_BIN} --quiet --loss nan)
expect_exit(2 ${TESTBED_BIN} --quiet --rate)
expect_exit(0 ${TESTBED_BIN} --quiet --duration 1 --latency 0 --loss 0
              --reps 2 --jobs 2 --seed 5)

# ccsig_campaign: --rows 0 stays valid (the full grid), so only the
# malformed values are refused.
foreach(flag --rows --chunk --jobs --seed --tests-per-cell --max-chunks)
  foreach(bad abc 12x "" -5 99999999999999999999999)
    expect_exit(2 ${CAMPAIGN_BIN} --store ${store} --quiet ${flag} "${bad}")
  endforeach()
endforeach()
expect_exit(2 ${CAMPAIGN_BIN} --store ${store} --quiet --chunk 0)
expect_exit(2 ${CAMPAIGN_BIN} --store ${store} --quiet --tests-per-cell 0)
if(EXISTS ${store})
  message(FATAL_ERROR "a refused ccsig_campaign run created its store")
endif()
expect_exit(0 ${CAMPAIGN_BIN} --store ${store} --quiet --rows 8 --chunk 4
              --jobs 2 --csv-out ${OUT_DIR}/campaign.csv)
file(STRINGS ${OUT_DIR}/campaign.csv rows)
list(LENGTH rows nrows)
if(NOT nrows EQUAL 10)  # fingerprint + header + 8 rows
  message(FATAL_ERROR "ccsig_campaign --rows 8 exported ${nrows} lines")
endif()
message(STATUS "[tools-cli] flag validation OK")

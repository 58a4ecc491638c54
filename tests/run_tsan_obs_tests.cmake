# Configures a second build tree with TSan, builds the observability
# concurrency tests, and runs them there. Registered as the
# `obs_tests_tsan` ctest by tests/CMakeLists.txt (only when the main build
# is unsanitized), so a plain `ctest` also proves the metrics shards, the
# window aggregator fed from the service loop, the admin socket answer
# path, the service tests that drive a daemon thread from the test
# thread (hot reload, stop, a FIFO writer), and the parallel_map runner with the
# supervised retry loop on top of it are race-free under -fsanitize=thread.
#
# Invoked as:
#   cmake -DSOURCE_DIR=<repo> -DBUILD_DIR=<build>/obs-tsan
#         -P run_tsan_obs_tests.cmake

foreach(var SOURCE_DIR BUILD_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} must be passed with -D${var}=...")
  endif()
endforeach()

set(tests
  obs_concurrency_test
  obs_window_test
  runtime_parallel_map_test
  runtime_supervised_test
  service_admin_test
  service_fault_test
  service_fifo_test
  service_test
)

message(STATUS "[obs-tsan] configuring TSan tree in ${BUILD_DIR}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${BUILD_DIR}
          -DCMAKE_BUILD_TYPE=RelWithDebInfo
          -DCCSIG_ENABLE_TSAN=ON
          # The TSan tree must not recursively register the second-tree
          # sanitizer scripts.
          -DCCSIG_SANITIZED_FAULT_TESTS=OFF
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "[obs-tsan] configure failed (${rc})")
endif()

include(ProcessorCount)
ProcessorCount(nproc)
if(nproc EQUAL 0)
  set(nproc 2)
endif()

message(STATUS "[obs-tsan] building ${tests}")
execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BUILD_DIR} --parallel ${nproc}
          --target ${tests}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "[obs-tsan] build failed (${rc})")
endif()

# A reported race must fail the test, not just print.
set(ENV{TSAN_OPTIONS} "halt_on_error=1:second_deadlock_stack=1")

list(JOIN tests "|" test_regex)
message(STATUS "[obs-tsan] running TSan obs tests")
execute_process(
  COMMAND ${CMAKE_CTEST_COMMAND} --test-dir ${BUILD_DIR}
          -R "^(${test_regex})$" --output-on-failure
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "[obs-tsan] TSan obs tests failed (${rc})")
endif()
message(STATUS "[obs-tsan] all TSan obs tests passed")

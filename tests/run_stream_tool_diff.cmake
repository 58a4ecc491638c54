# End-to-end golden check for ccsig_analyze: runs the tool on every
# committed example capture at jobs 1 and 4 and requires stdout to match
# <GOLDEN_DIR>/<capture>.stdout byte for byte and the exit code to match
# <GOLDEN_DIR>/<capture>.exit. Registered as the `stream_tool_byte_diff`
# ctest by tests/CMakeLists.txt.
#
# Invoked as:
#   cmake -DANALYZE_BIN=<ccsig_analyze> -DCAPTURE_DIR=<repo>/examples/captures
#         -DGOLDEN_DIR=<repo>/tests/goldens/analyze
#         -DOUT_DIR=<build>/stream_tool_diff -P run_stream_tool_diff.cmake

foreach(var ANALYZE_BIN CAPTURE_DIR GOLDEN_DIR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} must be passed with -D${var}=...")
  endif()
endforeach()

file(GLOB captures ${CAPTURE_DIR}/*.pcap)
if(NOT captures)
  message(FATAL_ERROR "no example captures found in ${CAPTURE_DIR}")
endif()

file(MAKE_DIRECTORY ${OUT_DIR})

foreach(capture ${captures})
  get_filename_component(name ${capture} NAME_WE)
  set(golden_out ${GOLDEN_DIR}/${name}.stdout)
  if(NOT EXISTS ${golden_out} OR NOT EXISTS ${GOLDEN_DIR}/${name}.exit)
    message(FATAL_ERROR "${name}: no golden in ${GOLDEN_DIR}")
  endif()
  file(STRINGS ${GOLDEN_DIR}/${name}.exit golden_rc)

  foreach(jobs 1 4)
    set(out ${OUT_DIR}/${name}.j${jobs}.txt)
    execute_process(
      COMMAND ${ANALYZE_BIN} ${capture} --jobs ${jobs}
      OUTPUT_FILE ${out}
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL golden_rc)
      message(FATAL_ERROR
        "${name}: --jobs ${jobs} exited ${rc}, golden exit is ${golden_rc}")
    endif()
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files ${golden_out} ${out}
      RESULT_VARIABLE diff_rc)
    if(NOT diff_rc EQUAL 0)
      message(FATAL_ERROR
        "${name}: --jobs ${jobs} output differs from the golden "
        "(${golden_out} vs ${out})")
    endif()
  endforeach()
  message(STATUS "[tool-golden] ${name}: golden at jobs 1 and 4")
endforeach()

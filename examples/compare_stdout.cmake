# Runs one example and compares its stdout byte for byte with a committed
# golden file. The examples are deterministic, so any difference is a
# behaviour change (or the golden must be re-recorded in its own commit).
#
#   cmake -DEXAMPLE=<executable> -DGOLDEN=<file> -P compare_stdout.cmake
execute_process(COMMAND "${EXAMPLE}" OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${rc}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name "${GOLDEN}" NAME)
  file(WRITE "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual" "${actual}")
  message(FATAL_ERROR "stdout differs from ${GOLDEN}; "
                      "actual output written to ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
endif()

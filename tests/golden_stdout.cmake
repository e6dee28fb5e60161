# Runs BIN and compares its stdout byte for byte with GOLDEN:
#   cmake -DBIN=<binary> -DGOLDEN=<file> -P golden_stdout.cmake
# With TOCK_REGEN_GOLDEN=1 in the environment it re-records GOLDEN instead.
execute_process(COMMAND ${BIN} OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
if("$ENV{TOCK_REGEN_GOLDEN}" STREQUAL "1")
  file(WRITE ${GOLDEN} "${actual}")
  return()
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name ${GOLDEN} NAME)
  file(WRITE ${name}.actual "${actual}")
  message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN}; it is saved in "
                      "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
endif()

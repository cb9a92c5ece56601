# Runs a command and fails unless it exits with exactly EXPECT_EXIT and,
# when EXPECT_OUTPUT is set, its stdout+stderr match that regex. ctest's
# WILL_FAIL accepts any non-zero exit, which cannot tell a usage error
# (exit 2) from a run that went ahead and hit a timeout (exit 3).
#
#   cmake -DEXPECT_EXIT=2 [-DEXPECT_OUTPUT=regex] -P expect_exit.cmake -- CMD ARGS...
#
# CMD and ARGS travel as a CMake list, so no argument may contain a ';'.
set(cmd)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "expect_exit.cmake: no command after --")
endif()

execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE out TIMEOUT 60)
message("${out}")
if(NOT rc STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "expected exit ${EXPECT_EXIT}, got '${rc}'")
endif()
if(DEFINED EXPECT_OUTPUT AND NOT out MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "output does not match '${EXPECT_OUTPUT}'")
endif()

# Runs a command and checks its exit status and combined stdout/stderr,
# for command-line error-path tests that gtest cannot express:
#
#   cmake -DEXPECT_EXIT=<status> -DEXPECT_OUTPUT=<regex>
#         -P expect_exit.cmake <command> [args...]
set(cmd)
set(start -1)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(start GREATER_EQUAL 0 AND i GREATER_EQUAL start)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "-P")
    math(EXPR start "${i} + 2")  # the command follows the script path
  endif()
endforeach()

execute_process(COMMAND ${cmd} RESULT_VARIABLE status
                OUTPUT_VARIABLE output ERROR_VARIABLE output)
message("${output}")
if(NOT status STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "expected exit status ${EXPECT_EXIT}, got ${status}")
endif()
if(NOT output MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "output does not match: ${EXPECT_OUTPUT}")
endif()

# Behaviour contract: runs one deterministic command and compares what it
# prints with its checked-in expected file, byte for byte.
#
#   cmake -DEXPECTED=<file> -DOUT_DIR=<dir> [-DTRACE=<file>] [-DREGEN=ON]
#         -P contract.cmake -- <command> [args...]
#
# The command runs in OUT_DIR. With TRACE, the trace file the command writes
# there is appended to its stdout. On a mismatch the script writes
# <name>.actual.txt and <name>.diff.txt into OUT_DIR and fails; with REGEN=ON
# it rewrites the expected file instead.
set(cmd)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT cmd OR NOT EXPECTED OR NOT OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DEXPECTED=<file> -DOUT_DIR=<dir> "
                      "-P contract.cmake -- <command> [args...]")
endif()

get_filename_component(name "${EXPECTED}" NAME_WE)
set(actual_file "${OUT_DIR}/${name}.actual.txt")
set(diff_file "${OUT_DIR}/${name}.diff.txt")
file(MAKE_DIRECTORY "${OUT_DIR}")
file(REMOVE "${actual_file}" "${diff_file}")

execute_process(COMMAND ${cmd} WORKING_DIRECTORY "${OUT_DIR}"
                OUTPUT_VARIABLE actual RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${name}: command exited with '${status}'")
endif()
if(TRACE)
  file(READ "${OUT_DIR}/${TRACE}" trace)
  string(APPEND actual "${trace}")
endif()

if(REGEN)
  file(WRITE "${EXPECTED}" "${actual}")
  return()
endif()

set(expected "")
if(EXISTS "${EXPECTED}")
  file(READ "${EXPECTED}" expected)
endif()
if(NOT actual STREQUAL expected)
  file(WRITE "${actual_file}" "${actual}")
  execute_process(COMMAND diff -u "${EXPECTED}" "${actual_file}"
                  OUTPUT_FILE "${diff_file}")
  file(READ "${diff_file}" diff LIMIT 4000)
  message(FATAL_ERROR "${name}: output differs from ${EXPECTED}\n"
                      "actual: ${actual_file}\ndiff: ${diff_file}\n${diff}")
endif()

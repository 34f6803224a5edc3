# Smoke run of one example binary, registered in ctest with the label
# `example`: the binary runs in a fresh, empty working directory, must exit
# with status 0 and must leave that directory empty.
#
#   cmake -DEXAMPLE=<path to binary> -DWORK_DIR=<scratch dir> -P run_example.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${EXAMPLE}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE status
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
file(GLOB left_behind LIST_DIRECTORIES true RELATIVE "${WORK_DIR}"
  "${WORK_DIR}/*" "${WORK_DIR}/.*")
file(REMOVE_RECURSE "${WORK_DIR}")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${status}:\n${output}")
endif()
if(left_behind)
  message(FATAL_ERROR "${EXAMPLE} left files in its working directory: "
                      "${left_behind}")
endif()

# Runs COMMAND with the ;-separated ARGS and fails unless it exits with
# EXIT and its combined stdout and stderr match the regex MATCH.
#
#   cmake -DCOMMAND=<exe> -DARGS=<a;b> -DEXIT=<code> -DMATCH=<regex>
#         -P expect_run.cmake
execute_process(COMMAND ${COMMAND} ${ARGS}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
message("${out}")
if(NOT code EQUAL EXIT)
  message(FATAL_ERROR "exit code ${code}, expected ${EXIT}")
endif()
if(NOT out MATCHES "${MATCH}")
  message(FATAL_ERROR "output does not match '${MATCH}'")
endif()

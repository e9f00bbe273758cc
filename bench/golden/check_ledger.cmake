# Runs a bench that writes a ledger of its virtual outputs and compares it
# byte for byte with the committed golden copy.
#
#   cmake -DBENCH=<binary> -DARGS="<args;...>" -DGOLDEN=<file> -DOUT=<file>
#         -P check_ledger.cmake
#
# A change to modelled behaviour rewrites the golden copy in the same
# diff: run the bench with the same arguments and `--ledger <golden>`.
execute_process(COMMAND ${BENCH} ${ARGS} --ledger ${OUT}
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differ)
if(differ)
  file(READ ${GOLDEN} want)
  file(READ ${OUT} got)
  message(FATAL_ERROR "virtual outputs differ from ${GOLDEN}\n"
                      "golden:\n${want}\nmeasured:\n${got}")
endif()

# Reruns one `cable_sim ratio ... --stats` command and compares its
# stdout byte for byte against a committed fixture.
#
#   cmake -DCLI=<cable_sim> -DARGS="ratio;mcf;..." -DGOLDEN=<fixture>
#         -DOUT=<fresh dump> -P golden_stats.cmake
#
# The fixtures pin every counter and histogram of both link
# directions, so a refactor of the encode path must leave them
# unchanged. Regenerate a fixture only for a change that means to
# alter the stats, and say so in the change description.

execute_process(COMMAND ${CLI} ${ARGS}
                OUTPUT_FILE ${OUT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cable_sim exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${GOLDEN} ${OUT}
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
    message(FATAL_ERROR "stats dump ${OUT} differs from ${GOLDEN}")
endif()

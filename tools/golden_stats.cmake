# Reruns one `cable_sim` command and compares one of its outputs
# byte for byte against a committed fixture.
#
#   cmake -DCLI=<cable_sim> -DARGS="ratio;mcf;..." -DGOLDEN=<fixture>
#         -DOUT=<fresh stdout> [-DCOMPARE=<file>] [-DFILTER=<command>]
#         -P golden_stats.cmake
#
# Without COMPARE the command's stdout (written to OUT) is compared;
# with it, the named file the command wrote (e.g. its --snapshot-out
# target) is compared instead. FILTER, a command list, is run on that
# file first and its stdout is compared: it strips what a rerun cannot
# reproduce (e.g. tools/strip_wallclock.py drops wall-clock timings).
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
if(NOT DEFINED COMPARE)
    set(COMPARE ${OUT})
endif()
if(DEFINED FILTER)
    execute_process(COMMAND ${FILTER} ${COMPARE}
                    OUTPUT_FILE ${COMPARE}.filtered
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "filter ${FILTER} exited with ${rc}")
    endif()
    set(COMPARE ${COMPARE}.filtered)
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${GOLDEN} ${COMPARE}
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
    message(FATAL_ERROR "output ${COMPARE} differs from ${GOLDEN}")
endif()

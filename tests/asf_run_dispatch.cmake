# Dispatch policy ≡ default at the asf_run surface (DESIGN.md §10): runs
# one config with the default dispatch and with --dispatch=index and fails
# unless the outputs agree byte for byte once the wall timing line (and
# the index run's "wrote" line) is dropped, and unless the index run's
# bench JSON shows that no update was served by the scan — i.e. the flag
# reached the engine.
#
#   cmake -DASF_RUN=path/to/asf_run -DWORK_DIR=scratch/dir \
#         -P tests/asf_run_dispatch.cmake

if(NOT ASF_RUN OR NOT WORK_DIR)
  message(FATAL_ERROR "pass -DASF_RUN=<path to asf_run> -DWORK_DIR=<dir>")
endif()
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(json ${WORK_DIR}/dispatch_index.json)

set(args --protocol=ft-nrp --streams=500 --duration=900 --eps-plus=0.2
    --eps-minus=0.2 --oracle-interval=120)
execute_process(COMMAND ${ASF_RUN} ${args}
                OUTPUT_VARIABLE default_out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "asf_run (default dispatch) exited with ${rc}")
endif()
execute_process(COMMAND ${ASF_RUN} ${args} --dispatch=index
                        --bench-json=${json}
                OUTPUT_VARIABLE index_out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "asf_run --dispatch=index exited with ${rc}")
endif()
foreach(out default_out index_out)
  string(REGEX REPLACE "wall seconds [^\n]*\n" "" ${out} "${${out}}")
  string(REGEX REPLACE "(^|\n)wrote [^\n]*\n" "\\1" ${out} "${${out}}")
endforeach()
if(NOT index_out STREQUAL default_out)
  message(FATAL_ERROR "--dispatch=index differs from the default run\n"
          "default:\n${default_out}\nindex:\n${index_out}")
endif()
file(READ ${json} bench)
if(NOT bench MATCHES "\"dispatch_scan\": 0,")
  message(FATAL_ERROR "--dispatch=index served updates by scan:\n${bench}")
endif()
message(STATUS "asf_run tables identical under default and index dispatch")

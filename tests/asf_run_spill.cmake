# Spill ≡ in-memory at the asf_run surface (DESIGN.md §13): runs one churn
# config in memory and with --spill and fails unless the outputs agree
# byte for byte once the wall timing line and the "spill " lines are
# dropped, unless some retired records went out to the log and came back,
# and unless the spill directory is left empty (the log is unlinked at
# open).
#
#   cmake -DASF_RUN=path/to/asf_run -DWORK_DIR=scratch/dir \
#         -P tests/asf_run_spill.cmake

if(NOT ASF_RUN OR NOT WORK_DIR)
  message(FATAL_ERROR "pass -DASF_RUN=<path to asf_run> -DWORK_DIR=<dir>")
endif()
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

set(args --churn --churn-rate=0.2 --churn-lifetime=150 --streams=400
    --duration=800 --seed=5)
execute_process(COMMAND ${ASF_RUN} ${args}
                OUTPUT_VARIABLE base_out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "asf_run (in memory) exited with ${rc}")
endif()
execute_process(COMMAND ${ASF_RUN} ${args} --spill=${WORK_DIR}
                OUTPUT_VARIABLE spill_out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "asf_run --spill exited with ${rc}")
endif()
if(NOT spill_out MATCHES "\nspill records out / back: [1-9]")
  message(FATAL_ERROR "--spill spilled no record:\n${spill_out}")
endif()
foreach(out base_out spill_out)
  string(REGEX REPLACE "wall seconds [^\n]*\n" "" ${out} "${${out}}")
  string(REGEX REPLACE "(^|\n)spill [^\n]*" "" ${out} "${${out}}")
endforeach()
if(NOT spill_out STREQUAL base_out)
  message(FATAL_ERROR "--spill differs from the in-memory run\n"
          "in memory:\n${base_out}\nspilled:\n${spill_out}")
endif()
file(GLOB left ${WORK_DIR}/*)
if(left)
  message(FATAL_ERROR "--spill left files behind: ${left}")
endif()
message(STATUS "asf_run tables identical in memory and with --spill")

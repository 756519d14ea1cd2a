# Serial ≡ sharded at the asf_run surface (DESIGN.md §8): runs one config
# at --shards=1, 2 and 4 and fails unless the three outputs agree byte for
# byte once the wall/replay timing lines are dropped and the header's
# shard count is masked.
#
#   cmake -DASF_RUN=path/to/asf_run -P tests/asf_run_shards.cmake

if(NOT ASF_RUN)
  message(FATAL_ERROR "pass -DASF_RUN=<path to asf_run>")
endif()

set(args --protocol=ft-nrp --streams=500 --duration=900 --eps-plus=0.2
    --eps-minus=0.2 --oracle-interval=120)
foreach(shards 1 2 4)
  execute_process(COMMAND ${ASF_RUN} ${args} --shards=${shards}
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "asf_run --shards=${shards} exited with ${rc}")
  endif()
  string(REGEX REPLACE "(wall|replay) seconds [^\n]*\n" "" out "${out}")
  string(REGEX REPLACE ", [0-9]+ shards?\\)" ", S shards)" out "${out}")
  if(shards EQUAL 1)
    set(serial "${out}")
  elseif(NOT out STREQUAL serial)
    message(FATAL_ERROR "--shards=${shards} differs from the serial run\n"
            "serial:\n${serial}\nsharded:\n${out}")
  endif()
endforeach()
message(STATUS "asf_run tables identical at shards 1, 2, 4")

# Integration test for `mosaic_cli chip` (full-chip tiling engine).
#
# Run 1: a clean 2x2 replicated chip with 512 nm tiles must exit 0 and
# print its window kernel build time ("kernel sets:"), a per-tile table
# and the seam-consistency summary.
#
# Run 2: fail-point hits on `tile.optimize` are counted globally across
# tiles and attempts. With --threads 1 the schedule is serial, so arming
# hits 1 and 2 with --retries 1 makes the first non-empty tile fail both
# attempts and fall back to its uncorrected pattern: the run must exit
# with the degraded code (2) and report a FALLBACK row, but still stitch.
#
# Invoke with:
#   cmake -DMOSAIC_CLI=<path> -DWORK_DIR=<scratch dir> -P chip_runner_test.cmake

if(NOT DEFINED MOSAIC_CLI)
  message(FATAL_ERROR "pass -DMOSAIC_CLI=<path to mosaic_cli>")
endif()
if(NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DWORK_DIR=<scratch dir>")
endif()
file(MAKE_DIRECTORY ${WORK_DIR})

execute_process(
  COMMAND ${MOSAIC_CLI} chip --case 1 --replicate 2 --tile-size 512
          --halo 128 --pixel 16 --iters 2 --threads 2
          --kernel-cache ${WORK_DIR}/kernels
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE code)

if(NOT code EQUAL 0)
  message(FATAL_ERROR
    "expected clean chip run to exit 0, got '${code}'\n"
    "stdout:\n${out}\nstderr:\n${err}")
endif()
foreach(needle "kernel sets: " "tiles ok" "seam consistency" "0 non-finite")
  string(FIND "${out}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "missing '${needle}' in chip report:\n${out}")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env
          "MOSAIC_FAILPOINTS=tile.optimize:throw@iter=1,tile.optimize:throw@iter=2"
          ${MOSAIC_CLI} chip --case 1 --replicate 2 --tile-size 512
          --halo 128 --pixel 16 --iters 2 --threads 1 --retries 1
          --backoff-ms 1 --kernel-cache ${WORK_DIR}/kernels
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE code)

if(NOT code EQUAL 2)
  message(FATAL_ERROR
    "expected degraded chip run to exit 2, got '${code}'\n"
    "stdout:\n${out}\nstderr:\n${err}")
endif()
string(FIND "${out}" "FALLBACK" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "expected a FALLBACK row in the chip report:\n${out}")
endif()
string(FIND "${out}" "seam consistency" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "degraded run must still stitch and report:\n${out}")
endif()

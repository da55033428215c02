# Integration test for `mosaic_cli batch` fault isolation.
#
# Fail-point hits on `batch.clip` are counted globally across clips and
# attempts: clip 1 is hit 1, clip 2 is hit 2, clip 3's first attempt is hit 3
# and its retry is hit 4. Arming throws on hits 3 and 4 makes exactly one
# clip fail permanently, so the run must exit with the partial-failure code
# (2) while still reporting a status row for every clip.
#
# A second run resumes from a garbage B1.ckpt: an unusable checkpoint is
# deleted and the clip restarts fresh without using up an attempt, so the
# run exits 0 with B1 at 1 attempt.
#
# Invoke with:
#   cmake -DMOSAIC_CLI=<path-to-mosaic_cli> -DWORK_DIR=<scratch dir>
#         -P batch_runner_test.cmake

if(NOT DEFINED MOSAIC_CLI)
  message(FATAL_ERROR "pass -DMOSAIC_CLI=<path to mosaic_cli>")
endif()
if(NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DWORK_DIR=<scratch dir>")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env
          "MOSAIC_FAILPOINTS=batch.clip:throw@iter=3,batch.clip:throw@iter=4"
          ${MOSAIC_CLI} batch --method baseline --pixel 16 --iters 1
          --backoff-ms 1
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE code)

if(NOT code EQUAL 2)
  message(FATAL_ERROR
    "expected partial-failure exit code 2, got '${code}'\n"
    "stdout:\n${out}\nstderr:\n${err}")
endif()

foreach(clip RANGE 1 10)
  string(FIND "${out}" "B${clip}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "clip B${clip} missing from batch report:\n${out}")
  endif()
endforeach()

string(FIND "${out}" "FAILED" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "expected a FAILED row in the batch report:\n${out}")
endif()

string(FIND "${out}" "9/10 clips succeeded" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "expected '9/10 clips succeeded' summary:\n${out}")
endif()

file(REMOVE_RECURSE ${WORK_DIR}/ckpt)
file(MAKE_DIRECTORY ${WORK_DIR}/ckpt)
file(WRITE ${WORK_DIR}/ckpt/B1.ckpt "garbage bytes, not a checkpoint")
execute_process(
  COMMAND ${MOSAIC_CLI} batch --method baseline --pixel 16 --iters 1
          --cases 1 --checkpoint-dir ${WORK_DIR}/ckpt --resume
          --backoff-ms 1
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE code)

if(NOT code EQUAL 0)
  message(FATAL_ERROR
    "expected a garbage checkpoint to restart B1 cleanly (exit 0), got "
    "'${code}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT out MATCHES "B1 +ok +1 ")
  message(FATAL_ERROR "expected B1 ok on its first attempt:\n${out}")
endif()
if(EXISTS ${WORK_DIR}/ckpt/B1.ckpt)
  message(FATAL_ERROR "the unusable B1.ckpt was not deleted")
endif()

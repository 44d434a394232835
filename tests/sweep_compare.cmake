# Runs a sweep spec and gates its aggregate against the committed
# baseline: the ctest-level form of the CI "run + compare" pipeline,
# one test per baselined campaign.  The same run also writes its
# records, and `ammb_sweep report` must find every run a theorem covers
# solved within its bound.
#
#   cmake -DAMMB_SWEEP=... -DSPEC=... -DBASELINE=... -DWORKDIR=...
#         -P sweep_compare.cmake
foreach(var AMMB_SWEEP SPEC BASELINE WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is required")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORKDIR}")
get_filename_component(stem "${SPEC}" NAME_WE)
set(result "${WORKDIR}/${stem}.json")
set(records "${WORKDIR}/${stem}.records.json")

execute_process(
  COMMAND "${AMMB_SWEEP}" run "${SPEC}" --threads 2 --json "${result}"
          --shard-json "${records}"
  RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "ammb_sweep run ${SPEC} failed (rc=${run_rc})")
endif()

execute_process(
  COMMAND "${AMMB_SWEEP}" compare "${result}" --baseline "${BASELINE}"
  RESULT_VARIABLE compare_rc)
if(NOT compare_rc EQUAL 0)
  message(FATAL_ERROR
          "ammb_sweep compare against ${BASELINE} failed (rc=${compare_rc})")
endif()

execute_process(
  COMMAND "${AMMB_SWEEP}" report "${SPEC}" "${records}"
  OUTPUT_QUIET
  RESULT_VARIABLE report_rc)
if(NOT report_rc EQUAL 0)
  message(FATAL_ERROR
          "ammb_sweep report ${SPEC} failed (rc=${report_rc}): a run a "
          "theorem covers failed, did not solve or exceeded its bound")
endif()

# Runs the honest fuzz campaign CI runs and diffs its summary (coverage
# counts plus every case's trace hash) against the committed baseline at
# zero tolerance.  wall_seconds is a measurement of the machine, not the
# simulation, so it is the one excluded key.
#
#   cmake -DAMMB_FUZZ=... -DAMMB_SWEEP=... -DBASELINE=... -DWORKDIR=...
#         -P fuzz_baseline.cmake
foreach(var AMMB_FUZZ AMMB_SWEEP BASELINE WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is required")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORKDIR}")
set(result "${WORKDIR}/BENCH_fuzz.json")

execute_process(
  COMMAND "${AMMB_FUZZ}" --iterations 2000 --seed 20260729 --json "${result}"
  RESULT_VARIABLE fuzz_rc)
if(NOT fuzz_rc EQUAL 0)
  message(FATAL_ERROR "ammb_fuzz honest campaign failed (rc=${fuzz_rc})")
endif()

execute_process(
  COMMAND "${AMMB_SWEEP}" compare "${result}" --baseline "${BASELINE}"
          --ignore-key wall_seconds
  RESULT_VARIABLE compare_rc)
if(NOT compare_rc EQUAL 0)
  message(FATAL_ERROR
          "ammb_sweep compare against ${BASELINE} failed (rc=${compare_rc})")
endif()

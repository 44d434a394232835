# Runs the engine bench in check mode and diffs its deterministic
# document (trace hashes, stats, the allocation bound — no wall clocks)
# against the committed baseline at zero tolerance.  peak_rss_mb is a
# measurement of the machine, not the simulation, so it is the one
# excluded key.
#
#   cmake -DBENCH=... -DAMMB_SWEEP=... -DBASELINE=... -DWORKDIR=...
#         -P bench_engine_check.cmake
foreach(var BENCH AMMB_SWEEP BASELINE WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is required")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORKDIR}")
set(result "${WORKDIR}/BENCH_engine_check.json")

execute_process(
  COMMAND "${BENCH}" --check "${result}"
  RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "bench_engine_gates --check failed (rc=${bench_rc})")
endif()

execute_process(
  COMMAND "${AMMB_SWEEP}" compare "${result}" --baseline "${BASELINE}"
          --ignore-key peak_rss_mb
  RESULT_VARIABLE compare_rc)
if(NOT compare_rc EQUAL 0)
  message(FATAL_ERROR
          "ammb_sweep compare against ${BASELINE} failed (rc=${compare_rc})")
endif()

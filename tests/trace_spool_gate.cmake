# Runs the out-of-core trace gate: one checked n = 1e5 grey-zone-field
# run with the trace spooled to disk and the full streaming checking
# stack attached, under an enforced peak-RSS ceiling.  The ceiling sits
# above the streaming path (~364 MiB on the reference host, engine and
# checker state included) and below the in-memory-trace path, so the
# gate fails if checked runs ever go back to holding the event log — or
# any other O(events) buffer — in memory.  It also sits below a run
# whose progress guard keeps a list of covers per receiver instead of
# a live-cover count and one dead-cover end (~661 MiB), that keeps a
# settled instance's body (packet, delivered set) instead of returning
# it to the engine's pool, that seeds every node's 2.5 KB RNG up front
# instead of on first use, whose MAC checker keeps a std::set node per
# receive instead of flat pooled slots, or whose BMMB processes keep
# their rcvd and sent sets as per-node hash sets instead of one inline
# word each (~447 MiB).  The deterministic half of the output document
# (trace hash, stats, verdict) is then diffed against the committed
# baseline at zero tolerance; peak_rss_mb is the one machine-dependent
# key and is excluded.
#
#   cmake -DBENCH=... -DAMMB_SWEEP=... -DBASELINE=... -DWORKDIR=...
#         [-DRSS_CEILING_MB=N] -P trace_spool_gate.cmake
foreach(var BENCH AMMB_SWEEP BASELINE WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is required")
  endif()
endforeach()
if(NOT DEFINED RSS_CEILING_MB)
  set(RSS_CEILING_MB 416)
endif()

file(MAKE_DIRECTORY "${WORKDIR}")
set(result "${WORKDIR}/BENCH_trace_spool.json")

execute_process(
  COMMAND "${BENCH}" --spool-gate "${result}"
          --rss-ceiling-mb ${RSS_CEILING_MB}
  RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR
          "bench_engine_gates --spool-gate failed (rc=${bench_rc}): "
          "an oracle violation, or peak RSS above ${RSS_CEILING_MB} MiB")
endif()

execute_process(
  COMMAND "${AMMB_SWEEP}" compare "${result}" --baseline "${BASELINE}"
          --ignore-key peak_rss_mb
  RESULT_VARIABLE compare_rc)
if(NOT compare_rc EQUAL 0)
  message(FATAL_ERROR
          "ammb_sweep compare against ${BASELINE} failed (rc=${compare_rc})")
endif()

# The spool gate's --rss-ceiling-mb must reject every malformed or
# non-positive value with exit code 2 and a message naming the flag.
# A value that silently parsed to "no ceiling" would turn the peak-RSS
# gate off.  No mode flag is passed, so a regressed parser falls through
# to the usage error (which does not carry the rejection message)
# instead of starting the n = 1e5 run.
#
#   cmake -DBENCH=... -P bench_engine_args.cmake
if(NOT DEFINED BENCH)
  message(FATAL_ERROR "BENCH is required")
endif()

foreach(value "abc" "12x" "0" "-5" "inf" "nan" "")
  execute_process(
    COMMAND "${BENCH}" --rss-ceiling-mb "${value}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
            "--rss-ceiling-mb \"${value}\" was not rejected (rc=${rc})")
  endif()
  if(NOT err MATCHES "--rss-ceiling-mb needs a positive number")
    message(FATAL_ERROR
            "--rss-ceiling-mb \"${value}\" was not rejected as malformed:\n"
            "${err}")
  endif()
endforeach()

# End-to-end drive of the ammb_sweep CLI, run as a ctest:
#
#   run 4 shards (different thread counts) -> merge -> byte-compare
#   against an unsharded reference run of the same spec; then exercise
#   the report, the journal --resume path and the compare gate.
#
# Invoked with:
#   cmake -DAMMB_SWEEP=<tool> -DSPEC=<spec.json> -DWORKDIR=<dir>
#         -P sweep_cli_e2e.cmake
foreach(var AMMB_SWEEP SPEC WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "sweep_cli_e2e.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

function(run_tool)
  execute_process(
    COMMAND ${AMMB_SWEEP} ${ARGN}
    WORKING_DIRECTORY "${WORKDIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ammb_sweep ${ARGN} failed (rc=${rc}):\n${out}\n${err}")
  endif()
endfunction()

# Unsharded reference (also the journal source for the resume check).
run_tool(run "${SPEC}" --threads 3 --json reference.json
         --journal journal.jsonl)

# Four shards at four different thread counts.
set(shard_files "")
foreach(i RANGE 3)
  math(EXPR threads "${i} + 1")
  run_tool(run "${SPEC}" --shard ${i}/4 --threads ${threads}
           --shard-json shard_${i}.json)
  list(APPEND shard_files shard_${i}.json)
endforeach()

# Merge must reproduce the reference document byte for byte.
run_tool(merge "${SPEC}" ${shard_files} --json merged.json)
file(READ "${WORKDIR}/reference.json" reference)
file(READ "${WORKDIR}/merged.json" merged)
if(NOT merged STREQUAL reference)
  message(FATAL_ERROR "merged shard output differs from the unsharded run")
endif()

# The report reads shard outputs back as the paper's tables.  It exits
# 0 when every run a theorem covers solved within its bound, 1 naming
# the cell when one did not, and 2 on shards of another spec.
function(run_report expected_rc)
  execute_process(
    COMMAND ${AMMB_SWEEP} report ${ARGN}
    WORKING_DIRECTORY "${WORKDIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL expected_rc)
    message(FATAL_ERROR
            "ammb_sweep report ${ARGN} exited ${rc}, expected ${expected_rc}:"
            "\n${out}\n${err}")
  endif()
  set(report_out "${out}" PARENT_SCOPE)
  set(report_err "${err}" PARENT_SCOPE)
endfunction()

function(expect_text haystack needle)
  string(FIND "${haystack}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "expected \"${needle}\" in:\n${haystack}")
  endif()
endfunction()

run_report(0 "${SPEC}" ${shard_files})

# Figure 2's network C has no finite restriction radius, so Theorem 3.1
# covers it; the lower-bound adversary's runs land at (D-1)/(D+1) of
# the bound, where D - 1 is the diameter of each G line.
get_filename_component(sweeps_dir "${SPEC}" DIRECTORY)
set(fig2 "${sweeps_dir}/fig2_lines.json")
run_tool(run "${fig2}" --threads 2 --shard-json fig2_lines.json)
run_report(0 "${fig2}" fig2_lines.json)
foreach(row "4 | 3.1 | 192 | 320 | 0.600 | 3"
            "8 | 3.1 | 448 | 576 | 0.778 | 7"
            "16 | 3.1 | 960 | 1088 | 0.882 | 15"
            "32 | 3.1 | 1984 | 2112 | 0.939 | 31")
  string(REPLACE " | " ";" fields "${row}")
  list(GET fields 0 d)
  list(SUBLIST fields 1 -1 rest)
  string(REPLACE ";" " | " rest "${rest}")
  expect_text("${report_out}"
              "| networkC-D${d} | lower-bound | 2 | fig2 | spread | static | "
              "none | ${rest} | — |")
endforeach()

# Shards of another spec are refused before any bound is evaluated.
run_report(2 "${fig2}" ${shard_files})
expect_text("${report_err}"
            "shard document is for sweep \"ci-smoke\", expected \"fig2-lines\"")

# A record over its bound fails the report, naming its cell: run 0 is
# cell 0 (line16, fast, k = 1), where Theorem 3.16 gives 15 Fprog.
file(READ "${WORKDIR}/shard_0.json" shard)
string(REGEX REPLACE "(\\{\"run_index\":0,[^}]*\"solve_time\":)[0-9]+"
       "\\1999999" over "${shard}")
if(over STREQUAL shard)
  message(FATAL_ERROR "shard_0.json has no run 0 solve_time to raise")
endif()
file(WRITE "${WORKDIR}/over_0.json" "${over}")
run_report(1 "${SPEC}" over_0.json shard_1.json shard_2.json shard_3.json)
expect_text("${report_err}"
            "cell 0 (topology=line16 scheduler=fast k=1 mac=std "
            "workload=all-at-0 dynamics=static reaction=none) run 0 seed 1: "
            "solve 999999 exceeds its Theorem 3.16 bound 60")

# Kill-and-resume: drop the tail of the journal (losing complete lines
# AND leaving a torn final line), then --resume must reproduce the
# reference bytes.
file(READ "${WORKDIR}/journal.jsonl" journal)
string(LENGTH "${journal}" journal_len)
math(EXPR keep "${journal_len} * 2 / 3")
string(SUBSTRING "${journal}" 0 ${keep} truncated)
file(WRITE "${WORKDIR}/journal.jsonl" "${truncated}")
run_tool(run "${SPEC}" --threads 2 --journal journal.jsonl --resume
         --json resumed.json)
file(READ "${WORKDIR}/resumed.json" resumed)
if(NOT resumed STREQUAL reference)
  message(FATAL_ERROR "resumed run differs from the uninterrupted run")
endif()

# The compare gate: self-compare passes, a perturbed document fails.
run_tool(compare merged.json --baseline reference.json)
string(REPLACE "\"runs\": 2" "\"runs\": 3" perturbed "${reference}")
if(perturbed STREQUAL reference)
  # Keep the negative test honest if the spec's per-cell run count
  # ever changes: a no-op perturbation would misblame the compare gate.
  message(FATAL_ERROR "perturbation literal no longer matches the spec's "
                      "per-cell run count; update sweep_cli_e2e.cmake")
endif()
file(WRITE "${WORKDIR}/perturbed.json" "${perturbed}")
execute_process(
  COMMAND ${AMMB_SWEEP} compare perturbed.json --baseline reference.json
  WORKING_DIRECTORY "${WORKDIR}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "compare accepted a perturbed result document")
endif()

# A bad execution-axis override must fail fast (before any run starts)
# with a message naming the flag it arrived through.
execute_process(
  COMMAND ${AMMB_SWEEP} run "${SPEC}" --backend tcp
  WORKING_DIRECTORY "${WORKDIR}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "run accepted an unknown --backend value")
endif()
if(NOT err MATCHES "--backend")
  message(FATAL_ERROR "override error does not name --backend:\n${err}")
endif()

# The removed intra-run kernel axis: its flag is now an unknown flag,
# not a silent no-op.
set(removed_axis kernel)
execute_process(
  COMMAND ${AMMB_SWEEP} run "${SPEC}" --${removed_axis} serial
  WORKING_DIRECTORY "${WORKDIR}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "run accepted the removed --${removed_axis} flag")
endif()
if(NOT err MATCHES "--${removed_axis}")
  message(FATAL_ERROR
          "unknown-flag error does not name --${removed_axis}:\n${err}")
endif()

# Out-of-range input must be rejected up front with exit 2 and an error
# naming the offending field: a tick value that would overflow Time in
# the run, and a shard record carrying a negative count.
function(expect_input_error field)
  execute_process(
    COMMAND ${AMMB_SWEEP} ${ARGN}
    WORKING_DIRECTORY "${WORKDIR}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "ammb_sweep ${ARGN} exited ${rc}, expected 2:\n${err}")
  endif()
  string(FIND "${err}" "${field}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "ammb_sweep ${ARGN} error does not name ${field}:\n${err}")
  endif()
endfunction()

file(WRITE "${WORKDIR}/overflow.json"
     "{\"name\": \"overflow\", \"protocol\": \"bmmb\",
       \"topologies\": [{\"kind\": \"line\", \"n\": 8}],
       \"schedulers\": [\"fast\"], \"ks\": [2], \"macs\": [{}],
       \"workloads\": [{\"kind\": \"round-robin\"}],
       \"dynamics\": [{\"kind\": \"crash\", \"crashes\": 3,
                      \"period\": 4611686018427387904, \"down_for\": 5}],
       \"seed_begin\": 1, \"seed_end\": 2}")
expect_input_error("spec.dynamics[0].period" print overflow.json)

# A label field past its type's range is refused, not wrapped: cwMin
# 4294967298 would wrap to 2 as a 32-bit int and run plain csma.
expect_input_error("--mac" run "${SPEC}" --mac csma:1,4294967298,64,8,0.3)

file(READ "${WORKDIR}/shard_0.json" shard)
string(REGEX REPLACE "\"bcasts\":[0-9]+" "\"bcasts\":-3" corrupted "${shard}")
if(corrupted STREQUAL shard)
  message(FATAL_ERROR "shard_0.json has no bcasts counter to corrupt")
endif()
file(WRITE "${WORKDIR}/shard_0.json" "${corrupted}")
expect_input_error("runs[0].stats.bcasts" merge "${SPEC}" ${shard_files})

message(STATUS
        "sweep CLI e2e: shard/merge/report/resume/compare all consistent")

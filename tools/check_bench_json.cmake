# Validates a committed bench-baseline JSON file: it must parse, and it must
# carry the keys downstream tooling reads.  Invoked by ctest (see
# tools/CMakeLists.txt) as
#
#   cmake -DJSON_FILE=<path> -DKIND=adversary|micro|event_queue|quorum|campaign \
#         -P check_bench_json.cmake
#
# KIND=event_queue layers the scheduler acceptance gate on top of the micro
# schema: every churn case must be allocation-free at steady state (the
# bench counts operator new calls inside the timed region), and the queue
# must scale as O(1): a batch at 10^6 pending events may take at most 2x a
# batch at 10^4.  The calendar queue measures ~1.3x; a binary heap ~2.5x.
#
# The baselines are snapshots committed at the repo root so result drift is
# reviewable in diffs:
#   * BENCH_adversary.json — the ablation_adversary cell grid; regenerate with
#     QIP_BENCH_JSON=BENCH_adversary.json QIP_ROUNDS=2 bench/ablation_adversary
#   * BENCH_micro_quorum.json — a google-benchmark run; regenerate with
#     bench/micro_quorum --benchmark_out=BENCH_micro_quorum.json
#                        --benchmark_out_format=json
#   * BENCH_event_queue.json — regenerate from an optimized build on an idle
#     machine (the scaling gate compares two timings) with
#     bench/micro_event_queue --benchmark_out=BENCH_event_queue.json
#                             --benchmark_out_format=json
#   * BENCH_parallel.json — regenerate with
#     QIP_ROUNDS=8 bench/micro_parallel --benchmark_out=BENCH_parallel.json
#                                       --benchmark_out_format=json
#   * BENCH_topology.json — regenerate with
#     bench/micro_topology --benchmark_out=BENCH_topology.json
#                          --benchmark_out_format=json
#   * BENCH_quorum.json — the ablation_quorum_backend checker verdicts and
#     availability grid; regenerate with
#     QIP_BENCH_JSON=BENCH_quorum.json QIP_ROUNDS=2 bench/ablation_quorum_backend
#   * BENCH_obs.json — a google-benchmark run; regenerate with
#     bench/micro_obs --benchmark_out=BENCH_obs.json
#                     --benchmark_out_format=json
#   * BENCH_campaign.json — a qip-campaign reference grid; regenerate with
#     tools/qip-campaign --protocols qip,dad --nodes 6 --seeds 2 --duration 1 \
#         --out /tmp/campaign-baseline --quiet
#     and copy /tmp/campaign-baseline/BENCH_campaign.json to the repo root
#   * BENCH_metro.json — the metropolis "city day" run (docs/SCALE.md);
#     regenerate with
#     QIP_METRO_NODES=100000 QIP_BENCH_JSON=BENCH_metro.json bench/fig_metro
#     Wall-clock and RSS numbers are machine-dependent; the gates below check
#     scale, coverage, the allocation/topology invariants, the audit's check
#     counts, and two ratios within the run (departure peak RSS to drift
#     peak RSS, audit seconds to wall seconds), not absolute timings.
if(NOT DEFINED JSON_FILE OR NOT DEFINED KIND)
  message(FATAL_ERROR
      "check_bench_json.cmake needs -DJSON_FILE=... and -DKIND=...")
endif()
if(NOT EXISTS "${JSON_FILE}")
  message(FATAL_ERROR "baseline ${JSON_FILE} is missing — regenerate it "
      "(see the header of this script)")
endif()

file(READ "${JSON_FILE}" doc)

# string(JSON ... ERROR_VARIABLE) reports parse problems without aborting, so
# every failure below names the file and the missing piece.
macro(require_key out_var member)
  string(JSON ${out_var} ERROR_VARIABLE err GET "${doc}" ${member})
  if(err)
    message(FATAL_ERROR "${JSON_FILE}: missing or unreadable key "
        "'${member}': ${err}")
  endif()
endmacro()

if(KIND STREQUAL "adversary")
  require_key(bench "bench")
  if(NOT bench STREQUAL "ablation_adversary")
    message(FATAL_ERROR "${JSON_FILE}: bench = '${bench}', expected "
        "'ablation_adversary'")
  endif()
  require_key(population "population")
  require_key(rounds "rounds")
  string(JSON n_cells ERROR_VARIABLE err LENGTH "${doc}" "cells")
  if(err OR n_cells EQUAL 0)
    message(FATAL_ERROR "${JSON_FILE}: 'cells' is missing or empty: ${err}")
  endif()
  # Every cell must carry the full measurement schema.
  math(EXPR last "${n_cells} - 1")
  foreach(i RANGE ${last})
    foreach(key attack attacker_fraction hardened violations configured_pct
                latency_hops protocol_hops quarantines attack_actions)
      string(JSON v ERROR_VARIABLE err GET "${doc}" "cells" ${i} "${key}")
      if(err)
        message(FATAL_ERROR "${JSON_FILE}: cells[${i}] lacks '${key}': ${err}")
      endif()
    endforeach()
  endforeach()
  message(STATUS "${JSON_FILE}: ${n_cells} cells, population ${population}, "
      "${rounds} rounds — OK")
elseif(KIND STREQUAL "quorum")
  require_key(bench "bench")
  if(NOT bench STREQUAL "ablation_quorum_backend")
    message(FATAL_ERROR "${JSON_FILE}: bench = '${bench}', expected "
        "'ablation_quorum_backend'")
  endif()
  require_key(population "population")
  require_key(rounds "rounds")
  # The checker verdicts: every entry carries the full report, and every 'ok'
  # must be true except the deliberately broken disjoint-clique config.
  string(JSON n_checker ERROR_VARIABLE err LENGTH "${doc}" "checker")
  if(err OR n_checker EQUAL 0)
    message(FATAL_ERROR "${JSON_FILE}: 'checker' is missing or empty: ${err}")
  endif()
  set(saw_refutation FALSE)
  math(EXPR last "${n_checker} - 1")
  foreach(i RANGE ${last})
    foreach(key backend mode universe views shrinks pairs ok)
      string(JSON v ERROR_VARIABLE err GET "${doc}" "checker" ${i} "${key}")
      if(err)
        message(FATAL_ERROR "${JSON_FILE}: checker[${i}] lacks '${key}': "
            "${err}")
      endif()
    endforeach()
    string(JSON backend GET "${doc}" "checker" ${i} "backend")
    string(JSON ok GET "${doc}" "checker" ${i} "ok")
    if(backend STREQUAL "slices(cliques)")
      if(ok)
        message(FATAL_ERROR "${JSON_FILE}: checker[${i}] (${backend}) was "
            "not refuted — the checker lost its teeth")
      endif()
      set(saw_refutation TRUE)
    elseif(NOT ok)
      message(FATAL_ERROR "${JSON_FILE}: checker[${i}] (${backend}) reports "
          "an intersection violation")
    endif()
  endforeach()
  if(NOT saw_refutation)
    message(FATAL_ERROR "${JSON_FILE}: no 'slices(cliques)' refutation row — "
        "the negative control is missing")
  endif()
  # The availability grid.
  string(JSON n_cells ERROR_VARIABLE err LENGTH "${doc}" "cells")
  if(err OR n_cells EQUAL 0)
    message(FATAL_ERROR "${JSON_FILE}: 'cells' is missing or empty: ${err}")
  endif()
  math(EXPR last "${n_cells} - 1")
  foreach(i RANGE ${last})
    foreach(key plan backend rounds configured_pct latency_hops protocol_hops)
      string(JSON v ERROR_VARIABLE err GET "${doc}" "cells" ${i} "${key}")
      if(err)
        message(FATAL_ERROR "${JSON_FILE}: cells[${i}] lacks '${key}': ${err}")
      endif()
    endforeach()
  endforeach()
  message(STATUS "${JSON_FILE}: ${n_checker} checker rows (cliques refuted), "
      "${n_cells} cells — OK")
elseif(KIND STREQUAL "micro" OR KIND STREQUAL "event_queue")
  # google-benchmark's schema: a context block plus a benchmarks array whose
  # entries each carry a name and timings.
  string(JSON ctx ERROR_VARIABLE err GET "${doc}" "context")
  if(err)
    message(FATAL_ERROR "${JSON_FILE}: missing 'context': ${err}")
  endif()
  string(JSON n_benchmarks ERROR_VARIABLE err LENGTH "${doc}" "benchmarks")
  if(err OR n_benchmarks EQUAL 0)
    message(FATAL_ERROR
        "${JSON_FILE}: 'benchmarks' is missing or empty: ${err}")
  endif()
  math(EXPR last "${n_benchmarks} - 1")
  foreach(i RANGE ${last})
    foreach(key name real_time cpu_time time_unit)
      string(JSON v ERROR_VARIABLE err GET "${doc}" "benchmarks" ${i} "${key}")
      if(err)
        message(FATAL_ERROR
            "${JSON_FILE}: benchmarks[${i}] lacks '${key}': ${err}")
      endif()
    endforeach()
  endforeach()

  if(KIND STREQUAL "event_queue")
    # Scheduler acceptance gate.  Check every churn case's allocation
    # counter and find the 10^4- and 10^6-pending batch times.
    set(small_time "")
    set(large_time "")
    foreach(i RANGE ${last})
      string(JSON name GET "${doc}" "benchmarks" ${i} "name")
      # A fixed-iteration registration suffixes the name with
      # "/iterations:N".
      if(name MATCHES "^BM_Churn/([0-9]+)(/|$)")
        set(pending ${CMAKE_MATCH_1})
        string(JSON allocs ERROR_VARIABLE err GET "${doc}" "benchmarks" ${i}
            "allocs_per_op")
        if(err)
          message(FATAL_ERROR
              "${JSON_FILE}: ${name} lacks the 'allocs_per_op' counter: "
              "${err}")
        endif()
        if(allocs GREATER 0)
          message(FATAL_ERROR "${JSON_FILE}: ${name} allocated "
              "(allocs_per_op = ${allocs}) — steady-state schedule/pop must "
              "be allocation-free")
        endif()
        if(pending EQUAL 10000)
          string(JSON small_time GET "${doc}" "benchmarks" ${i} "real_time")
        elseif(pending EQUAL 1000000)
          string(JSON large_time GET "${doc}" "benchmarks" ${i} "real_time")
        endif()
      endif()
    endforeach()
    if(small_time STREQUAL "" OR large_time STREQUAL "")
      message(FATAL_ERROR "${JSON_FILE}: missing BM_Churn/10000 or "
          "BM_Churn/1000000")
    endif()
    # math(EXPR) is integer-only, so the 2x gate runs on the integer part of
    # each per-batch time.  A batch is 10^4 ops, so times are >= 10^5 ns and
    # truncation is noise.
    string(REGEX REPLACE "\\..*$" "" small_int "${small_time}")
    string(REGEX REPLACE "\\..*$" "" large_int "${large_time}")
    if(NOT small_int MATCHES "^[0-9]+$" OR NOT large_int MATCHES "^[0-9]+$"
       OR small_int EQUAL 0)
      message(FATAL_ERROR "${JSON_FILE}: churn times unparsable "
          "(10^4=${small_time}, 10^6=${large_time})")
    endif()
    math(EXPR bound "2 * ${small_int}")
    if(large_int GREATER ${bound})
      message(FATAL_ERROR "${JSON_FILE}: churn batch at 10^6 pending "
          "(${large_time}) exceeds 2x the batch at 10^4 (${small_time}) — "
          "the scheduler no longer scales as O(1)")
    endif()
    message(STATUS "${JSON_FILE}: churn 10^4=${small_time} "
        "10^6=${large_time} (<=2x, zero allocs) — OK")
  endif()
  message(STATUS "${JSON_FILE}: ${n_benchmarks} benchmarks — OK")
elseif(KIND STREQUAL "campaign")
  require_key(bench "bench")
  if(NOT bench STREQUAL "qip_campaign")
    message(FATAL_ERROR "${JSON_FILE}: bench = '${bench}', expected "
        "'qip_campaign'")
  endif()
  require_key(grid "grid")
  require_key(n_total "total")
  require_key(n_done "done")
  require_key(n_exhausted "exhausted")
  # The committed baseline must be a clean grid: a reference with exhausted
  # cells would bake a broken run into the repo.
  if(NOT n_exhausted EQUAL 0)
    message(FATAL_ERROR "${JSON_FILE}: baseline has ${n_exhausted} exhausted "
        "cells — regenerate from a campaign that completed")
  endif()
  string(JSON n_cells ERROR_VARIABLE err LENGTH "${doc}" "cells")
  if(err OR n_cells EQUAL 0)
    message(FATAL_ERROR "${JSON_FILE}: 'cells' is missing or empty: ${err}")
  endif()
  if(NOT n_cells EQUAL n_total)
    message(FATAL_ERROR "${JSON_FILE}: total=${n_total} but cells has "
        "${n_cells} entries")
  endif()
  math(EXPR last "${n_cells} - 1")
  foreach(i RANGE ${last})
    foreach(key index protocol nodes range seed status attempts configured
                latency_hops protocol_hops joins digest)
      string(JSON v ERROR_VARIABLE err GET "${doc}" "cells" ${i} "${key}")
      if(err)
        message(FATAL_ERROR "${JSON_FILE}: cells[${i}] lacks '${key}': ${err}")
      endif()
    endforeach()
    string(JSON cell_status GET "${doc}" "cells" ${i} "status")
    if(NOT cell_status STREQUAL "done")
      message(FATAL_ERROR "${JSON_FILE}: cells[${i}] status "
          "'${cell_status}' — the baseline must contain only completed "
          "cells")
    endif()
  endforeach()
  message(STATUS "${JSON_FILE}: ${n_cells}/${n_total} cells done — OK")
elseif(KIND STREQUAL "metro")
  require_key(bench "bench")
  if(NOT bench STREQUAL "fig_metro")
    message(FATAL_ERROR "${JSON_FILE}: bench = '${bench}', expected "
        "'fig_metro'")
  endif()
  require_key(nodes "nodes")
  if(nodes LESS 100000)
    message(FATAL_ERROR "${JSON_FILE}: nodes = ${nodes} — the committed "
        "baseline must be the metropolis run (>= 100000)")
  endif()
  # The four city-day phases, in order, each with the full schema.  Timings
  # and absolute RSS are machine-dependent and not gated; scale, coverage
  # and the departure/drift RSS ratio are.
  string(JSON n_phases ERROR_VARIABLE err LENGTH "${doc}" "phases")
  if(err OR NOT n_phases EQUAL 4)
    message(FATAL_ERROR "${JSON_FILE}: expected 4 phases, got "
        "'${n_phases}': ${err}")
  endif()
  set(expected_phases flash_crowd drift departure plateau)
  math(EXPR last "${n_phases} - 1")
  foreach(i RANGE ${last})
    foreach(key name wall_s peak_rss_mib events allocs allocs_per_event
                configured audit_checks audit_s audit_violations)
      string(JSON v ERROR_VARIABLE err GET "${doc}" "phases" ${i} "${key}")
      if(err)
        message(FATAL_ERROR "${JSON_FILE}: phases[${i}] lacks '${key}': "
            "${err}")
      endif()
    endforeach()
    string(JSON pname GET "${doc}" "phases" ${i} "name")
    list(GET expected_phases ${i} expected)
    if(NOT pname STREQUAL expected)
      message(FATAL_ERROR "${JSON_FILE}: phases[${i}] is '${pname}', "
          "expected '${expected}'")
    endif()
  endforeach()
  # Decimals are compared in integer thousandths (math(EXPR) has no floats).
  macro(to_milli out value key)
    if(NOT "${value}" MATCHES "^([0-9]+)(\\.([0-9]*))?$")
      message(FATAL_ERROR "${JSON_FILE}: ${key} '${value}' is not a plain "
          "decimal")
    endif()
    set(int_part "${CMAKE_MATCH_1}")
    string(SUBSTRING "${CMAKE_MATCH_3}000" 0 3 frac_part)
    # "1${frac_part} - 1000" keeps a leading zero from reading as octal.
    math(EXPR ${out} "${int_part} * 1000 + 1${frac_part} - 1000")
  endmacro()
  # The whole day is audited at qip-benchmark's cadence: one check per
  # 0.5 s slice, plus one after each of the 20 departure waves.  The counts
  # follow from the phases' simulated lengths, so an audit dropped from a
  # phase fails here.  The audit may cost at most 5% of the day's wall
  # clock, a ratio within one run.  Violations are reported, not gated.
  set(expected_checks 66 40 60 40)
  set(audit_milli 0)
  set(wall_milli 0)
  set(violations 0)
  foreach(i RANGE ${last})
    string(JSON checks GET "${doc}" "phases" ${i} "audit_checks")
    list(GET expected_checks ${i} expected)
    if(NOT checks EQUAL expected)
      list(GET expected_phases ${i} pname)
      message(FATAL_ERROR "${JSON_FILE}: ${pname} ran ${checks} audit "
          "checks, expected ${expected} — the city day is not audited at "
          "every 0.5 s slice")
    endif()
    string(JSON phase_audit GET "${doc}" "phases" ${i} "audit_s")
    string(JSON phase_wall GET "${doc}" "phases" ${i} "wall_s")
    to_milli(phase_audit_milli "${phase_audit}" "phases[${i}].audit_s")
    to_milli(phase_wall_milli "${phase_wall}" "phases[${i}].wall_s")
    string(JSON phase_violations GET "${doc}" "phases" ${i}
        "audit_violations")
    math(EXPR audit_milli "${audit_milli} + ${phase_audit_milli}")
    math(EXPR wall_milli "${wall_milli} + ${phase_wall_milli}")
    math(EXPR violations "${violations} + ${phase_violations}")
  endforeach()
  math(EXPR audit_budget "${wall_milli} / 20")
  if(audit_milli GREATER audit_budget)
    message(FATAL_ERROR "${JSON_FILE}: the audit took ${audit_milli} ms of "
        "${wall_milli} ms wall clock (> 5%)")
  endif()
  # Departures must not blow up memory: the departure phase's peak RSS stays
  # within 2x the drift phase's.  Reclamation once wrote one table record
  # per address of a dead head's space into every replica (a 7.3 GiB
  # departure peak against 312 MiB in drift at n=100k).
  string(JSON drift_rss GET "${doc}" "phases" 1 "peak_rss_mib")
  string(JSON departure_rss GET "${doc}" "phases" 2 "peak_rss_mib")
  to_milli(drift_milli "${drift_rss}" "peak_rss_mib")
  to_milli(departure_milli "${departure_rss}" "peak_rss_mib")
  math(EXPR departure_budget "${drift_milli} * 2")
  if(departure_milli GREATER departure_budget)
    message(FATAL_ERROR "${JSON_FILE}: departure peak_rss_mib "
        "${departure_rss} > 2 x drift peak_rss_mib ${drift_rss} — the "
        "departure memory spike is back")
  endif()
  # The flash crowd must actually form a network: >= 95% configured.
  string(JSON crowd_configured GET "${doc}" "phases" 0 "configured")
  math(EXPR threshold "${nodes} * 95 / 100")
  if(crowd_configured LESS ${threshold})
    message(FATAL_ERROR "${JSON_FILE}: only ${crowd_configured}/${nodes} "
        "configured after the flash crowd (< 95%)")
  endif()
  # The quiescent plateau must stay within the allocation budget.  The hard
  # zero-alloc gates live on the scheduler/transport micro counters
  # (BENCH_event_queue.json); here the whole engine — maintenance scans and
  # all — must average below 20 operator-new calls per simulator event.
  string(JSON plateau_allocs GET "${doc}" "phases" 3 "allocs_per_event")
  string(REGEX REPLACE "\\..*$" "" plateau_int "${plateau_allocs}")
  if(NOT plateau_int MATCHES "^[0-9]+$")
    message(FATAL_ERROR "${JSON_FILE}: plateau allocs_per_event "
        "'${plateau_allocs}' unparsable")
  endif()
  if(plateau_int GREATER_EQUAL 20)
    message(FATAL_ERROR "${JSON_FILE}: plateau allocs_per_event = "
        "${plateau_allocs} — the steady state busted the allocation budget")
  endif()
  # The incremental connectivity path must carry the run: arrivals and
  # departures patch the CSR in place instead of rebuilding it.  A drift
  # tick moves every node, so its journal overflows the patch-or-rebuild
  # cap (a quarter of the live nodes, docs/SCALE.md) and it rebuilds.
  string(JSON patches ERROR_VARIABLE err GET "${doc}" "topo"
      "incremental_patches")
  if(err)
    message(FATAL_ERROR "${JSON_FILE}: missing topo.incremental_patches: "
        "${err}")
  endif()
  string(JSON rebuilds GET "${doc}" "topo" "full_rebuilds")
  math(EXPR rebuild_budget "${rebuilds} * 100")
  if(patches EQUAL 0 OR patches LESS ${rebuild_budget})
    message(FATAL_ERROR "${JSON_FILE}: ${patches} incremental patches vs "
        "${rebuilds} full rebuilds — the incremental path is not carrying "
        "the run")
  endif()
  # The capture arena must be recycling blocks, not carving forever.
  string(JSON reused ERROR_VARIABLE err GET "${doc}" "arena" "blocks_reused")
  if(err)
    message(FATAL_ERROR "${JSON_FILE}: missing arena.blocks_reused: ${err}")
  endif()
  if(reused EQUAL 0)
    message(FATAL_ERROR "${JSON_FILE}: arena reused no blocks — the "
        "free-list recycling is dead")
  endif()
  message(STATUS "${JSON_FILE}: n=${nodes}, ${crowd_configured} configured, "
      "plateau allocs/event ${plateau_allocs}, ${patches} patches / "
      "${rebuilds} rebuilds, audit ${audit_milli}/${wall_milli} ms with "
      "${violations} violations — OK")
else()
  message(FATAL_ERROR
      "unknown KIND '${KIND}' (expected adversary, micro, event_queue, "
      "quorum, campaign or metro)")
endif()

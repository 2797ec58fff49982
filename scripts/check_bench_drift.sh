#!/usr/bin/env bash
# Compares freshly generated BENCH_<suite>.json documents against the
# baselines committed at a git ref (default HEAD) and fails when any
# benchmark's real_ns_per_iter regressed by more than the threshold.
#
# Usage: scripts/check_bench_drift.sh [out_dir] [threshold_pct] [baseline_ref]
#
#   out_dir        directory holding the fresh BENCH_*.json (default .)
#   threshold_pct  allowed slowdown in percent (default 10)
#   baseline_ref   git ref providing the committed baselines (default HEAD)
#
# Suites or series without a committed baseline pass with a note — the
# trajectory starts at the first commit that carries them. Series that
# exist only in the baseline are listed as removed without failing. The merged
# BENCH_micro.json is skipped (it is an array of the per-suite documents).
set -euo pipefail

OUT_DIR=${1:-.}
THRESHOLD=${2:-10}
BASELINE_REF=${3:-HEAD}

command -v jq >/dev/null || { echo "check_bench_drift: jq not found" >&2; exit 1; }

repo_root=$(git rev-parse --show-toplevel)

shopt -s nullglob
suites=("${OUT_DIR}"/BENCH_micro_*.json)
if [[ ${#suites[@]} -eq 0 ]]; then
  echo "check_bench_drift: no BENCH_micro_*.json under ${OUT_DIR}" >&2
  exit 1
fi

failures=0
compared=0
for current in "${suites[@]}"; do
  suite=$(basename "${current}")
  baseline_json=$(git -C "${repo_root}" show "${BASELINE_REF}:${suite}" 2>/dev/null || true)
  if [[ -z "${baseline_json}" ]]; then
    echo "~ ${suite}: no baseline at ${BASELINE_REF}; trajectory starts here"
    continue
  fi

  # One line per current benchmark, then one per baseline-only benchmark:
  #   <name> <baseline|none> <current|removed>
  # Memory benchmarks (BM_FleetMemory) run a single iteration and carry
  # their payload in the bytes_total counter, so drift is computed on bytes
  # held rather than single-shot wall time.
  joined=$(jq -rn --argjson base "${baseline_json}" --slurpfile cur "${current}" '
    def metric: if (.name | startswith("BM_FleetMemory"))
                then .counters.bytes_total else .real_ns_per_iter end;
    def by_name: map({key: .name, value: metric}) | from_entries;
    ($base.benchmarks | by_name) as $b
    | ($cur[0].benchmarks | by_name) as $c
    | ($cur[0].benchmarks[] | "\(.name) \($b[.name] // "none") \(metric)"),
      ($base.benchmarks[] | select($c[.name] == null)
       | "\(.name) \(metric) removed")')

  while read -r name base_ns cur_ns; do
    [[ -n "${name}" ]] || continue
    if [[ "${cur_ns}" == "removed" ]]; then
      echo "- ${suite} ${name}: removed (baseline only)"
      continue
    fi
    if [[ "${base_ns}" == "none" ]]; then
      echo "~ ${suite} ${name}: no baseline"
      continue
    fi
    compared=$((compared + 1))
    verdict=$(jq -rn --argjson b "${base_ns}" --argjson c "${cur_ns}" \
                    --argjson t "${THRESHOLD}" '
      (if $b > 0 then (($c - $b) / $b * 100) else 0 end) as $pct
      | "\(if $pct > $t then "FAIL" else "ok" end) \($pct * 100 | round / 100)"')
    status=${verdict%% *}
    pct=${verdict#* }
    if [[ "${status}" == "FAIL" ]]; then
      echo "! ${suite} ${name}: ${base_ns} -> ${cur_ns} ns/iter (+${pct}% > ${THRESHOLD}%)"
      failures=$((failures + 1))
    else
      echo "  ${suite} ${name}: ${pct}% drift"
    fi
  done <<< "${joined}"
done

if [[ ${failures} -gt 0 ]]; then
  echo "check_bench_drift: ${failures} benchmark(s) regressed beyond ${THRESHOLD}% (of ${compared} compared)" >&2
  exit 1
fi
echo "check_bench_drift: ${compared} benchmark(s) within ${THRESHOLD}% of ${BASELINE_REF}"

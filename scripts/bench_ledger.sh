#!/usr/bin/env bash
# The ledger on record. BENCH_ledger.json holds one row per recording of
# the repo benchmark (BENCHMARK.json + benchmark/, see benchmark/README.md):
# the host it ran on, the end-to-end medians and the per-layer values of
# every workload. A performance PR appends a row and quotes it; prose in
# CHANGES.md is not a record.
#
#   scripts/bench_ledger.sh record [LABEL]  run the benchmark and append a row
#   scripts/bench_ledger.sh check [FILE]    validate every row against the
#                                           names BENCHMARK.json declares
#
# `record` runs every workload untraced at each seed below (interleaved
# W1..W4 per seed, as `--study` does, so a slow phase of the host is spread
# over the workloads) and once traced, through the BENCHMARK.json command
# at its `run_seconds`: about 7 minutes. End-to-end values are medians over
# the seeds; per-layer values come from the one traced run. `rev` is
# `git describe --always --dirty`: a PR records its row from its working
# tree, before its commit exists, so that row reads `<parent>-dirty`.
# A row says what this host read on that day — compare rows of one host
# only, and gate a change with the benchmark's own `--study` / `--compare`
# on two checkouts (README.md "The benchmark"), not with two rows.
#
# Needs jq.
set -euo pipefail

cd "$(dirname "$0")/.."

SCHEMA=diaspec-bench/ledger/v1
LEDGER=BENCH_ledger.json
SEEDS=(1 2 3)

record() {
    local label=${1:-}
    local -a cmd workloads
    mapfile -t cmd < <(jq -r '.command[]' BENCHMARK.json)
    mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
    local seconds
    seconds=$(jq -r '.run_seconds' BENCHMARK.json)
    # Not `local`: the EXIT trap runs after this function's scope is gone.
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT

    # One run; its last stdout line is the result. A failed oracle exits
    # non-zero but still prints that line with `"correct": false`, which
    # is what must reach the row (and fail `check`).
    run() {
        echo "bench_ledger: $1 seed $2 trace $3" >&2
        { "${cmd[@]}" --workload "$1" --seed "$2" --seconds "$seconds" --trace "$3" \
            2>/dev/null || true; } | tail -n 1
    }
    local seed workload
    for seed in "${SEEDS[@]}"; do
        for workload in "${workloads[@]}"; do
            run "$workload" "$seed" 0 >> "$tmp/$workload.untraced"
        done
    done
    for workload in "${workloads[@]}"; do
        run "$workload" "${SEEDS[0]}" 1 > "$tmp/$workload.traced"
    done

    for workload in "${workloads[@]}"; do
        jq -s --arg name "$workload" --slurpfile traced "$tmp/$workload.traced" \
            --slurpfile bench BENCHMARK.json '
            def median: sort | if length % 2 == 1 then .[(length - 1) / 2]
                else (.[length / 2 - 1] + .[length / 2]) / 2 end;
            . as $runs | $traced[0] as $t
            | {($name): {
                correct: (all($runs[]; .correct) and $t.correct),
                attempted: ($runs | map(.attempted) | add),
                failed: (($runs | map(.failed) | add) + $t.failed),
                end_to_end: ([$bench[0].end_to_end[].name
                    | {key: ., value: (. as $m | $runs | map(.metrics[$m].value) | median)}]
                    | from_entries),
                per_layer: ($t.metrics | map_values(.value))
            }}' "$tmp/$workload.untraced"
    done | jq -s \
        --arg rev "$(git describe --always --dirty --abbrev=7)" \
        --arg recorded "$(date -u +%Y-%m-%d)" \
        --arg tag "$label" \
        --argjson nproc "$(nproc)" \
        --arg cpu_model "$(awk -F': ' '/^model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null)" \
        --argjson seconds "$seconds" \
        --argjson seeds "$(printf '%s\n' "${SEEDS[@]}" | jq -s .)" '
        {rev: $rev, recorded: $recorded}
        + (if $tag == "" then {} else {"label": $tag} end)
        + {nproc: $nproc, cpu_model: (if $cpu_model == "" then "unknown" else $cpu_model end),
           seconds: $seconds, seeds: $seeds, workloads: add}' > "$tmp/row.json"

    if [ ! -f "$LEDGER" ]; then
        jq -n --arg schema "$SCHEMA" '{schema: $schema, rows: []}' > "$LEDGER"
    fi
    jq --slurpfile row "$tmp/row.json" '.rows += $row' "$LEDGER" > "$tmp/ledger.json"
    mv "$tmp/ledger.json" "$LEDGER"
    echo "bench_ledger: appended row $(jq '.rows | length' "$LEDGER") to $LEDGER" >&2
    check "$LEDGER"
}

check() {
    local file=${1:-$LEDGER}
    local problems
    problems=$(jq -r --arg schema "$SCHEMA" --slurpfile bench BENCHMARK.json '
        ($bench[0].workloads | map(.name)) as $workloads
        | {end_to_end: ($bench[0].end_to_end | map(.name)),
           per_layer: ($bench[0].per_layer | map(.name))} as $declared
        | (if .schema != $schema then "schema is \(.schema), expected \($schema)" else empty end),
          (if (.rows | length) == 0 then "no rows" else empty end),
          (.rows | to_entries[] | "row \(.key + 1)" as $row | .value as $r
            | (("rev", "recorded", "nproc", "cpu_model", "seconds", "seeds")
                | select($r[.] == null) | "\($row): no `\(.)`"),
              ((($r.workloads // {} | keys) - $workloads)[] | "\($row): unknown workload `\(.)`"),
              ($workloads[] | . as $w | "\($row) \($w)" as $at | ($r.workloads[$w] // {}) as $run
                | (if $run.correct != true then "\($at): `correct` is not true" else empty end),
                  (if $run.failed != 0 then "\($at): `failed` is not 0" else empty end),
                  (("end_to_end", "per_layer") | . as $kind | ($run[$kind] // {}) as $have
                    | (($declared[$kind] - ($have | keys))[] | "\($at): \($kind) lacks `\(.)`"),
                      ((($have | keys) - $declared[$kind])[]
                        | "\($at): \($kind) has `\(.)`, which BENCHMARK.json does not declare"),
                      ($have | to_entries[] | select(.value | type != "number")
                        | "\($at): \($kind) `\(.key)` is not a number"))))
        ' "$file")
    if [ -n "$problems" ]; then
        echo "FAIL: $file" >&2
        echo "$problems" >&2
        exit 1
    fi
    echo "ok: $file: $(jq '.rows | length' "$file") row(s), every workload and metric of BENCHMARK.json present"
}

case ${1:-} in
    record) record "${2:-}" ;;
    check) check "${2:-}" ;;
    *)
        echo "usage: $0 record [LABEL] | check [FILE]" >&2
        exit 2
        ;;
esac

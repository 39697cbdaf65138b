#!/usr/bin/env bash
# Guardrails for the staged delivery pipeline (see docs/ARCHITECTURE.md).
#
# 1. engine.rs must stay a coordinator, not regrow into a monolith.
# 2. The pipeline's hot path must stay zero-copy: a deep-copy regression
#    shows up as new `.clone()` calls in engine/deliver/, so the total is
#    budgeted in scripts/clone_budget.txt. Raising the budget is allowed
#    but must be a reviewed, committed change.
# 3. One fault sampler: every seeded fault decision is a `fate` draw
#    (crates/diaspec-mapreduce/src/fault.rs, see docs/FAULTS.md
#    "Determinism"). A second hash or an RNG stream under an injector
#    would show up as the SplitMix64 multiplier in a second file, the
#    retired MurmurHash3 finalizer anywhere, or `use rand` in the engine
#    or chaos injector.
# 4. One telemetry protocol: an engine site states what happened through
#    the three verbs of engine/telemetry.rs (`note`, `begin`..`end` or
#    `leaf`..`end_leaf`, `point`; see docs/OBSERVABILITY.md "Instrumenting
#    a site") and never asks which switch is on. A hand-rolled copy of the
#    protocol shows up as a switch query, a wall-clock read or a
#    `SpanCtx { .. }` literal outside that file.
# 5. One measuring stick: performance is measured by `benchmark/` (the
#    gate, recorded in BENCH_ledger.json by scripts/bench_ledger.sh) and
#    paper claims by `experiments --only eN`. The bench-framework stack
#    those replaced must not grow back: the framework is named in no
#    manifest and not in the root lock file, and there is no
#    crates/*/benches/ and no vendor/ copy of it. (Its name is spelled
#    with a bracket below so that a search of the tree for it finds
#    history only: CHANGES.md, ROADMAP.md.)
# 6. One task loop: a MapReduce phase is `run_task` under one claim loop
#    (crates/diaspec-mapreduce/src/executor.rs), inline for one worker and
#    on scoped threads for more. The straggler-duplicating pool it
#    replaced (ROADMAP "Decided against") shows up as a condition
#    variable, a timed wait or its vocabulary in the executor crate or in
#    the runtime files that plumbed it, or as executor.rs regrowing past
#    its line budget (which, like MAX_ENGINE_LINES, only ratchets down).
# 7. One deployment unit: `manifest.json` is what `diaspec-gen deploy`
#    writes and all a node needs (docs/DEPLOYMENT.md "Deployment units").
#    It enters a program through `NodeManifest::from_json`
#    (crates/diaspec-codegen/src/deploy.rs) and reaches a parking runtime
#    through `diaspec_apps::parking::remote`. A second loader shows up as
#    an untyped `serde_json::from_*` in a file (other than deploy.rs) that
#    names `NodeManifest`, the per-node source templates as their
#    vocabulary under the generator (spelled with a bracket below, as in
#    section 5), and a hand copy of the wiring as
#    `RemoteDeviceProxy::new` in the bench crate.
# 8. One load model: crates/diaspec-core/src/analysis/rates.rs is the only
#    place a declaration becomes messages per hour (docs/ANALYSIS.md §4);
#    §VI matching and W0602 read its typed edges. A second derivation
#    shows up as the hour in milliseconds elsewhere in diaspec-core, and a
#    parser of its rendered endpoints as `endpoint_device` or `split('.')`
#    in analysis/deployment.rs.
# 9. One checked wire: an edge decodes every request payload it acts on
#    (`Invoke` arguments, `QueryBatch` names) and answers a malformed one
#    with an `Error` naming the node, without calling a driver. A payload
#    read that falls back to a default instead shows up as
#    `unwrap_or_default` under crates/diaspec-runtime/src/deploy/.
# 10. One compiled design: the orchestrator lowers the checked spec once,
#    at construction, to dense ids and Vec-indexed tables
#    (crates/diaspec-runtime/src/engine/design.rs, docs/ARCHITECTURE.md
#    "One compiled design"); a message moves ids and shared handles, and
#    a name is read back from its table only for a person. Interpreting
#    the design by name again shows up as an owned `String` in a variant
#    of the pipeline's `enum Event`, or as a name-keyed map
#    (`BTreeMap<String`) in the engine's coordinator, facades or stages.
# 11. One entity slab: the registry keeps bound records in one slab
#    addressed by slot, one id -> slot map for the by-id entry points, and
#    type indexes addressed by device-type id whose buckets hold slots
#    (crates/diaspec-runtime/src/registry.rs, docs/ARCHITECTURE.md "One
#    entity slab"); a poll sweep walks slots and reads each member type's
#    declaration once. A name- or id-keyed record store growing back shows
#    up as `BTreeMap<EntityId, EntityRecord>` in registry.rs, and a
#    name-keyed type index as `BTreeMap<String, BTreeSet<EntityId>>` in
#    registry/indexes.rs.
# 12. One grouped batch: a periodic batch is grouped once, in one pass over
#    its readings' canonical handles, into one flat layout that
#    `BatchData::grouped` views (crates/diaspec-runtime/src/component.rs,
#    docs/ARCHITECTURE.md "One grouped batch"), and dispatch reads each
#    activation from the compiled design by id. A per-batch ordered map
#    of groups growing back shows up as `BTreeMap<Payload` under
#    engine/deliver/, and reading the declaration by name again as
#    `spec.context(` in engine/deliver/dispatch.rs.
# 13. One conflict rule: actuation conflicts are decided by one pass over a
#    universe of N >= 1 designs (crates/diaspec-core/src/analysis/
#    conflicts.rs, docs/ANALYSIS.md §1): pairs within a design are its i = j
#    case, pairs across designs i < j, with one guarantee rule and one
#    result type. A second pass growing back shows up as a second conflict
#    type (`struct CrossConflict`), the retired single-design family
#    intersection (`fn family_intersection`), or `collect_sites(` (private
#    to conflicts.rs) called there anywhere but in the pass's `fn detect(`.
# 14. One finding type: the front end, the analyzer, the cross-design
#    passes and §VI matching all report `Diagnostic`s (crates/diaspec-core/
#    src/diag.rs), whose locations name a file of the run, and each output
#    format has one renderer: `Diagnostic::render` for people, one JSON
#    builder and one SARIF loop in crates/diaspec-codegen/src/lint.rs.
#    A second finding type growing back shows up as `CrossFinding`,
#    `DesignSpan`, `MatchSeverity` or `MatchFinding` under crates/, a
#    second renderer as `render_cross_human` or `cross_json` in lint.rs or
#    as hand formatting (`map.locate(`) in crates/diaspec-core/src/lib.rs,
#    and a second lint entry point as a `lint_source(` call in
#    diaspec-gen.rs.
# 15. One budget pass: every load is judged against its budget by one pass
#    over N >= 1 designs (`rates::judge` in crates/diaspec-core/src/
#    analysis/rates.rs, docs/ANALYSIS.md §4): a device family's
#    `@qos(capacityPerHour)` (W0407 / W0602), a cut link's manifest
#    `msgs_per_hour` (W0602) and §VI's network capacity (E0604 / W0605).
#    A second budget loop growing back shows up as the retired
#    `detect_family_overloads`, `detect_link_overloads`, `FamilyLoad`,
#    `LinkLoad` or `DeploymentOptions` under crates/, a link budget
#    outside the manifest as `--link-budget` in diaspec-gen.rs, and a
#    network tally of its own as a `rates::tally(` call in
#    requirements.rs.
# 16. One compact grouped batch: a grouped activation's readings are one
#    array of 16-byte `(group id, value handle)` records from the poll to
#    the handler (`Record`, `Grouping` and `Groups` in crates/diaspec-
#    runtime/src/component.rs, docs/ARCHITECTURE.md "One grouped batch"):
#    the poll appends each reading as it crosses the transport, an `every`
#    window keeps the array, and `Groups` indexes it in group order by
#    `u32` positions. The 32-byte form growing back shows up as
#    `PolledReading` in the window buffer's type (`struct WindowBuffer` in
#    engine.rs), a second collect of the delivered readings as
#    `surviving` in engine/deliver/dispatch.rs, and a group-order copy of
#    the value handles as a `Vec<Payload>` field of `struct Groups` other
#    than its per-group `keys`.
# 17. One design graph: the analyzer lowers a design once, in
#    `DesignGraph::build` (crates/diaspec-core/src/analysis/graph.rs,
#    docs/ANALYSIS.md "One design graph"), one edge per declared clause,
#    and every pass, the functional chains, the requirements estimate
#    and the DOT view read that graph. A second lowering growing back
#    shows up as `ActivationTrigger::`, a `.activations` or `.bindings`
#    walk, or a `subscribers_of_` call in any other file under
#    analysis/, in chains.rs, requirements.rs or crates/diaspec-codegen/
#    src/dot.rs; a second chain-step type as `ChainStep` under crates/;
#    and the DOT view's own source normalization as `fn source_owner`.
set -euo pipefail

cd "$(dirname "$0")/.."

ENGINE=crates/diaspec-runtime/src/engine.rs
MAX_ENGINE_LINES=758

lines=$(wc -l < "$ENGINE")
if [ "$lines" -gt "$MAX_ENGINE_LINES" ]; then
    echo "FAIL: $ENGINE is $lines lines (max $MAX_ENGINE_LINES)." >&2
    echo "Move logic into engine/deliver/ or engine/api.rs instead." >&2
    exit 1
fi
echo "ok: $ENGINE is $lines lines (max $MAX_ENGINE_LINES)"

budget=$(tr -d '[:space:]' < scripts/clone_budget.txt)
clones=$(cat crates/diaspec-runtime/src/engine/deliver/*.rs \
    | grep -o '\.clone()' | wc -l || true)
if [ "$clones" -gt "$budget" ]; then
    echo "FAIL: engine/deliver/ has $clones .clone() calls (budget $budget)." >&2
    echo "Payload handles clone cheaply, but check you are not deep-copying" >&2
    echo "Values; if the new clone is legitimate, bump scripts/clone_budget.txt" >&2
    echo "in the same change and say why." >&2
    exit 1
fi
echo "ok: engine/deliver/ has $clones .clone() calls (budget $budget)"

SPLITMIX='0xBF58_?476D_?1CE4_?E5B9'
MURMUR='0xFF51_?AFD7_?ED55_?8CCD'
samplers=$(grep -rliE "$SPLITMIX" crates/*/src || true)
if [ "$samplers" != "crates/diaspec-mapreduce/src/fault.rs" ]; then
    echo "FAIL: the SplitMix64 multiplier 0xBF58_476D_1CE4_E5B9 must appear in exactly one" >&2
    echo "file under crates/*/src (the \`fate\` primitive); found in:" >&2
    echo "${samplers:-<none>}" >&2
    exit 1
fi
if grep -rliE "$MURMUR" crates/*/src; then
    echo "FAIL: the MurmurHash3 finalizer 0xFF51_AFD7_ED55_8CCD is back (files above);" >&2
    echo "key the decision on \`fate\` instead of a second hash." >&2
    exit 1
fi
for injector in crates/diaspec-runtime/src/fault.rs \
    crates/diaspec-runtime/src/transport/chaos.rs; do
    if grep -n 'use rand' "$injector"; then
        echo "FAIL: $injector imports rand; injectors draw from \`fate\`." >&2
        exit 1
    fi
done
echo "ok: one fault sampler (fate), no second hash, no RNG under an injector"

TELEMETRY=crates/diaspec-runtime/src/engine/telemetry.rs
API=crates/diaspec-runtime/src/engine/api.rs
DELIVER=crates/diaspec-runtime/src/engine/deliver

# Occurrences of fixed string $1 in the code (comment lines excluded) of
# the files that follow.
count() {
    local needle=$1
    shift
    { grep -hv '^[[:space:]]*//' "$@" || true; } | { grep -oF -- "$needle" || true; } | wc -l
}

# needle, max in telemetry.rs (what the verbs need), max in engine.rs.
# Nothing is allowed in engine/api.rs or engine/deliver/.
# engine.rs keeps two named wall-clock reads: `bind_entity`'s binding
# timer and `run_realtime_for`'s pacing clock.
while read -r needle in_verbs in_engine; do
    found=$(count "$needle" "$TELEMETRY")
    if [ "$found" -gt "$in_verbs" ]; then
        echo "FAIL: $TELEMETRY has $found \`$needle\` (the verbs need $in_verbs)." >&2
        exit 1
    fi
    found=$(count "$needle" "$ENGINE")
    if [ "$found" -gt "$in_engine" ]; then
        echo "FAIL: $ENGINE has $found \`$needle\` (max $in_engine); go through a verb." >&2
        exit 1
    fi
    found=$(count "$needle" "$API" "$DELIVER"/*.rs)
    if [ "$found" -gt 0 ]; then
        echo "FAIL: $found \`$needle\` in engine/api.rs or engine/deliver/; a site" >&2
        echo "states what happened through note/begin/leaf/end/end_leaf/point and lets the" >&2
        echo "verb query the switches (engine/telemetry.rs)." >&2
        exit 1
    fi
done <<'EOF_RULES'
spans_materializing() 1 0
trace.is_enabled() 1 0
has_observers() 1 0
Instant::now 1 2
EOF_RULES
literals=$({ grep -hv '^[[:space:]]*//' "$ENGINE" "$API" "$TELEMETRY" "$DELIVER"/*.rs || true; } \
    | { grep -F 'SpanCtx {' || true; } | { grep -vcF -- '-> SpanCtx {' || true; })
if [ "$literals" -gt 0 ]; then
    echo "FAIL: $literals \`SpanCtx { .. }\` literal(s) in the engine; use SpanCtx::child," >&2
    echo "SpanCtx::root or SpanCtx::NONE (crates/diaspec-runtime/src/spans.rs)." >&2
    exit 1
fi
echo "ok: one telemetry protocol (switch queries and Instant::now only in the verbs)"

framework='criteri[o]n'
if grep -il "$framework" Cargo.toml Cargo.lock crates/*/Cargo.toml tests/Cargo.toml \
    examples/Cargo.toml vendor/*/Cargo.toml benchmark/Cargo.toml; then
    echo "FAIL: the retired bench framework is named in the manifest(s) or lock file above." >&2
    echo "Time a layer with a benchmark/ probe or an \`experiments\` row instead" >&2
    echo "(EXPERIMENTS.md, \"Two measuring sticks, and where the third went\")." >&2
    exit 1
fi
for gone in crates/*/benches vendor/criteri*; do
    if [ -e "$gone" ]; then
        echo "FAIL: $gone exists; the bench stack it belonged to was retired." >&2
        exit 1
    fi
done
echo "ok: one measuring stick (no bench framework in any manifest, no benches/, no vendored copy)"

EXECUTOR=crates/diaspec-mapreduce/src/executor.rs
MAX_EXECUTOR_LINES=960
if grep -rnE 'Condvar|wait_timeout|[Ss]peculat' crates/diaspec-mapreduce/src \
    crates/diaspec-runtime/src/fault.rs crates/diaspec-runtime/src/metrics.rs; then
    echo "FAIL: the task pool is growing back (lines above): a phase hands out task" >&2
    echo "indices from one atomic counter and runs each task to its conclusion; it" >&2
    echo "does not wait, wake or duplicate attempts (ROADMAP, \"Decided against\")." >&2
    exit 1
fi
lines=$(wc -l < "$EXECUTOR")
if [ "$lines" -gt "$MAX_EXECUTOR_LINES" ]; then
    echo "FAIL: $EXECUTOR is $lines lines (max $MAX_EXECUTOR_LINES)." >&2
    exit 1
fi
echo "ok: one task loop (no condition variable, timed wait or duplicate attempts; $EXECUTOR is $lines lines, max $MAX_EXECUTOR_LINES)"

DEPLOY=crates/diaspec-codegen/src/deploy.rs
# In a file that names NodeManifest, a `serde_json::from_*` call must say
# on its own line that it builds some other type.
loaders=$(grep -rl 'NodeManifest' --include='*.rs' crates examples tests \
    | { grep -vx "$DEPLOY" || true; } | xargs grep -n 'serde_json::from_' \
    | { grep -vP 'let \w+: (?![\w:]*NodeManifest)[\w:]+ = serde_json::from_' || true; })
if [ -n "$loaders" ]; then
    echo "FAIL: a manifest is deserialized outside $DEPLOY:" >&2
    echo "$loaders" >&2
    echo "Load it with NodeManifest::from_json, which also checks it." >&2
    exit 1
fi
if grep -rnE 'node_\{|LINK_POLICIE[S]' crates/diaspec-codegen/src; then
    echo "FAIL: per-node source templates are back under the generator (lines above);" >&2
    echo "the manifest is the deployment unit (ROADMAP, item 7, branch b)." >&2
    exit 1
fi
if grep -rn 'RemoteDeviceProxy::new' crates/diaspec-bench/src; then
    echo "FAIL: the bench crate wires remote devices by hand (lines above); drive the" >&2
    echo "generated manifest through diaspec_apps::parking::remote instead." >&2
    exit 1
fi
echo "ok: one deployment unit (one manifest loader, no per-node templates, no hand-wired soak)"

RATES=crates/diaspec-core/src/analysis/rates.rs
derivations=$(grep -rlE '3_600_000|MS_PER_HOUR' crates/diaspec-core/src \
    | { grep -vx "$RATES" || true; })
if [ -n "$derivations" ]; then
    echo "FAIL: a rate is derived outside $RATES:" >&2
    echo "$derivations" >&2
    echo "Read the load model's edges (EdgeCapacity::msgs_per_hour) instead." >&2
    exit 1
fi
if grep -nE "fn endpoint_device|split\('\.'\)" crates/diaspec-core/src/analysis/deployment.rs; then
    echo "FAIL: analysis/deployment.rs parses rendered endpoints (lines above); filter" >&2
    echo "the load model's edges on their typed \`family\` instead." >&2
    exit 1
fi
echo "ok: one load model (msg/h derived only in $RATES, no endpoint parser in W0602)"

DEPLOY_RT=crates/diaspec-runtime/src/deploy
if grep -rn 'unwrap_or_default' "$DEPLOY_RT"; then
    echo "FAIL: a wire payload is read with a default fallback under $DEPLOY_RT (lines" >&2
    echo "above): decode it and answer a malformed one with an Error naming the node," >&2
    echo "calling no driver." >&2
    exit 1
fi
echo "ok: one checked wire (no unwrap_or_default under $DEPLOY_RT)"

EVENTS=crates/diaspec-runtime/src/engine/deliver/mod.rs
named=$(awk '/^pub\(crate\) enum Event \{/{inside=1} inside{print FILENAME ":" FNR ": " $0} inside && /^\}/{exit}' "$EVENTS" \
    | { grep -vE '^[^:]+:[0-9]+: *//' || true; } | { grep -E '\bString\b' || true; })
if [ -n "$named" ]; then
    echo "FAIL: a pipeline event carries an owned name:" >&2
    echo "$named" >&2
    echo "Carry the component, device type or source id of the compiled design" >&2
    echo "(engine/design.rs) and read the name from its table where a person reads it." >&2
    exit 1
fi
if ! grep -q '^pub(crate) enum Event {' "$EVENTS"; then
    echo "FAIL: $EVENTS no longer declares \`pub(crate) enum Event {\`; update this check." >&2
    exit 1
fi
if grep -nF 'BTreeMap<String' "$ENGINE" "$API" "$DELIVER"/*.rs; then
    echo "FAIL: a name-keyed map is back in the engine (lines above); index the" >&2
    echo "compiled design's Vec slots by id instead." >&2
    exit 1
fi
echo "ok: one compiled design (no owned name in enum Event, no BTreeMap<String in the engine)"

REGISTRY=crates/diaspec-runtime/src/registry.rs
if grep -nF 'BTreeMap<EntityId, EntityRecord>' "$REGISTRY"; then
    echo "FAIL: $REGISTRY keys records by id again (lines above); keep them in the" >&2
    echo "slab and map an id to its slot." >&2
    exit 1
fi
if grep -nF 'BTreeMap<String, BTreeSet<EntityId>>' crates/diaspec-runtime/src/registry/indexes.rs; then
    echo "FAIL: a name-keyed type index is back in registry/indexes.rs (lines above);" >&2
    echo "index buckets by device-type id and hold slots." >&2
    exit 1
fi
if ! grep -q 'pages: Vec<Box<\[Option<EntityRecord>\]>>,' "$REGISTRY"; then
    echo "FAIL: $REGISTRY no longer declares the slab's \`pages\`; update this check." >&2
    exit 1
fi
echo "ok: one entity slab (records by slot, type buckets by id, no id-keyed record map)"

DISPATCH=crates/diaspec-runtime/src/engine/deliver/dispatch.rs
if grep -nF 'BTreeMap<Payload' "$DELIVER"/*.rs; then
    echo "FAIL: a batch is regrouped into an ordered map under $DELIVER (lines above);" >&2
    echo "group it once with component::Groups::of and read the view." >&2
    exit 1
fi
if grep -nF 'spec.context(' "$DISPATCH"; then
    echo "FAIL: $DISPATCH reads a context declaration by name (lines above); read" >&2
    echo "the compiled design's ContextDecl by id (engine/design.rs)." >&2
    exit 1
fi
echo "ok: one grouped batch (no BTreeMap<Payload under engine/deliver/, no spec.context( in dispatch.rs)"

CONFLICTS=crates/diaspec-core/src/analysis/conflicts.rs
if grep -rnE 'fn family_intersection|struct CrossConflict' crates --include=*.rs; then
    echo "FAIL: a second conflict pass is back (lines above); run the one pass in" >&2
    echo "$CONFLICTS over the design universe and read its ActuationConflict." >&2
    exit 1
fi
# `collect_sites` is private to conflicts.rs, so the compiler keeps other
# files from calling it; inside the file, only `fn detect(` may.
callers=$(awk '/^(pub(\(crate\))? )?fn /{f=$0}
    /collect_sites\(/ && !/fn collect_sites\(/ && f !~ /fn detect\(/{print FILENAME ":" FNR ": " $0}' "$CONFLICTS")
if [ -n "$callers" ]; then
    echo "FAIL: actuation sites are collected outside the one conflict pass:" >&2
    echo "$callers" >&2
    echo "Call conflicts::detect with the designs instead." >&2
    exit 1
fi
if ! grep -q '^pub(crate) fn detect($' "$CONFLICTS"; then
    echo "FAIL: $CONFLICTS no longer declares \`pub(crate) fn detect(\`; update this check." >&2
    exit 1
fi
echo "ok: one conflict rule (one pass in $CONFLICTS, no CrossConflict, no family_intersection)"

LINT=crates/diaspec-codegen/src/lint.rs
if grep -rnwE 'CrossFinding|DesignSpan|MatchSeverity|MatchFinding' crates --include=*.rs; then
    echo "FAIL: a second finding type is back under crates/ (lines above); report" >&2
    echo "a diag::Diagnostic whose locations name their file instead." >&2
    exit 1
fi
if grep -nE 'fn (render_cross_human|cross_json)\b' "$LINT"; then
    echo "FAIL: $LINT renders cross-design findings on their own (lines above);" >&2
    echo "pass named positions to the one renderer of each format." >&2
    exit 1
fi
if grep -nF 'map.locate(' crates/diaspec-core/src/lib.rs; then
    echo "FAIL: crates/diaspec-core/src/lib.rs formats diagnostics by hand (lines" >&2
    echo "above); build a CompileError, which renders them with Diagnostic::render." >&2
    exit 1
fi
if grep -nF 'lint_source(' crates/diaspec-codegen/src/bin/diaspec-gen.rs; then
    echo "FAIL: diaspec-gen.rs has a second lint entry point (lines above); one" >&2
    echo "input without manifests is lint_designs' single-design case." >&2
    exit 1
fi
echo "ok: one finding type (no CrossFinding/DesignSpan/MatchFinding/MatchSeverity, one renderer per format)"

BUDGETS=crates/diaspec-core/src/analysis/rates.rs
if grep -rnwE 'detect_family_overloads|detect_link_overloads|FamilyLoad|LinkLoad|DeploymentOptions' crates --include=*.rs; then
    echo "FAIL: a second budget loop is back under crates/ (lines above); call" >&2
    echo "rates::judge in $BUDGETS with the designs and their counts instead." >&2
    exit 1
fi
if grep -nF -- '--link-budget' crates/diaspec-codegen/src/bin/diaspec-gen.rs; then
    echo "FAIL: diaspec-gen.rs takes a link budget on the command line (lines above);" >&2
    echo "a cut link's budget is edges[].link.msgs_per_hour in its manifest." >&2
    exit 1
fi
if grep -nF 'rates::tally(' crates/diaspec-core/src/requirements.rs; then
    echo "FAIL: requirements.rs sums the network demand itself (lines above); read" >&2
    echo "E0604 / W0605 and the demand from rates::judge." >&2
    exit 1
fi
if ! grep -q '^pub(crate) fn judge($' "$BUDGETS"; then
    echo "FAIL: $BUDGETS no longer declares \`pub(crate) fn judge(\`; update this check." >&2
    exit 1
fi
echo "ok: one budget pass (rates::judge; no FamilyLoad/LinkLoad/DeploymentOptions, no --link-budget, no tally in requirements.rs)"

COMPONENT=crates/diaspec-runtime/src/component.rs
# The declaration of `struct $2` in file $1, as "file:line: text" lines.
struct_body() {
    awk -v name="$2" '$0 ~ "^(pub(\\(crate\\))? )?struct " name " \\{" {inside=1}
        inside{print FILENAME ":" FNR ": " $0} inside && /^\}/{exit}' "$1"
}
window=$(struct_body "$ENGINE" WindowBuffer)
groups=$(struct_body "$COMPONENT" Groups)
if [ -z "$window" ] || [ -z "$groups" ]; then
    echo "FAIL: $ENGINE no longer declares \`struct WindowBuffer {\` or $COMPONENT" >&2
    echo "\`pub struct Groups {\`; update this check." >&2
    exit 1
fi
if echo "$window" | grep -F 'PolledReading'; then
    echo "FAIL: an \`every\` window buffers 32-byte PolledReadings again (line above);" >&2
    echo "buffer the activation's component::Gathered, whose grouped readings are records." >&2
    exit 1
fi
if grep -n 'surviving' "$DISPATCH"; then
    echo "FAIL: $DISPATCH collects the delivered readings a second time (lines above);" >&2
    echo "append each to the pending batch as it crosses the transport." >&2
    exit 1
fi
if echo "$groups" | grep -F 'Vec<Payload>' | grep -vE '^[^:]+:[0-9]+: +keys: Vec<Payload>,$'; then
    echo "FAIL: Groups copies the value handles into group order (line above); index" >&2
    echo "the batch-order records by their u32 positions instead." >&2
    exit 1
fi
echo "ok: one compact grouped batch (no PolledReading in the window buffer, no surviving collect, no group-order handle copy)"

ANALYSIS=crates/diaspec-core/src/analysis
GRAPH=$ANALYSIS/graph.rs
if [ ! -f "$GRAPH" ] || ! grep -q 'pub fn build(spec: &CheckedSpec) -> Self' "$GRAPH"; then
    echo "FAIL: $GRAPH no longer declares \`DesignGraph::build\`; update this check." >&2
    exit 1
fi
readers=$(ls "$ANALYSIS"/*.rs | grep -vx "$GRAPH")
if grep -nE 'ActivationTrigger::|\.activations\b|\.bindings\b|subscribers_of_' $readers \
    crates/diaspec-core/src/chains.rs crates/diaspec-core/src/requirements.rs \
    crates/diaspec-codegen/src/dot.rs; then
    echo "FAIL: a pass walks the model's activations or bindings itself (lines above);" >&2
    echo "read the edges of $GRAPH, whose origin names the clause." >&2
    exit 1
fi
if grep -rnw 'ChainStep' crates --include=*.rs; then
    echo "FAIL: a second chain-step type is back under crates/ (lines above); a" >&2
    echo "functional chain's steps are graph::Node's." >&2
    exit 1
fi
if grep -rn 'fn source_owner' crates --include=*.rs; then
    echo "FAIL: a source is normalized to its declaring device outside $GRAPH" >&2
    echo "(lines above); draw and read the graph's source nodes." >&2
    exit 1
fi
echo "ok: one design graph (activations and bindings walked only in $GRAPH, no ChainStep, no source_owner)"

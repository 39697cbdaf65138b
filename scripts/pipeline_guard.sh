#!/usr/bin/env bash
# Guardrails for the staged delivery pipeline (see docs/ARCHITECTURE.md).
#
# 1. engine.rs must stay a coordinator, not regrow into a monolith.
# 2. The pipeline's hot path must stay zero-copy: a deep-copy regression
#    shows up as new `.clone()` calls in engine/deliver/, so the total is
#    budgeted in scripts/clone_budget.txt. Raising the budget is allowed
#    but must be a reviewed, committed change.
set -euo pipefail

cd "$(dirname "$0")/.."

ENGINE=crates/diaspec-runtime/src/engine.rs
MAX_ENGINE_LINES=900

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

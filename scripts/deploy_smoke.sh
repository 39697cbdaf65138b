#!/usr/bin/env bash
# Deployment smoke test: the socket backend must be observationally
# identical to the in-process backend, and a killed edge must recover
# through lease expiry + standby promotion.
#
#   1. `diaspec-gen deploy` partitions specs/parking.spec into one
#      `manifest.json` — the deployment unit, and the only file written;
#   2. the distributed parking demo runs once fully in-process (golden)
#      and once as 1 coordinator + 2 edge processes over localhost TCP —
#      the two orchestration-level summaries must diff clean;
#   3. the TCP run is repeated with two partition windows cutting the
#      links mid-run — the at-least-once session layer must park the
#      in-window ticks and replay them once each window closes, and the
#      summary must still diff clean against the in-process golden;
#   4. the TCP run is repeated with edge1 dying mid-run and recovery
#      enabled — the coordinator trace must show lease expiry and
#      standby promotion;
#   5. hand-edited manifests the demo used to mis-run — a zero resend
#      queue, two edges with one name, a shard that is no parking lot —
#      are refused with the node and field named: exit non-zero, no panic;
#   6. no child process may leak past the script.
#
# Usage: scripts/deploy_smoke.sh   (PORT_BASE overridable, default 7470)
set -euo pipefail
cd "$(dirname "$0")/.."

PORT_BASE="${PORT_BASE:-7470}"
SENSORS=4
HOURS=1
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"; pkill -f "parking_distributed --role" 2>/dev/null || true' EXIT

cargo build --release -q -p diaspec-codegen -p diaspec-examples
GEN=target/release/diaspec-gen
BIN=target/release/parking_distributed

# 1. Partition the design; the partition pass must accept the split.
"$GEN" deploy specs/parking.spec --edges 2 --port-base "$PORT_BASE" --out "$OUT/deploy"
MANIFEST="$OUT/deploy/manifest.json"
if [ "$(ls "$OUT/deploy")" != "manifest.json" ]; then
  echo "a deployment is exactly manifest.json; found:" >&2; ls "$OUT/deploy" >&2; exit 1
fi

# 2. Golden: the same wiring over the in-process backend.
"$BIN" --role inprocess --manifest "$MANIFEST" --sensors "$SENSORS" --hours "$HOURS" \
  > "$OUT/inprocess.out" 2> "$OUT/inprocess.err"

# ... versus 1 coordinator + 2 edges over localhost TCP.
"$BIN" --role edge --node edge0 --manifest "$MANIFEST" --sensors "$SENSORS" \
  > "$OUT/edge0.out" 2>&1 &
EDGE0=$!
"$BIN" --role edge --node edge1 --manifest "$MANIFEST" --sensors "$SENSORS" \
  > "$OUT/edge1.out" 2>&1 &
EDGE1=$!
sleep 0.5
"$BIN" --role coordinator --manifest "$MANIFEST" --sensors "$SENSORS" --hours "$HOURS" \
  > "$OUT/tcp.out" 2> "$OUT/tcp.err"
wait "$EDGE0" "$EDGE1"

echo "--- in-process vs TCP summary diff:"
diff -u "$OUT/inprocess.out" "$OUT/tcp.out"
echo "identical"

# 3. Partition scenario: both links are cut over [1,210,000, 1,330,000)
# and [2,410,000, 2,530,000) sim-ms. The windows sit between the
# 600,000-ms availability polls, so only environment ticks are lost;
# the session layer parks them and replays them (original stamps, in
# order) once its path probe crosses — the orchestration summary must
# stay byte-identical to the in-process golden.
"$BIN" --role edge --node edge0 --manifest "$MANIFEST" --sensors "$SENSORS" \
  > "$OUT/edge0-part.out" 2>&1 &
EDGE0=$!
"$BIN" --role edge --node edge1 --manifest "$MANIFEST" --sensors "$SENSORS" \
  > "$OUT/edge1-part.out" 2>&1 &
EDGE1=$!
sleep 0.5
"$BIN" --role coordinator --manifest "$MANIFEST" --sensors "$SENSORS" --hours "$HOURS" \
  --chaos-partition 1210000:1330000 --chaos-partition 2410000:2530000 \
  > "$OUT/partition.out" 2> "$OUT/partition.err"
wait "$EDGE0" "$EDGE1"

echo "--- in-process vs partitioned-TCP summary diff:"
diff -u "$OUT/inprocess.out" "$OUT/partition.out"
grep -q "diaspec_session_replays [1-9]" "$OUT/partition.err" \
  || { echo "partition run replayed nothing — windows never cut the link?" >&2; \
       cat "$OUT/partition.err" >&2; exit 1; }
echo "identical ($(grep -o 'diaspec_session_replays [0-9]*' "$OUT/partition.err" | head -1 | cut -d' ' -f2) tick(s) replayed)"

# 4. Kill scenario: edge1 dies at 1,150,000 ms sim time; the coordinator
# runs leases + coordinator-local standbys and must log the recovery.
"$BIN" --role edge --node edge0 --manifest "$MANIFEST" --sensors "$SENSORS" \
  > "$OUT/edge0-kill.out" 2>&1 &
EDGE0=$!
"$BIN" --role edge --node edge1 --manifest "$MANIFEST" --sensors "$SENSORS" \
  --die-at 1150000 > "$OUT/edge1-kill.out" 2>&1 &
EDGE1=$!
sleep 0.5
"$BIN" --role coordinator --manifest "$MANIFEST" --sensors "$SENSORS" --hours "$HOURS" \
  --recover > "$OUT/kill.out" 2> "$OUT/kill.err"
wait "$EDGE0" "$EDGE1"

grep -q "lease .* expired" "$OUT/kill.out" \
  || { echo "coordinator trace shows no lease expiry" >&2; cat "$OUT/kill.out" >&2; exit 1; }
grep -q "rebind .* -> standby-" "$OUT/kill.out" \
  || { echo "coordinator trace shows no standby promotion" >&2; cat "$OUT/kill.out" >&2; exit 1; }
grep -q "died on schedule" "$OUT/edge1-kill.out" \
  || { echo "edge1 did not die on schedule" >&2; cat "$OUT/edge1-kill.out" >&2; exit 1; }
echo "kill scenario recovered: $(grep -c 'rebind ' "$OUT/kill.out") promotion(s)"

# 5. Hostile manifests: each hand edit must be an error message that
# names the node and the field — not a panic, and not an exit 0 over
# half the city (two edges under one name would share one link).
refuse() { # <name> <expected stderr> — reads the edited manifest on stdin
  cat > "$OUT/bad_$1.json"
  if "$BIN" --role inprocess --manifest "$OUT/bad_$1.json" --sensors "$SENSORS" \
    --hours "$HOURS" > /dev/null 2> "$OUT/bad_$1.err"; then
    echo "bad manifest ($1) was accepted" >&2; exit 1
  fi
  grep -qF "$2" "$OUT/bad_$1.err" \
    || { echo "bad manifest ($1): the node and field are not named" >&2; cat "$OUT/bad_$1.err" >&2; exit 1; }
  if grep -q "panicked" "$OUT/bad_$1.err"; then
    echo "bad manifest ($1) reached a panic" >&2; cat "$OUT/bad_$1.err" >&2; exit 1
  fi
  echo "bad manifest refused: $(cut -c1-90 "$OUT/bad_$1.err" | head -1)"
}
sed 's/"resend_queue": *[0-9]*/"resend_queue": 0/' "$MANIFEST" \
  | refuse resend_queue "manifest edge edge0: link.resend_queue must be at least 1"
sed 's/"name": "edge1"/"name": "edge0"/' "$MANIFEST" \
  | refuse duplicate_name "manifest edge edge0: name is taken by an earlier node"
sed 's/"A22"/"Z99"/' "$MANIFEST" \
  | refuse unknown_shard "manifest edge edge0: shards holds \`Z99\`, not a variant of \`ParkingLotEnum\`"

# 6. Everything must have exited; a leaked edge would hold its port.
if pgrep -f "parking_distributed --role" > /dev/null; then
  echo "leaked child processes:" >&2
  pgrep -af "parking_distributed --role" >&2
  exit 1
fi
echo "deploy smoke OK"

#!/usr/bin/env bash
# Kill -9 smoke for the durability plane: a checkpointed daemon is
# murdered over and over — once raw mid-stream, then repeatedly at
# random armed crashpoints (STREAMSHARE_CRASHPOINT, the named windows
# inside the WAL append, the compaction rename dance, and startup
# recovery), plus once via SIGTERM with the drain window armed — and
# after every death the next life recovers from checkpoint + write-ahead
# log and keeps feeding. The final life replays the full history to a
# fresh client (attach @0) and the per-query `q<id> items= bytes= hash=`
# lines must be byte-identical to an uninterrupted streamshare_sim
# --query-stats batch run: ARCHITECTURE invariant 11, a crash is
# indistinguishable from a drain for every acknowledged operation.
#
# Usage: scripts/crash_smoke.sh [BUILD_DIR] [ARTIFACT_DIR]
#   BUILD_DIR    default: build
#   ARTIFACT_DIR when set, logs + checkpoint + WAL are copied there on
#                failure (CI uploads them)

set -euo pipefail

BUILD_DIR="${1:-build}"
ARTIFACT_DIR="${2:-}"
SERVE="${BUILD_DIR}/tools/streamshare_serve"
CLIENT="${BUILD_DIR}/tools/streamshare_client"
SIM="${BUILD_DIR}/tools/streamshare_sim"
WORK="$(mktemp -d)"
CKPT="${WORK}/crash.ckpt"
ITEMS=500
SERVE_PID=""
CRASHES=0

cleanup() {
  local rc=$?
  if [[ -n "${SERVE_PID}" ]] && kill -0 "${SERVE_PID}" 2>/dev/null; then
    kill -9 "${SERVE_PID}" 2>/dev/null || true
  fi
  if [[ ${rc} -ne 0 && -n "${ARTIFACT_DIR}" ]]; then
    mkdir -p "${ARTIFACT_DIR}"
    cp -r "${WORK}"/. "${ARTIFACT_DIR}/" 2>/dev/null || true
    echo "artifacts copied to ${ARTIFACT_DIR}"
  fi
  rm -rf "${WORK}"
  exit "${rc}"
}
trap cleanup EXIT

# Starts the daemon (crashpoint spec in $1, may be empty; log in $2).
# Returns 1 — without killing the script — when it died before binding,
# which is exactly what an armed startup-recovery crashpoint does.
start_daemon() {
  local spec="$1" log="$2"
  STREAMSHARE_CRASHPOINT="${spec}" "${SERVE}" --port=0 --seed=11 \
    --checkpoint="${CKPT}" --wal-compact-bytes=2048 > "${log}" 2>&1 &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    if grep -q '^listening port=' "${log}"; then break; fi
    if ! kill -0 "${SERVE_PID}" 2>/dev/null; then break; fi
    sleep 0.1
  done
  PORT="$(sed -n 's/^listening port=\([0-9]*\).*/\1/p' "${log}" | head -1)"
  [[ -n "${PORT}" ]] || return 1
}

# Waits for the current daemon to die on its own (the armed crashpoint
# firing); falls back to a raw kill -9 if the workload never reached the
# window. Either way this life ends murdered, never drained.
finish_life_dead() {
  local fired=1
  for _ in $(seq 1 50); do
    if ! kill -0 "${SERVE_PID}" 2>/dev/null; then fired=0; break; fi
    sleep 0.1
  done
  if [[ ${fired} -ne 0 ]]; then
    kill -9 "${SERVE_PID}" 2>/dev/null || true
  fi
  wait "${SERVE_PID}" 2>/dev/null || true
  SERVE_PID=""
  CRASHES=$((CRASHES + 1))
}

echo "=== batch reference (uninterrupted, ${ITEMS} items) ==="
"${SIM}" --scenario=extended --queries=4 --items="${ITEMS}" --seed=11 \
  --query-stats > "${WORK}/batch.txt"
grep -E '^q[0-9]+ items=' "${WORK}/batch.txt" > "${WORK}/expect.txt"
cat "${WORK}/expect.txt"

echo "=== life 1: subscribe + feed, then raw kill -9 mid-life ==="
start_daemon "" "${WORK}/life1.log" || { echo "life 1 did not start"; exit 1; }
"${CLIENT}" --port="${PORT}" \
  --subscribe=q1@1 --subscribe=q2@7 --subscribe=q3@3 --subscribe=q4@0 \
  --feed=100 --detach > "${WORK}/client1.txt"
grep -q '^subscribed q1$' "${WORK}/client1.txt"
kill -9 "${SERVE_PID}"
wait "${SERVE_PID}" 2>/dev/null || true
SERVE_PID=""
CRASHES=$((CRASHES + 1))
test -s "${CKPT}.wal"

echo "=== lives 2..7: random armed crashpoints, 60 items each ==="
POINTS=(wal-pre-append wal-mid-record wal-post-append-pre-sync
        wal-post-sync-pre-ack feed-post-feed-pre-log ckpt-pre-temp-write
        ckpt-mid-temp-write ckpt-pre-rename ckpt-post-rename-pre-wal-reset
        recover-post-fold-pre-listen)
RANDOM=42  # seeded: reruns murder at the same spots
for life in 2 3 4 5 6 7; do
  POINT="${POINTS[$((RANDOM % ${#POINTS[@]}))]}"
  echo "life ${life}: armed ${POINT}:1"
  if ! start_daemon "${POINT}:1" "${WORK}/life${life}.log"; then
    # Died inside startup recovery — that IS the crash; the next life
    # must pick up from whatever this one left on disk.
    wait "${SERVE_PID}" 2>/dev/null || true
    SERVE_PID=""
    CRASHES=$((CRASHES + 1))
    continue
  fi
  # The client may lose the connection mid-command when the point fires;
  # that is the point.
  "${CLIENT}" --port="${PORT}" --feed=60 --detach \
    > "${WORK}/client${life}.txt" 2>&1 || true
  finish_life_dead
done

echo "=== drain window: SIGTERM with drain-pre-checkpoint armed ==="
if start_daemon "drain-pre-checkpoint:1" "${WORK}/drain.log"; then
  "${CLIENT}" --port="${PORT}" --feed=20 --detach \
    > "${WORK}/client_drain.txt" 2>&1 || true
  kill -TERM "${SERVE_PID}"
  finish_life_dead
else
  echo "drain life did not start"; exit 1
fi

echo "=== final life: recover, replay everything, finish the feed ==="
start_daemon "" "${WORK}/final.log" || { echo "final life did not start"; exit 1; }
# Stats-only probe: a client that ATTACHES and then vanishes would make
# the daemon unsubscribe those queries (vanished-client GC, durably
# logged) — so the probe must not attach.
"${CLIENT}" --port="${PORT}" --stats > "${WORK}/probe.txt"
FED="$(sed -n 's/^connected epoch=[0-9]* items_fed=\([0-9]*\).*/\1/p' \
  "${WORK}/probe.txt" | head -1)"
[[ -n "${FED}" ]] || { echo "could not scrape items_fed"; exit 1; }
echo "durable items_fed after $((CRASHES)) kills: ${FED}"
[[ "${FED}" -le "${ITEMS}" ]] || { echo "FAIL: overfed past the target"; exit 1; }
grep -q 'wal appends=' "${WORK}/probe.txt"
# Recovery rebuilt the four logged registrations from their plan choices
# without searching (ARCHITECTURE invariant 12).
REGS="$(sed -n 's/^recovery registrations=\([0-9]*\) .*/\1/p' \
  "${WORK}/probe.txt" | head -1)"
EXAMINED="$(sed -n 's/^recovery .*candidates_examined=\([0-9]*\) .*/\1/p' \
  "${WORK}/probe.txt" | head -1)"
echo "final recovery: ${REGS:-?} registrations, ${EXAMINED:-?} candidates examined"
[[ "${REGS:-0}" -ge 4 ]] || { echo "FAIL: recovery replayed no registrations"; exit 1; }
[[ "${EXAMINED:-x}" == "0" ]] || { echo "FAIL: recovery searched (${EXAMINED:-?} candidates)"; exit 1; }

"${CLIENT}" --port="${PORT}" --attach=0@0 --attach=1@0 --attach=2@0 \
  --attach=3@0 --feed=$((ITEMS - FED)) --drain=final --wait-eos \
  > "${WORK}/client_final.txt"
wait "${SERVE_PID}" 2>/dev/null || true
SERVE_PID=""
grep -q '^eos final=1' "${WORK}/client_final.txt"

grep -E '^q[0-9]+ items=' "${WORK}/client_final.txt" > "${WORK}/got.txt"
diff -u "${WORK}/expect.txt" "${WORK}/got.txt" \
  || { echo "FAIL: recovered history diverged from the batch run"; exit 1; }

[[ "${CRASHES}" -ge 8 ]] || { echo "FAIL: only ${CRASHES} kills happened"; exit 1; }
echo "crash smoke passed: ${CRASHES} kills, history byte-identical"

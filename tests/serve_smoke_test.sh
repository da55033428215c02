#!/usr/bin/env bash
# Tier-1 smoke test for the mosaic_serve daemon (docs/serving.md).
#
# The SIGKILL recovery contract, end to end through real processes:
#   1. Clean reference: a daemon runs one job to completion; record the
#      result's mask hash.
#   2. Kill run: a daemon slowed by an optimizer.step delay fail point is
#      SIGKILLed after the job's first checkpoint lands but before it
#      finishes. kill -9 allows no cleanup of any kind.
#   3. Recovery: a new daemon on the same work dir replays the journal,
#      resumes the job from its checkpoint, and must produce a mask hash
#      bit-identical to the uninterrupted run.
#
# Also covered: the port file handshake, `mosaic_cli submit --wait` /
# `--watch`, graceful SIGTERM drain exiting with code 3 (interrupted), and
# the rejection of a negative --threads.
#
# Usage: serve_smoke_test.sh <mosaic_serve> <mosaic_cli> <scratch dir>

set -u

SERVE="$1"
CLI="$2"
SCRATCH="$3"

SPEC=(--case B1 --method baseline --pixel 16 --iters 12 --checkpoint-every 3)
DAEMON_PID=""

fail() {
  echo "serve_smoke: FAIL: $*" >&2
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null
  exit 1
}

cleanup() {
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null
}
trap cleanup EXIT

# start_daemon <work dir> <log file> [extra args...]; sets DAEMON_PID and
# waits for the port file so submissions cannot race the listener.
start_daemon() {
  local dir="$1" log="$2"
  shift 2
  rm -f "$dir/serve.port"
  "$SERVE" --work-dir "$dir" --port 0 --workers 1 "$@" >"$log" 2>&1 &
  DAEMON_PID=$!
  for _ in $(seq 1 300); do
    [ -s "$dir/serve.port" ] && return 0
    kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died at startup: $(cat "$log")"
    sleep 0.1
  done
  fail "daemon never wrote $dir/serve.port: $(cat "$log")"
}

mask_hash_of() {
  sed -n 's/.*"mask_hash":"\([0-9a-f]*\)".*/\1/p' <<<"$1" | head -1
}

rm -rf "$SCRATCH"
mkdir -p "$SCRATCH/clean" "$SCRATCH/kill" "$SCRATCH/flags"

# --- 0. runtime flags -------------------------------------------------------
# The daemon takes --log/--threads/--failpoints from the option group
# mosaic_cli uses, so a negative --threads is an error (exit 1) before the
# daemon listens, not a silent hardware-default run. The timeout only
# bounds a daemon that wrongly started: it exits 124, which also fails.
timeout 30 "$SERVE" --work-dir "$SCRATCH/flags" --port 0 --threads -1 \
  >"$SCRATCH/flags.log" 2>&1
CODE=$?
[ "$CODE" -eq 1 ] || fail "--threads -1 exited $CODE, want 1: $(cat "$SCRATCH/flags.log")"
grep -q -- "--threads must be >= 0" "$SCRATCH/flags.log" \
  || fail "--threads -1 gave no --threads error: $(cat "$SCRATCH/flags.log")"

# --- 1. clean reference run -------------------------------------------------
start_daemon "$SCRATCH/clean" "$SCRATCH/clean.log"
OUT=$("$CLI" submit --port-file "$SCRATCH/clean/serve.port" "${SPEC[@]}" --wait) \
  || fail "clean submit --wait failed: $OUT"
REF_HASH=$(mask_hash_of "$OUT")
[ -n "$REF_HASH" ] || fail "no mask_hash in clean result: $OUT"
grep -q '"state":"done"' <<<"$OUT" || fail "clean job not done: $OUT"

# Graceful drain: SIGTERM must exit with the interrupted code (3).
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
CODE=$?
DAEMON_PID=""
[ "$CODE" -eq 3 ] || fail "SIGTERM drain exited $CODE, want 3: $(cat "$SCRATCH/clean.log")"

# --- 2. kill -9 mid-job -----------------------------------------------------
# 150 ms per iteration stretches the 12-iteration job to ~2 s so the kill
# window is wide; we fire as soon as the first checkpoint file exists.
start_daemon "$SCRATCH/kill" "$SCRATCH/kill1.log" \
  --failpoints "optimizer.step:delay=150"
OUT=$("$CLI" submit --port-file "$SCRATCH/kill/serve.port" "${SPEC[@]}") \
  || fail "kill-run submit failed: $OUT"
JOB=$(sed -n 's/.*"job":"\([^"]*\)".*/\1/p' <<<"$OUT" | head -1)
[ -n "$JOB" ] || fail "no job id in submit reply: $OUT"

CKPT="$SCRATCH/kill/ckpt/$JOB.ckpt"
for _ in $(seq 1 300); do
  [ -s "$CKPT" ] && break
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died before checkpointing: $(cat "$SCRATCH/kill1.log")"
  sleep 0.05
done
[ -s "$CKPT" ] || fail "no checkpoint appeared at $CKPT"

kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null
DAEMON_PID=""

# --- 3. restart and resume --------------------------------------------------
start_daemon "$SCRATCH/kill" "$SCRATCH/kill2.log"
grep -q "recovered 1 job" "$SCRATCH/kill2.log" \
  || fail "restarted daemon did not report recovery: $(cat "$SCRATCH/kill2.log")"

OUT=$("$CLI" submit --port-file "$SCRATCH/kill/serve.port" --watch "$JOB" --wait) \
  || fail "watch after restart failed: $OUT"
grep -q '"state":"done"' <<<"$OUT" || fail "recovered job not done: $OUT"
RESUMED_HASH=$(mask_hash_of "$OUT")
[ -n "$RESUMED_HASH" ] || fail "no mask_hash in recovered result: $OUT"

[ "$RESUMED_HASH" = "$REF_HASH" ] \
  || fail "resumed mask differs: clean=$REF_HASH resumed=$RESUMED_HASH"

kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
DAEMON_PID=""

echo "serve_smoke: OK (job $JOB resumed bit-identically: $REF_HASH)"
exit 0

#!/usr/bin/env bash
# Kill-and-resume chaos harness for wfmsctl's crash-safe checkpointing.
#
# Baseline: an uninterrupted `wfmsctl recommend`. Chaos: run the same
# search with checkpointing and a deterministic self-SIGKILL after the
# N-th checkpoint write, then resume; N grows 1, 2, 4, ... so every
# attempt dies strictly later than the last (a fixed kill point would
# re-kill each resume at the same boundary forever). The run that
# finally outlives its kill budget must exit with the baseline's code and
# byte-identical stdout — the recommendation survives any number of
# crashes without drift or rework.
#
# usage: chaos_test.sh <wfmsctl> <workdir> <method>
set -u

WFMSCTL="$1"
WORKDIR="$2"
METHOD="${3:-greedy}"

ARGS=(recommend --scenario ep --method "$METHOD" --max-replicas 4)
BASE="$WORKDIR/chaos_${METHOD}_base.out"
RUN="$WORKDIR/chaos_${METHOD}_run.out"
ERR="$WORKDIR/chaos_${METHOD}_run.err"
CK="$WORKDIR/chaos_${METHOD}.wfsn"
rm -f "$CK"

"$WFMSCTL" "${ARGS[@]}" > "$BASE"
base_rc=$?
if [ "$base_rc" -ne 0 ] && [ "$base_rc" -ne 3 ]; then
  echo "FAIL: baseline exited $base_rc"
  exit 1
fi

n=1
kills=0
attempts=0
while :; do
  attempts=$((attempts + 1))
  if [ "$attempts" -gt 40 ]; then
    echo "FAIL: no clean exit after $attempts attempts"
    exit 1
  fi
  "$WFMSCTL" "${ARGS[@]}" --checkpoint="$CK" --checkpoint-interval=0 \
    --resume --crash-after-checkpoints "$n" > "$RUN" 2> "$ERR"
  rc=$?
  if [ "$rc" -eq 137 ]; then  # SIGKILLed mid-search, as scripted
    kills=$((kills + 1))
    if [ ! -f "$CK" ]; then
      echo "FAIL: killed after a checkpoint write but no checkpoint file"
      exit 1
    fi
    n=$((n * 2))
    continue
  fi
  break
done

if [ "$kills" -lt 1 ]; then
  echo "FAIL: the harness never managed to kill a run (checkpoints too rare?)"
  exit 1
fi
if [ "$rc" -ne "$base_rc" ]; then
  echo "FAIL: resumed run exited $rc, baseline $base_rc"
  cat "$ERR"
  exit 1
fi
if ! cmp -s "$BASE" "$RUN"; then
  echo "FAIL: resumed recommendation differs from the uninterrupted baseline"
  diff "$BASE" "$RUN"
  exit 1
fi
echo "PASS: $METHOD survived $kills SIGKILLs; final output byte-identical"

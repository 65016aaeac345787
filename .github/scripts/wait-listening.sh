#!/usr/bin/env bash
# Wait for a `psbench serve` started in the background to print its
# "listening on <addr>" line, then print <addr> on stdout.
#
# Usage: ADDR=$(.github/scripts/wait-listening.sh <server-log> <server-pid>)
#
# Polls the log every 0.1 s for up to 60 s. Fails, printing the server log on
# stderr, as soon as the server process has exited without printing the line,
# or when the 60 s pass.
set -u
log=$1
pid=$2
deadline=$((SECONDS + 60))
while :; do
  # The process state is read before the log, so a line written just before
  # the exit is still found by this iteration's read.
  state=$(ps -o stat= -p "$pid" 2>/dev/null | tr -d ' ')
  addr=$(sed -n 's/^listening on //p' "$log" 2>/dev/null | head -n 1)
  if [ -n "$addr" ]; then
    echo "$addr"
    exit 0
  fi
  # No state, or a zombie not yet reaped: the server has exited.
  if [ -z "$state" ] || [ "${state#Z}" != "$state" ]; then
    echo "server (pid $pid) exited without printing 'listening on'; its log:" >&2
    cat "$log" >&2
    exit 1
  fi
  if [ "$SECONDS" -ge "$deadline" ]; then
    echo "server (pid $pid) printed no 'listening on' within 60 s; its log:" >&2
    cat "$log" >&2
    exit 1
  fi
  sleep 0.1
done

#!/usr/bin/env bash
# Free-running kill/restart golden with every control-connection byte
# routed through the wire_proxy chaos intermediary: recurring forwarding
# stalls plus a truncate-then-reset of the respawned node's first dial
# attempt (the driver's bounded respawn loop must retry through it). The
# peer mesh stays direct, so a transaction's upload routinely beats its
# ground truth to a node; the node must wait for the truth, not fail. CI
# runs this under TSan with a bounded wall-clock; on failure the node logs
# and the free_run_<scenario>.txt report land in the artifact directory.
#
#   usage: cluster_chaos.sh <tools-dir> <artifact-dir> [--multi]
#
# --multi switches to the overlapping double-kill schedule (victims 1 and 2
# down at once — quorum loss on the 3-governor mixed golden): the cluster
# must ride out the stall window and converge after both respawns, with the
# first respawn dial still truncated+reset by the proxy.
set -euo pipefail

tools="${1:?usage: cluster_chaos.sh <tools-dir> <artifact-dir> [--multi]}"
artifacts="${2:?usage: cluster_chaos.sh <tools-dir> <artifact-dir> [--multi]}"
kills=(--kill=1@2:4)
if [[ "${3:-}" == "--multi" ]]; then
  kills=(--kill=1@2:4 --kill=2@2:3)
fi
mkdir -p "$artifacts"

# PID-derived ports keep concurrent ctest invocations off each other.
driver_port=$((20000 + $$ % 20000))
proxy_port=$((driver_port + 1))
peer_base=$((driver_port + 100))
state_root="$(mktemp -d /tmp/repchain_chaos_XXXXXX)"

# Stall all forwarding 80ms out of every 200ms, and truncate+reset the
# respawn dial (connection #3: the three initial admissions are #0-#2)
# after 24 bytes — a partial welcome followed by an RST.
"$tools/wire_proxy" --listen="$proxy_port" --connect="$driver_port" \
  --stall=200:80 --reset-conn=3@24 2>"$artifacts/wire_proxy.log" &
proxy_pid=$!
cleanup() {
  kill "$proxy_pid" 2>/dev/null || true
  wait "$proxy_pid" 2>/dev/null || true
  rm -rf "$state_root"
}
trap cleanup EXIT

# Wait for the proxy's readiness line rather than probing with a TCP
# connect: a probe sits in the listen backlog until the proxy's event loop
# accepts it, and if the driver is up by then the spliced probe would shift
# the fault schedule's connection numbering.
for _ in $(seq 50); do
  if grep -q "listening on" "$artifacts/wire_proxy.log" 2>/dev/null; then
    break
  fi
  sleep 0.1
done

"$tools/cluster_driver" --scenario=mixed --mode=free "${kills[@]}" \
  --listen-port="$driver_port" --node-port="$proxy_port" \
  --peer-base="$peer_base" \
  --state-root="$state_root" --artifact-dir="$artifacts"

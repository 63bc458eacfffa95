#!/usr/bin/env bash
# Structure guard: reliable delivery is decided once, on runtime::NodeContext
# (send / broadcast / multicast / receive). A protocol class that includes or
# names the ReliableChannel is choosing between channel and transport again.
#
#   usage: check_delivery_seam.sh <protocol-source-dir>
set -euo pipefail

dir="${1:?usage: check_delivery_seam.sh <protocol-source-dir>}"
if grep -rnE 'runtime/reliable_channel\.hpp|ReliableChannel' "$dir"; then
  echo "error: the protocol layer must reach reliable delivery only through NodeContext" >&2
  exit 1
fi
echo "ok: no delivery-mode choice under $dir"

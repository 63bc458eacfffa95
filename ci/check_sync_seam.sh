#!/usr/bin/env bash
# Structure guard: catch-up sync lives in protocol::ChainSync. A Governor
# source that names the sync pass state is growing a second sync path.
#
#   usage: check_sync_seam.sh <protocol-source-dir>
set -euo pipefail

dir="${1:?usage: check_sync_seam.sh <protocol-source-dir>}"
if grep -nE 'sync_candidates_|future_blocks_|distrusted_peers_|sync_nonce_' \
    "$dir/governor.hpp" "$dir/governor.cpp"; then
  echo "error: Governor must reach catch-up sync only through ChainSync" >&2
  exit 1
fi
echo "ok: no sync state in $dir/governor.{hpp,cpp}"

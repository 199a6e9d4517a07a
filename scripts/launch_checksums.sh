#!/usr/bin/env bash
# Prints the checksum table of every registered codec: `grace-launch
# --compressor all` at 1 and 2 ranks, over TCP and Unix-domain sockets, one
# row per (ranks, transport, method) with the trained parameters' crc32 and
# the final quality. `results/launch_checksums.txt` is this table; CI
# regenerates it and diffs, under auto-dispatch and GRACE_FORCE_SCALAR=1.
#
#   scripts/launch_checksums.sh [path/to/grace-launch] > results/launch_checksums.txt
set -euo pipefail
launch=${1:-target/release/grace-launch}
printf '%-6s %-10s %-14s %-9s %s\n' ranks transport method crc32 quality
for ranks in 1 2; do
    for transport in tcp uds; do
        flags=()
        if [ "$transport" = uds ]; then flags=(--uds); fi
        "$launch" --ranks "$ranks" --compressor all "${flags[@]}" |
            awk -v r="$ranks" -v t="$transport" \
                'length($2) == 8 && $2 ~ /^[0-9a-f]+$/ { printf "%-6s %-10s %-14s %-9s %s\n", r, t, $1, $2, $3 }'
    done
done

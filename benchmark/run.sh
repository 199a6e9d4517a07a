#!/usr/bin/env bash
# Builds grace-e2e (release, offline) and runs it from benchmark/out/ with
# every GRACE_* variable removed.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload in one mode; the last stdout line is its JSON result
#   benchmark/run.sh [--seed N] [--seconds S]
#       every workload, untraced and traced; writes out/report-seed<N>.json
#   benchmark/run.sh --twice [--seed N] [--seconds S]
#       the suite twice, then `compare --same-code`: the repeatability gate
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$here/out"
mkdir -p "$out/tmp"

cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# rustc's scratch files stay inside the checkout too.
TMPDIR="$out/tmp" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2
case "$CARGO_TARGET_DIR" in
    /*) bin="$CARGO_TARGET_DIR/release/grace-e2e" ;;
    *) bin="$root/$CARGO_TARGET_DIR/release/grace-e2e" ;;
esac

for var in "${!GRACE_@}"; do unset "$var"; done
export E2E_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export E2E_GIT_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
# cwd is out/ so a stray post-mortem bundle or trace lands there; TMPDIR=.
# keeps the ephemeral UDS hub socket there as well, on a short path.
cd "$out"
export TMPDIR=.

twice=0
args=()
for arg in "$@"; do
    if [ "$arg" = "--twice" ]; then twice=1; else args+=("$arg"); fi
done

case " ${args[*]-} " in
    *" --workload "*) exec "$bin" "${args[@]}" ;;
esac

seed=42
for ((i = 0; i < ${#args[@]}; i++)); do
    if [ "${args[i]}" = "--seed" ]; then seed="${args[i + 1]}"; fi
done
if [ "$twice" = 1 ]; then
    "$bin" suite "${args[@]}" --out "report-seed$seed-a.json"
    "$bin" suite "${args[@]}" --out "report-seed$seed-b.json"
    exec "$bin" compare "report-seed$seed-a.json" "report-seed$seed-b.json" --same-code
fi
exec "$bin" suite "${args[@]}" --out "report-seed$seed.json"

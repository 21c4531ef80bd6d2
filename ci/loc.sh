#!/usr/bin/env bash
# Lines of Rust per crate — ROADMAP north star 2's tracked number.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/ crates/shims/*/; do
    [ -f "$dir/Cargo.toml" ] || continue
    lines=$(find "$dir" -name '*.rs' | xargs cat | wc -l)
    printf '%-24s %7d\n' "${dir%/}" "$lines"
    total=$((total + lines))
done
printf '%-24s %7d\n' total "$total"

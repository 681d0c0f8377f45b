#!/usr/bin/env bash
# The whole verification, offline: the commands CI runs, in CI's order.
#
#   cargo fmt --all --check
#   cargo clippy --offline --workspace --all-targets -- -D warnings
#   cargo build --release --offline
#   RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace
#   cargo test -q --offline
#   .verify/smokes.sh
#
# The workspace has no third-party dependencies, so `--offline` needs no
# registry. RUSTFLAGS is CI's `-D warnings -D deprecated`.
#
# Usage:
#   .verify/check.sh           # everything
#   .verify/check.sh build     # fmt, clippy, the release build and rustdoc only
set -euo pipefail
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"
export RUSTFLAGS="-D warnings -D deprecated"

note() { echo "== $*"; }

note "fmt"
cargo fmt --all --check
note "clippy"
cargo clippy -q --offline --workspace --all-targets -- -D warnings
note "build"
cargo build -q --release --offline
note "doc"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --offline --workspace
if [ "${1:-all}" = build ]; then
  echo "VERIFY: BUILD OK"
  exit 0
fi
note "test"
cargo test -q --offline
note "smokes"
"$ROOT/.verify/smokes.sh"
echo "VERIFY: OK"

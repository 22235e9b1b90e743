#!/usr/bin/env bash
# Panic guard for the serving plane, its journal and the codecs both
# read through.
#
# The partial-failure contract (see ARCHITECTURE.md, "Failure model")
# says the plane degrades — quarantine, typed errors, poison recovery —
# instead of panicking. This guard keeps that true going forward: it
# fails if any non-test production source in crates/serve/src,
# crates/store/src, crates/core/src/codec.rs (the bounds-checked reader
# both decoders use), crates/core/src/curve.rs (the curve decoders
# every curve from the wire or the journal goes through) or
# crates/partition/src/spec.rs (the spec decoder every register from the
# wire or the journal goes through) calls `.unwrap()` or `.expect(`
# without an explicit audit marker.
#
# Exclusions:
#   - main.rs            the operator binary (`cluster-server`,
#                        `store-dump`); it is a caller of the plane, and
#                        a panic there ends that one process
#   - #[cfg(test)] mods  unwrap in tests is the assertion idiom
#   - comment lines      doc examples (`//!`, `///`) aren't compiled in
#   - `// audited:` hits a deliberate, reviewed panic site; the marker
#                        must say why panicking is correct there
#
# Usage: scripts/check_panic_guard.sh
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for f in crates/serve/src/*.rs crates/store/src/*.rs crates/core/src/codec.rs crates/core/src/curve.rs crates/partition/src/spec.rs; do
    [ "$(basename "$f")" = "main.rs" ] && continue
    hits=$(awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        in_test                         { next }
        /^[[:space:]]*\/\//             { next }
        /\/\/ audited:/                 { next }
        /\.unwrap\(\)|\.expect\(/       { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
    ' "$f")
    if [ -n "$hits" ]; then
        echo "$hits"
        status=1
    fi
done

if [ "$status" -ne 0 ]; then
    echo
    echo "panic guard: un-audited .unwrap()/.expect( in production code." >&2
    echo "Recover (e.g. lock poisoning: .unwrap_or_else(|e| e.into_inner())), return a" >&2
    echo "typed degraded error, or append '// audited: <why a panic is correct here>'." >&2
    exit 1
fi
echo "panic guard: crates/serve/src, crates/store/src, crates/core/src/codec.rs, crates/core/src/curve.rs and crates/partition/src/spec.rs production code is clean."

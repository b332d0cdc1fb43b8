#!/usr/bin/env sh
# Fused multiply-add check: cross-build for the architectures whose Go
# backends fuse x*y + z into one instruction (one rounding instead of two)
# and fail if any function of a listed package contains a fused op. amd64
# never fuses, so this static check is what keeps the other architectures
# computing amd64's bits: code in a listed package writes float64(x*y)
# wherever a product feeds an add, and the explicit conversion forbids the
# fusion. No emulator is needed; the check reads the machine code with
# `go tool objdump`.
#
# Usage: sh scripts/check_fma.sh   (also `make check-fma`; CI runs it)
#
# Two builds per architecture are read:
#   - cmd/onex-server as shipped, every function of a listed package;
#   - the listed packages' test binaries with inlining of those packages
#     turned off, so a function the server only ever inlines into other
#     packages, or never links, is still emitted and read. The packages'
#     _test.go code is held to the same rule: the bitwise tests compare the
#     kernels with reference copies there, which must round alike.
# A fused op in a caller outside the list, built from an inlined callee of
# a listed package, counts under the caller: widen PACKAGES as more
# packages adopt explicit rounding.
set -eu

PACKAGES="onex/internal/baseline onex/internal/dataset onex/internal/dist onex/internal/grouping onex/internal/query"
ARCHES="arm64 ppc64le riscv64 s390x"
GO="${GO:-go}"

TMP="$(mktemp -d "${TMPDIR:-/tmp}/onex-fma.XXXXXX")"
trap 'rm -rf "$TMP"' EXIT

# objdump's -s filter (one anchored alternation of the packages' symbol
# prefixes) and one -gcflags=<pkg>=-l per package.
filter=""
noinline=""
for p in $PACKAGES; do
    filter="${filter:+$filter|}$(printf '%s' "$p" | sed 's/[.]/\\./g')\\."
    noinline="$noinline -gcflags=$p=-l"
done
filter="^($filter)"

# scan reports every fused op in the listed packages' functions of binary
# $2 (architecture $1); it fails when there is one, or when no function of
# the list is in the binary at all (a mistyped package checks nothing).
scan() {
    "$GO" tool objdump -s "$filter" "$2" >"$TMP/dump.s"
    if ! grep -q '^TEXT ' "$TMP/dump.s"; then
        echo "check_fma: $1: $(basename "$2") has no function of $PACKAGES" >&2
        return 1
    fi
    # The fused mnemonics as objdump prints them: FMADD/FMSUB/FNMADD/FNMSUB
    # with their size suffixes (arm64, ppc64le, riscv64), and s390x's
    # MADBR/MSDBR family plus its vector forms.
    awk -v arch="$1" '
        /^TEXT / { fn = $2; next }
        {
            n = split($0, f, "\t"); k = 0; ins = ""
            for (i = 1; i <= n; i++) if (f[i] != "" && ++k == 4) { ins = f[i]; break }
            split(ins, w, " ")
            if (w[1] ~ /^(FN?M(ADD|SUB)[A-Z]*|M[AS][DE]BR?|WFN?M[AS][DS]B|VFN?M[AS][A-Z]*)$/) {
                printf "check_fma: %s: fused op in %s:%s\n", arch, fn, $0
                found = 1
            }
        }
        END { exit found }
    ' "$TMP/dump.s" >&2
}

fail=0
for arch in $ARCHES; do
    GOOS=linux GOARCH="$arch" "$GO" build -o "$TMP/onex-server" ./cmd/onex-server
    scan "$arch" "$TMP/onex-server" || fail=1
    rm -rf "$TMP/tests" && mkdir "$TMP/tests"
    # shellcheck disable=SC2086 # one -gcflags word per package
    GOOS=linux GOARCH="$arch" "$GO" test -c $noinline -o "$TMP/tests/" $PACKAGES
    for bin in "$TMP"/tests/*.test; do
        scan "$arch" "$bin" || fail=1
    done
done

if [ "$fail" -ne 0 ]; then
    echo "check_fma: FAIL (round the product explicitly: float64(x*y) + z)" >&2
    exit 1
fi
echo "check_fma: OK: no fused multiply-add in $PACKAGES on $ARCHES"

#!/usr/bin/env sh
# Fuzz smoke test: run every Fuzz* target of the module for 10 s past its
# seed corpus (`go test ./...` runs only the seeds). Targets are discovered
# from the *_test.go files, so a new one joins without editing this script;
# benchmark/ is a module of its own and is skipped. A failing target leaves
# its input under the package's testdata/fuzz/, where a plain `go test`
# replays it. Mirrored by the CI fuzz-smoke job via `make fuzz-smoke`.
set -eu

count=0
for file in $(grep -rl --include='*_test.go' '^func Fuzz' . | grep -v '^\./benchmark/' | sort); do
    pkg="./$(dirname "${file#./}")"
    for name in $(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$file"); do
        echo "== $name ($pkg)"
        go test -run '^$' -fuzz "^${name}\$" -fuzztime 10s "$pkg"
        count=$((count + 1))
    done
done
echo "== fuzz smoke: $count targets passed"

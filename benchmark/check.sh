#!/usr/bin/env bash
# The agreement check: two sets of five plain runs of the same code, taken
# alternately so that both see the same machine, must agree within the
# benchmark's own bounds, with no metric unresolved; two traced runs must
# agree on every count that repeats exactly. The traced runs also leave one
# span file per workload under benchmark/out/. About twenty minutes.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out=benchmark/out
mkdir -p "$out"
rm -f "$out"/check-{A,B}.json "$out"/check-traced-{A,B}.json
seed="${1:-1}"

for i in 1 2 3 4 5; do
	for set in A B; do
		echo "plain run $i of set $set"
		bash benchmark/run.sh -seed "$seed" -out "$out/check-$set.json" >"$out/check-$set-$i.log"
	done
done
for set in A B; do
	echo "traced run of set $set"
	bash benchmark/run.sh -seed "$seed" -trace 1 -out "$out/check-traced-$set.json" >"$out/check-traced-$set.log"
done

status=0
bash benchmark/run.sh -compare "$out/check-A.json" "$out/check-B.json" | tee "$out/check-compare.txt" || status=$?
bash benchmark/run.sh -compare "$out/check-traced-A.json" "$out/check-traced-B.json" >"$out/check-compare-traced.txt" || true
grep -E "does not repeat exactly|counts that do not" "$out/check-compare-traced.txt" || true
if [ "$status" -ne 0 ]; then
	echo "check: the two sets disagree (exit $status)"
	exit "$status"
fi
if grep -q unresolved "$out/check-compare.txt" && ! grep -q " 0 unresolved" "$out/check-compare.txt"; then
	echo "check: some metrics are unresolved; the machine was too noisy or a bound is too tight"
	exit 3
fi
if ! grep -q " 0 counts that do not repeat exactly" "$out/check-compare-traced.txt"; then
	echo "check: a count that should repeat exactly did not"
	exit 4
fi
echo "check: the two sets agree"

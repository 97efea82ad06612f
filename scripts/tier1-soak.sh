#!/usr/bin/env bash
# Tier-1 soak: a go test line, uncached, N times in a row — the evidence
# for "green every run, not most runs". A flake that shows once in dozens
# of runs is kept with its full output instead of being retried away, and
# counted.
#
#	make tier1-soak N=10
#	bash scripts/tier1-soak.sh [N [go test arguments...]]
#	bash scripts/tier1-soak.sh 10 -race ./internal/runtime -run 'TestRingPlacementsAgree' -count=5
#
# Each run is `go test -count=1 -json ARGS`, ARGS defaulting to ./... (a
# -count in ARGS wins over the -count=1). One line per run: PASS, or the
# failing package/test and its first failure line. The JSON of every
# failing package's run is kept as .bench_build/soak/run<I>-<package>.json
# (git-ignored); passing runs leave nothing behind. Every invocation then
# appends one line to FLAKES.json (append-only, one JSON object a line):
# the commit (-dirty if the tree differs from it), go version, nproc, N,
# the command, the failed runs, and per test — "package Test/sub", or the
# package alone for a failure outside any test, e.g. a timeout panic — the
# number of fail events across the N runs. Exits non-zero if any run
# failed. Needs only bash, grep, sed, sort and uniq.
set -u -o pipefail
n=${1:-10}
shift $(($# > 0 ? 1 : 0))
[ $# -gt 0 ] || set -- ./...
cd "$(dirname "$0")/.."
dir=.bench_build/soak
mkdir -p "$dir"
json=$(mktemp "$dir/current.XXXXXX")
fails=$(mktemp "$dir/fails.XXXXXX")
trap 'rm -f "$json" "$fails"' EXIT

# field NAME LINE prints the string value of NAME in one go test -json
# event, its escapes left as they are.
field() { sed -n 's/.*"'"$1"'":"\(\([^"\\]\|\\.\)*\)".*/\1/p' <<<"$2"; }
# jstr S prints S as a JSON string.
jstr() { printf '"%s"' "$(sed 's/\\/\\\\/g; s/"/\\"/g' <<<"$1")"; }

printf -v cmd '%q ' "$@"
cmd="go test -count=1 -json ${cmd% }"
bad=0
for i in $(seq 1 "$n"); do
	start=$SECONDS
	go test -count=1 -json "$@" >"$json" 2>&1
	status=$?
	took=$((SECONDS - start))
	if [ $status -eq 0 ]; then
		echo "run $i/$n: PASS (${took}s)"
		continue
	fi
	bad=$((bad + 1))
	# Count each failing test, and a package only when none of its tests
	# failed (a timeout panic, a failing TestMain).
	tests=$(grep '"Action":"fail"' "$json" | grep '"Test":' | while IFS= read -r ev; do
		echo "$(field Package "$ev") $(field Test "$ev")"
	done)
	[ -z "$tests" ] || echo "$tests" >>"$fails"
	grep '"Action":"fail"' "$json" | grep -v '"Test":' | while IFS= read -r ev; do
		pkg=$(field Package "$ev")
		grep -q "^$pkg " <<<"$tests" || echo "$pkg"
	done >>"$fails"
	# Keep every failing package's events; a build error that never became
	# an event keeps the whole run.
	pkgs=$(grep '"Action":"fail"' "$json" | sed -n 's/.*"Package":"\([^"]*\)".*/\1/p' | sort -u)
	if [ -z "$pkgs" ]; then
		echo "build (exit $status)" >>"$fails"
		cp "$json" "$dir/run$i-all.json"
		echo "run $i/$n: FAIL (exit $status, ${took}s): $(grep -v '^{' "$json" | head -1) [$dir/run$i-all.json]"
		continue
	fi
	for pkg in $pkgs; do
		grep -F "\"Package\":\"$pkg\"" "$json" >"$dir/run$i-${pkg//\//_}.json"
	done
	# Name the first failing test (the package when no test failed, e.g. a
	# timeout panic), and its first line that says why.
	ev=$(grep '"Action":"fail"' "$json" | grep '"Test":' | head -1)
	[ -n "$ev" ] || ev=$(grep '"Action":"fail"' "$json" | head -1)
	pkg=$(field Package "$ev") test=$(field Test "$ev")
	sel="\"Package\":\"$pkg\""
	[ -z "$test" ] || sel="$sel,\"Test\":\"$test\""
	why=$(grep -F "$sel," "$json" | grep '"Action":"output"' |
		grep -E '"Output":"[^"]*(\.go:[0-9]+:|panic:|FAIL|timed out)' | head -1)
	why=$(field Output "$why" | sed 's/\\n$//; s/\\t/ /g; s/\\"/"/g; s/^ *//')
	more=$(($(wc -w <<<"$pkgs") - 1))
	[ $more -eq 0 ] && more= || more=" (+$more more failing packages)"
	echo "run $i/$n: FAIL (${took}s) $pkg${test:+ $test}: ${why:-see the JSON} [$dir/run$i-${pkg//\//_}.json]$more"
done
echo "tier1-soak: $((n - bad))/$n runs passed"

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
git diff --quiet HEAD 2>/dev/null || commit="$commit-dirty"
counts=$(sort "$fails" | uniq -c | while read -r c name; do
	printf '%s:%s,' "$(jstr "$name")" "$c"
done)
printf '{"commit":%s,"go":%s,"nproc":%s,"n":%s,"command":%s,"failed_runs":%s,"failures":{%s}}\n' \
	"$(jstr "$commit")" "$(jstr "$(go env GOVERSION)")" "$(nproc)" "$n" "$(jstr "$cmd")" "$bad" "${counts%,}" >>FLAKES.json
[ $bad -eq 0 ]

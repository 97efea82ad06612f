#!/usr/bin/env bash
# Paired A/B runs of one repo-benchmark workload: the committed tree of a
# git ref (the parent) against this checkout (the change), alternating
# which side runs first, then the table and verdict a performance claim
# needs (choosing-metrics guide, sections 6 and 8):
#
#	make bench-ab REF=HEAD~1 WORKLOAD=ring32-inproc [PAIRS=10] [SECONDS=20]
#	bash scripts/bench-ab.sh REF WORKLOAD [PAIRS [SECONDS]]
#
# Both sides run their own benchmarks/run.sh with identical arguments —
# pair i uses seed SEED+i (SEED defaults to 7000; pick one not used while
# the change was written) and --trace 0. The ref's files are exported once
# into .bench_build/ab/<commit>/ (git archive: the committed files and
# nothing else, no worktree entry to prune); each tree builds into its own
# .bench_build/. Per end-to-end metric it prints each side's median
# [q1, q3], the pairs the change won (ties count for neither side) and one
# of
#
#	gain        change ahead in >= 9/10 of the pairs and medians apart by
#	            more than the parent's interquartile range
#	unresolved  no gain shown, and the parent's own quartiles are further
#	            apart than BENCHMARK.json's bound: these runs cannot tell
#	worse       median worse than the parent's by more than the bound
#	within      none of the above: no worse than the bound, no gain shown
#
# A run that is not "correct":true with "failed":0 fails the comparison.
set -eu -o pipefail
if [ $# -lt 2 ] || [ -z "$1" ] || [ -z "$2" ]; then
	echo "usage: $0 REF WORKLOAD [PAIRS [SECONDS]]" >&2
	exit 2
fi
ref=$1 workload=$2 pairs=${3:-10} secs=${4:-20} seed0=${SEED:-7000}

cd "$(dirname "$0")/.."
change=$PWD
commit=$(git rev-parse --verify "$ref^{commit}")
parent=$change/.bench_build/ab/$commit
mkdir -p "$change/.bench_build/ab"
out=$(mktemp -d "$change/.bench_build/ab/run.XXXXXX")
trap 'rm -rf "$out"' EXIT
if [ ! -d "$parent" ]; then
	# Exported beside its final place and renamed when whole: an
	# interrupted export is never taken for the parent's tree.
	mkdir "$out/export"
	git archive "$commit" | tar -x -C "$out/export"
	mv "$out/export" "$parent"
fi

# field NAME: the value of end-to-end metric NAME in a result line.
field() { sed -n 's/.*"'"$1"'": *{ *"value": *\([-+0-9.eE]*\).*/\1/p'; }

# has KEY VALUE: does the result line on stdin carry "KEY": VALUE?
has() { grep -Eq '"'"$1"'": *'"$2"' *[,}]'; }

# run_side SIDE TREE SEED: one run; appends the metrics to $out/SIDE.METRIC.
run_side() {
	if ! line=$(bash "$2/benchmarks/run.sh" --workload "$workload" --seed "$3" --seconds "$secs" --trace 0 | tail -n 1); then
		echo "bench-ab: $1 run with seed $3: $2/benchmarks/run.sh failed" >&2
		exit 1
	fi
	if ! { echo "$line" | has correct true && echo "$line" | has failed 0; }; then
		echo "bench-ab: $1 run with seed $3 is not correct or has failures: $line" >&2
		exit 1
	fi
	for metric in passes_per_s setup_s; do
		echo "$line" | field $metric >>"$out/$1.$metric"
	done
	printf '  %-6s passes_per_s %12.1f  setup_s %.6f\n' "$1" \
		"$(tail -n 1 "$out/$1.passes_per_s")" "$(tail -n 1 "$out/$1.setup_s")"
}

echo "bench-ab: $workload, $pairs pairs x ${secs}s, parent $ref (${commit:0:7}) vs change (working tree), seeds $((seed0 + 1))..$((seed0 + pairs))"
for i in $(seq 1 "$pairs"); do
	echo "pair $i (seed $((seed0 + i)))"
	if [ $((i % 2)) -eq 1 ]; then
		run_side parent "$parent" $((seed0 + i))
		run_side change "$change" $((seed0 + i))
	else
		run_side change "$change" $((seed0 + i))
		run_side parent "$parent" $((seed0 + i))
	fi
done

# entry_of NAME KEY: the value of KEY ("bound", "better") in metric NAME's
# BENCHMARK.json entry.
entry_of() { awk -v name="\"$1\"" -v key="\"$2\":" '$1 == "\"name\":" && $2 == name"," { hit = 1 } hit && $1 == key { gsub(/[",]/, "", $2); print $2; exit }' BENCHMARK.json; }

echo
printf '%-14s %-38s %-38s %-6s %s\n' metric "parent median [q1, q3]" "change median [q1, q3]" won verdict
status=0
for metric in passes_per_s setup_s; do
	bound=$(entry_of $metric bound) better=$(entry_of $metric better)
	row=$(paste "$out/parent.$metric" "$out/change.$metric" | awk -v bound="$bound" -v better="$better" -v metric="$metric" '
		function quantile(v, n, p,    pos, lo) { pos = (n - 1) * p; lo = int(pos); return lo + 1 < n ? v[lo + 1] + (pos - lo) * (v[lo + 2] - v[lo + 1]) : v[n] }
		function sorted(src, dst, n,    i, j, t) { for (i = 1; i <= n; i++) dst[i] = src[i]; for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t } }
		{ n++; a[n] = $1; b[n] = $2; sign = better == "higher" ? 1 : -1; if (sign * ($2 - $1) > 0) won++ }
		END {
			sorted(a, sa, n); sorted(b, sb, n)
			am = quantile(sa, n, .5); aq1 = quantile(sa, n, .25); aq3 = quantile(sa, n, .75)
			bm = quantile(sb, n, .5); bq1 = quantile(sb, n, .25); bq3 = quantile(sb, n, .75)
			ahead = sign * (bm - am)  # > 0: the change is better
			verdict = "within"
			if (won >= 0.9 * n && ahead > aq3 - aq1) verdict = "gain"
			else if (am != 0 && (aq3 - aq1) / am > bound) verdict = "unresolved"
			else if (am != 0 && -ahead / am > bound) verdict = "worse"
			fmt = metric == "setup_s" ? "%.6f [%.6f, %.6f]" : "%.1f [%.1f, %.1f]"
			printf "%-14s %-38s %-38s %-6s %s (%+.1f%%)\n", metric, sprintf(fmt, am, aq1, aq3), sprintf(fmt, bm, bq1, bq3), won + 0 "/" n, verdict, am ? 100 * (bm - am) / am : 0
		}')
	echo "$row"
	case $row in *" worse "*) status=1 ;; esac
done
exit $status

#!/usr/bin/env bash
# Non-test Go lines per package, counted over the tracked files
# (git ls-files), so git-ignored exports under .bench_build/ do not count.
# The last line is the internal/runtime + internal/transport total, the
# figure the simplicity items of ROADMAP.md set their targets in.
# Informational only: nothing gates on it.
#
#	make loc
#	bash scripts/loc.sh
set -u -o pipefail
cd "$(dirname "$0")/.."

git ls-files -z '*.go' ':!:*_test.go' |
	xargs -0 wc -l |
	awk '
		$2 == "total" { next }
		{
			dir = $2
			if (sub(/\/[^\/]*$/, "", dir) == 0) dir = "."
			lines[dir] += $1
			all += $1
			if (dir == "internal/runtime" || dir == "internal/transport") core += $1
		}
		END {
			for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
			close("sort -k2")
			printf "%7d  total\n", all
			printf "%7d  internal/runtime + internal/transport\n", core
		}'

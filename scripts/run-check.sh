#!/usr/bin/env bash
# Fails when an alternative of a `go test -run '<re>'` or `-bench '<re>'`
# pattern in the Makefile selects nothing in the packages that line runs it
# on, so a renamed test or benchmark cannot turn a CI leg (ci-race's sweeps,
# fuzz-smoke, bench-smoke, ...) into a silent no-op. Every top-level `|`
# alternative is checked on its own with `go test -list`, Go's own matcher;
# `-run '^$'` (the benchmark targets' "no tests") is the one pattern allowed
# to select nothing, and a pattern taken from a make variable is the
# caller's to get right.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

GO=${GO:-go}
fail=0
checked=0

# alternatives RE: the top-level `|` alternatives of RE, one per line.
alternatives() {
	awk -v re="$1" 'BEGIN {
		depth = 0; cur = ""
		for (i = 1; i <= length(re); i++) {
			c = substr(re, i, 1)
			if (c == "\\") { cur = cur c substr(re, i + 1, 1); i++; continue }
			if (c == "(" || c == "[") depth++
			if (c == ")" || c == "]") depth--
			if (c == "|" && depth == 0) { print cur; cur = ""; continue }
			cur = cur c
		}
		print cur
	}'
}

while IFS=: read -r lineno line; do
	for flag in run bench; do
		re=$(sed -n "s/.*-$flag '\([^']*\)'.*/\1/p" <<<"$line")
		re=${re//\$\$/\$}
		if [ -z "$re" ] || [ "$re" = '^$' ] || [[ $re == *'$('* ]]; then continue; fi
		kinds='Test|Fuzz|Example'
		if [ $flag = bench ]; then kinds='Benchmark'; fi
		dir=.
		if [[ $line =~ -C[[:space:]]+([^[:space:]]+) ]]; then dir=${BASH_REMATCH[1]}; fi
		mapfile -t pkgs < <(tr -s ' \t' '\n\n' <<<"$line" | grep -E '^\.(/.*)?$')
		if [ ${#pkgs[@]} -eq 0 ]; then
			echo "run-check: Makefile:$lineno: -$flag '$re' names no ./package"
			fail=1
			continue
		fi
		while read -r alt; do
			checked=$((checked + 1))
			listed=$(cd "$dir" && $GO test -list "$alt" "${pkgs[@]}")
			if ! grep -qE "^($kinds)" <<<"$listed"; then
				echo "run-check: Makefile:$lineno: -$flag alternative '$alt' selects nothing in ${pkgs[*]} (from $dir)"
				fail=1
			fi
		done < <(alternatives "$re")
	done
done < <(grep -nE "\btest\b.*-(run|bench) '" Makefile)

echo "run-check: $checked -run/-bench alternatives checked"
exit $fail

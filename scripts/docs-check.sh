#!/usr/bin/env bash
# Fails when a tracked .md, .go file or the Makefile names a BENCH_*.json
# file, a `make` target or a `paperbench` subcommand that does not exist.
# Grep only: nothing is built or run.
#
# Not checked: CHANGES.md and ISSUE.md (the log of what each PR did, which
# may name what a later PR deleted), PAPERS.md and SNIPPETS.md (retrieved
# text), and bench/ (frozen by BENCHMARK.json).
#
# It also fails when DESIGN.md outgrows its size ceiling, design_ceiling
# below: the length it had when the ceiling was last set, so the document
# can only shrink. The target is 800 lines (ROADMAP item 8); lower the
# ceiling as it shrinks.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

mapfile -t files < <(git ls-files -- '*.md' '*.go' Makefile |
	grep -vE '^(CHANGES|ISSUE|PAPERS|SNIPPETS)\.md$|^bench/')
bench_files=$(git ls-files -- 'BENCH_*.json')
targets=$(grep -oE '^[a-zA-Z][a-zA-Z0-9_/-]*:' Makefile | tr -d ':')
subcommands=$(grep -oE 'case "[a-z0-9]+":' cmd/paperbench/main.go | cut -d'"' -f2)

fail=0
# check KIND KNOWN REGEX: the last word of every match of REGEX is a name
# that must be a line of KNOWN.
check() {
	local kind=$1 known=$2 regex=$3 file line match
	while IFS=: read -r file line match; do
		if ! grep -qxF -- "${match##* }" <<<"$known"; then
			echo "docs-check: $file:$line: no such $kind: ${match##* }"
			fail=1
		fi
	done < <(grep -noE -- "$regex" "${files[@]}" /dev/null || true)
}

check 'file' "$bench_files" 'BENCH_[A-Za-z0-9]+\.json'
# A hyphenated word after "make" is a target wherever it appears; a plain
# word ("make sure") only counts when the phrase opens a code span.
check 'make target' "$targets" 'make [a-z0-9]+(-[a-z0-9]+)+'
check 'make target' "$targets" '`make [a-z0-9-]+'
# Code spans, `go run ./cmd/paperbench x`, and the tab-indented usage block
# of a Go doc comment.
check 'paperbench subcommand' "$subcommands" '(`|run \./cmd/|^//	)paperbench [a-z][a-z0-9]*'

design_ceiling=1671
if (( $(wc -l <DESIGN.md) > design_ceiling )); then
	echo "docs-check: DESIGN.md has $(wc -l <DESIGN.md) lines, over its ceiling of $design_ceiling"
	fail=1
fi

exit $fail

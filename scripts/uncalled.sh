#!/usr/bin/env sh
# Reports the exported funcs and methods that nothing outside _test.go
# files names, across the root module and bench/: the
# candidates of the deletion audit (DESIGN.md §9). One awk pass, by name
# only — a method counts as called when any identifier of that name is
# used, so a report is a place to look, not a verdict (a method reached
# only through a standard-library interface, like String, shows up too).
# Its twin for state is TestEveryFieldHasAReader in the root package's
# fields_test.go, which type-checks the same code and fails on a struct
# field no non-test selector reads.
set -eu
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' | sort | xargs awk '
{
	line = $0
	sub(/\/\/.*/, "", line)
	declared = ""
	if (match(line, /^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*/)) {
		declared = substr(line, RSTART, RLENGTH)
		sub(/.* /, "", declared)
		if (!(declared in at)) at[declared] = FILENAME ":" FNR
	}
	while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
		uses[substr(line, RSTART, RLENGTH)]++
		line = substr(line, RSTART + RLENGTH)
	}
	if (declared != "") uses[declared]--
}
END {
	for (name in at) if (uses[name] == 0) print at[name] ": " name
}' | sort | awk '
NR <= 38
END {
	if (NR > 38) print "... and " NR - 38 " more"
	print "uncalled: " NR " exported funcs/methods have no caller outside _test.go files"
}'

#!/usr/bin/env bash
# Runs the example programs and the command-line tools end to end and
# diffs each one's stdout against its golden in examples/testdata/. Any
# difference or nonzero exit fails. From the repository root:
#
#   bash examples/run.sh           # check
#   bash examples/run.sh -update   # re-pin the goldens after an intended change
#
# The tools run inside a temporary directory and are given relative paths,
# so the paths they print do not depend on where that directory is.
set -euo pipefail

golden="$PWD/examples/testdata"
update=0
if [ "${1:-}" = "-update" ]; then
	update=1
fi
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/bin/" ./examples/... ./cmd/tapdump ./cmd/ringsim ./cmd/ctmsplot
mkdir "$tmp/work"
cd "$tmp/work"

fail=0
check() {
	local name=$1
	shift
	if ! "$@" > "$tmp/$name.out"; then
		echo "examples: $name exited nonzero" >&2
		fail=1
		return
	fi
	if [ "$update" = 1 ]; then
		cp "$tmp/$name.out" "$golden/$name.golden"
	elif ! diff -u "$golden/$name.golden" "$tmp/$name.out"; then
		echo "examples: $name output differs from examples/testdata/$name.golden" >&2
		fail=1
	fi
}

# Every directory under examples/ but testdata is an example program, so
# an example added without a golden fails the diff.
for dir in "$golden"/../*/; do
	e=$(basename "$dir")
	if [ "$e" != testdata ]; then
		check "$e" "$tmp/bin/$e"
	fi
done
check tapdump "$tmp/bin/tapdump" -seconds 2 -o capture.ctap
check tapdump-i "$tmp/bin/tapdump" -i capture.ctap
check ringsim "$tmp/bin/ringsim" -seconds 1
check ctmsplot "$tmp/bin/ctmsplot" -minutes 0.05 -o .
exit $fail

#!/usr/bin/env bash
# Measures the working tree against a base commit on one benchmark
# workload, in alternated pairs, from the repository root:
#
#   bash scripts/benchpairs.sh
#   BASE=HEAD~1 PAIRS=12 WORKLOAD=stock-relay SECS=8 SEED=7 bash scripts/benchpairs.sh
#
# Each pair runs `bash bench/run.sh -workload W -seconds S -scale 0.2
# -seed N` once in a copy of BASE (default HEAD, exported with git
# archive) and once in a copy of the working tree (its tracked and
# untracked, not ignored files), flipping which side runs first each pair.
# It prints every pair's event_rate, setup_s, allocs_per_event,
# alloc_bytes_per_event and peak_rss_mb, then per metric each side's
# median and quartiles, the ratio of the medians, how many pairs the
# working tree won (ties count for neither side), and whether the medians
# differ by more than the base's quartile spread. Both copies and every
# build cache live in one temporary directory, removed on exit, so the
# script leaves no file in the repository.
set -euo pipefail

base=${BASE:-HEAD}
pairs=${PAIRS:-10}
workload=${WORKLOAD:-paper-stream}
secs=${SECS:-8}
seed=${SEED:-1991}
metrics=(event_rate setup_s allocs_per_event alloc_bytes_per_event peak_rss_mb)
higher_better=(1 0 0 0 0)

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/base/.bench_build/gocache" "$tmp/change/.bench_build"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"
git -C "$root" ls-files -z --cached --others --exclude-standard |
	while IFS= read -r -d '' f; do
		if [[ -e $root/$f ]]; then printf '%s\0' "$f"; fi
	done |
	tar -C "$root" --null -T - -cf - | tar -x -C "$tmp/change"
# One build cache for both sides: it is keyed by content.
ln -s "$tmp/base/.bench_build/gocache" "$tmp/change/.bench_build/gocache"

# Metric values are kept as the JSON's own decimal strings, exponent
# notation included (encoding/json writes a sub-µs setup_s as 2.3e-07),
# and every comparison and statistic is done in awk's floating point, so
# no value rounds away.
number='^[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?$'

# show prints $1 as a whole number from 1000 up, else to 5 significant
# digits.
show() {
	awk -v v="$1" 'BEGIN { if (v >= 1000) printf "%d", v; else printf "%.5g", v }'
}

# run SIDE runs the workload once in SIDE's copy and records its metrics
# in the arrays <side>_<metric>.
run() {
	local side=$1 line m v
	line=$(cd "$tmp/$side" && bash bench/run.sh -workload "$workload" -seconds "$secs" -scale 0.2 -seed "$seed" | tail -n 1)
	if [[ $line != *'"correct":true'* || $line != *'"failed":0'* ]]; then
		echo "benchpairs: $side run failed: $line" >&2
		exit 1
	fi
	for m in "${metrics[@]}"; do
		if [[ ! $line =~ \"$m\":\{\"value\":([^,]+), ]]; then
			echo "benchpairs: $side run has no $m: $line" >&2
			exit 1
		fi
		v=${BASH_REMATCH[1]}
		if [[ ! $v =~ $number ]]; then
			echo "benchpairs: cannot read $m value '$v'" >&2
			exit 1
		fi
		eval "${side}_$m+=($v)"
	done
}

echo "workload $workload, $pairs pairs of ${secs} s at -scale 0.2, seed $seed: base $base vs working tree"
printf '%-5s %-7s' pair first
for m in "${metrics[@]}"; do printf ' %30s' "$m base / change"; done
echo
for ((p = 1; p <= pairs; p++)); do
	if ((p % 2)); then
		first=base
		run base
		run change
	else
		first=change
		run change
		run base
	fi
	printf '%-5d %-7s' "$p" "$first"
	for m in "${metrics[@]}"; do
		eval "b=\${base_$m[-1]} c=\${change_$m[-1]}"
		printf ' %30s' "$(show "$b") / $(show "$c")"
	done
	echo
done

# summary reads one metric's pairs, "base change" per line, and prints
# each side's median [q1, q3] (the exclusive method of Python's
# statistics.quantiles(n=4) that the benchmark uses), the ratio of the
# medians, the working tree's wins (ties count for neither side) and
# whether the medians differ by more than the base's quartile spread.
summary() {
	awk -v name="$1" -v higher="$2" '
	function show(v) { return v >= 1000 ? sprintf("%d", v) : sprintf("%.5g", v) }
	function quartile(xs, n, k,    pos, j) {
		if (n == 1) return xs[1]
		pos = (n + 1) * k / 4
		j = int(pos)
		if (j < 1) j = 1
		if (j > n - 1) j = n - 1
		return xs[j] + (xs[j + 1] - xs[j]) * (pos - j)
	}
	function sort(xs, n,    i, j, t) {
		for (i = 2; i <= n; i++)
			for (j = i; j > 1 && xs[j - 1] > xs[j]; j--) { t = xs[j]; xs[j] = xs[j - 1]; xs[j - 1] = t }
	}
	{ n++; b[n] = $1 + 0; c[n] = $2 + 0; if (higher ? c[n] > b[n] : c[n] < b[n]) wins++ }
	END {
		sort(b, n); sort(c, n)
		for (k = 1; k <= 3; k++) { bq[k] = quartile(b, n, k); cq[k] = quartile(c, n, k) }
		gain = higher ? cq[2] - bq[2] : bq[2] - cq[2]
		printf "%-22s %-30s %-30s %7s %6s %s\n", name,
			show(bq[2]) " [" show(bq[1]) ", " show(bq[3]) "]",
			show(cq[2]) " [" show(cq[1]) ", " show(cq[3]) "]",
			sprintf("x%.3f", bq[2] > 0 ? cq[2] / bq[2] : 0), (wins + 0) "/" n,
			(gain > bq[3] - bq[1] ? "yes" : "no")
	}'
}

echo
printf '%-22s %-30s %-30s %7s %6s %s\n' metric 'base median [q1, q3]' 'change median [q1, q3]' ratio wins 'beyond base IQR'
for i in "${!metrics[@]}"; do
	m=${metrics[$i]}
	eval "bs=(\"\${base_$m[@]}\") cs=(\"\${change_$m[@]}\")"
	for ((p = 0; p < pairs; p++)); do echo "${bs[p]} ${cs[p]}"; done | summary "$m" "${higher_better[i]}"
done

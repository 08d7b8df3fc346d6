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
# It prints every pair's event_rate, allocs_per_event,
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
metrics=(event_rate allocs_per_event alloc_bytes_per_event peak_rss_mb)
higher_better=(1 0 0 0)
scale=1000000 # values are kept as integers in millionths

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

# millionths prints the decimal number $1 as an integer count of
# millionths. The benchmark's JSON prints these metrics without exponent.
millionths() {
	local v=$1 int frac
	if [[ ! $v =~ ^[0-9]+(\.[0-9]+)?$ ]]; then
		echo "benchpairs: cannot read metric value '$v'" >&2
		return 1
	fi
	int=${v%%.*}
	frac=
	if [[ $v == *.* ]]; then frac=${v#*.}; fi
	frac=${frac}000000
	echo $((10#$int * scale + 10#${frac:0:6}))
}

# show prints millionths $1 as a decimal with 4 places, or as a whole
# number from 1000 up.
show() {
	if (($1 >= 1000 * scale)); then
		printf '%d' $(($1 / scale))
	else
		printf '%d.%04d' $(($1 / scale)) $(($1 % scale / 100))
	fi
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
		v=$(millionths "${BASH_REMATCH[1]}")
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

# quartile K of the sorted values in $@ (K=1,2,3), by the exclusive
# method of Python's statistics.quantiles(n=4) that the benchmark uses.
quartile() {
	local k=$1
	shift
	local xs=("$@") n=$# pos j
	if ((n == 1)); then
		echo "${xs[0]}"
		return
	fi
	pos=$(((n + 1) * k))
	j=$((pos / 4))
	if ((j < 1)); then j=1; fi
	if ((j > n - 1)); then j=$((n - 1)); fi
	echo $((xs[j - 1] + (xs[j] - xs[j - 1]) * (pos - 4 * j) / 4))
}

echo
printf '%-22s %-30s %-30s %7s %6s %s\n' metric 'base median [q1, q3]' 'change median [q1, q3]' ratio wins 'beyond base IQR'
for i in "${!metrics[@]}"; do
	m=${metrics[$i]}
	eval "bs=(\"\${base_$m[@]}\") cs=(\"\${change_$m[@]}\")"
	wins=0
	for ((p = 0; p < pairs; p++)); do
		if ((higher_better[i] ? cs[p] > bs[p] : cs[p] < bs[p])); then wins=$((wins + 1)); fi
	done
	mapfile -t bs < <(printf '%s\n' "${bs[@]}" | sort -n)
	mapfile -t cs < <(printf '%s\n' "${cs[@]}" | sort -n)
	bq=($(quartile 1 "${bs[@]}") $(quartile 2 "${bs[@]}") $(quartile 3 "${bs[@]}"))
	cq=($(quartile 1 "${cs[@]}") $(quartile 2 "${cs[@]}") $(quartile 3 "${cs[@]}"))
	gain=$((higher_better[i] ? cq[1] - bq[1] : bq[1] - cq[1]))
	beyond=no
	if ((gain > bq[2] - bq[0])); then beyond=yes; fi
	ratio=$((bq[1] > 0 ? cq[1] * 1000 / bq[1] : 0))
	printf '%-22s %-30s %-30s %7s %6s %s\n' "$m" \
		"$(show "${bq[1]}") [$(show "${bq[0]}"), $(show "${bq[2]}")]" \
		"$(show "${cq[1]}") [$(show "${cq[0]}"), $(show "${cq[2]}")]" \
		"x$((ratio / 1000)).$(printf '%03d' $((ratio % 1000)))" "$wins/$pairs" "$beyond"
done

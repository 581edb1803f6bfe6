#!/usr/bin/env bash
# Runs the end-to-end benchmark (bench/run.sh) on a parent revision and on
# this working tree in alternating pairs, the protocol behind every claim.
#
#   scripts/pairs.sh PARENT_REV WORKLOAD PAIRS SEED0
#
# Pair i (0-based) runs both sides at seed SEED0+i; the parent runs first in
# even pairs, the working tree in odd ones. Each run lasts BENCHMARK.json's
# run_seconds. The parent is unpacked with `git archive | tar -x` into a
# temporary directory ($TMPDIR), so .git is never touched.
#
# stdout: one JSON line per run (SHA, parent SHA, workload, seed, side,
# ran_first, nproc, CPU model, correct, failed, metrics). Record a claim
# with `scripts/pairs.sh ... >> TRAJECTORY.jsonl`.
# stderr: per end-to-end metric, each side's median and quartiles and how
# many pairs the change won; any f1 or scanned_ratio that differs from the
# parent at the same seed is flagged. Exits non-zero when a run is not
# correct or failed an operation.
set -euo pipefail
[ $# -eq 4 ] || { echo "usage: scripts/pairs.sh PARENT_REV WORKLOAD PAIRS SEED0" >&2; exit 2; }
parent_rev=$1 workload=$2 pairs=$3 seed0=$4
cd "$(git rev-parse --show-toplevel)"

parent_sha=$(git rev-parse --verify "$parent_rev^{commit}")
sha=$(git rev-parse HEAD)
[ -z "$(git status --porcelain --untracked-files=no)" ] || sha="$sha+dirty"
seconds=$(jq -r .run_seconds BENCHMARK.json)
cpu=$(awk -F': ' '/^model name/ {print $2; exit}' /proc/cpuinfo)
ncpu=$(nproc)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git archive "$parent_sha" | tar -x -C "$tmp/parent"

# run SIDE DIR SEED FIRST: one benchmark run, one JSON line on stdout and
# in $tmp/runs.jsonl. A run that prints no result counts as incorrect.
run() {
	local out
	out=$(bash "$2/bench/run.sh" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 | tail -n1) || true
	jq -e . >/dev/null 2>&1 <<<"$out" || out='{"correct":false,"failed":null,"metrics":{}}'
	jq -c --arg sha "$sha" --arg psha "$parent_sha" --arg w "$workload" --argjson seed "$3" \
		--arg side "$1" --argjson first "$4" --argjson nproc "$ncpu" --arg cpu "$cpu" \
		'{sha: $sha, parent_sha: $psha, workload: $w, seed: $seed, side: $side,
		  ran_first: $first, nproc: $nproc, cpu: $cpu, correct: .correct,
		  failed: .failed, metrics: (.metrics | map_values(.value))}' <<<"$out" |
		tee -a "$tmp/runs.jsonl"
}

for ((i = 0; i < pairs; i++)); do
	seed=$((seed0 + i))
	if ((i % 2 == 0)); then
		run parent "$tmp/parent" "$seed" true
		run change . "$seed" false
	else
		run change . "$seed" true
		run parent "$tmp/parent" "$seed" false
	fi
done

echo "pairs: $workload, $pairs pair(s) from seed $seed0, parent $parent_sha vs $sha" >&2
jq -rs --slurpfile spec BENCHMARK.json '
	def q($p): sort as $s | ((($s | length) - 1) * $p) as $h | ($h | floor) as $l
		| $s[$l] + ($h - $l) * ($s[([$l + 1, ($s | length) - 1] | min)] - $s[$l]);
	def r: . * 10000 | round / 10000;
	def stats: "\(q(0.5) | r) [\(q(0.25) | r), \(q(0.75) | r)]";
	. as $runs
	| ($runs | map(select(.side == "parent")) | INDEX(.seed)) as $p
	| ($runs | map(select(.side == "change")) | INDEX(.seed)) as $c
	| ($p | keys) as $seeds
	| ($spec[0].end_to_end[] | select(.name as $m | $runs | any(.metrics[$m] != null)))
	| . as $m
	| [$seeds[] | select($p[.].metrics[$m.name] != null and $c[.].metrics[$m.name] != null)] as $both
	| [$both[] | $p[.].metrics[$m.name]] as $pv
	| [$both[] | $c[.].metrics[$m.name]] as $cv
	| [$both[] | select(if $m.better == "higher"
		then $c[.].metrics[$m.name] > $p[.].metrics[$m.name]
		else $c[.].metrics[$m.name] < $p[.].metrics[$m.name] end)] as $won
	| "\($m.name) (\($m.better) is better): parent \($pv | stats)  change \($cv | stats)  change/parent \(($cv | q(0.5)) / ($pv | q(0.5)) | r)  change won \($won | length)/\($both | length) pairs",
	  ($both[] | select($m.name == "f1" or $m.name == "scanned_ratio")
		| select($p[.].metrics[$m.name] != $c[.].metrics[$m.name])
		| "DIFFERS: \($m.name) at seed \(.): parent \($p[.].metrics[$m.name]) change \($c[.].metrics[$m.name])")
' "$tmp/runs.jsonl" >&2

bad=$(jq -s 'map(select(.correct != true or .failed != 0)) | length' "$tmp/runs.jsonl")
if [ "$bad" -ne 0 ]; then
	echo "pairs: $bad run(s) not correct or with failed operations" >&2
	exit 1
fi

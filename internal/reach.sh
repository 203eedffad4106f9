#!/usr/bin/env bash
# Reachability gate: which functions under internal/ does no program run?
#
# Builds bench and every cmd/* with coverage over the whole module, runs the
# smoke command lines of the other CI jobs and the five benchmark workloads
# under one GOCOVERDIR, and fails if a function under internal/ that no run
# entered is missing from internal/reach.allow (or an allowed one is now
# reached, or gone). Test binaries are deliberately not part of it: code that
# only a test calls belongs in a _test.go.
#
#	bash internal/reach.sh            # gate
#	REACH_DIR=/some/dir bash internal/reach.sh   # keep binaries + profiles there
set -euo pipefail
cd "$(dirname "$0")/.."
out="${REACH_DIR:-$PWD/.reach_build}"
bin="$out/bin" run="$out/run"
rm -rf "$out/cov" "$run"
mkdir -p "$bin" "$out/cov" "$run"
export GOCOVERDIR="$out/cov" GOTOOLCHAIN=local

for m in bench cmd/figures cmd/locassm cmd/mhm2d cmd/mhm2sim cmd/readgen; do
	go build -cover -coverpkg=mhm2sim/... -o "$bin/$(basename $m)" "./$m"
done

sim() { "$bin/mhm2sim" "$@" >"$run/last.log" 2>&1 || { cat "$run/last.log"; echo "reach: mhm2sim $* failed"; exit 1; }; }

# The benchmark's five workloads, untraced and traced.
for w in arctic_cpu la_dump soil_dist8 soil_budget daemon_mix; do
	for t in 0 1; do
		"$bin/bench" -workload "$w" -seconds 2 -trace "$t" >"$run/bench-$w-$t.log"
	done
done

# mhm2sim: the smoke lines of ci.yml's test, daemon, chaos, elastic and
# mem-budget jobs (on the default preset), then lines that set the flags
# those leave alone.
sim -engine dist -ranks 4 -rounds 21,33 -json "$run/dist.json"
sim -preset arcticsynth -engine gpu -rounds 21,33 -out "$run/ref.fasta" -json "$run/ref.json"
sim -engine dist -ranks 8 -rounds 21,33 -faults rank-crash=1,oom=2 -fault-seed 42 -json "$run/chaos.json"
sim -engine dist -ranks 4 -rounds 21,33 -elastic "join@r1:2" -faults straggler=2 -fault-seed 7 -json "$run/elastic.json"
sim -rounds 21,33 -mem-budget 134217728 -out "$run/budget.fasta"
sim -engine multigpu -gpus 2 -gpualn -rounds 21,33 -mem-budget 134217728 -quality -dump-la "$run/la.dump"
sim -engine dist -ranks 4 -shard component -host-ranks -elastic "join@r1:1,leave@r2:1" -workers 2
sim -engine dist -ranks 4 -rounds 21,33 -mem-budget 134217728 -faults drop=2,corrupt=1,delay=2,kernel-abort=1 -fault-seed 3
"$bin/readgen" -preset arcticsynth -depth 8 -seed 5 -out "$run/reads.fastq" -genomes "$run/genomes.fasta" >/dev/null
sim -reads "$run/reads.fastq" -preprocess -estimate-insert=false -checkpoint "$run/ckpt" -rounds 21,33 \
	-cpuprofile "$run/cpu.prof" -memprofile "$run/mem.prof"
sim -reads "$run/reads.fastq" -preprocess -estimate-insert=false -checkpoint "$run/ckpt" -rounds 21,33

# The figure and kernel-study tools; the scorecard's exit code counts.
"$bin/figures" -quick >"$run/figures.log" 2>&1
"$bin/figures" -fig check >"$run/scorecard.md" 2>"$run/scorecard.log" || { cat "$run/scorecard.log"; echo "reach: figures -fig check failed"; exit 1; }
"$bin/locassm" -quick >"$run/locassm.log"
"$bin/locassm" -load "$run/la.dump" >>"$run/locassm.log"

# The daemon: the daemon job's smoke (quota 429, results, metrics, cancel,
# restart resume) on a private port, plus an elastic job (a mid-run join
# leases a pool device), a multigpu job (its node is the lease) and one whose
# fault schedule no seed survives (the scheduler retries it reseeded, then
# fails it). Five devices: a gpu job's one runs beside the elastic budget
# job's three (two ranks and the counting device) and its joiner's.
addr=localhost:8097
jid() { python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])'; }
state() { curl -s "$addr/v1/jobs/$1" | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])'; }
poll() {
	for _ in $(seq 300); do
		case "$(state "$1")" in succeeded) return 0 ;; failed | canceled) return 1 ;; esac
		sleep 0.5
	done
	return 1
}
daemon() {
	"$bin/mhm2d" -addr ":8097" -data "$run/daemon" -workers 2 -devices 5 -queue 3 -tenant-quota 2 >>"$run/daemon.log" 2>&1 &
	dpid=$!
	for _ in $(seq 50); do curl -sf "$addr/healthz" >/dev/null && return 0; sleep 0.2; done
	echo "reach: mhm2d did not come up"; exit 1
}
trap 'kill "${dpid:-}" 2>/dev/null || true' EXIT
daemon
spec='{"tenant":"a","engine":"gpu","rounds":[21,33]}'
j1=$(curl -s -X POST "$addr/v1/jobs" -d "$spec" | jid)
j2=$(curl -s -X POST "$addr/v1/jobs" -d "$spec" | jid)
test "$(curl -s -o /dev/null -w '%{http_code}' -X POST "$addr/v1/jobs" -d "$spec")" = 429
specb='{"tenant":"b","engine":"dist","ranks":2,"rounds":[21,33],"mem_budget":134217728,"elastic":"join@r1:1"}'
j3=$(curl -s -X POST "$addr/v1/jobs" -d "$specb" | jid)
j4=$(curl -s -X POST "$addr/v1/jobs" -d "$specb" | jid)
test "$(curl -s -o /dev/null -w '%{http_code}' "$addr/v1/jobs/$j3/result")" = 409 # not ready yet
curl -s -X DELETE "$addr/v1/jobs/$j4" >/dev/null # canceled while queued
poll "$j1"
curl -s "$addr/v1/jobs/$j1/contigs" | cmp "$run/ref.fasta" -
curl -s "$addr/v1/jobs/$j1/result" >/dev/null
curl -s "$addr/v1/jobs" >/dev/null
curl -s "$addr/metrics" | grep -q '^mhm2d_jobs_submitted_total'
# Shut down with j3 in flight; a restart on the same data resumes it.
kill -TERM "$dpid"; wait "$dpid" || true
daemon
doomed=$(curl -s -X POST "$addr/v1/jobs" -d '{"tenant":"c","engine":"dist","ranks":2,"rounds":[21],"faults":"drop=8"}' | jid)
multi=$(curl -s -X POST "$addr/v1/jobs" -d '{"tenant":"d","engine":"multigpu","gpus":2,"rounds":[21]}' | jid)
poll "$j2"
poll "$j3"
poll "$multi"
! poll "$doomed"
test "$(state "$doomed")" = failed
curl -s "$addr/v1/jobs/$j2/contigs" | cmp "$run/ref.fasta" -
# Every job is terminal: the gpu, dist and multigpu leases are all back.
curl -s "$addr/metrics" | grep -qx 'mhm2d_devices_leased 0'
kill -TERM "$dpid"; wait "$dpid" || true
trap - EXIT

# Statement share (for EXPERIMENTS.md) and the function gate.
go tool covdata textfmt -i="$out/cov" -o="$out/profile.txt"
awk -F'[: ]' 'NR > 1 && $1 ~ /^mhm2sim\/internal\// {
	k = $1 ":" $2; if (!(k in n)) { n[k] = $3; svc[k] = $1 ~ /internal\/service\// }
	if ($4 > 0) hit[k] = 1
} END {
	for (k in n) { t += n[k]; if (!(k in hit)) { u += n[k]; if (!svc[k]) uo += n[k] }; if (!svc[k]) to += n[k] }
	printf "reach: %d statements under internal/, %d never executed by a program (%d of %d outside service)\n", t, u, uo, to
}' "$out/profile.txt"

go tool covdata func -i="$out/cov" |
	awk '$1 ~ /^mhm2sim\/internal\// && $NF == "0.0%" { sub(/^mhm2sim\//, "", $1); sub(/:[0-9]+:$/, "", $1); print $1 " " $2 }' |
	sort -u >"$out/unreached.txt"
awk '!/^#/ && NF { print $1 " " $2 }' internal/reach.allow | sort -u >"$out/allowed.txt"
if bad=$(awk '!/^#/ && NF && NF < 3' internal/reach.allow); [ -n "$bad" ]; then
	echo "reach: allowlist lines without a reason:"; echo "$bad"; exit 1
fi
new=$(comm -23 "$out/unreached.txt" "$out/allowed.txt")
stale=$(comm -13 "$out/unreached.txt" "$out/allowed.txt")
echo "reach: $(wc -l <"$out/unreached.txt") unreached functions under internal/, $(wc -l <"$out/allowed.txt") allowed"
if [ -n "$new" ]; then echo "reach: no program runs these, and internal/reach.allow does not excuse them:"; echo "$new"; fi
if [ -n "$stale" ]; then echo "reach: allowed but reached (or gone) — drop them from internal/reach.allow:"; echo "$stale"; fi
[ -z "$new" ] && [ -z "$stale" ]

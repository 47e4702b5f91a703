#!/usr/bin/env bash
# reach.sh lists the functions that the test suite runs but no program run
# does: code only tests reach. It
#   1. builds every cmd/ and examples/ binary with coverage over the whole
#      module (go build -cover -coverpkg=hetsched/...);
#   2. drives them through every CLI mode, and a hetschedd daemon through
#      every route of its API and debug muxes, with GOCOVERDIR set;
#   3. compares the drive's per-function coverage with that of
#      go test -coverprofile ./... and prints each function the tests cover
#      and the drive does not, unless scripts/reach_allowlist.txt lists it
#      with a reason.
# It exits non-zero when it prints a function, or when an allowlist entry
# is stale (the drive reaches it, or no test-covered function has its name).
#
# Usage (from the module root): make reach, or bash scripts/reach.sh.
# Needs the Go toolchain and curl. REACH_DIR (default reach-out) holds the
# binaries, the drive's scratch files and both coverage profiles; HOME and
# XDG_CACHE_HOME point into it, so -cache-dir auto stays inside it too.
set -euo pipefail

GO=${GO:-go}
root=$(pwd)
out=${REACH_DIR:-reach-out}
mkdir -p "$out"
out=$(cd "$out" && pwd)
rm -rf "$out/bin" "$out/cov" "$out/run"
mkdir -p "$out/bin" "$out/cov" "$out/run" "$out/home"
allow="$root/scripts/reach_allowlist.txt"
bin=$out/bin
run=$out/run
log=$out/drive.log
: > "$log"

echo "reach: building binaries with coverage"
for d in cmd/*/ examples/*/; do
	name=$(basename "$d")
	[ -e "$bin/$name" ] && name="example-$name"
	"$GO" build -cover -coverpkg=hetsched/... -o "$bin/$name" "./$d"
done

export GOCOVERDIR=$out/cov HOME=$out/home XDG_CACHE_HOME=$out/home/.cache

# ok runs a command that must succeed; fails runs one that must exit
# non-zero (the error paths count as reach too).
ok() {
	echo "+ $*" >> "$log"
	if ! "$@" >> "$log" 2>&1; then
		echo "reach: drive step failed: $*" >&2
		tail -20 "$log" >&2
		exit 1
	fi
}
fails() {
	echo "+ ! $*" >> "$log"
	if "$@" >> "$log" 2>&1; then
		echo "reach: drive step should have failed: $*" >&2
		exit 1
	fi
}

echo "reach: driving the CLIs"
scorers="hybrid balance energy roundrobin"
preds="oracle linear knn stump tree table markov nn ensemble:table,markov,ann"
faults="mttf=2e6,recover=1e5,permanent=4e6,stuck=3e6,noise=0.05,seed=1"
slo="slo=deadline:slack=1.5,classes=hi@0.3"

# tracegen and cachetune, including -fromtrace on a saved trace.
ok "$bin/tracegen" -kernel a2time -iters 1 -o "$run/a2time.trace"
fails "$bin/tracegen" -o "$run/none.trace"
fails "$bin/tracegen" -kernel nosuch -o "$run/none.trace"
ok "$bin/cachetune" -list
ok "$bin/cachetune" -space
ok "$bin/cachetune" -kernel tblook -trace "$run/walk.json"
ok "$bin/cachetune" -kernel aifftr -scale 2 -seed 3 -trace "$run/walk.csv"
ok "$bin/cachetune" -kernel tblook -predictor ensemble:table,markov,ann
ok "$bin/cachetune" -fromtrace "$run/a2time.trace"
printf 'HTRC\001\000' > "$run/empty.trace"
fails "$bin/cachetune" -fromtrace "$run/empty.trace"
fails "$bin/cachetune" -fromtrace "$run/missing.trace"
fails "$bin/cachetune" -kernel nosuch
fails "$bin/cachetune" -kernel tblook -predictor bogus

# hmsim: the paper run with a cold then a warm disk cache, every predictor,
# faults, timeline, traces, scenarios (replay of a recorded trace too) and
# the cluster mode under every scorer.
ok "$bin/hmsim" -arrivals 300 -cache-dir "$run/cache" -perapp -timeline 10
ok "$bin/hmsim" -arrivals 300 -cache-dir "$run/cache" -trace "$run/run.csv"
ok "$bin/hmsim" -arrivals 300 -cache-dir auto -trace "$run/run.json"
for p in $preds; do
	ok "$bin/hmsim" -arrivals 200 -cache-dir "$run/cache" -predictor "$p"
done
ok "$bin/hmsim" -arrivals 300 -cache-dir off -j 1 -faults "$faults"
for sc in "poisson:jobs=200;$slo" "bursty:rate=1.2;mix=a2time*3+tblook;prio=uniform:3" \
	"diurnal:jobs=200" "closed:jobs=200" "uniform;$slo" "replay:file=$run/run.csv;$slo"; do
	ok "$bin/hmsim" -arrivals 200 -cache-dir "$run/cache" -predictor oracle -scenario "$sc" -timeline 5
done
ok "$bin/hmsim" -arrivals 200 -cache-dir "$run/cache" -scenario "poisson:jobs=200;$slo" -trace "$run/scen.json"
# A bursty SLO run tight enough that the proposed system forces migrations.
ok "$bin/hmsim" -seed 10 -cache-dir "$run/cache" -predictor oracle -trace "$run/slo.csv" \
	-scenario "bursty:rate=0.4,burst=2,quiet=0.5,jobs=200;slo=deadline:slack=6,classes=hi@0.3@1.15"
for s in $scorers; do
	ok "$bin/hmsim" -arrivals 400 -cache-dir "$run/cache" -cluster "2*quad;1*4x8;1*16x2" -scorer "$s"
done
ok "$bin/hmsim" -arrivals 400 -cache-dir "$run/cache" -cluster "4*quad" -no-steal
ok "$bin/hmsim" -arrivals 400 -cache-dir "$run/cache" -cluster "3*quad;1*2,4" -faults "$faults" -timeline 8 -trace "$run/cluster.json"
ok "$bin/hmsim" -arrivals 400 -cache-dir "$run/cache" -cluster "2*quad" -trace "$run/cluster.csv" -scenario "bursty:jobs=300;$slo"
fails "$bin/hmsim" -predictor bogus
fails "$bin/hmsim" -faults mttf=x
fails "$bin/hmsim" -cluster "2*nosuch"
fails "$bin/hmsim" -scenario "nosuch:jobs=3"

# hmsweep: every arrival model and system, faults, a trace and a scenario.
ok "$bin/hmsweep" -arrivals 150 -utils 0.5,0.9 -models uniform,poisson,bursty,diurnal,closed \
	-systems base,optimal,sat,energy-centric,proposed -cache-dir "$run/cache" -predictor oracle
ok "$bin/hmsweep" -arrivals 150 -utils 0.9 -cache-dir "$run/cache" -faults "$faults" -trace "$run/cell.csv"
ok "$bin/hmsweep" -arrivals 150 -cache-dir "$run/cache" -scenario "poisson:rate=0.9,jobs=150;$slo" -trace "$run/cell.json"
fails "$bin/hmsweep" -utils x
fails "$bin/hmsweep" -models nosuch
fails "$bin/hmsweep" -systems nosuch

# anntrain with the baselines and cross-validation, and benchjson both ways.
ok "$bin/anntrain" -members 3 -compare -cv 4 -cache-dir "$run/cache"
fails "$bin/anntrain" -bogus
cat > "$run/bench.txt" <<'EOF'
goos: linux
BenchmarkL1Access-2   	 1000000	       100.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkMultiSim/a-2 	    1000	      2000 ns/op	      64 B/op	       1 allocs/op
PASS
EOF
ok sh -c "'$bin/benchjson' < '$run/bench.txt' > '$run/bench.json'"
ok "$bin/benchjson" -compare "$run/bench.json" "$run/bench.json"
fails sh -c "'$bin/benchjson' -compare '$run/bench.json' '$run/missing.json'"

# The examples.
for e in automotive multidomain policycompare quickstart realtime service tuning; do
	b=$bin/$e
	[ -e "$bin/example-$e" ] && b=$bin/example-$e
	ok "$b"
done

echo "reach: driving hetschedd and hetschedbench"
# start_daemon starts hetschedd on free loopback ports and sets api and
# dbg from the addresses it logs.
start_daemon() {
	local dlog=$run/daemon.log
	"$bin/hetschedd" -addr 127.0.0.1:0 -debug-addr 127.0.0.1:0 -workers 2 -queue 8 \
		-cache-dir "$run/cache" -faults "$faults" -cluster "2*quad;1*4x8" "$@" > "$dlog" 2>&1 &
	daemon=$!
	api="" dbg=""
	for _ in $(seq 600); do
		api=$(sed -n 's/.*msg=listening.* addr=\([^ ]*\).*/\1/p' "$dlog" | head -1)
		dbg=$(sed -n 's/.*msg=debug.* addr=\([^ ]*\).*/\1/p' "$dlog" | head -1)
		[ -n "$api" ] && [ -n "$dbg" ] && return 0
		kill -0 "$daemon" 2>/dev/null || break
		sleep 0.1
	done
	cat "$dlog" >&2
	echo "reach: hetschedd did not start" >&2
	exit 1
}
stop_daemon() {
	kill -TERM "$daemon"
	wait "$daemon" || true
}
get() { ok curl -sS -o /dev/null -w '%{http_code} %{url_effective}\n' "$@"; }
post() { local u=$1; shift; ok curl -sS -o /dev/null -w '%{http_code} %{url_effective}\n' -X POST "$u" -d "$@"; }

start_daemon -predictor oracle
trap 'kill -TERM "$daemon" 2>/dev/null || true' EXIT
u=http://$api
get "$u/healthz"
get "$u/v1/designspace"
get "$u/v1/predictor"
get "$u/v1/cluster/status"
post "$u/v1/predict" '{"kernel":"tblook"}'
post "$u/v1/predict" '{"kernel":"nosuch"}'
post "$u/v1/predictor" '{"spec":"ensemble:table,markov,ann"}'
post "$u/v1/predict" '{"kernel":"a2time"}'
post "$u/v1/tune" '{"kernel":"aifftr","size_kb":8}'
post "$u/v1/tune" '{"kernel":"aifftr","size_kb":3}'
post "$u/v1/schedule" '{"system":"proposed","arrivals":300,"utilization":0.9,"seed":3}'
post "$u/v1/schedule" '{"system":"sat","arrivals":200,"faults":{"seed":2,"transient_mttf_cycles":2000000,"recovery_cycles":100000}}'
post "$u/v1/schedule" '{"arrivals":200,"preemptive":true,"scenario":"bursty:jobs=200;'"$slo"'"}'
post "$u/v1/schedule?trace=1" '{"arrivals":100,"seed":4}'
post "$u/v1/schedule" '{"system":"nosuch"}'
post "$u/v1/schedule" '{"scenario":"replay:file='"$run"'/missing.csv"}'
post "$u/v1/schedule" '{"utilization":1e-300}'
post "$u/v1/schedule" '{"bogus":1}'
post "$u/v1/schedule" 'not json'
post "$u/v1/schedule/batch" '{"jobs":[{"kernel":"tblook"},{"kernel":"a2time","scale":2,"data_seed":5},{"kernel":"nosuch"}]}'
# A variant past the VM's instruction budget.
post "$u/v1/schedule/batch" '{"jobs":[{"kernel":"matrix","scale":16,"iterations":1024}]}'
post "$u/v1/cluster/schedule" '{"nodes":"2*quad;1*4x8","arrivals":120,"seed":3}'
post "$u/v1/cluster/schedule" '{"nodes":"quad","scorer":"energy","scenario":"poisson:jobs=60;mix=a2time*3+tblook;'"$slo"'"}'
post "$u/v1/cluster/schedule/batch" '{"nodes":"2*quad","scorer":"balance","jobs":[{"kernel":"tblook"},{"kernel":"matrix","priority":2}]}'
post "$u/v1/predictor" '{"spec":"bogus"}'
get -X POST "$u/healthz"
get "$u/metrics"
get "$u/v1/cluster/status"
get "$u/nosuch"
d=http://$dbg
get "$d/debug/pprof/"
get "$d/debug/pprof/cmdline"
get "$d/debug/pprof/symbol"
get "$d/debug/pprof/profile?seconds=1"
get "$d/debug/pprof/trace?seconds=1"
get "$d/debug/vars"
get "$d/debug/trace"
get "$d/debug/trace?format=csv"
get "$d/debug/trace?format=chrome"
get "$d/debug/trace?format=bogus"

# hetschedbench against the running daemon (generated, batch, cluster and
# cluster batch), then self-contained with its own in-process daemon.
ok "$bin/hetschedbench" -addr "$u" -requests 16 -concurrency 8 -arrivals 200
ok "$bin/hetschedbench" -addr "$u" -requests 16 -concurrency 8 -batch 6 -dup-skew 0.8
ok "$bin/hetschedbench" -addr "$u" -requests 8 -concurrency 4 -arrivals 200 -cluster "2*quad" -spread 50ms
ok "$bin/hetschedbench" -addr "$u" -requests 8 -concurrency 4 -batch 4 -cluster "2*quad"
ok "$bin/hetschedbench" -addr "$u" -requests 32 -concurrency 32 -arrivals 3000 -max-errors 0.99
stop_daemon
trap - EXIT
ok "$bin/hetschedbench" -requests 16 -concurrency 8 -workers 2 -queue 4 -arrivals 200 -system energy-centric
fails "$bin/hetschedd" -predictor bogus
fails "$bin/hetschedd" -addr 127.0.0.1:0 -faults mttf=x

echo "reach: running the tests with coverage"
"$GO" tool covdata textfmt -i="$GOCOVERDIR" -o "$out/drive.out"
unset GOCOVERDIR
"$GO" test -coverprofile="$out/tests.out" ./... > "$out/tests.log" 2>&1 || {
	tail -30 "$out/tests.log" >&2
	exit 1
}
"$GO" tool cover -func="$out/drive.out" > "$out/drive.func"
"$GO" tool cover -func="$out/tests.out" > "$out/tests.func"

# A function is keyed <file relative to the module root>:<name>; line
# numbers are dropped so the allowlist survives edits around it.
awk -v allow="$allow" '
	function key(f, n) { sub(/^hetsched\//, "", f); sub(/:[0-9]+:$/, "", f); return f ":" n }
	function pct(p) { sub(/%$/, "", p); return p + 0 }
	BEGIN {
		while ((getline line < allow) > 0) {
			if (line ~ /^[ \t]*(#|$)/) continue
			split(line, f, /[ \t]+/)
			listed[f[1]] = 1
		}
	}
	FILENAME == ARGV[1] { if ($1 != "total:" && pct($NF) > 0) drive[key($1, $2)] = 1; next }
	$1 != "total:" && pct($NF) > 0 {
		k = key($1, $2)
		tested[k] = 1
		if (!(k in drive) && !(k in listed)) { print "reached only by tests: " k; bad++ }
	}
	END {
		for (k in listed) {
			if (k in drive) { print "allowlisted but the drive reaches it: " k; bad++ }
			else if (!(k in tested)) { print "allowlisted but no test reaches it: " k; bad++ }
		}
		exit bad > 0
	}
' "$out/drive.func" "$out/tests.func" && status=0 || status=$?
if [ "$status" -eq 0 ]; then
	echo "reach: every test-covered function is driven or allowlisted"
fi
exit "$status"

#!/usr/bin/env bash
# One full pass for a human: build once, run the four workloads, then the
# ladder alone and one traced run, and record the machine's state beside
# the numbers. Output goes to the terminal and to bench/out/run.log.
#
#   bash bench/run.sh [seed]
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
seed="${1:-1}"
mkdir -p bench/out
environment() {
	echo "## $1: $(date -u +%Y-%m-%dT%H:%M:%SZ)"
	echo "nproc=$(nproc) GOMAXPROCS=${GOMAXPROCS:-unset (defaults to nproc)}"
	echo "go=$(go version) kernel=$(uname -sr)"
	echo "loadavg=$(cat /proc/loadavg)"
}
{
	environment start
	# The first call builds; the rest find the binary up to date.
	for w in ws_small ws_bulk fb_wan bg_durable; do
		echo "## workload $w"
		bash bench/bench.sh --workload "$w" --seed "$seed" --trace 0
	done
	echo "## ladder"
	bash bench/bench.sh --ladder
	echo "## trace ws_small"
	bash bench/bench.sh --workload ws_small --seed "$seed" --trace 1
	environment end
} 2>&1 | tee bench/out/run.log

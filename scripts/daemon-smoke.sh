#!/usr/bin/env bash
# Boots the deployed system from the real binaries — two qserv-workers and a
# qserv-czar at replication 2 — and checks what only a deployment shows: the
# czar ingests the catalog into remote, empty workers over the fabric, a
# client's COUNT(*) equals the object count the czar logged at ingest, the
# czar answers SHOW WORKERS and SHOW PROCESSLIST over TCP, and
# both /metrics expositions are well-formed and carry every subsystem's
# series. `make daemon-smoke` and CI run it; everything it writes goes to a
# temporary directory.
set -euo pipefail

GO=${GO:-go}
dir=$(mktemp -d)
pids=()
cleanup() {
	status=$?
	for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
	wait 2>/dev/null || true
	if [ $status -ne 0 ]; then
		for log in "$dir"/*.log; do echo "--- $log"; cat "$log"; done
	fi
	rm -rf "$dir"
	exit $status
}
trap cleanup EXIT

$GO build -o "$dir/" ./cmd/qserv-worker ./cmd/qserv-czar ./cmd/qserv-sql ./internal/telemetry/cmd/lint-metrics

export QSERV_LOG=info
"$dir/qserv-worker" -name w0 -addr 127.0.0.1:7001 -admin-addr 127.0.0.1:7101 >"$dir/w0.log" 2>&1 &
pids+=($!)
"$dir/qserv-worker" -name w1 -addr 127.0.0.1:7002 >"$dir/w1.log" 2>&1 &
pids+=($!)
for log in w0 w1; do
	for _ in $(seq 1 50); do grep -q event=worker.ready "$dir/$log.log" && break; sleep 0.1; done
	grep -q event=worker.ready "$dir/$log.log" || { echo "daemon-smoke: worker $log never came up"; exit 1; }
done

"$dir/qserv-czar" -workers w0=127.0.0.1:7001,w1=127.0.0.1:7002 -replication 2 \
	-listen 127.0.0.1:7000 -admin-addr 127.0.0.1:7100 >"$dir/czar.log" 2>&1 &
pids+=($!)
for _ in $(seq 1 300); do grep -q event=czar.ready "$dir/czar.log" && break; sleep 0.1; done
grep -q event=czar.ready "$dir/czar.log" || { echo "daemon-smoke: czar never became ready"; exit 1; }

ingested=$(sed -n 's/.*event=catalog.ingested objects=\([0-9]*\).*/\1/p' "$dir/czar.log")
counted=$("$dir/qserv-sql" -addr 127.0.0.1:7000 -e "SELECT COUNT(*) FROM Object" | sed -n 3p)
if [ -z "$ingested" ] || [ "$ingested" != "$counted" ]; then
	echo "daemon-smoke: czar logged $ingested objects ingested, COUNT(*) answers $counted"
	exit 1
fi
echo "daemon-smoke: COUNT(*) FROM Object = $counted, as ingested"

# The czar answers its management statements across processes too: both
# workers alive in SHOW WORKERS, the header of SHOW PROCESSLIST.
workers=$("$dir/qserv-sql" -addr 127.0.0.1:7000 -e "SHOW WORKERS")
for w in w0 w1; do
	if ! grep -Eq "^$w[[:space:]]+alive[[:space:]]" <<<"$workers"; then
		echo "daemon-smoke: SHOW WORKERS does not list $w alive:"
		echo "$workers"
		exit 1
	fi
done
processlist=$("$dir/qserv-sql" -addr 127.0.0.1:7000 -e "SHOW PROCESSLIST")
if [ "$(head -n 1 <<<"$processlist")" != "$(printf 'Id\tClass\tTime\tChunks\tRows\tInfo')" ]; then
	echo "daemon-smoke: SHOW PROCESSLIST answered:"
	echo "$processlist"
	exit 1
fi
echo "daemon-smoke: SHOW WORKERS lists w0 and w1 alive, SHOW PROCESSLIST answers"

curl -fs http://127.0.0.1:7100/metrics | "$dir/lint-metrics" -require qserv_czar_,qserv_qcache_,qserv_member_,qserv_xrd_,qserv_frontend_
curl -fs http://127.0.0.1:7101/metrics | "$dir/lint-metrics" -require qserv_worker_,qserv_worker_statements_parsed_total,qserv_worker_statements_reused_total,qserv_worker_gang_joins_total

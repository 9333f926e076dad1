#!/usr/bin/env bash
# verify.sh — the race-clean CI gate. Runs the full static-analysis and
# test battery; every PR must pass this script.
#
# Usage:
#   scripts/verify.sh            # full gate (build, vet, gofmt, vslint, tests, figure benchmarks, -race, fuzz, smoke)
#   FUZZTIME=30s scripts/verify.sh   # longer fuzz smoke
#   SKIP_FUZZ=1 scripts/verify.sh    # skip the fuzz smoke (e.g. constrained machines)
#   SKIP_SMOKE=1 scripts/verify.sh   # skip the vsserve end-to-end smoke
#   SKIP_COMPILER_LINT=1 scripts/verify.sh  # skip the vslint -compiler gate
#
# Under GitHub Actions (GITHUB_ACTIONS set by the runner) vslint prints
# ::error workflow annotations instead of plain text.
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

step() { printf '\n==> %s\n' "$*"; }

step "go build ./..."
go build ./...

step "gofmt check"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

step "go vet ./..."
# vet's copylocks check is the repo's only guard against copying a mutex or
# a typed atomic (atomic.Int64, atomic.Bool, ...).
go vet ./...

step "typed atomics only (no function-style sync/atomic calls)"
# A field touched through atomic.AddInt64(&x.n, 1) can still be read plainly
# somewhere else, a data race no analyzer here looks for. The typed atomics
# have no plain access to get wrong, so the root module uses only those.
if grep -rnE --include='*.go' --exclude-dir=benchmark 'atomic\.(Add|Load|Store|Swap|CompareAndSwap)(Int|Uint|Pointer)' .; then echo "use the typed atomics (atomic.Int64, ...) instead of these sync/atomic function calls" >&2; exit 1; fi

step "vslint (kernel allocations, dropped errors, fan-outs, span/lock pairing, lock order, hotpath closure; stale //vs:nolint fails)"
# ./... matches every package, including internal/vslint and cmd/vslint —
# the linter self-lints. -compiler adds the escape/bounds-check gate against
# bench/vslint_baseline.json; it rebuilds with -gcflags diagnostics (go
# build -a), so it is the slowest lint step and SKIP_COMPILER_LINT=1 drops
# it.
vslint_flags=(-format text)
[ -n "${GITHUB_ACTIONS:-}" ] && vslint_flags=(-format github)
[ -z "${SKIP_COMPILER_LINT:-}" ] && vslint_flags+=(-compiler)
go run ./cmd/vslint "${vslint_flags[@]}" ./...

step "go test ./..."
go test ./...

step "benchmark module (go vet + go test -C benchmark)"
# benchmark/ is a nested module, invisible to ./...: without this step a
# refactor can break the perf ledger's compile surface and still pass.
go vet -C benchmark ./... && go test -C benchmark ./...

step "paper-figure, kernel and wire benchmarks, one iteration each"
# bench_test.go is the only harness behind EXPERIMENTS.md's tables; one
# pass keeps every family compiling and running. The ledger-shape and
# primitive benchmarks (about 10 s more on 2 vCPUs) are what kernel changes
# are timed with, so they must not panic unnoticed either.
# BenchmarkWireStream is the transport's in-repo rows/s and allocs/op.
go test -run '^$' -bench 'Fig|Table|Ablation|Cache|JoinLedgerShapes|ExpandLedgerShapes|BitmatrixPrimitives' -benchtime 1x .
go test -run '^$' -bench StackForms -benchtime 1x ./internal/bitmatrix
go test -run '^$' -bench Wire -benchtime 1x ./client

step "go test -race ./..."
go test -race ./...

if [ -z "${SKIP_FUZZ:-}" ]; then
    step "fuzz smoke (${FUZZTIME} each)"
    go test -run='^$' -fuzz=FuzzCypherParse -fuzztime="$FUZZTIME" ./internal/cypher
    go test -run='^$' -fuzz=FuzzHilbertRoundTrip -fuzztime="$FUZZTIME" ./internal/hilbert
    go test -run='^$' -fuzz=FuzzWireDecode -fuzztime="$FUZZTIME" ./internal/wire
    go test -run='^$' -fuzz=FuzzMatrixForms -fuzztime="$FUZZTIME" ./internal/bitmatrix
fi

if [ -z "${SKIP_SMOKE:-}" ]; then
    step "vsserve smoke (generate, serve, query, /debug/queries, scrape /metrics)"
    smokedir="$(mktemp -d)"
    serverpid=""
    cleanup() {
        [ -n "$serverpid" ] && kill "$serverpid" 2>/dev/null || true
        rm -rf "$smokedir"
    }
    trap cleanup EXIT

    go run ./cmd/vsgen -dataset LastFM -scale 0.05 -out "$smokedir/graph" >/dev/null
    go build -o "$smokedir/vsserve" ./cmd/vsserve
    "$smokedir/vsserve" -data "$smokedir/graph" -addr 127.0.0.1:0 -access-log=false \
        -wire-addr 127.0.0.1:0 -fetch-batch 16 \
        > "$smokedir/stdout" 2> "$smokedir/stderr" &
    serverpid=$!

    # vsserve prints "serving <dir> (...) on <addr>" once the listener is
    # bound; scrape the real port from that line.
    hostport=""
    for _ in $(seq 1 50); do
        hostport="$(sed -n 's/^serving .* on //p' "$smokedir/stdout")"
        [ -n "$hostport" ] && break
        kill -0 "$serverpid" 2>/dev/null || { cat "$smokedir/stderr" >&2; echo "vsserve exited early" >&2; exit 1; }
        sleep 0.1
    done
    [ -n "$hostport" ] || { echo "vsserve never announced its address" >&2; exit 1; }

    curl -fsS "http://$hostport/healthz" | grep -q ok
    curl -fsS "http://$hostport/query" \
        -d '{"query":"PROFILE MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN COUNT(DISTINCT p,q)"}' \
        | grep -q '"profile"'
    metrics="$(curl -fsS "http://$hostport/metrics")"
    echo "$metrics" | grep -q '^vs_queries_total 1$' \
        || { echo "vs_queries_total did not reach 1:" >&2; echo "$metrics" | grep vs_queries >&2; exit 1; }
    echo "$metrics" | grep -q 'vs_query_stage_seconds_count{stage="total"} 1' \
        || { echo "stage histogram missing:" >&2; echo "$metrics" | grep stage >&2; exit 1; }

    # The query text is the only switch for plans: EXPLAIN ANALYZE through
    # /query returns the analysis and runs registered like any query, and
    # the former POST /explain route is gone.
    curl -fsS "http://$hostport/query" \
        -d '{"query":"EXPLAIN ANALYZE MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN COUNT(DISTINCT p,q)"}' \
        | grep -q '"analysis"' \
        || { echo "EXPLAIN ANALYZE via /query returned no analysis" >&2; exit 1; }
    curl -fsS "http://$hostport/debug/queries" | grep -q '"query":"EXPLAIN ANALYZE MATCH' \
        || { echo "/debug/queries is missing the EXPLAIN ANALYZE query" >&2; exit 1; }
    explaincode="$(curl -sS -o /dev/null -w '%{http_code}' "http://$hostport/explain" \
        -d '{"query":"MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN COUNT(DISTINCT p,q)"}')"
    [ "$explaincode" = "404" ] || [ "$explaincode" = "405" ] \
        || { echo "POST /explain answered $explaincode; the route should be gone" >&2; exit 1; }

    # The completed query must show up in the introspection history, and
    # the runtime-metrics bridge must be live on /metrics.
    curl -fsS "http://$hostport/debug/queries" \
        | grep -q '"status":"ok"' \
        || { echo "/debug/queries history is missing the completed query" >&2; exit 1; }
    echo "$metrics" | grep -q '^go_goroutines ' \
        || { echo "runtime-metrics bridge missing go_goroutines on /metrics" >&2; exit 1; }
    echo "$metrics" | grep -q '^vs_build_info{' \
        || { echo "vs_build_info gauge missing on /metrics" >&2; exit 1; }

    # vsserve publishes its engine's accountant occupancy on /metrics.
    for g in vs_memory_in_use_bytes vs_memory_limit_bytes; do
        echo "$metrics" | grep -q "^$g " \
            || { echo "$g gauge missing on /metrics" >&2; exit 1; }
    done

    # Completed queries must land in the per-query cost metric family with
    # real attributed bytes.
    costb="$(curl -fsS "http://$hostport/metrics" | sed -n 's/^vs_query_cost_bytes{resource="matrix"} //p')"
    [ -n "$costb" ] && [ "$costb" -ge 1 ] \
        || { echo "vs_query_cost_bytes{resource=\"matrix\"} not accumulating (got '$costb')" >&2; exit 1; }

    # Repeating the query must hit the engine-level matrix cache (vsserve
    # enables it by default).
    curl -fsS "http://$hostport/query" \
        -d '{"query":"MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN COUNT(DISTINCT p,q)"}' >/dev/null
    hits="$(curl -fsS "http://$hostport/metrics" | sed -n 's/^vs_matrix_cache_hits_total //p')"
    [ -n "$hits" ] && [ "$hits" -ge 1 ] \
        || { echo "repeated query produced no matrix-cache hits (vs_matrix_cache_hits_total=$hits)" >&2; exit 1; }

    # length() is the last Cypher query that collects its tuples before
    # projecting them: /query must return rows, each a vertex and a length
    # inside the relationship's 1..2.
    lengthq='MATCH p=(a:SIGA)-[:knows*1..2]-(b:SIGB) RETURN b, length(p) LIMIT 5'
    curl -fsS "http://$hostport/query" -d "{\"query\":\"$lengthq\"}" \
        | python3 -c 'import json,sys
rows = json.load(sys.stdin)["rows"]
sys.exit(not rows or any(len(r) != 2 or r[1] not in (1, 2) for r in rows))' \
        || { echo "length() via /query returned no rows, or a length outside 1..2: $lengthq" >&2; exit 1; }

    step "NDJSON streaming smoke (rows exceed one fetch batch, in-flight drains)"
    # A streamable MATCH with "stream":true returns NDJSON: a columns header,
    # one JSON array per row, and a summary trailer. The server was started
    # with -fetch-batch 16, so any multi-batch result proves rows crossed
    # several cursor fetches rather than one materialized response.
    streamq='MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN p, q'
    curl -fsS -N "http://$hostport/query" \
        -d "{\"query\":\"$streamq\",\"stream\":true}" > "$smokedir/ndjson"
    head -1 "$smokedir/ndjson" | grep -q '"columns":\["p","q"\]' \
        || { echo "NDJSON header missing columns:" >&2; head -1 "$smokedir/ndjson" >&2; exit 1; }
    head -1 "$smokedir/ndjson" | grep -q '"streaming":true' \
        || { echo "NDJSON header did not mark the query streaming" >&2; exit 1; }
    streamrows="$(( $(wc -l < "$smokedir/ndjson") - 2 ))"
    [ "$streamrows" -gt 16 ] \
        || { echo "streamed $streamrows rows; need more than one 16-row fetch batch" >&2; exit 1; }
    tail -1 "$smokedir/ndjson" | grep -q "\"rows\":$streamrows" \
        || { echo "NDJSON trailer row count disagrees with the stream:" >&2; tail -1 "$smokedir/ndjson" >&2; exit 1; }
    # await_idle polls /metrics until no query is in flight; $1 names what
    # should have ended them.
    await_idle() {
        inflight=""
        for _ in $(seq 1 40); do
            inflight="$(curl -fsS "http://$hostport/metrics" | sed -n 's/^vs_queries_in_flight //p')"
            [ "$inflight" = "0" ] && return
            sleep 0.1
        done
        echo "vs_queries_in_flight stuck at '$inflight' after $1" >&2; exit 1
    }
    # The streamed query must drain from the live registry once the cursor
    # is exhausted — in-flight back to 0, total incremented.
    await_idle "stream drained"

    step "wire protocol smoke (vsquery -wire and NDJSON rows match the HTTP/JSON path: plain, grouped, ORDER BY ... LIMIT, LIMIT)"
    wireaddr="$(sed -n 's/^wire protocol on //p' "$smokedir/stdout")"
    [ -n "$wireaddr" ] || { echo "vsserve never announced the wire listener" >&2; exit 1; }
    go build -o "$smokedir/vsquery" ./cmd/vsquery
    # wire_rows, http_rows and ndjson_rows QUERY print QUERY's rows through
    # vsquery -wire, /query and a {"stream":true} /query: one compact JSON
    # array per line, sorted.
    wire_rows() {
        "$smokedir/vsquery" -wire "$wireaddr" -json -query "$1" | sort
    }
    http_rows() {
        curl -fsS "http://$hostport/query" -d "{\"query\":\"$1\"}" \
            | python3 -c 'import json,sys
for row in json.load(sys.stdin)["rows"]:
    print(json.dumps(row, separators=(",", ":")))' | sort
    }
    ndjson_rows() {
        curl -fsS -N "http://$hostport/query" -d "{\"query\":\"$1\",\"stream\":true}" \
            | sed '1d;$d' | python3 -c 'import json,sys
for line in sys.stdin:
    print(json.dumps(json.loads(line), separators=(",", ":")))' | sort
    }
    # same_rows QUERY: /query, NDJSON and VSWP return the same non-empty
    # rows. Every query runs through the same cursor on the two streamed
    # paths, whatever its shape.
    same_rows() {
        http_rows "$1" > "$smokedir/http_rows"
        [ -s "$smokedir/http_rows" ] || { echo "/query returned no rows for $1" >&2; exit 1; }
        for path in wire ndjson; do
            "${path}_rows" "$1" > "$smokedir/${path}_rows"
            diff -u "$smokedir/http_rows" "$smokedir/${path}_rows" \
                || { echo "$path and HTTP disagree on $1" >&2; exit 1; }
        done
    }
    same_rows "$streamq"
    # Grouped aggregates run the projector's fold end to end on all three;
    # ORDER BY ... LIMIT sorts and cuts in the cursor's producer (with a
    # total order, so the cut is the same rows everywhere).
    groupq='MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN q, COUNT(p) AS c'
    same_rows "$groupq"
    same_rows "$groupq ORDER BY c DESC"
    same_rows "$streamq ORDER BY q DESC, p LIMIT 9"
    # A grouped query holds its groups: its NDJSON header says so. The body
    # goes to a file first: piped into head, curl can exit 23 when head
    # closes the pipe, and pipefail would fail the step.
    curl -fsS -N "http://$hostport/query" -d "{\"query\":\"$groupq\",\"stream\":true}" \
        > "$smokedir/group_ndjson"
    head -1 "$smokedir/group_ndjson" | grep -q '"streaming":false' \
        || { echo "NDJSON header of $groupq did not say streaming:false" >&2; exit 1; }
    # A plain LIMIT without ORDER BY stops the match after its rows: /query,
    # NDJSON and VSWP each return exactly 7, and the same 7.
    limitq="$streamq LIMIT 7"
    for path in http wire ndjson; do
        "${path}_rows" "$limitq" > "$smokedir/limit_$path"
        n="$(wc -l < "$smokedir/limit_$path")"
        [ "$n" -eq 7 ] || { echo "$path returned $n rows for $limitq, want 7" >&2; exit 1; }
        diff -u "$smokedir/limit_http" "$smokedir/limit_$path" \
            || { echo "$path and HTTP disagree on $limitq" >&2; exit 1; }
    done
    # vsquery has disconnected: its session must have closed its cursor.
    await_idle "the wire client disconnected"
    # The wire protocol carries rows only: EXPLAIN must fail, not print an
    # empty result.
    if "$smokedir/vsquery" -wire "$wireaddr" -query "EXPLAIN $streamq" > /dev/null 2>&1; then
        echo "vsquery -wire accepted EXPLAIN" >&2; exit 1
    fi

    step "vsserve -query-timeout smoke (expired deadline returns 504)"
    "$smokedir/vsserve" -data "$smokedir/graph" -addr 127.0.0.1:0 -access-log=false \
        -query-timeout 1ns > "$smokedir/stdout2" 2> "$smokedir/stderr2" &
    timeoutpid=$!
    cleanup2() {
        kill "$timeoutpid" 2>/dev/null || true
        cleanup
    }
    trap cleanup2 EXIT
    hostport2=""
    for _ in $(seq 1 50); do
        hostport2="$(sed -n 's/^serving .* on //p' "$smokedir/stdout2")"
        [ -n "$hostport2" ] && break
        kill -0 "$timeoutpid" 2>/dev/null || { cat "$smokedir/stderr2" >&2; echo "vsserve (timeout) exited early" >&2; exit 1; }
        sleep 0.1
    done
    [ -n "$hostport2" ] || { echo "vsserve (timeout) never announced its address" >&2; exit 1; }
    status="$(curl -s -o /dev/null -w '%{http_code}' "http://$hostport2/query" \
        -d '{"query":"MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN COUNT(DISTINCT p,q)"}')"
    [ "$status" = "504" ] \
        || { echo "-query-timeout 1ns returned HTTP $status, want 504" >&2; exit 1; }
fi

step "verify OK"

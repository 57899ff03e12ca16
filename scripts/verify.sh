#!/usr/bin/env sh
# Full verification gate: release build, the whole test suite, and a
# warning-free clippy pass over every target. Run from the repo root.
set -eu

cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings

# Structure gate: one fleet index and no stub dependencies. `vendor/`
# holds only the offline subsets of real dependencies, and the retired
# second index, its shims, and the snapshot delegation stay gone.
extra_vendor=$(ls vendor | grep -vxE 'rand|proptest|criterion' || true)
if [ -n "$extra_vendor" ]; then
    echo "verify: unexpected vendored crates: $extra_vendor (allowed: rand, proptest, criterion)" >&2
    exit 1
fi
if grep -rnE 'struct LogView|fn from_view|impl FleetIndex for Snapshot' crates/; then
    echo "verify: a duplicate fleet index, a from_view shim, or the snapshot delegation reappeared under crates/" >&2
    exit 1
fi

# Benchmark gate: the standalone loadbench crate builds and passes its
# own tests against the current workspace crates. Cargo refreshes
# loadbench/Cargo.lock when the workspace's dependency graph changes,
# so the lock file is saved first and restored afterwards to leave
# loadbench/ byte-identical.
lb_lock=$(mktemp)
cp loadbench/Cargo.lock "$lb_lock"
lb_status=0
cargo build --release --offline --manifest-path loadbench/Cargo.toml || lb_status=$?
if [ "$lb_status" -eq 0 ]; then
    cargo test --offline --manifest-path loadbench/Cargo.toml || lb_status=$?
fi
cp "$lb_lock" loadbench/Cargo.lock
rm -f "$lb_lock"
if [ "$lb_status" -ne 0 ]; then
    echo "verify: loadbench does not build or pass its tests against the workspace" >&2
    exit 1
fi

# Streaming subsystem gate: the record-by-record state must equal the
# batch pipeline, and an injected MTTR regression must raise an alert.
cargo test -q -p failsuite --test stream_equivalence
cargo run -q -p failbench --bin bench_stream --release -- --json BENCH_stream.json

# Streaming throughput gate: the amortized deferred-merge ingest path
# sustains ~2.4M records/second on the ~110k-record scaled year (one
# container core); fail if it regresses below half that, which is where
# an accidental return to per-record O(n) insertion would land.
stream_floor=1200000
stream_rate=$(sed -n 's/.*"scaled_stream_records_per_second": \([0-9]*\).*/\1/p' \
    BENCH_stream.json)
if [ -z "$stream_rate" ]; then
    echo "verify: scaled_stream_records_per_second missing from BENCH_stream.json" >&2
    exit 1
fi
if [ "$stream_rate" -lt "$stream_floor" ]; then
    echo "verify: scaled stream throughput regressed: $stream_rate rec/s < floor $stream_floor" >&2
    exit 1
fi

# Parse-path gate: the chunked parallel parser sustains ~2.4M
# records/second on the ~110k-record scaled year (one container core);
# fail if it regresses below half that. `repro bench` also verifies the
# parallel parse is byte-identical to serial before reporting a rate.
cargo run -q -p failbench --bin repro --release -- bench
parse_floor=1150000
parse_rate=$(sed -n 's/.*"parse_records_per_second":\([0-9]*\).*/\1/p' \
    BENCH_pipeline.json)
if [ -z "$parse_rate" ]; then
    echo "verify: parse_records_per_second missing from BENCH_pipeline.json" >&2
    exit 1
fi
if [ "$parse_rate" -lt "$parse_floor" ]; then
    echo "verify: parse throughput regressed: $parse_rate rec/s < floor $parse_floor" >&2
    exit 1
fi

# Filter-pushdown gate, part 1: throughput. Parsing with a predicate
# pushed down must stay within 15% of plain parse throughput (the
# predicate is a few branches per record; anything slower means an
# allocating or re-scanning eval sneaked into the record path).
# `repro bench` already verifies the filtered parse is byte-identical
# to the post-hoc filter of an unfiltered parse before reporting it.
filter_rate=$(sed -n 's/.*"filter_records_per_second":\([0-9]*\).*/\1/p' \
    BENCH_pipeline.json)
if [ -z "$filter_rate" ]; then
    echo "verify: filter_records_per_second missing from BENCH_pipeline.json" >&2
    exit 1
fi
if [ $((filter_rate * 100)) -lt $((parse_rate * 85)) ]; then
    echo "verify: filter pushdown overhead exceeds 15%: $filter_rate rec/s vs unfiltered $parse_rate rec/s" >&2
    exit 1
fi

# Filter-pushdown gate, part 2: a `--where` report must be
# byte-identical to the report of an expected input constructed
# independently with awk — keep the 7 header lines, then only rows
# whose ttr_h column (field 3) exceeds 48.
flt_dir=$(mktemp -d)
flt_sections="header,categories,spatial,involvement,tbf,ttr,availability,survival,seasonal"
cargo run -q --release -p failctl -- \
    generate --system tsubame3 --out "$flt_dir/flt.fslog" >/dev/null
awk -F, 'NR <= 7 || $3 + 0 > 48' "$flt_dir/flt.fslog" > "$flt_dir/expected.fslog"
cargo run -q --release -p failctl -- report "$flt_dir/flt.fslog" \
    --sections "$flt_sections" --where 'ttr > 48' > "$flt_dir/where.txt"
cargo run -q --release -p failctl -- report "$flt_dir/expected.fslog" \
    --sections "$flt_sections" > "$flt_dir/expected.txt"
cmp -s "$flt_dir/where.txt" "$flt_dir/expected.txt" || {
    echo "verify: --where report differs from the awk-filtered expected report" >&2
    exit 1
}
rm -rf "$flt_dir"

# Snapshot gate, part 1: `repro bench`'s index block times the warm
# `.fsidx` load path (validate + decode) against a cold parse on the
# same ~110k-record year; measured ~5x on one container core, tripwire
# at 3x — an accidental return to re-parsing would land at 1x. The
# bench itself already exits non-zero if the warm report bytes diverge
# from cold.
index_floor=300
index_speedup=$(sed -n 's/.*"index_load_speedup_x100":\([0-9]*\).*/\1/p' \
    BENCH_pipeline.json)
if [ -z "$index_speedup" ]; then
    echo "verify: index_load_speedup_x100 missing from BENCH_pipeline.json" >&2
    exit 1
fi
if [ "$index_speedup" -lt "$index_floor" ]; then
    echo "verify: warm snapshot load speedup regressed: ${index_speedup}/100x < floor ${index_floor}/100x" >&2
    exit 1
fi

# Snapshot gate, part 2: through the CLI, `index build` then a warm
# `--index require` report must be byte-identical to the cold report
# over the analysis sections, at more than one thread count.
idx_dir=$(mktemp -d)
idx_sections="header,categories,spatial,involvement,tbf,ttr,availability,survival,seasonal"
cargo run -q --release -p failctl -- \
    generate --system tsubame3 --out "$idx_dir/idx.fslog" >/dev/null
cargo run -q --release -p failctl -- report "$idx_dir/idx.fslog" \
    --sections "$idx_sections" > "$idx_dir/cold.txt"
cargo run -q --release -p failctl -- index build "$idx_dir/idx.fslog" >/dev/null
for t in 1 4; do
    cargo run -q --release -p failctl -- report "$idx_dir/idx.fslog" \
        --sections "$idx_sections" --index require --threads "$t" \
        > "$idx_dir/warm$t.txt"
    cmp -s "$idx_dir/cold.txt" "$idx_dir/warm$t.txt" || {
        echo "verify: warm --index require report differs from cold at --threads $t" >&2
        exit 1
    }
done
rm -rf "$idx_dir"

# Server gate, part 1: `repro bench`'s server block replays a mixed
# report/compare workload from four concurrent clients against an
# in-process `faild` and exits non-zero unless every response is
# byte-identical to the local query path and the shutdown persisted
# both snapshots; gate on the warm concurrent rate (measured ~6000
# queries/s on one container core, tripwire at 200 — which is roughly
# where an accidental per-query write-batching latency would land).
server_floor=200
server_rate=$(sed -n 's/.*"server_queries_per_second":\([0-9]*\).*/\1/p' \
    BENCH_pipeline.json)
if [ -z "$server_rate" ]; then
    echo "verify: server_queries_per_second missing from BENCH_pipeline.json" >&2
    exit 1
fi
if [ "$server_rate" -lt "$server_floor" ]; then
    echo "verify: server query throughput regressed: $server_rate queries/s < floor $server_floor" >&2
    exit 1
fi

# Server gate, part 1b: connection scaling. The same bench holds 64
# connections open, all replaying warm queries against the reactor's
# single event loop (measured ~5000 queries/s on one container core;
# tripwire at 2000 — a return to per-connection polling threads or a
# busy-looping event loop collapses well below that).
server_scaled_floor=2000
server_scaled_rate=$(sed -n 's/.*"server_scaled_queries_per_second":\([0-9]*\).*/\1/p' \
    BENCH_pipeline.json)
if [ -z "$server_scaled_rate" ]; then
    echo "verify: server_scaled_queries_per_second missing from BENCH_pipeline.json" >&2
    exit 1
fi
if [ "$server_scaled_rate" -lt "$server_scaled_floor" ]; then
    echo "verify: scaled server throughput regressed: $server_scaled_rate queries/s at 64 connections < floor $server_scaled_floor" >&2
    exit 1
fi

# Server gate, part 2: a real `faild` process serving both canonical
# seed logs over a Unix socket. Cold queries must be byte-identical to
# the direct CLI report, warm repeats byte-identical to cold, four
# concurrent clients must all get the same bytes, and a graceful
# shutdown must persist a `.fsidx` snapshot next to each cold-parsed
# log.
srv_dir=$(mktemp -d)
srv_sections="header,categories,spatial,involvement,tbf,ttr,availability,survival,seasonal"
for system in tsubame2 tsubame3; do
    cargo run -q --release -p failctl -- \
        generate --system "$system" --out "$srv_dir/$system.fslog" >/dev/null
done
cargo run -q --release -p failctl -- serve --socket "$srv_dir/faild.sock" \
    > "$srv_dir/serve.log" &
srv_pid=$!
for _ in $(seq 1 100); do
    [ -S "$srv_dir/faild.sock" ] && break
    sleep 0.1
done
[ -S "$srv_dir/faild.sock" ] || {
    echo "verify: faild did not bind its socket" >&2
    exit 1
}
for system in tsubame2 tsubame3; do
    cargo run -q --release -p failctl -- report "$srv_dir/$system.fslog" \
        --sections "$srv_sections" > "$srv_dir/$system.cli.txt"
    cargo run -q --release -p failctl -- query --socket "$srv_dir/faild.sock" \
        report "$srv_dir/$system.fslog" --sections "$srv_sections" \
        > "$srv_dir/$system.cold.txt"
    cargo run -q --release -p failctl -- query --socket "$srv_dir/faild.sock" \
        report "$srv_dir/$system.fslog" --sections "$srv_sections" \
        > "$srv_dir/$system.warm.txt"
    cmp -s "$srv_dir/$system.cli.txt" "$srv_dir/$system.cold.txt" || {
        echo "verify: faild cold query differs from the direct CLI report for $system" >&2
        exit 1
    }
    cmp -s "$srv_dir/$system.cold.txt" "$srv_dir/$system.warm.txt" || {
        echo "verify: faild warm query differs from its cold query for $system" >&2
        exit 1
    }
done
client_pids=""
for client in 1 2 3 4; do
    cargo run -q --release -p failctl -- query --socket "$srv_dir/faild.sock" \
        report "$srv_dir/tsubame2.fslog" --sections "$srv_sections" \
        > "$srv_dir/client$client.txt" &
    client_pids="$client_pids $!"
done
for pid in $client_pids; do
    wait "$pid" || {
        echo "verify: concurrent faild client exited non-zero" >&2
        exit 1
    }
done
for client in 1 2 3 4; do
    cmp -s "$srv_dir/tsubame2.cli.txt" "$srv_dir/client$client.txt" || {
        echo "verify: concurrent faild client $client diverged from the CLI report" >&2
        exit 1
    }
done
# Catalog smoke: `logs` must list both cached seed logs, `evict` must
# drop one so its next query runs cold (the response bytes still
# byte-identical to the CLI report).
cargo run -q --release -p failctl -- query --socket "$srv_dir/faild.sock" \
    logs > "$srv_dir/catalog.txt"
grep -q "faild: 2 cached logs" "$srv_dir/catalog.txt" || {
    echo "verify: faild logs did not list 2 cached logs" >&2
    cat "$srv_dir/catalog.txt" >&2
    exit 1
}
grep -q "tsubame3.fslog: records=" "$srv_dir/catalog.txt" || {
    echo "verify: faild logs catalog is missing the tsubame3 entry" >&2
    exit 1
}
cargo run -q --release -p failctl -- query --socket "$srv_dir/faild.sock" \
    evict "$srv_dir/tsubame3.fslog" | grep -q "evicted" || {
    echo "verify: faild evict did not report an eviction" >&2
    exit 1
}
cargo run -q --release -p failctl -- query --socket "$srv_dir/faild.sock" \
    logs | grep -q "faild: 1 cached log" || {
    echo "verify: faild logs still lists the evicted log" >&2
    exit 1
}
cargo run -q --release -p failctl -- query --socket "$srv_dir/faild.sock" \
    report "$srv_dir/tsubame3.fslog" --sections "$srv_sections" \
    > "$srv_dir/tsubame3.postevict.txt"
cmp -s "$srv_dir/tsubame3.cli.txt" "$srv_dir/tsubame3.postevict.txt" || {
    echo "verify: post-evict faild query differs from the direct CLI report" >&2
    exit 1
}
cargo run -q --release -p failctl -- query --socket "$srv_dir/faild.sock" \
    shutdown >/dev/null
wait "$srv_pid" || {
    echo "verify: faild exited non-zero" >&2
    exit 1
}
for system in tsubame2 tsubame3; do
    [ -f "$srv_dir/$system.fslog.fsidx" ] || {
        echo "verify: faild shutdown did not persist $system.fslog.fsidx" >&2
        exit 1
    }
done
rm -rf "$srv_dir"

# Gzip ingest smoke: the same log written plain and as .fslog.gz must
# produce byte-identical reports (input is sniffed by magic bytes and
# inflated in memory — no temp files, no external tooling).
gz_dir=$(mktemp -d)
cargo run -q --release -p failctl -- \
    generate --system tsubame2 --out "$gz_dir/smoke.fslog" >/dev/null
cargo run -q --release -p failctl -- \
    generate --system tsubame2 --out "$gz_dir/smoke.fslog.gz" >/dev/null
cargo run -q --release -p failctl -- report "$gz_dir/smoke.fslog" \
    > "$gz_dir/plain.txt"
cargo run -q --release -p failctl -- report "$gz_dir/smoke.fslog.gz" \
    > "$gz_dir/packed.txt"
cmp -s "$gz_dir/plain.txt" "$gz_dir/packed.txt" || {
    echo "verify: gzip report differs from the plain-text report" >&2
    exit 1
}
rm -rf "$gz_dir"

watch_trace=$(mktemp)
smoke=$(cargo run -q --release -p failctl -- \
    watch sim:tsubame2 --accel max --inject-mttr 5 --trace "$watch_trace")
echo "$smoke" | grep -q '"kind":"mttr_regression"' || {
    echo "verify: failctl watch smoke test did not alert on the injected regression" >&2
    exit 1
}
# The traced watch loop must account for every ingested record.
grep -q '"stage":"watch.records_ingested"' "$watch_trace" || {
    echo "verify: traced watch smoke run did not record watch.records_ingested" >&2
    exit 1
}
rm -f "$watch_trace"

# JSON report gate: a `{"v":1,"kind":"report"}` version header line,
# then one well-formed NDJSON line per section with the stable
# {id, title, data} shape, on both canonical models.
if command -v jq >/dev/null 2>&1; then
    tmpdir=$(mktemp -d)
    trap 'rm -rf "$tmpdir"' EXIT
    for system in tsubame2 tsubame3; do
        log="$tmpdir/$system.fslog"
        cargo run -q --release -p failctl -- \
            generate --system "$system" --out "$log" >/dev/null
        cargo run -q --release -p failctl -- report "$log" --format json \
            | jq -e -s 'length == 11
                and .[0].v == 1
                and .[0].kind == "report"
                and .[1].id == "header"
                and .[-1].id == "metrics"
                and all(.[1:][]; has("id") and has("title") and has("data"))' \
            >/dev/null || {
            echo "verify: failctl report --format json schema gate failed for $system" >&2
            exit 1
        }
    done

    # Trace gate: the deterministic NDJSON trace export must be valid,
    # carry the known record kinds, and be byte-identical at any thread
    # count.
    trace1="$tmpdir/trace1.ndjson"
    trace4="$tmpdir/trace4.ndjson"
    cargo run -q --release -p failctl -- \
        report --model tsubame2 --seed 42 --threads 1 --trace "$trace1" \
        >/dev/null
    cargo run -q --release -p failctl -- \
        report --model tsubame2 --seed 42 --threads 4 --trace "$trace4" \
        >/dev/null
    cmp -s "$trace1" "$trace4" || {
        echo "verify: trace export differs between --threads 1 and --threads 4" >&2
        exit 1
    }
    jq -e -s 'length > 0
        and all(.[]; has("kind") and has("id") and has("stage"))
        and all(.[]; .kind == "counter" or .kind == "hist" or .kind == "span")
        and any(.[]; .kind == "counter" and .stage == "sim.records_generated")
        and any(.[]; .kind == "span" and .stage == "index.logview")' \
        "$trace4" >/dev/null || {
        echo "verify: failctl report --trace NDJSON schema gate failed" >&2
        exit 1
    }
else
    echo "verify: jq not found, skipping the JSON schema gate" >&2
fi

# API docs must build warning-free.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "verify: build + tests + clippy + structure gate + loadbench gate + streaming gate + parse gate + filter gate + index gate + server gate + gzip smoke + json gate + trace gate + docs all green"

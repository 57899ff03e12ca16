#!/usr/bin/env sh
# Full verification gate: release build, the whole test suite, and a
# warning-free clippy pass over every target. Run from the repo root.
set -eu

cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings

# Structure gate: one fleet index, one watch state, one ingest path, and
# no stub dependencies. `vendor/` holds only the offline subsets of real
# dependencies; the retired second index, its shims, the snapshot
# delegation, the index trait and its `&FailureLog` shims' `_index`
# twins, the watch state's second copy of the view's figures
# (quantile sketch, trailing-window buffers), the second JSON row parser,
# the second fingerprint type, the engine's private re-read of each log,
# the drift-threshold builder, the user-set parse chunk size (CLI flag,
# wire field, request fields, read-buffer capacities), the user-set watch
# ingest batch (`WatchConfig::ingest_chunk`), failbench's second file
# loader, the view's third order statistic (the sorted and arrival-order
# repair ends, whose one reader, the availability sweep, sorts its own),
# CDFs that copy the view's sorted arrays, the view's record structs
# (it stores its records as columns, and a snapshot load moves them in
# without assembling a record), the view's second copies of its
# category column and tallies (a per-category row partition, stored
# rack counts, a stored GPU-involvement total), and the second copy of
# the view's fields that the snapshot codec once read and wrote
# (`ViewParts` and its `into_parts`/`from_parts` hand-off), and the
# watch's second reader and row loop (`InputReader`, `StreamEvent`,
# `next_event`) stay gone.
extra_vendor=$(ls vendor | grep -vxE 'rand|proptest' || true)
if [ -n "$extra_vendor" ]; then
    echo "verify: unexpected vendored crates: $extra_vendor (allowed: rand, proptest)" >&2
    exit 1
fi
if grep -rnE 'struct LogView|fn from_view|impl FleetIndex for Snapshot' crates/; then
    echo "verify: a duplicate fleet index, a from_view shim, or the snapshot delegation reappeared under crates/" >&2
    exit 1
fi
if grep -rnE 'trait FleetIndex|dyn FleetIndex' crates/; then
    echo "verify: the single-impl FleetIndex trait reappeared under crates/; analyses take &StreamView" >&2
    exit 1
fi
if grep -rnwE 'class_mtbf_hours_index|gpu_involvement_mtbf_hours_index|per_category_tbf_index|per_category_ttr_index|domain_ttr_spread_index|rare_but_costly_index|node_lifetimes_index|simulate_staffing_index|required_crews_index' crates/; then
    echo "verify: a retired <name>_index twin reappeared under crates/; the view form carries the plain name" >&2
    exit 1
fi
if grep -rnE 'QuantileSketch|sketch_capacity|struct WindowMean|struct RateWindow' crates/; then
    echo "verify: a quantile sketch or trailing-window buffer reappeared beside the watch state's view under crates/" >&2
    exit 1
fi
if grep -rnE 'struct JsonCursor|struct TailProgress|fn fingerprint\(|type FilePrint|DriftConfigBuilder' crates/; then
    echo "verify: a second row parser, fingerprint type, engine fingerprint read, or drift-threshold builder reappeared under crates/" >&2
    exit 1
fi
if grep -rnE 'parse_chunk|parse-chunk|open_with_capacity|fn get_path|file_cells|ingest_chunk' crates/; then
    echo "verify: a user-set parse chunk size, a read-buffer capacity, a user-set watch ingest batch, or failbench's second file loader reappeared under crates/; every query parses at faillog::DEFAULT_CHUNK_BYTES and watch checks drift at refresh ticks" >&2
    exit 1
fi
if grep -rnE 'recoveries_sorted|fn recoveries\(|Ecdf::from_sorted\(.*\.to_vec\(\)' crates/; then
    echo "verify: the view's repair-end arrays or a copying Ecdf::from_sorted reappeared under crates/; the availability sweep sorts its own ends and CDFs borrow the view's arrays" >&2
    exit 1
fi
if grep -nE '^[[:space:]]*(pub )?records: Vec<FailureRecord>,' crates/core/src/streamview.rs \
    || sed -n '/pub fn decode_body</,/^    }$/p' crates/core/src/streamview/snapshot.rs | grep -nF 'FailureRecord::new('; then
    echo "verify: StreamView holds FailureRecords again, or decode_body assembles them; the view keeps its records as columns" >&2
    exit 1
fi
if grep -nE 'category_indices|^[[:space:]]*(pub )?(rack_counts|gpu_involvements):' \
    crates/core/src/streamview.rs crates/core/src/streamview/snapshot.rs; then
    echo "verify: StreamView or its snapshot codec holds a category partition, rack counts or a GPU-involvement total again; the view counts categories and sums the rack and involvement totals from its tallies" >&2
    exit 1
fi
# One body codec: the view encodes and decodes its own .fsidx body
# (crates/core/src/streamview/snapshot.rs); no mirror of its fields
# carries the body between the view and failindex.
if grep -rnE 'ViewParts|into_parts|from_parts' crates/; then
    echo "verify: ViewParts, into_parts or from_parts reappeared under crates/; StreamView::encode_body and decode_body read and write the view's fields directly" >&2
    exit 1
fi
# One row loop: the watch tailer hands runs of complete lines to
# faillog::parse_body_rows, as the cold parse and the snapshot tail
# extension do, and sources deliver records in chunks only. The second
# reader (InputReader), the per-record event type (StreamEvent) and its
# pull method (next_event) must not come back.
if grep -rnE 'InputReader|StreamEvent|fn next_event' crates/; then
    echo "verify: InputReader, StreamEvent or fn next_event reappeared under crates/; LogTailer parses with parse_body_rows and EventSource pulls with next_chunk" >&2
    exit 1
fi
if grep -nF 'std::fs::read' crates/api/src/engine.rs; then
    echo "verify: QueryEngine reads a log file itself instead of through faillog::LogFile" >&2
    exit 1
fi
# One rule vouches for an unchanged log: failindex::vouch, the racy-clean
# stat rule, serves warm opens and faild's render-cache hits alike. The
# inotify change feed it replaced must not come back.
if [ -e crates/server/src/notify.rs ] \
    || grep -rniE 'ChangeFeed|with_feed|inotify' crates/; then
    echo "verify: a file-change feed is back (notify.rs, ChangeFeed, with_feed or inotify under crates/); faild's hits use failindex::vouch" >&2
    exit 1
fi
# Unsafe containment: the raw-syscall epoll bindings in
# crates/server/src/sys.rs are the only unsafe code under crates/. An
# `allow(unsafe_code)` or an unsafe block, fn, impl or trait anywhere
# else fails the gate.
if grep -rnE 'allow\(unsafe_code\)|unsafe[[:space:]]*(\{|fn\b|impl\b|trait\b|extern\b)' \
    crates/ --include='*.rs' | grep -v '^crates/server/src/sys\.rs:'; then
    echo "verify: unsafe code outside crates/server/src/sys.rs" >&2
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

# Detection-delay gate: the records from the injected onset (record 448
# of the 897-record Tsubame 2.5 replay, `--inject-mttr 5`) to the first
# MTTR-regression alert, for seeds 1, 2 and 3. Drift checks run at
# refresh ticks, so each reading is exact: all three fire at the first
# tick after the onset, 52 records in. The ceiling is the highest
# reading plus one refresh period (100 records): an alert that waits
# past the second tick after the onset fails. The clean-replay quiet
# check in stream_equivalence above keeps a lower reading from being
# bought with false alarms.
delay_ceiling=152
delays=$(sed -n 's/.*"detection_delay_records": \[\([0-9, ]*\)\].*/\1/p' BENCH_stream.json)
if [ -z "$delays" ]; then
    echo "verify: detection_delay_records missing from BENCH_stream.json" >&2
    exit 1
fi
for delay in $(echo "$delays" | tr ',' ' '); do
    if [ "$delay" -gt "$delay_ceiling" ]; then
        echo "verify: MTTR regression detected $delay records after onset > ceiling $delay_ceiling" >&2
        exit 1
    fi
done

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

# Watch summary gate: one refresh at the end of the ~110k-record scaled
# year (ingest 100 records, settle the TTR run, render all four
# sections on the calling thread). With the MTTR read from the view's
# exact running sum and only the TTR run merged, the 2-core bench host
# read ~18,100-19,600 refreshes/second when quiet and 12,773-14,271
# under load from other tenants (the parent, which re-summed every TTR
# and also merged the recovery run, read 7,799/s quiet and ~5,700/s
# loaded); fail below half the quiet reading. The element-wise merge
# with per-summary month re-sums of two rounds before measured
# ~2,100-2,700/s.
summary_floor=9000
summary_rate=$(sed -n 's/.*"scaled_summaries_per_second": \([0-9]*\).*/\1/p' \
    BENCH_stream.json)
if [ -z "$summary_rate" ]; then
    echo "verify: scaled_summaries_per_second missing from BENCH_stream.json" >&2
    exit 1
fi
if [ "$summary_rate" -lt "$summary_floor" ]; then
    echo "verify: watch summary refresh rate regressed: $summary_rate/s < floor $summary_floor/s" >&2
    exit 1
fi

# Watch summary scaling gate: the cost of one refresh at 1M records
# over its cost at 1k (BENCH_stream `scaling`). Nothing a refresh does
# grows with the stream any more: the p50/p90 are read by rank over the
# settled TTRs in O(log n), a tick sorts only its own records into the
# run's tail, and the tail's merge into the run comes once per eighth
# of growth. The code that merged the whole TTR run before every
# refresh read 8.7-14.3x (and the MTTR re-sum before it 23-33x); this
# one read 0.87-1.56x in five runs on the 2-core bench host. The ceiling
# is the highest reading plus a margin for the ~20 us 1k tier's noise,
# well below where a per-refresh O(n) memmove lands.
summary_ratio_ceiling=4
summary_1k=$(sed -n 's/.*"records": 1000, .*"summary_us": \([0-9.]*\),.*/\1/p' BENCH_stream.json)
summary_1m=$(sed -n 's/.*"records": 1000000, .*"summary_us": \([0-9.]*\),.*/\1/p' BENCH_stream.json)
if [ -z "$summary_1k" ] || [ -z "$summary_1m" ]; then
    echo "verify: the 1k or 1M scaling tier's summary_us is missing from BENCH_stream.json" >&2
    exit 1
fi
if ! awk -v big="$summary_1m" -v small="$summary_1k" -v ceiling="$summary_ratio_ceiling" \
    'BEGIN { exit !(big <= small * ceiling) }'; then
    echo "verify: watch summary cost grows with the stream: 1M $summary_1m us vs 1k $summary_1k us > ${summary_ratio_ceiling}x" >&2
    exit 1
fi

# Watch replay tick gate: the mean refresh (ingest 100 records, settle
# the TTR run, render the four sections) over every tick of the
# ~110k-record scaled year, from its first record, so each settle into
# the tail and each tail merge into the run is counted. Five runs on
# the 2-core bench host read 23.3-37.3 us (the code before it, which
# merged pushes eagerly and the whole TTR run every tick, read 41-62 us
# on the same host); the ceiling is the highest reading plus ~35%.
tick_ceiling=50
tick_us=$(sed -n 's/.*"scaled_replay_tick_us": \([0-9.]*\).*/\1/p' BENCH_stream.json)
if [ -z "$tick_us" ]; then
    echo "verify: scaled_replay_tick_us missing from BENCH_stream.json" >&2
    exit 1
fi
if ! awk -v tick="$tick_us" -v ceiling="$tick_ceiling" 'BEGIN { exit !(tick <= ceiling) }'; then
    echo "verify: watch replay tick regressed: $tick_us us > ceiling $tick_ceiling us" >&2
    exit 1
fi

# Parse-path gate: the chunked parallel parser on the ~110k-record
# scaled year. With the split-free row scanner and window lengths fixed
# at construction, five readings on the 2-core bench host were
# 3.29M-3.97M records/second (the parent's five: 2.23M-2.86M); the
# floor is 80% of the lowest. `repro bench` also verifies the parallel
# parse is byte-identical to serial before reporting a rate, and exits
# non-zero if its traced warm snapshot open records any parse.
cargo run -q -p failbench --bin repro --release -- bench
parse_floor=2630000
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

# Gzip ingest gate: inflate, UTF-8 check and the same chunked parse of
# the gzip copy of that year sustain ~2.44M records/second on the 2-core
# bench host with the table-driven decoder; fail below half that. The
# bit-serial decoder it replaced measured ~1.4M there, so this floor
# catches gross regressions (a per-byte reallocation, a quadratic copy)
# rather than that return; loadbench's `faillog.inflate_ms` tracks it.
# Five readings with the split-free row scanner were 1.27M-1.53M (the
# parent's five: 1.21M-1.33M); 80% of the lowest is below this floor,
# so it stays.
gzip_floor=1220000
gzip_rate=$(sed -n 's/.*"gzip_records_per_second":\([0-9]*\).*/\1/p' \
    BENCH_pipeline.json)
if [ -z "$gzip_rate" ]; then
    echo "verify: gzip_records_per_second missing from BENCH_pipeline.json" >&2
    exit 1
fi
if [ "$gzip_rate" -lt "$gzip_floor" ]; then
    echo "verify: gzip ingest throughput regressed: $gzip_rate rec/s < floor $gzip_floor" >&2
    exit 1
fi

# Inflate gate: inflate alone on that gzip copy, in MB of output per
# second (`repro bench` exits non-zero if the output is not the log
# text). With the packed-entry fast loop, ten readings on the 2-core
# bench host were 225-324 MB/s (median ~280); slow spells there slow
# every figure ~1.4x, so the floor is about half the median. It catches
# a decoder at half speed or worse (a per-symbol resize, a byte-serial
# copy), not a return to the previous decoder, which reads ~155-180.
inflate_floor=150
inflate_rate=$(sed -n 's/.*"inflate_mb_per_second":\([0-9]*\).*/\1/p' \
    BENCH_pipeline.json)
if [ -z "$inflate_rate" ]; then
    echo "verify: inflate_mb_per_second missing from BENCH_pipeline.json" >&2
    exit 1
fi
if [ "$inflate_rate" -lt "$inflate_floor" ]; then
    echo "verify: inflate throughput regressed: $inflate_rate MB/s < floor $inflate_floor" >&2
    exit 1
fi

# Filter-pushdown gate, part 1: throughput. Parsing with a predicate
# pushed down must stay within 15% of plain parse throughput (the
# predicate is a few branches per record; anything slower means an
# allocating or re-scanning eval sneaked into the record path).
# `repro bench` already verifies the filtered parse is byte-identical
# to the post-hoc filter of an unfiltered parse before reporting it.
# Reports do not take this path: they parse unfiltered and filter the
# loaded view (`StreamView::filtered`), which the view-filter gate below
# guards. The parser pushdown is a library entry point that loadbench
# still calls, and this bound guards only it.
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

# View-filter gates: the filter every `--where` report and compare runs,
# `StreamView::filtered_by` over the decoded bench-year snapshot, which
# evaluates the predicate by column and gathers the kept rows. `repro
# bench` checks each kept view before reporting its rate: the first
# tier's (`category == gpu && ttr > 24`) equals the bulk view of the
# pushdown parse; the window tier's (`time >= 2000 && time < 2720`) and
# the node tier's (`node ~ "rack1"`) equal the closure filter over
# `CompiledPredicate::matches`. Ten readings on the 2-core bench host,
# in view records per second: 53.0M-96.6M (median 72.9M), window
# 102M-174M (median 145M), node 40.5M-68.7M (median 54.3M). Slow spells
# on the host halve the rates, so each floor is under half its median.
# The per-row closure filter read ~26M, ~29M and ~8M on the same three,
# so a rescan per row, a record refilled per row or a path formatted
# per row lands below its floor.
check_view_filter_rate() {
    local key=$1 floor=$2 rate
    rate=$(sed -n "s/.*\"$key\":\([0-9]*\).*/\1/p" BENCH_pipeline.json)
    if [ -z "$rate" ]; then
        echo "verify: $key missing from BENCH_pipeline.json" >&2
        exit 1
    fi
    if [ "$rate" -lt "$floor" ]; then
        echo "verify: view filter throughput regressed: $key $rate rec/s < floor $floor" >&2
        exit 1
    fi
}
check_view_filter_rate view_filter_records_per_second 35000000
check_view_filter_rate view_filter_window_records_per_second 70000000
check_view_filter_rate view_filter_node_records_per_second 22000000

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
# same ~110k-record year, with the allocator settled (see
# `settle_allocator` in repro.rs). The bench itself already exits
# non-zero if the warm report bytes diverge from cold, or if its traced
# warm open records any `parse.*` counter or `log.parse` span — the
# exact check for an accidental return to re-parsing, which this ratio
# (it would land at 1x) only approximates. The ratio falls whenever the
# cold path gets faster: with the split-free scanner and bulk build,
# five readings on the 2-core bench host were 2.10x-2.40x (the parent's
# five, alternated with them: 3.04x-4.11x) while warm_load_seconds read
# 19.7-22.8 ms (parent 19.2-22.4 ms); the floor is 80% of the lowest.
# The bench snapshot records no file identity, so this block never
# takes the stat-vouched path.
index_floor=168
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

# Snapshot gate, part 1b: the same block times a whole warm report
# (open the snapshot, render the nine analysis sections) against a cold
# one (parse, index, render) on that year. With every section reading
# the view's indexes instead of re-sorting, five runs on the 2-core
# bench host read 2.33x-2.77x; the floor is 80% of the lowest. The
# cold path renders the same sections, so it shares most of the saving;
# the parent's re-sorting render read 1.81x-2.48x on the same host.
# With the columnar v3 body (streamed decode, records assembled from
# columns), five readings read 2.48x-3.06x (the parent's, alternated
# with them: 2.45x-3.01x): 80% of 2.48x. With the faster cold path,
# five readings read 1.90x-2.26x (the parent's: 2.52x-3.44x) while
# warm_report_seconds read 27.7-29.1 ms (parent 25.3-38.5 ms): 80% of
# 1.90x.
index_report_floor=152
index_report_speedup=$(sed -n 's/.*"index_report_speedup_x100":\([0-9]*\).*/\1/p' \
    BENCH_pipeline.json)
if [ -z "$index_report_speedup" ]; then
    echo "verify: index_report_speedup_x100 missing from BENCH_pipeline.json" >&2
    exit 1
fi
if [ "$index_report_speedup" -lt "$index_report_floor" ]; then
    echo "verify: warm report speedup regressed: ${index_report_speedup}/100x < floor ${index_report_floor}/100x" >&2
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
# Then append the last row re-encoded as an NDJSON row (the form `watch`
# accepts) with the next id: the cold parse reads it and the warm path
# extends the snapshot over it, so both reports must still agree.
tail -n 1 "$idx_dir/idx.fslog" | awk -F, '{
    gpus = $6; gsub(/\|/, ",", gpus)
    locus = ($7 == "") ? "null" : "\"" $7 "\""
    printf "{\"id\":%d,\"time_h\":%s,\"ttr_h\":%s,\"category\":\"%s\",\"node\":%s,\"gpus\":[%s],\"locus\":%s}\n",
        $1 + 1, $2, $3, $4, $5, gpus, locus
}' >> "$idx_dir/idx.fslog"
for mode in off auto; do
    cargo run -q --release -p failctl -- report "$idx_dir/idx.fslog" \
        --sections "$idx_sections" --index "$mode" > "$idx_dir/ndjson-$mode.txt"
done
cmp -s "$idx_dir/ndjson-off.txt" "$idx_dir/ndjson-auto.txt" || {
    echo "verify: after an appended NDJSON row, --index auto differs from --index off" >&2
    exit 1
}
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
# Filtered queries derive from the one held view: three distinct
# `--where` reports of tsubame2 (full reports, `metrics` included) must
# each equal the direct CLI report, and evicting the log afterwards must
# drop exactly one parsed view. The query after the eviction parses the
# whole log again, so the log is dirty for the shutdown check below.
where_n=0
for expr in 'category == gpu' 'ttr > 24' 'slot == 1 || month in (6, 7, 8)'; do
    where_n=$((where_n + 1))
    cargo run -q --release -p failctl -- report "$srv_dir/tsubame2.fslog" \
        --where "$expr" > "$srv_dir/where$where_n.cli.txt"
    cargo run -q --release -p failctl -- query --socket "$srv_dir/faild.sock" \
        report "$srv_dir/tsubame2.fslog" --where "$expr" > "$srv_dir/where$where_n.txt"
    cmp -s "$srv_dir/where$where_n.cli.txt" "$srv_dir/where$where_n.txt" || {
        echo "verify: faild --where '$expr' differs from the direct CLI report" >&2
        exit 1
    }
done
cargo run -q --release -p failctl -- query --socket "$srv_dir/faild.sock" \
    evict "$srv_dir/tsubame2.fslog" > "$srv_dir/evict-where.txt"
grep -q "(logs=1 " "$srv_dir/evict-where.txt" || {
    echo "verify: faild held more than one parsed view of tsubame2.fslog after $where_n filters" >&2
    cat "$srv_dir/evict-where.txt" >&2
    exit 1
}
cargo run -q --release -p failctl -- query --socket "$srv_dir/faild.sock" \
    report "$srv_dir/tsubame2.fslog" --where "$expr" > "$srv_dir/where-again.txt"
cmp -s "$srv_dir/where$where_n.cli.txt" "$srv_dir/where-again.txt" || {
    echo "verify: post-evict faild --where query differs from the direct CLI report" >&2
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

# Gzip smoke at size: a 30-day bench-scale log (562 KB, more than two of
# the decoder's 256 KiB output windows) written plain and as .fslog.gz,
# and a GNU `gzip -9 -n` copy of it, a full-size dynamic-Huffman stream.
# Each cold report must be byte-identical to the plain one.
gzl_dir=$(mktemp -d)
for gzl_log in month.fslog month.fslog.gz; do
    cargo run -q --release -p failctl -- scenario --nodes 1408 --gpus 4 \
        --mtbf 0.08 --days 30 --seed 42 --out "$gzl_dir/$gzl_log" >/dev/null
done
cargo run -q --release -p failctl -- report "$gzl_dir/month.fslog" --index off \
    > "$gzl_dir/plain.txt"
cargo run -q --release -p failctl -- report "$gzl_dir/month.fslog.gz" --index off \
    > "$gzl_dir/packed.txt"
cmp -s "$gzl_dir/plain.txt" "$gzl_dir/packed.txt" || {
    echo "verify: 30-day gzip report differs from the plain-text report" >&2
    exit 1
}
if command -v gzip >/dev/null 2>&1; then
    gzip -9 -n -c "$gzl_dir/month.fslog" > "$gzl_dir/gnu.fslog.gz"
    cargo run -q --release -p failctl -- report "$gzl_dir/gnu.fslog.gz" --index off \
        > "$gzl_dir/gnu.txt"
    cmp -s "$gzl_dir/plain.txt" "$gzl_dir/gnu.txt" || {
        echo "verify: GNU gzip -9 report differs from the plain-text report" >&2
        exit 1
    }
else
    echo "verify: gzip is not on PATH; skipped the GNU gzip copy in the gzip smoke"
fi
rm -rf "$gzl_dir"

# Retired-knob smoke: every query parses at one chunk size, so
# `--parse-chunk` is an unknown flag (exit 1) on each command that used
# to take it; watch checks drift at refresh ticks whatever its ingest
# batching, so its `--chunk` is unknown too. The wire twins are covered
# by tests/tests/query_server.rs.
knob_dir=$(mktemp -d)
cargo run -q --release -p failctl -- \
    generate --system tsubame2 --out "$knob_dir/k.fslog" >/dev/null
for cmd in "report $knob_dir/k.fslog" "compare $knob_dir/k.fslog $knob_dir/k.fslog" \
    "index build $knob_dir/k.fslog" "watch $knob_dir/k.fslog"; do
    knob_status=0
    # Word splitting of $cmd is intended: it holds the sub-command and
    # its arguments, and mktemp paths carry no spaces.
    # shellcheck disable=SC2086
    cargo run -q --release -p failctl -- $cmd --parse-chunk 64 \
        >/dev/null 2>"$knob_dir/err" || knob_status=$?
    if [ "$knob_status" -ne 1 ] || ! grep -q 'unknown flag --parse-chunk' "$knob_dir/err"; then
        echo "verify: failctl $cmd did not reject --parse-chunk as an unknown flag" >&2
        exit 1
    fi
done
knob_status=0
cargo run -q --release -p failctl -- watch "$knob_dir/k.fslog" --chunk 64 \
    >/dev/null 2>"$knob_dir/err" || knob_status=$?
if [ "$knob_status" -ne 1 ] || ! grep -q 'unknown flag --chunk' "$knob_dir/err"; then
    echo "verify: failctl watch did not reject --chunk as an unknown flag" >&2
    exit 1
fi
rm -rf "$knob_dir"

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

echo "verify: build + tests + clippy + structure gate + unsafe gate + loadbench gate + streaming gate + summary gate + summary scaling gate + replay tick gate + parse gate + gzip gate + inflate gate + filter gate + view filter gate + index gate + server gate + gzip smoke + retired-knob smoke + json gate + trace gate + docs all green"

#!/bin/sh
# Tier-1 CI gate: build the tree in the default (RelWithDebInfo)
# configuration and under address+undefined sanitizers, and run the
# full ctest suite in both; then race-check the concurrent engine
# suites under ThreadSanitizer. Any failure fails the script.
#
# Usage: tools/ci_check.sh [jobs]
set -eu

jobs="${1:-$(nproc 2>/dev/null || echo 4)}"
root="$(cd "$(dirname "$0")/.." && pwd)"

run_config() {
    build_dir="$1"
    shift
    echo "=== configure $build_dir ($*)" >&2
    cmake -B "$build_dir" -S "$root" "$@"
    echo "=== build $build_dir" >&2
    cmake --build "$build_dir" -j "$jobs"
    echo "=== test $build_dir" >&2
    ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"
}

# ThreadSanitizer race check of the suites that exercise concurrency:
# every measuring engine construction runs the batched parallel golden
# timing pass, the injection cycles fan out over the thread pool with
# cross-delay sweep reuse shared between workers, and the query
# scheduler aggregates store hits without its compute lock while
# another client computes; the campaign's delivery path (process and
# net dispatch threads) writes the store.
tsan_check() {
    build_dir="$1"
    echo "=== configure $build_dir (ThreadSanitizer)" >&2
    cmake -B "$build_dir" -S "$root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DDAVF_SANITIZE=thread
    echo "=== build $build_dir" >&2
    cmake --build "$build_dir" -j "$jobs"
    echo "=== test $build_dir" >&2
    ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" \
        -R '^(Engine|TimedSim|ThreadPool|SweepReuse|SchedulerFixture|Aggregation|ShardLink|Fleet|IndexStoreT|SchedulerIsolation|NetCampaign)\.'
}

# Process-isolation smoke: run a tiny campaign with worker processes
# and the deterministic crash hook armed. The supervisor must retry,
# bisect the crash down to one injection, quarantine it, and still
# complete with exit 0 — under sanitizers, so the worker protocol and
# the bisection path get ASan/UBSan coverage on every CI run. Only the
# parent measures the clock period: every worker, respawns included,
# must print a "golden: ... (adopted)" line.
# RLIMIT_AS (--worker-mem-mb) is incompatible with ASan's shadow
# mappings and is deliberately not passed here.
isolation_smoke() {
    build_dir="$1"
    smoke_dir="$build_dir/isolation-smoke"
    rm -rf "$smoke_dir"
    mkdir -p "$smoke_dir"
    echo "=== isolation smoke $build_dir" >&2
    DAVF_TEST_FAULT='crash@ALU:*:3' \
        "$build_dir/tools/davf_run" \
        --benchmark popcount --structure ALU --delays 0.5:0.9:0.4 \
        --cycles 2 --wires 12 --isolate process --workers 2 \
        --max-retries 1 --backoff-ms 1 --max-failure-rate 0.5 \
        --quarantine-dir "$smoke_dir/quarantine" \
        --shard-metrics-csv "$smoke_dir/shards.csv" \
        --checkpoint "$smoke_dir/journal.ckpt" \
        --csv "$smoke_dir/davf.csv" 2> "$smoke_dir/run.log"
    measured=$(grep -c '^golden: .*(measured)$' "$smoke_dir/run.log" || true)
    adopted=$(grep -c '^golden: .*(adopted)$' "$smoke_dir/run.log" || true)
    if [ "$measured" -ne 1 ] || [ "$adopted" -lt 2 ]; then
        echo "isolation smoke: workers did not adopt the period" \
            "(measured=$measured adopted=$adopted)" >&2
        cat "$smoke_dir/run.log" >&2
        exit 1
    fi
    quarantined=$(ls "$smoke_dir/quarantine"/*.qr 2>/dev/null | wc -l)
    if [ "$quarantined" -eq 0 ]; then
        echo "isolation smoke: no quarantine records written" >&2
        exit 1
    fi
    for f in shards.csv journal.ckpt davf.csv; do
        if [ ! -s "$smoke_dir/$f" ]; then
            echo "isolation smoke: missing $f" >&2
            exit 1
        fi
    done
    echo "=== isolation smoke ok ($quarantined quarantined," \
        "$adopted worker start(s) adopted the period)" >&2
}

# Engine smoke: the engine's routes must be invisible in the output —
# run the same cheap sweep by default, with --timeout-ms 600000 (each
# continuation alone beside the golden lane, under a deadline that
# never fires; it still filters the sweep's STA arrival tables) and
# with worker processes, and require every `davf_run --json` report
# byte-identical (docs/PERFORMANCE.md). Workers run each shard outside
# a delay sweep, so isolated.json is the per-call STA reference that
# checks the sweep's arrival tables at every interior delay. Runs under
# both configs so the lane batching and the width-1 route get ASan/UBSan
# coverage on every CI run.
engine_smoke() {
    build_dir="$1"
    smoke_dir="$build_dir/engine-smoke"
    rm -rf "$smoke_dir"
    mkdir -p "$smoke_dir"
    echo "=== engine smoke $build_dir" >&2
    sweep() {
        "$build_dir/tools/davf_run" --json \
            --benchmark popcount --structure ALU --delays 0.1:0.9:0.1 \
            --cycles 3 --wires 200 --savf --flops 16 "$@"
    }
    sweep > "$smoke_dir/default.json"
    sweep --timeout-ms 600000 > "$smoke_dir/timeout.json"
    sweep --isolate process --workers 2 > "$smoke_dir/isolated.json"
    for f in timeout.json isolated.json; do
        if ! cmp -s "$smoke_dir/default.json" "$smoke_dir/$f"; then
            echo "engine smoke: $f differs from default.json" >&2
            exit 1
        fi
    done
    echo "=== engine smoke ok (reports bit-identical)" >&2
}

# Observability smoke: metrics and tracing must never perturb results
# (docs/OBSERVABILITY.md). Run the same cheap sweep with and without
# --metrics-json/--trace-json, require the two --json reports
# byte-identical, and require every emitted JSON artifact — report,
# metric snapshot, Chrome trace — to pass the strict davf_jsonlint
# validator. Runs under both configs so the striped counters and span
# buffers get ASan/UBSan coverage on every CI run.
obs_smoke() {
    build_dir="$1"
    smoke_dir="$build_dir/obs-smoke"
    rm -rf "$smoke_dir"
    mkdir -p "$smoke_dir"
    echo "=== obs smoke $build_dir" >&2
    sweep() {
        "$build_dir/tools/davf_run" --json \
            --benchmark popcount --structure ALU --delays 0.5:0.9:0.2 \
            --cycles 3 --wires 24 "$@"
    }
    sweep > "$smoke_dir/plain.json"
    sweep --metrics-json "$smoke_dir/metrics.json" \
        --trace-json "$smoke_dir/trace.json" \
        > "$smoke_dir/observed.json"
    if ! cmp -s "$smoke_dir/plain.json" "$smoke_dir/observed.json"; then
        echo "obs smoke: report differs with metrics enabled" >&2
        exit 1
    fi
    "$build_dir/tools/davf_jsonlint" \
        "$smoke_dir/plain.json" "$smoke_dir/metrics.json" \
        "$smoke_dir/trace.json"
    if ! grep -q '"engine.cycles_computed":[1-9]' \
        "$smoke_dir/metrics.json"; then
        echo "obs smoke: no engine phase counters in snapshot:" >&2
        cat "$smoke_dir/metrics.json" >&2
        exit 1
    fi
    if ! grep -q '"name":"engine.cycle"' "$smoke_dir/trace.json"; then
        echo "obs smoke: no engine.cycle spans in trace" >&2
        exit 1
    fi
    echo "=== obs smoke ok (report bit-identical, JSON valid)" >&2
}

# Serve smoke: start davf_serve with a persistent store, issue the
# same query twice and then from two concurrent clients, and require
# (a) every reply byte-identical, (b) the reply byte-identical to a
# cold `davf_run --json` of the same query (the cache-identity
# guarantee, docs/SERVICE.md), and (c) a non-zero store hit count in
# the server stats. Runs under both configs so the socket/framing and
# scheduler paths get sanitizer coverage.
serve_smoke() {
    build_dir="$1"
    smoke_dir="$build_dir/serve-smoke"
    rm -rf "$smoke_dir"
    mkdir -p "$smoke_dir"
    echo "=== serve smoke $build_dir" >&2
    sock="$smoke_dir/davf.sock"

    "$build_dir/tools/davf_serve" --socket "$sock" \
        --store-dir "$smoke_dir/store" --benchmark popcount \
        2> "$smoke_dir/serve.log" &
    serve_pid=$!
    trap 'kill "$serve_pid" 2>/dev/null || true' EXIT

    # The server binds the socket only once the workspace is built.
    waited=0
    while [ ! -S "$sock" ]; do
        if ! kill -0 "$serve_pid" 2>/dev/null; then
            echo "serve smoke: server died during startup" >&2
            cat "$smoke_dir/serve.log" >&2
            exit 1
        fi
        if [ "$waited" -ge 300 ]; then
            echo "serve smoke: server never bound $sock" >&2
            exit 1
        fi
        sleep 1
        waited=$((waited + 1))
    done

    query() {
        "$build_dir/tools/davf_client" --socket "$sock" \
            --benchmark popcount --structure ALU --delays 0.5:0.9:0.4 \
            --cycles 2 --wires 12 2>> "$smoke_dir/client.log"
    }
    query > "$smoke_dir/cold.json"
    query > "$smoke_dir/warm.json"
    query > "$smoke_dir/conc1.json" &
    pid1=$!
    query > "$smoke_dir/conc2.json" &
    pid2=$!
    wait "$pid1" "$pid2"

    "$build_dir/tools/davf_run" --json \
        --benchmark popcount --structure ALU --delays 0.5:0.9:0.4 \
        --cycles 2 --wires 12 > "$smoke_dir/run.json"

    for f in warm.json conc1.json conc2.json run.json; do
        if ! cmp -s "$smoke_dir/cold.json" "$smoke_dir/$f"; then
            echo "serve smoke: $f differs from cold.json" >&2
            exit 1
        fi
    done

    # --raw: the sed below keys on the unformatted "key":value shape.
    "$build_dir/tools/davf_client" --socket "$sock" --stats --raw \
        > "$smoke_dir/stats.json" 2>> "$smoke_dir/client.log"
    hits=$(sed -n 's/.*"shard_hits":\([0-9]*\).*/\1/p' \
        "$smoke_dir/stats.json")
    if [ -z "$hits" ] || [ "$hits" -eq 0 ]; then
        echo "serve smoke: expected store hits, stats were:" >&2
        cat "$smoke_dir/stats.json" >&2
        exit 1
    fi

    kill "$serve_pid" 2>/dev/null || true
    wait "$serve_pid" 2>/dev/null || true
    trap - EXIT
    echo "=== serve smoke ok ($hits shard hits)" >&2
}

# Crash soak: the durability model against the real binaries
# (docs/ROBUSTNESS.md). Phase 1 kill -9s davf_run at every registered
# crash point (env-armed via DAVF_TEST_CRASHPOINT, iterating the list
# `davf_store crashpoints` prints), resumes from whatever the kill
# left behind, and requires the final --json report byte-identical to
# an undisturbed run — plus targeted torn/enospc cases on the journal
# write. Phase 2 tears a result-store record inside a crashing
# davf_serve, requires `davf_store fsck` to find and repair the
# damage, and requires a restarted server to converge on the exact
# cold-run reply. Runs under both configs so the recovery paths get
# ASan/UBSan coverage on every CI run.
crash_soak() {
    build_dir="$1"
    soak_dir="$build_dir/crash-soak"
    rm -rf "$soak_dir"
    mkdir -p "$soak_dir"
    echo "=== crash soak $build_dir" >&2

    sweep() {
        "$build_dir/tools/davf_run" --json \
            --benchmark popcount --structure ALU --delays 0.5:0.9:0.4 \
            --cycles 2 --wires 12 "$@"
    }
    sweep --checkpoint "$soak_dir/ref.ckpt" > "$soak_dir/ref.json"

    # One kill per registered point (hit 2, so at least one journal
    # write can land first when the point sits on the write path),
    # plus the two damage shapes on the journal write itself.
    specs=$("$build_dir/tools/davf_store" crashpoints \
            | sed 's/$/:2=kill/')
    specs="$specs atomic_file.write=torn atomic_file.write:2=enospc"
    for spec in $specs; do
        tag=$(echo "$spec" | tr ':=' '__')
        wdir="$soak_dir/$tag"
        mkdir -p "$wdir"
        rc=0
        env DAVF_TEST_CRASHPOINT="$spec" \
            "$build_dir/tools/davf_run" --json \
            --benchmark popcount --structure ALU \
            --delays 0.5:0.9:0.4 --cycles 2 --wires 12 \
            --checkpoint "$wdir/ck.ckpt" \
            > "$wdir/out.json" 2> "$wdir/run.log" || rc=$?
        if [ "$rc" -ne 0 ]; then
            # The point fired fatally: recover in a fresh process,
            # resuming if the crash left a (possibly torn) journal.
            resume_args=""
            [ -f "$wdir/ck.ckpt" ] \
                && resume_args="--resume $wdir/ck.ckpt"
            # shellcheck disable=SC2086
            sweep $resume_args --checkpoint "$wdir/ck.ckpt" \
                > "$wdir/out.json" 2>> "$wdir/run.log"
        fi
        if ! cmp -s "$soak_dir/ref.json" "$wdir/out.json"; then
            echo "crash soak: $spec: report differs after recovery" >&2
            cat "$wdir/run.log" >&2
            exit 1
        fi
        if ! cmp -s "$soak_dir/ref.ckpt" "$wdir/ck.ckpt"; then
            echo "crash soak: $spec: journal differs after recovery" >&2
            exit 1
        fi
    done

    # Phase 2: a torn store record. The armed server appends a
    # truncated frame to the segment file and dies mid-campaign; fsck
    # must classify the torn tail and repair must quarantine it, and a
    # clean restart must serve the exact cold reply. (The index tier's
    # full kill matrix lives in store_index_smoke and
    # tests/test_store.cc.)
    store_dir="$soak_dir/store"
    sock="$soak_dir/davf.sock"
    env DAVF_TEST_CRASHPOINT='index.append=torn' \
        "$build_dir/tools/davf_serve" --socket "$sock" \
        --store-dir "$store_dir" --benchmark popcount \
        2> "$soak_dir/serve-armed.log" &
    serve_pid=$!
    trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
    waited=0
    while [ ! -S "$sock" ]; do
        if ! kill -0 "$serve_pid" 2>/dev/null; then
            echo "crash soak: armed server died during startup" >&2
            cat "$soak_dir/serve-armed.log" >&2
            exit 1
        fi
        if [ "$waited" -ge 300 ]; then
            echo "crash soak: armed server never bound $sock" >&2
            exit 1
        fi
        sleep 1
        waited=$((waited + 1))
    done
    "$build_dir/tools/davf_client" --socket "$sock" \
        --benchmark popcount --structure ALU --delays 0.5:0.9:0.4 \
        --cycles 2 --wires 12 \
        > /dev/null 2>> "$soak_dir/serve-armed.log" || true
    wait "$serve_pid" 2>/dev/null || true
    trap - EXIT

    if "$build_dir/tools/davf_store" fsck "$store_dir" \
        2> "$soak_dir/fsck.log"; then
        echo "crash soak: fsck missed the torn record:" >&2
        cat "$soak_dir/fsck.log" >&2
        exit 1
    fi
    "$build_dir/tools/davf_store" fsck --repair "$store_dir" \
        2>> "$soak_dir/fsck.log"
    "$build_dir/tools/davf_store" fsck "$store_dir" \
        2>> "$soak_dir/fsck.log"
    if [ ! -d "$store_dir/quarantine" ]; then
        echo "crash soak: repair left no quarantine evidence" >&2
        exit 1
    fi

    rm -f "$sock"
    "$build_dir/tools/davf_serve" --socket "$sock" \
        --store-dir "$store_dir" --benchmark popcount \
        2> "$soak_dir/serve.log" &
    serve_pid=$!
    trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
    waited=0
    while [ ! -S "$sock" ]; do
        if ! kill -0 "$serve_pid" 2>/dev/null; then
            echo "crash soak: server died during restart" >&2
            cat "$soak_dir/serve.log" >&2
            exit 1
        fi
        if [ "$waited" -ge 300 ]; then
            echo "crash soak: restarted server never bound $sock" >&2
            exit 1
        fi
        sleep 1
        waited=$((waited + 1))
    done
    "$build_dir/tools/davf_client" --socket "$sock" \
        --benchmark popcount --structure ALU --delays 0.5:0.9:0.4 \
        --cycles 2 --wires 12 > "$soak_dir/served.json" \
        2>> "$soak_dir/serve.log"
    kill "$serve_pid" 2>/dev/null || true
    wait "$serve_pid" 2>/dev/null || true
    trap - EXIT
    if ! cmp -s "$soak_dir/ref.json" "$soak_dir/served.json"; then
        echo "crash soak: served reply differs from cold run" >&2
        exit 1
    fi
    echo "=== crash soak ok ($(echo "$specs" | wc -w) specs," \
        "store repaired)" >&2
}

# Store index smoke: the result store end to end against the real
# binaries (docs/SERVICE.md, docs/ROBUSTNESS.md). A served query seeds
# the store and its warm reply is captured; then every way the store
# can change shape — a kill -9 mid-append followed by fsck repair, and
# a full compact — must leave a restarted server producing that exact
# reply, byte for byte, and no stage may write an index file beside
# the segment file. (Legacy-directory migration at open is covered end
# to end by SchedulerFixture.LegacyDirectoryIsMigratedAtOpen.) Runs
# under both configs so the segment file, the open-time scan, and the
# recovery paths get ASan/UBSan coverage on every CI run.
store_index_smoke() {
    build_dir="$1"
    smoke_dir="$build_dir/store-index-smoke"
    rm -rf "$smoke_dir"
    mkdir -p "$smoke_dir"
    echo "=== store index smoke $build_dir" >&2
    store_dir="$smoke_dir/store"
    sock="$smoke_dir/davf.sock"

    start_server() {
        rm -f "$sock"
        "$build_dir/tools/davf_serve" --socket "$sock" \
            --store-dir "$store_dir" --benchmark popcount "$@" \
            2>> "$smoke_dir/serve.log" &
        serve_pid=$!
        trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
        waited=0
        while [ ! -S "$sock" ]; do
            if ! kill -0 "$serve_pid" 2>/dev/null; then
                echo "store index smoke: server died during startup" >&2
                cat "$smoke_dir/serve.log" >&2
                exit 1
            fi
            if [ "$waited" -ge 300 ]; then
                echo "store index smoke: server never bound $sock" >&2
                exit 1
            fi
            sleep 1
            waited=$((waited + 1))
        done
    }
    stop_server() {
        kill "$serve_pid" 2>/dev/null || true
        wait "$serve_pid" 2>/dev/null || true
        trap - EXIT
    }
    query() {
        "$build_dir/tools/davf_client" --socket "$sock" \
            --benchmark popcount --structure ALU --delays 0.5:0.9:0.4 \
            --cycles 2 --wires 12 2>> "$smoke_dir/client.log"
    }
    expect_reply() {
        start_server
        query > "$smoke_dir/$1"
        stop_server
        if ! cmp -s "$smoke_dir/warm.json" "$smoke_dir/$1"; then
            echo "store index smoke: $1 differs from the warm reply" >&2
            exit 1
        fi
    }

    # Seed the store through a real served query and capture the warm
    # (store-served) reply every later stage must reproduce.
    start_server
    query > /dev/null
    query > "$smoke_dir/warm.json"
    stop_server
    no_index_file() {
        if [ -e "$store_dir/index.davf" ]; then
            echo "store index smoke: $1 wrote an index.davf" >&2
            exit 1
        fi
    }
    no_index_file "the server"

    # Ballast so the armed populate below has a store to append to.
    "$build_dir/tools/davf_store" populate "$store_dir" 120 \
        2>> "$smoke_dir/store.log"

    # kill -9 mid-append: an armed bulk insert publishes half a frame
    # and dies (`torn`; a plain `kill` fires before the write and
    # leaves nothing to find). Plain fsck must refuse the torn tail,
    # repair must converge, and the repaired store must still serve
    # the exact reply.
    rc=0
    env DAVF_TEST_CRASHPOINT='index.append:200=torn' \
        "$build_dir/tools/davf_store" populate "$store_dir" 400 \
        2>> "$smoke_dir/store.log" || rc=$?
    if [ "$rc" -eq 0 ]; then
        echo "store index smoke: armed populate survived its append" >&2
        exit 1
    fi
    if "$build_dir/tools/davf_store" fsck "$store_dir" \
        2> "$smoke_dir/fsck.log"; then
        echo "store index smoke: fsck missed the torn tail:" >&2
        cat "$smoke_dir/fsck.log" >&2
        exit 1
    fi
    "$build_dir/tools/davf_store" fsck --repair "$store_dir" \
        2>> "$smoke_dir/fsck.log"
    if ! "$build_dir/tools/davf_store" fsck "$store_dir" \
        2>> "$smoke_dir/fsck.log"; then
        echo "store index smoke: store still dirty after repair:" >&2
        cat "$smoke_dir/fsck.log" >&2
        exit 1
    fi
    expect_reply warm-repaired.json

    "$build_dir/tools/davf_store" compact "$store_dir" \
        2>> "$smoke_dir/store.log"
    expect_reply warm-compacted.json
    no_index_file "repair or compact"
    echo "=== store index smoke ok (replies byte-identical across" \
        "append-kill repair, compact)" >&2
}

# Parse smoke: a garbage numeric flag value is a usage error (exit 2),
# never a silently different run (util/parse.hh), and so are an
# unknown benchmark and a flag the chosen mode would ignore. A rejected
# populate must not create its store.
parse_smoke() {
    build_dir="$1"
    smoke_dir="$build_dir/parse-smoke"
    rm -rf "$smoke_dir"
    mkdir -p "$smoke_dir"
    echo "=== parse smoke $build_dir" >&2
    expect_usage() {
        rc=0
        "$@" > /dev/null 2>> "$smoke_dir/parse.log" || rc=$?
        if [ "$rc" -ne 2 ]; then
            echo "parse smoke: '$*' exited $rc, not 2" >&2
            exit 1
        fi
    }
    store="$build_dir/tools/davf_store"
    trace="$build_dir/tools/davf_trace"
    expect_usage "$store" populate "$smoke_dir/store" 12x
    expect_usage "$store" populate "$smoke_dir/store" abc
    expect_usage "$store" populate --payload-bytes 8q "$smoke_dir/store" 3
    if [ -e "$smoke_dir/store" ]; then
        echo "parse smoke: a rejected populate created its store" >&2
        exit 1
    fi
    run="$build_dir/tools/davf_run"
    serve="$build_dir/tools/davf_serve"
    client="$build_dir/tools/davf_client"
    # An unknown benchmark is a usage error in every front end, before
    # any workspace is built or socket bound.
    expect_usage "$run" --benchmark nosuch
    expect_usage "$serve" --socket "$smoke_dir/s.sock" --benchmark nosuch
    expect_usage "$client" --socket "$smoke_dir/s.sock" --benchmark nosuch
    expect_usage "$build_dir/tools/davf_worker" --connect 127.0.0.1:1 \
        --benchmark nosuch
    if [ -e "$smoke_dir/s.sock" ]; then
        echo "parse smoke: a rejected davf_serve bound its socket" >&2
        exit 1
    fi
    # --store-dir is a cache tier in every isolation mode: a process-
    # isolated run over a thread run's store prints the same bytes and
    # dispatches no shard.
    tiny="--benchmark popcount --structure ALU --delays 0.5:0.9:0.4
        --cycles 2 --wires 12"
    # shellcheck disable=SC2086
    "$run" --json $tiny --store-dir "$smoke_dir/run-store" \
        > "$smoke_dir/store-thread.json" 2>> "$smoke_dir/parse.log"
    # shellcheck disable=SC2086
    "$run" --json $tiny --isolate process \
        --store-dir "$smoke_dir/run-store" \
        --metrics-json "$smoke_dir/store-process.metrics" \
        > "$smoke_dir/store-process.json" 2>> "$smoke_dir/parse.log"
    dispatches=$(sed -n 's/.*"supervisor\.dispatches":\([0-9]*\).*/\1/p' \
        "$smoke_dir/store-process.metrics")
    if ! cmp -s "$smoke_dir/store-thread.json" \
        "$smoke_dir/store-process.json" || [ "${dispatches:-0}" -ne 0 ]; then
        echo "parse smoke: a warm --store-dir process run differs or" \
            "dispatched $dispatches shard(s)" >&2
        exit 1
    fi
    # The hidden worker period: one positive, finite hexfloat, in
    # worker mode only, never beside --sta-period.
    for tool in "$run" "$serve"; do
        for bad in 1155.7 0x0p+0 -0x1p+10 inf nan 0x1p+99999; do
            expect_usage "$tool" --worker-shard --worker-period "$bad"
        done
        expect_usage "$tool" --worker-shard --sta-period \
            --worker-period 0x1p+10
    done
    expect_usage "$run" --worker-period 0x1p+10
    expect_usage "$trace" --d abc --cycle 4x
    expect_usage "$trace" --cycle 4x
    expect_usage "$trace" --d 1.5
    expect_usage "$trace" --wire -1
    expect_usage "$trace" --tail 9z
    echo "=== parse smoke ok" >&2
}

# kill -9 the node process $2 as soon as the journal $3 of the net
# campaign $run_pid holds a completed cycle: the kill lands
# mid-campaign, while the stalled node pins it, so the coordinator must
# retire the node it lost. $1 labels the errors.
kill_node_mid_campaign() {
    label="$1"
    node_pid="$2"
    journal="$3"
    waited=0
    while ! grep -q '^cycle ' "$journal" 2>/dev/null; do
        if ! kill -0 "$run_pid" 2>/dev/null; then
            echo "$label: coordinator exited before its first cycle" >&2
            exit 1
        fi
        if [ "$waited" -ge 6000 ]; then
            echo "$label: no cycle completed" >&2
            exit 1
        fi
        sleep 0.05
        waited=$((waited + 1))
    done
    kill -9 "$node_pid" 2>/dev/null || true
}

# Attribution smoke: per-instruction root-cause attribution end to end
# against the real binaries (docs/ANALYSIS.md). The attributed report
# must be byte-identical across thread counts, worker processes, a
# three-node net fleet with one node kill -9'd mid-campaign, and a
# journal resume; stripping the attribution arrays must reproduce the
# attribution-off report exactly (the walks ride outside the counted
# simulations); and every JSON artifact must pass davf_jsonlint. Runs
# under both configs so the lockstep tables and divergence walks get
# ASan/UBSan coverage on every CI run.
attr_smoke() {
    build_dir="$1"
    smoke_dir="$build_dir/attr-smoke"
    rm -rf "$smoke_dir"
    mkdir -p "$smoke_dir"
    echo "=== attr smoke $build_dir" >&2

    sweep_args="--benchmark popcount --structure ALU
        --delays 0.5:0.9:0.4 --cycles 4 --wires 24"

    # Reference: attributed, in-process, single-threaded.
    # shellcheck disable=SC2086
    "$build_dir/tools/davf_run" --json --threads 1 --attribution \
        $sweep_args --checkpoint "$smoke_dir/ref.ckpt" \
        > "$smoke_dir/ref.json"
    "$build_dir/tools/davf_jsonlint" "$smoke_dir/ref.json"
    if ! grep -q '"attribution":\[{"pc":' "$smoke_dir/ref.json"; then
        echo "attr smoke: no attribution tables in the report" >&2
        exit 1
    fi

    # Thread-count and process-isolation identity.
    # shellcheck disable=SC2086
    "$build_dir/tools/davf_run" --json --threads 4 --attribution \
        $sweep_args > "$smoke_dir/threads4.json"
    # shellcheck disable=SC2086
    "$build_dir/tools/davf_run" --json --attribution \
        --isolate process --workers 2 $sweep_args \
        > "$smoke_dir/isolated.json"

    # Resuming the completed journal recomputes nothing and must
    # reproduce both the report and the journal byte-for-byte.
    cp "$smoke_dir/ref.ckpt" "$smoke_dir/resume.ckpt"
    # shellcheck disable=SC2086
    "$build_dir/tools/davf_run" --json --attribution $sweep_args \
        --checkpoint "$smoke_dir/resume.ckpt" \
        --resume "$smoke_dir/resume.ckpt" > "$smoke_dir/resumed.json"
    if ! cmp -s "$smoke_dir/ref.ckpt" "$smoke_dir/resume.ckpt"; then
        echo "attr smoke: journal differs after resume" >&2
        exit 1
    fi

    # Net: three loopback workers, one kill -9'd mid-campaign (the
    # net_smoke choreography: a stalled node pins the campaign long
    # enough for the kill to land mid-run).
    port_file="$smoke_dir/port"
    # shellcheck disable=SC2086
    "$build_dir/tools/davf_run" --json --attribution $sweep_args \
        --isolate net --listen 127.0.0.1:0 --port-file "$port_file" \
        --min-nodes 3 --node-wait-ms 60000 \
        --shard-timeout-ms 2000 --backoff-ms 1 \
        --checkpoint "$smoke_dir/net.ckpt" \
        > "$smoke_dir/net.json" 2> "$smoke_dir/run.log" &
    run_pid=$!
    trap 'kill "$run_pid" $w1 $w2 $w3 2>/dev/null || true' EXIT
    waited=0
    while [ ! -s "$port_file" ]; do
        if ! kill -0 "$run_pid" 2>/dev/null; then
            echo "attr smoke: coordinator died during startup" >&2
            cat "$smoke_dir/run.log" >&2
            exit 1
        fi
        if [ "$waited" -ge 300 ]; then
            echo "attr smoke: coordinator never wrote $port_file" >&2
            exit 1
        fi
        sleep 1
        waited=$((waited + 1))
    done
    port=$(cat "$port_file")
    # Run in the background only: exec makes the job's pid the node's,
    # so a kill reaches the node, not a shell around it.
    worker() {
        exec env DAVF_TEST_NETFAULT="$2" \
            "$build_dir/tools/davf_worker" \
            --connect "127.0.0.1:$port" --benchmark popcount \
            --node "$1" 2>> "$smoke_dir/workers.log"
    }
    worker w1 '' &
    w1=$!
    worker w2 '' &
    w2=$!
    worker w3 'stall@w3' &
    w3=$!
    waited=0
    while ! grep -q '3 node(s) connected' "$smoke_dir/run.log"; do
        if ! kill -0 "$run_pid" 2>/dev/null; then
            echo "attr smoke: coordinator exited before the fleet" >&2
            cat "$smoke_dir/run.log" "$smoke_dir/workers.log" >&2
            exit 1
        fi
        if [ "$waited" -ge 300 ]; then
            echo "attr smoke: fleet never assembled" >&2
            cat "$smoke_dir/run.log" "$smoke_dir/workers.log" >&2
            exit 1
        fi
        sleep 1
        waited=$((waited + 1))
    done
    kill_node_mid_campaign "attr smoke" "$w1" "$smoke_dir/net.ckpt"
    if ! wait "$run_pid"; then
        echo "attr smoke: net coordinator run failed" >&2
        cat "$smoke_dir/run.log" "$smoke_dir/workers.log" >&2
        exit 1
    fi
    trap - EXIT
    if ! grep -q "net: node 'w1' lost" "$smoke_dir/run.log"; then
        echo "attr smoke: the killed node w1 was never retired:" >&2
        cat "$smoke_dir/run.log" >&2
        exit 1
    fi

    for f in threads4.json isolated.json resumed.json net.json; do
        if ! cmp -s "$smoke_dir/ref.json" "$smoke_dir/$f"; then
            echo "attr smoke: $f differs from ref.json" >&2
            exit 1
        fi
    done

    # Attribution must not perturb anything else: stripping the
    # attribution arrays from the attributed report reproduces the
    # attribution-off report byte for byte.
    # shellcheck disable=SC2086
    "$build_dir/tools/davf_run" --json $sweep_args \
        > "$smoke_dir/plain.json"
    sed 's/,"attribution":\[[^]]*\]//g' "$smoke_dir/ref.json" \
        > "$smoke_dir/stripped.json"
    if ! cmp -s "$smoke_dir/plain.json" "$smoke_dir/stripped.json"; then
        echo "attr smoke: attribution perturbed the base report" >&2
        exit 1
    fi

    # The journal pretty-printer sees the tables.
    "$build_dir/tools/davf_trace" attr \
        --checkpoint "$smoke_dir/ref.ckpt" > "$smoke_dir/trace.txt"
    if ! grep -q 'instruction' "$smoke_dir/trace.txt"; then
        echo "attr smoke: davf_trace attr printed no tables" >&2
        cat "$smoke_dir/trace.txt" >&2
        exit 1
    fi
    echo "=== attr smoke ok (tables bit-identical across threads," \
        "process, net, resume)" >&2
}

# Net smoke: the distributed fabric under fire (docs/DISTRIBUTED.md).
# A coordinator sweep dispatches to three loopback davf_worker nodes;
# one node is armed with a deterministic stall netfault (caught by the
# shard deadline), and one healthy node is kill -9'd mid-campaign. The
# final --json report must still be byte-identical to the same sweep
# computed in-process single-threaded, and the metrics snapshot must
# show the fleet connected, a node lost, and at least one re-dispatch.
# Every node adopts the coordinator's clock period from its welcome:
# each prints a "golden: ... (adopted)" line, none measures.
# Runs under both configs so the socket transport, coordinator, and
# worker serve loop get ASan/UBSan coverage on every CI run. The second
# argument is the shard deadline in ms: it must sit well above the
# config's heaviest healthy shard (ASan shards take up to ~2.4 s), so
# only the stall and the kill retire nodes; w2, neither stalled nor
# killed, must never be lost.
net_smoke() {
    build_dir="$1"
    shard_timeout_ms="$2"
    smoke_dir="$build_dir/net-smoke"
    rm -rf "$smoke_dir"
    mkdir -p "$smoke_dir"
    echo "=== net smoke $build_dir" >&2

    sweep_args="--benchmark popcount --structure ALU
        --delays 0.5:0.9:0.4 --cycles 4 --wires 24"

    # Reference: the identical sweep, in-process, single-threaded.
    # shellcheck disable=SC2086
    "$build_dir/tools/davf_run" --json --threads 1 $sweep_args \
        > "$smoke_dir/ref.json"

    port_file="$smoke_dir/port"
    # shellcheck disable=SC2086
    "$build_dir/tools/davf_run" --json $sweep_args \
        --isolate net --listen 127.0.0.1:0 --port-file "$port_file" \
        --min-nodes 3 --node-wait-ms 60000 \
        --shard-timeout-ms "$shard_timeout_ms" --backoff-ms 1 \
        --store-dir "$smoke_dir/store" \
        --metrics-json "$smoke_dir/metrics.json" \
        --checkpoint "$smoke_dir/net.ckpt" \
        > "$smoke_dir/net.json" 2> "$smoke_dir/run.log" &
    run_pid=$!
    trap 'kill "$run_pid" $w1 $w2 $w3 2>/dev/null || true' EXIT

    waited=0
    while [ ! -s "$port_file" ]; do
        if ! kill -0 "$run_pid" 2>/dev/null; then
            echo "net smoke: coordinator died during startup" >&2
            cat "$smoke_dir/run.log" >&2
            exit 1
        fi
        if [ "$waited" -ge 300 ]; then
            echo "net smoke: coordinator never wrote $port_file" >&2
            exit 1
        fi
        sleep 1
        waited=$((waited + 1))
    done
    port=$(cat "$port_file")

    # Run in the background only: exec makes the job's pid the node's,
    # so a kill reaches the node, not a shell around it.
    worker() {
        exec env DAVF_TEST_NETFAULT="$2" \
            "$build_dir/tools/davf_worker" \
            --connect "127.0.0.1:$port" --benchmark popcount \
            --node "$1" 2>> "$smoke_dir/workers.log"
    }
    worker w1 '' &
    w1=$!
    worker w2 '' &
    w2=$!
    worker w3 'stall@w3' &
    w3=$!

    # Once the whole fleet has joined (and each node has settled its
    # period), the campaign is running and the stalled node pins it for
    # at least the shard deadline; w1 dies at the first completed
    # cycle, genuinely mid-campaign.
    waited=0
    while ! grep -q '3 node(s) connected' "$smoke_dir/run.log" \
        || [ "$(grep -c 'golden: ' "$smoke_dir/workers.log")" -lt 3 ]; do
        if ! kill -0 "$run_pid" 2>/dev/null; then
            echo "net smoke: coordinator exited before the fleet" >&2
            cat "$smoke_dir/run.log" "$smoke_dir/workers.log" >&2
            exit 1
        fi
        if [ "$waited" -ge 300 ]; then
            echo "net smoke: fleet never assembled" >&2
            cat "$smoke_dir/run.log" "$smoke_dir/workers.log" >&2
            exit 1
        fi
        sleep 1
        waited=$((waited + 1))
    done
    kill_node_mid_campaign "net smoke" "$w1" "$smoke_dir/net.ckpt"

    if ! wait "$run_pid"; then
        echo "net smoke: coordinator run failed" >&2
        cat "$smoke_dir/run.log" "$smoke_dir/workers.log" >&2
        exit 1
    fi
    trap - EXIT

    if ! cmp -s "$smoke_dir/ref.json" "$smoke_dir/net.json"; then
        echo "net smoke: net.json differs from in-process ref.json" >&2
        exit 1
    fi
    adopted=$(grep -c 'golden: .*(adopted)$' "$smoke_dir/workers.log" \
        || true)
    if [ "$adopted" -ne 3 ] \
        || grep -q 'golden: .*(measured)$' "$smoke_dir/workers.log"; then
        echo "net smoke: not every node adopted the period" \
            "(adopted=$adopted):" >&2
        cat "$smoke_dir/workers.log" >&2
        exit 1
    fi
    if ! grep -q "net: node 'w1' lost" "$smoke_dir/run.log"; then
        echo "net smoke: the killed node w1 was never retired:" >&2
        cat "$smoke_dir/run.log" >&2
        exit 1
    fi
    if grep -q "net: node 'w2' lost" "$smoke_dir/run.log"; then
        echo "net smoke: healthy node w2 was retired (shard deadline" \
            "$shard_timeout_ms ms too tight?):" >&2
        cat "$smoke_dir/run.log" >&2
        exit 1
    fi
    connected=$(sed -n 's/.*"net\.nodes_connected":\([0-9]*\).*/\1/p' \
        "$smoke_dir/metrics.json")
    lost=$(sed -n 's/.*"net\.nodes_lost":\([0-9]*\).*/\1/p' \
        "$smoke_dir/metrics.json")
    redispatched=$(sed -n 's/.*"net\.redispatches":\([0-9]*\).*/\1/p' \
        "$smoke_dir/metrics.json")
    if [ "${connected:-0}" -ne 3 ] || [ "${lost:-0}" -eq 0 ] \
        || [ "${redispatched:-0}" -eq 0 ]; then
        echo "net smoke: unexpected fleet metrics" \
            "(connected=$connected lost=$lost" \
            "redispatches=$redispatched):" >&2
        cat "$smoke_dir/metrics.json" >&2
        exit 1
    fi

    # Warm rerun with no nodes over the store the fleet run filled: the
    # campaign's cache tier serves every shard from disk, so nothing is
    # dispatched or computed locally and the report is unchanged.
    # shellcheck disable=SC2086
    if ! "$build_dir/tools/davf_run" --json $sweep_args \
        --isolate net --listen 127.0.0.1:0 --min-nodes 0 \
        --store-dir "$smoke_dir/store" \
        --metrics-json "$smoke_dir/warm-metrics.json" \
        > "$smoke_dir/warm.json" 2> "$smoke_dir/warm.log"; then
        echo "net smoke: warm store run failed" >&2
        cat "$smoke_dir/warm.log" >&2
        exit 1
    fi
    if ! cmp -s "$smoke_dir/ref.json" "$smoke_dir/warm.json"; then
        echo "net smoke: warm.json differs from in-process ref.json" >&2
        exit 1
    fi
    disk_hits=$(sed -n 's/.*"store\.disk_hits":\([0-9]*\).*/\1/p' \
        "$smoke_dir/warm-metrics.json")
    fallbacks=$(sed -n 's/.*"net\.local_fallbacks":\([0-9]*\).*/\1/p' \
        "$smoke_dir/warm-metrics.json")
    if [ "${disk_hits:-0}" -eq 0 ] || [ "${fallbacks:-1}" -ne 0 ]; then
        echo "net smoke: warm run did not come from the store" \
            "(disk_hits=$disk_hits local_fallbacks=$fallbacks):" >&2
        cat "$smoke_dir/warm-metrics.json" >&2
        exit 1
    fi
    echo "=== net smoke ok (report bit-identical, 3 node(s) adopted" \
        "the period, $lost node(s) lost, $redispatched re-dispatch(es)," \
        "$disk_hits warm store hit(s))" >&2
}

run_config "$root/build-ci-release" -DCMAKE_BUILD_TYPE=Release
isolation_smoke "$root/build-ci-release"
engine_smoke "$root/build-ci-release"
obs_smoke "$root/build-ci-release"
serve_smoke "$root/build-ci-release"
store_index_smoke "$root/build-ci-release"
parse_smoke "$root/build-ci-release"
net_smoke "$root/build-ci-release" 2000
attr_smoke "$root/build-ci-release"
crash_soak "$root/build-ci-release"
run_config "$root/build-ci-asan" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDAVF_SANITIZE=address,undefined
isolation_smoke "$root/build-ci-asan"
engine_smoke "$root/build-ci-asan"
obs_smoke "$root/build-ci-asan"
serve_smoke "$root/build-ci-asan"
store_index_smoke "$root/build-ci-asan"
parse_smoke "$root/build-ci-asan"
net_smoke "$root/build-ci-asan" 8000
attr_smoke "$root/build-ci-asan"
crash_soak "$root/build-ci-asan"
tsan_check "$root/build-ci-tsan"

echo "=== ci_check: all configurations passed" >&2

#!/usr/bin/env bash
# Repository-wide quality gate: formatting, lints (warnings promoted to
# errors), and the full test suite. Run before pushing.
#
#   scripts/check.sh            # everything
#   scripts/check.sh fmt        # one stage: fmt | clippy | size | test | stress | trace | prefetch | policy | report | cluster | chaos | perf | serve
#   scripts/check.sh simdiff [REV]  # sim_epoch entries bit-identical to REV
#                                   # (default HEAD); not part of `all`
set -euo pipefail
cd "$(dirname "$0")/.."

stage="${1:-all}"

run_fmt() {
    echo "==> cargo fmt --all --check"
    cargo fmt --all --check
}

# The TransferEngine refactor's structural gate: the middleware must stay
# a thin read-path facade. If it creeps back toward the pre-refactor
# monolith, move the new code into `transfer.rs` (copy/staging machinery)
# or `builder.rs` (assembly) instead of raising the limit.
run_size() {
    local limit=900
    local file="crates/monarch-core/src/middleware.rs"
    local lines
    lines=$(wc -l < "$file")
    echo "==> middleware facade size: $lines lines (limit $limit)"
    if [ "$lines" -gt "$limit" ]; then
        echo "size gate: $file has $lines lines > $limit" >&2
        exit 1
    fi
}

run_clippy() {
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
}

run_test() {
    echo "==> cargo test --workspace -q"
    cargo test --workspace -q
}

# Concurrency soak: the stress target races readers against placement,
# LRU eviction and faults. Loop it on the default test threads and stop at
# the first red run, so a rare interleaving cannot hide behind one pass.
run_stress() {
    local runs=50
    echo "==> cargo test -p monarch-core --test stress -q, ${runs}x"
    cargo test -p monarch-core --test stress -q --no-run
    local log
    log="$(mktemp)"
    for i in $(seq 1 "$runs"); do
        if ! cargo test -p monarch-core --test stress -q > "$log" 2>&1; then
            cat "$log" >&2
            rm -f "$log"
            echo "stress: run $i of $runs failed" >&2
            exit 1
        fi
    done
    rm -f "$log"
    echo "stress: $runs/$runs runs passed"
}

# Tracing end to end: the focused test targets, then a CLI smoke run that
# generates a dataset, records one traced window, and checks the export
# is valid JSON with flow-linked copy spans.
run_trace() {
    echo "==> cargo test -p monarch-core --test trace -q"
    cargo test -p monarch-core --test trace -q
    echo "==> cargo test -p monarch --test trace_e2e -q"
    cargo test -p monarch --test trace_e2e -q

    echo "==> monarch trace smoke run"
    local tmp
    tmp="$(mktemp -d)"
    # shellcheck disable=SC2064  # expand $tmp now, not at exit
    trap "rm -rf '$tmp'" EXIT
    cargo run -q -p monarch-cli -- gen-dataset \
        --dir "$tmp/pfs" --bytes $((8 << 20)) --samples 256 --seed 7
    cat > "$tmp/cfg.json" <<EOF
{
  "tiers": [
    {"name": "ssd", "backend": {"posix": {"path": "$tmp/ssd"}}, "capacity": 1073741824},
    {"name": "pfs", "backend": {"posix": {"path": "$tmp/pfs"}}}
  ],
  "pool_threads": 4
}
EOF
    cargo run -q -p monarch-cli -- trace \
        --config "$tmp/cfg.json" --data "$tmp/pfs" --out "$tmp/trace.json" \
        --duration 1
    python3 -m json.tool "$tmp/trace.json" > /dev/null
    for needle in '"driver_pread"' '"copy_exec"' '"ph":"s"' '"ph":"f"'; do
        grep -q "$needle" "$tmp/trace.json" \
            || { echo "trace smoke: missing $needle" >&2; exit 1; }
    done
    rm -rf "$tmp"
    trap - EXIT
}

# Clairvoyant prefetch end to end: the focused test targets (window
# invariants + cross-driver acceptance), then a CLI smoke run where a
# full-plan `run --prefetch` epoch must report staged copies serving
# reads.
run_prefetch() {
    echo "==> cargo test -p monarch-core --test proptests -q"
    cargo test -p monarch-core --test proptests -q
    echo "==> cargo test -p monarch --test prefetch_e2e -q"
    cargo test -p monarch --test prefetch_e2e -q

    echo "==> monarch run --prefetch smoke"
    local tmp
    tmp="$(mktemp -d)"
    # shellcheck disable=SC2064  # expand $tmp now, not at exit
    trap "rm -rf '$tmp'" EXIT
    cargo run -q -p monarch-cli -- gen-dataset \
        --dir "$tmp/pfs" --bytes $((8 << 20)) --samples 256 --seed 7
    cat > "$tmp/cfg.json" <<EOF
{
  "tiers": [
    {"name": "ssd", "backend": {"posix": {"path": "$tmp/ssd"}}, "capacity": 1073741824},
    {"name": "pfs", "backend": {"posix": {"path": "$tmp/pfs"}}}
  ],
  "pool_threads": 4
}
EOF
    cargo run -q -p monarch-cli -- run \
        --config "$tmp/cfg.json" --data "$tmp/pfs" --epochs 2 --prefetch 64 \
        | tee "$tmp/run.out"
    # Epoch 1 must stage copies; some epoch must record plan hits (on a
    # tiny local-FS dataset readers can outrun epoch-1 staging — the
    # promoted copies then serve epoch 2's planned reads).
    grep -Eq 'prefetch: [1-9][0-9]* staged' "$tmp/run.out" \
        || { echo "prefetch smoke: nothing staged" >&2; exit 1; }
    grep -Eq ' [1-9][0-9]* hits,' "$tmp/run.out" \
        || { echo "prefetch smoke: no planned read was served locally" >&2; exit 1; }
    rm -rf "$tmp"
    trap - EXIT
}

# Policy framework end to end: the composed-engine unit targets, the
# eviction-invariant proptests, the sim ablations (LRU eviction must beat
# the paper's no-eviction first-fit on the congested-PFS partial cache,
# clairvoyant must at least match LRU, reuse tracking must win the
# hot-set contention scenario), and a `monarch policy` CLI smoke.
run_policy() {
    echo "==> cargo test -p monarch-core --lib policy targets"
    cargo test -p monarch-core --lib -q policy
    echo "==> cargo test -p monarch-core --test proptests eviction invariants"
    cargo test -p monarch-core --test proptests -q -- \
        eviction_never_selects lru_victim lfu_victim
    echo "==> cargo test -p dlpipe sim policy ablations"
    cargo test -p dlpipe --lib -q -- eviction_policies_beat_first_fit \
        hot_set_contention policy_runs_are_deterministic
    echo "==> monarch policy smoke"
    local tmp
    tmp="$(mktemp -d)"
    # shellcheck disable=SC2064  # expand $tmp now, not at exit
    trap "rm -rf '$tmp'" EXIT
    cargo run -q -p monarch-cli -- gen-dataset \
        --dir "$tmp/pfs" --bytes $((4 << 20)) --samples 128 --seed 7
    cat > "$tmp/cfg.json" <<EOF
{
  "tiers": [
    {"name": "ssd", "backend": {"posix": {"path": "$tmp/ssd"}}, "capacity": 1073741824},
    {"name": "pfs", "backend": {"posix": {"path": "$tmp/pfs"}}}
  ],
  "pool_threads": 4
}
EOF
    cargo run -q -p monarch-cli -- policy \
        --config "$tmp/cfg.json" --policy learned --json > "$tmp/policy.json"
    python3 - "$tmp/policy.json" <<'PY'
import json, sys
p = json.load(open(sys.argv[1]))
assert p["name"] == "admit_all/scored/learned", p
assert p["eviction"] == "scored" and p["scorer"] == "learned", p
assert p["may_evict"] is True, p
PY
    rm -rf "$tmp"
    trap - EXIT
}

# Workload observatory end to end: the focused test target, then a CLI
# smoke run whose JSON report must attribute the measured wall across the
# five buckets (sum within 5%), list hot files, and flag the held-back
# tail as wasted prefetch.
run_report() {
    echo "==> cargo test -p monarch --test report_e2e -q"
    cargo test -p monarch --test report_e2e -q

    echo "==> monarch report smoke run"
    local tmp
    tmp="$(mktemp -d)"
    # shellcheck disable=SC2064  # expand $tmp now, not at exit
    trap "rm -rf '$tmp'" EXIT
    cargo run -q -p monarch-cli -- gen-dataset \
        --dir "$tmp/pfs" --bytes $((8 << 20)) --samples 256 --seed 7
    cat > "$tmp/cfg.json" <<EOF
{
  "tiers": [
    {"name": "ssd", "backend": {"posix": {"path": "$tmp/ssd"}}, "capacity": 1073741824},
    {"name": "pfs", "backend": {"posix": {"path": "$tmp/pfs"}}}
  ],
  "pool_threads": 4
}
EOF
    cargo run -q -p monarch-cli -- report \
        --config "$tmp/cfg.json" --epochs 2 --prefetch 8 --json \
        > "$tmp/report.json"
    python3 - "$tmp/report.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
wall = r["wall_s"]
assert wall > 0, "report smoke: zero wall time"
buckets = r["ledger"]
total = sum(buckets[k] for k in (
    "pfs_bound_s", "copy_lane_saturated_s", "prefetch_lag_s",
    "peer_bound_s", "degraded_fallback_s", "lock_or_queue_s",
    "compute_bound_s"))
assert abs(total - wall) <= 0.05 * wall, \
    f"report smoke: buckets sum {total} vs wall {wall}"
assert r["reads"] > 0, "report smoke: no reads profiled"
assert r["top_hot"], "report smoke: empty hot list"
assert r["wasted_prefetch"], "report smoke: held-back tail not flagged"
PY
    rm -rf "$tmp"
    trap - EXIT
}

# Distributed peer cache end to end: the focused cluster test targets,
# then the cross-crate loopback e2e — two in-process nodes over real TCP,
# peer serving without a second PFS read, graceful PFS degradation when
# the owner's listener dies mid-epoch.
run_cluster() {
    echo "==> cargo test -p monarch-core cluster -q"
    cargo test -p monarch-core cluster -q
    echo "==> cargo test -p monarch --test cluster_e2e -q"
    cargo test -p monarch --test cluster_e2e -q
}

# Tier fault tolerance end to end: the scripted-fault unit targets
# (transient retry, permanent-error quarantine, half-open probe recovery,
# ENOSPC evict-and-retry), the real-tempdir chaos epochs, the
# deterministic sim outage scenario, and a `monarch health` CLI smoke.
run_chaos() {
    echo "==> cargo test -p monarch-core fault/quarantine/probe targets"
    cargo test -p monarch-core --lib -q -- transient_read_fault \
        permanent_read_fault half_open_probe enospc_install \
        flaky_driver quarantined_tier
    echo "==> cargo test -p monarch --test chaos_e2e -q"
    cargo test -p monarch --test chaos_e2e -q
    echo "==> cargo test -p dlpipe sim outage targets"
    cargo test -p dlpipe --lib -q -- ssd_outage no_op_fault_plan
    echo "==> monarch health smoke"
    local tmp
    tmp="$(mktemp -d)"
    # shellcheck disable=SC2064  # expand $tmp now, not at exit
    trap "rm -rf '$tmp'" EXIT
    cargo run -q -p monarch-cli -- gen-dataset \
        --dir "$tmp/pfs" --bytes $((8 << 20)) --samples 256 --seed 7
    cat > "$tmp/cfg.json" <<EOF
{
  "tiers": [
    {"name": "ssd", "backend": {"posix": {"path": "$tmp/ssd"}}, "capacity": 1073741824},
    {"name": "pfs", "backend": {"posix": {"path": "$tmp/pfs"}}}
  ],
  "pool_threads": 4
}
EOF
    cargo run -q -p monarch-cli -- health --config "$tmp/cfg.json" --json \
        > "$tmp/health.json"
    python3 - "$tmp/health.json" <<'PY'
import json, sys
h = json.load(open(sys.argv[1]))
assert h["degraded"] is False, "health smoke: fresh hierarchy degraded"
states = [t["state"] for t in h["tiers"]]
assert states and all(s == "closed" for s in states), \
    f"health smoke: unexpected states {states}"
PY
    rm -rf "$tmp"
    trap - EXIT
}

# Perf regression gate: rerun the committed BENCH_*.json workloads and
# fail on regressions beyond tolerance. sim_epoch is virtual-time and
# deterministic; read_path is wall-clock, so the tool retries and passes
# if any attempt lands within tolerance.
run_perf() {
    echo "==> bench compare --baseline BENCH_sim_epoch.json --tolerance 15%"
    cargo run -q --release -p monarch-bench --bin bench -- compare \
        --baseline BENCH_sim_epoch.json --tolerance 15%
    echo "==> bench compare --baseline BENCH_read_path.json --tolerance 15%"
    cargo run -q --release -p monarch-bench --bin bench -- compare \
        --baseline BENCH_read_path.json --tolerance 15%
}

# Sim determinism A/B: export REV (default HEAD) and the working tree
# (tracked plus untracked, unignored files) into two throwaway source
# trees, build `bench snapshot --name sim_epoch` in each, and fail unless
# every entry's value is bit-identical. The exports are plain `git archive`
# / tar copies, so the repository's own checkout and worktree list are
# never touched. Both builds share one CARGO_TARGET_DIR and keep their
# export paths between runs, so a repeat run rebuilds only what changed.
# Snapshots go to a scratch directory, never over BENCH_sim_epoch.json.
run_simdiff() {
    local rev="$1"
    local dir="target/simdiff"
    local base="$dir/base" work="$dir/work" out="$dir/out"
    git rev-parse --verify -q "$rev^{commit}" > /dev/null \
        || { echo "simdiff: unknown revision $rev" >&2; exit 2; }
    rm -rf "$base" "$work" "$out"
    mkdir -p "$base" "$work" "$out/base" "$out/work"
    git archive "$rev" | tar -x -C "$base"
    git ls-files -z --cached --others --exclude-standard \
        | while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done \
        | tar --null -T - -c | tar -x -C "$work"
    local target
    target="$(pwd)/$dir/target"
    for side in base work; do
        echo "==> bench snapshot --name sim_epoch ($side: $([ "$side" = base ] && echo "$rev" || echo 'working tree'))"
        (cd "$dir/$side" && CARGO_TARGET_DIR="$target" \
            cargo build -q --offline --release -p monarch-bench --bin bench)
        MONARCH_BENCH_DIR="$out/$side" "$target/release/bench" snapshot --name sim_epoch
    done
    python3 - "$out/base/BENCH_sim_epoch.json" "$out/work/BENCH_sim_epoch.json" <<'PY'
import json, sys
base, work = ({e["id"]: e["value"] for e in json.load(open(p))["entries"]} for p in sys.argv[1:])
diffs = [f"  {k}: {base.get(k)!r} -> {work.get(k)!r}"
         for k in sorted(base.keys() | work.keys()) if base.get(k) != work.get(k)]
if diffs:
    sys.exit("simdiff: sim_epoch entries differ from the base revision:\n" + "\n".join(diffs))
print(f"simdiff: {len(base)} sim_epoch entries bit-identical")
PY
}

# Exporter smoke: start `monarch serve` on an ephemeral port against a
# generated dataset, scrape every endpoint, and check the Prometheus text
# carries the gauge/histogram families.
run_serve() {
    echo "==> monarch serve smoke"
    local tmp
    tmp="$(mktemp -d)"
    # shellcheck disable=SC2064  # expand $tmp now, not at exit
    trap "rm -rf '$tmp'; kill \$(cat '$tmp/serve.pid' 2>/dev/null) 2>/dev/null || true" EXIT
    cargo run -q -p monarch-cli -- gen-dataset \
        --dir "$tmp/pfs" --bytes $((8 << 20)) --samples 256 --seed 7
    cat > "$tmp/cfg.json" <<EOF
{
  "tiers": [
    {"name": "ssd", "backend": {"posix": {"path": "$tmp/ssd"}}, "capacity": 1073741824},
    {"name": "pfs", "backend": {"posix": {"path": "$tmp/pfs"}}}
  ],
  "pool_threads": 4
}
EOF
    cargo run -q -p monarch-cli -- serve \
        --config "$tmp/cfg.json" --addr 127.0.0.1:0 --duration 30 \
        > "$tmp/serve.out" &
    echo $! > "$tmp/serve.pid"
    local addr=""
    for _ in $(seq 1 50); do
        addr=$(sed -n 's#^serving .* on http://##p' "$tmp/serve.out")
        [ -n "$addr" ] && break
        sleep 0.2
    done
    [ -n "$addr" ] || { echo "serve smoke: exporter never announced its address" >&2; exit 1; }
    curl -fsS "http://$addr/healthz" | grep -q ok \
        || { echo "serve smoke: /healthz not ok" >&2; exit 1; }
    curl -fsS "http://$addr/metrics" > "$tmp/metrics.out"
    for needle in 'monarch_tier_occupancy_bytes' 'monarch_lane_queued' \
                  'monarch_read_stall_driver_pread_seconds' '# TYPE monarch_tier_reads_total counter'; do
        grep -q "$needle" "$tmp/metrics.out" \
            || { echo "serve smoke: /metrics missing $needle" >&2; exit 1; }
    done
    curl -fsS "http://$addr/snapshot" | python3 -m json.tool > /dev/null \
        || { echo "serve smoke: /snapshot is not valid JSON" >&2; exit 1; }
    curl -fsS "http://$addr/trace" > /dev/null \
        || { echo "serve smoke: /trace failed" >&2; exit 1; }
    kill "$(cat "$tmp/serve.pid")" 2>/dev/null || true
    rm -rf "$tmp"
    trap - EXIT
}

case "$stage" in
    fmt) run_fmt ;;
    clippy) run_clippy ;;
    size) run_size ;;
    test) run_test ;;
    stress) run_stress ;;
    trace) run_trace ;;
    prefetch) run_prefetch ;;
    policy) run_policy ;;
    report) run_report ;;
    cluster) run_cluster ;;
    chaos) run_chaos ;;
    perf) run_perf ;;
    serve) run_serve ;;
    simdiff) run_simdiff "${2:-HEAD}" ;;
    all)
        run_fmt
        run_clippy
        run_size
        run_test
        run_stress
        run_trace
        run_prefetch
        run_policy
        run_report
        run_cluster
        run_chaos
        run_serve
        run_perf
        ;;
    *)
        echo "usage: scripts/check.sh [fmt|clippy|size|test|stress|trace|prefetch|policy|report|cluster|chaos|perf|serve|simdiff [REV]|all]" >&2
        exit 2
        ;;
esac

echo "OK"

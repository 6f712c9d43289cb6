#!/usr/bin/env bash
# Tier-1 verification, runnable fully offline.
#
# The workspace is hermetic by construction: every crate depends only on
# sibling path crates, so `cargo build` never touches a registry. This
# script runs the tier-1 gate (release build + full test suite), checks
# that rustdoc stays warning-free, and guards against anyone reintroducing
# an external dependency into a manifest.
set -euo pipefail
cd "$(dirname "$0")/.."

manifests=(Cargo.toml crates/*/Cargo.toml)

echo "== guard: no external dependencies in any manifest =="
# The workspace root declares every dependency as `{ path = "crates/..." }`
# and crates reference them as `foo.workspace = true`. Anything else — a
# banned crate name, a semver requirement, or a git/registry source —
# would break the offline guarantee.
if grep -nE '\b(rand|proptest|criterion)\b' "${manifests[@]}"; then
    echo "ERROR: a removed external crate is referenced in a manifest" >&2
    exit 1
fi
if grep -nE '=\s*\{[^}]*(git|registry)\s*=' "${manifests[@]}"; then
    echo "ERROR: a git/registry dependency source appears in a manifest" >&2
    exit 1
fi
# Semver requirements (`foo = "1.2"` or `version = "1.2"` inside a dep
# table) — the only legitimate quoted-number lines are the root manifest's
# own package/workspace metadata (version, edition, resolver).
if grep -nE '=\s*("[0-9^~*]|\{[^}]*version\s*=)' "${manifests[@]}" \
    | grep -vE '^Cargo\.toml:[0-9]+:(version|edition|resolver|rust-version)\s*='; then
    echo "ERROR: a version-style (registry) dependency appears in a manifest" >&2
    exit 1
fi
echo "ok: all dependencies are path-only"

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: test suite =="
cargo test -q

echo "== rustdoc: must be warning-free =="
RUSTDOCFLAGS="--deny warnings" cargo doc --no-deps

echo "== trace: golden lifecycle + zero-overhead proofs =="
# Belt-and-braces: these are part of `cargo test` above, but run them by
# name so a filtered or partial test invocation can't silently skip the
# observability gates (event order, cycle deltas, allocation parity).
cargo test -q -p pro-sim --test trace_golden --test trace_overhead --test host_prof
# The profiler-specific allocation gate by name: per-cycle profiling work
# (phase timers, queue sampling) must never touch the heap.
cargo test -q -p pro-sim --test trace_overhead \
    host_profiler_hot_path_allocates_nothing_per_cycle

echo "== trace: Chrome export parses and report cross-checks =="
# `repro trace` writes a JSONL stream + Chrome trace_event JSON into the
# working directory, re-reduces the stream, and prints the max deviation
# between trace-derived and counter-derived stall shares (must be ~0).
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
(cd "$tracedir" && "$OLDPWD/target/release/repro" trace laplace3d pro) \
    | tee "$tracedir/out.txt"
grep -q 'deviation: 0.0e0' "$tracedir/out.txt" || {
    echo "ERROR: trace-report disagrees with simulator counters" >&2
    exit 1
}
grep -q '"traceEvents":\[' "$tracedir"/trace_laplace3d_pro.chrome.json || {
    echo "ERROR: Chrome export missing traceEvents envelope" >&2
    exit 1
}
target/release/repro trace-report "$tracedir/trace_laplace3d_pro.jsonl" \
    | grep -q 'kernel laplace3d' || {
    echo "ERROR: trace-report could not reduce the JSONL stream" >&2
    exit 1
}

echo "== experiment pool: bit-identical across job counts =="
# The determinism contract of the experiment pool (--jobs): results are
# collected in submission order, so any pool width must produce
# byte-for-byte the output of --jobs 1. Any divergence in a counter, a
# stall share, or float formatting fails the gate.
target/release/repro json --quick --jobs 1 > "$tracedir/json_serial.txt"
target/release/repro json --quick --jobs 4 > "$tracedir/json_jobs4.txt"
cmp "$tracedir/json_serial.txt" "$tracedir/json_jobs4.txt" || {
    echo "ERROR: repro json differs between --jobs 1 and --jobs 4" >&2
    exit 1
}
echo "ok: --jobs 4 matches --jobs 1 byte-for-byte"

echo "== repro: unknown flags are rejected =="
# A mistyped or retired flag (e.g. the removed --sm-workers) must fail
# loudly with the usage line, not run the default configuration.
rc=0
target/release/repro json --quick --sm-workers 2 >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "ERROR: repro accepted the unknown flag --sm-workers (exit $rc, want 2)" >&2
    exit 1
fi
echo "ok: repro exits 2 on an unknown flag"

echo "== calendar queue: output byte-identical to the pre-swap golden =="
# The event queues run on pro_core::calq (DESIGN.md §14), which must pop
# in exactly the (time, seq) order of the BinaryHeap it replaced. The
# golden file was captured from the heap build immediately before the
# swap; the pool outputs above must still match it byte for byte (the cmp
# chain: jobs4 == jobs1 == golden).
cmp "$tracedir/json_serial.txt" scripts/golden/repro_quick.json || {
    echo "ERROR: repro json --quick diverged from the pre-calendar-queue golden" >&2
    exit 1
}
echo "ok: calendar-queue build reproduces the heap build's bytes exactly"

echo "== checkpoint/resume: recovered sweep is byte-identical =="
# The snapshot round-trip contract (DESIGN.md §12): a sweep that
# checkpoints every cell, and a --resume pass that recovers a "crashed"
# cell (its .done deleted, forcing a re-run through the recovery ladder),
# must both emit byte-for-byte the straight run's aggregate JSON.
ckptdir="$tracedir/ckpts"
# --heartbeat rides along: it reports on stderr + status.json only, so the
# stdout byte-compare below also proves telemetry never touches results.
target/release/repro json --quick --checkpoint-path "$ckptdir" \
    --checkpoint-every 2000 --heartbeat 1 > "$tracedir/json_ckpt.txt"
cmp "$tracedir/json_serial.txt" "$tracedir/json_ckpt.txt" || {
    echo "ERROR: checkpointed repro json differs from the straight run" >&2
    exit 1
}

echo "== heartbeat: status.json schema =="
# The --heartbeat run above must have left a final status file in the
# checkpoint directory with every schema key present and done:true
# (DESIGN.md §13).
for key in cells_done cells_total current cycles cycles_per_sec \
    elapsed_sec checkpoint_age_sec eta_sec done; do
    grep -q "\"$key\"" "$ckptdir/status.json" || {
        echo "ERROR: status.json is missing key \"$key\"" >&2
        exit 1
    }
done
grep -q '"done":true' "$ckptdir/status.json" || {
    echo "ERROR: status.json not finalized (done != true)" >&2
    exit 1
}
echo "ok: status.json carries the full schema and is finalized"
done_one=$(ls "$ckptdir"/*.done | head -1)
rm "$done_one"
target/release/repro json --quick --resume "$ckptdir" \
    > "$tracedir/json_resume.txt"
cmp "$tracedir/json_serial.txt" "$tracedir/json_resume.txt" || {
    echo "ERROR: resumed repro json differs from the straight run" >&2
    exit 1
}
echo "ok: checkpointed and resumed sweeps match the straight run byte-for-byte"

echo "== delta chain: killed mid-sweep, resumed, byte-identical =="
# The delta-chain crash contract (DESIGN.md §12): a sweep writing
# base+delta chains, SIGKILLed mid-cell (no destructors, no flushing —
# exactly the crash the chain format must survive), then resumed, emits
# byte-for-byte the straight run's aggregate JSON. The wait loop holds the
# kill until at least one delta landed on disk; if the quick sweep outruns
# it and finishes first, the resume merely re-reads finished cells, which
# must still byte-match.
chaindir="$tracedir/chains"
target/release/repro json --quick --checkpoint-path "$chaindir" \
    --checkpoint-every 1000 --checkpoint-delta --checkpoint-keep 8 \
    > "$tracedir/json_chain_killed.txt" &
sweep_pid=$!
for _ in $(seq 1 200); do
    if ls "$chaindir"/*.chain/delta-*.ckpt >/dev/null 2>&1; then break; fi
    kill -0 "$sweep_pid" 2>/dev/null || break
    sleep 0.05
done
kill -9 "$sweep_pid" 2>/dev/null || true
wait "$sweep_pid" 2>/dev/null || true
target/release/repro json --quick --resume "$chaindir" \
    --checkpoint-every 1000 --checkpoint-delta --checkpoint-keep 8 \
    > "$tracedir/json_chain_resume.txt"
cmp "$tracedir/json_serial.txt" "$tracedir/json_chain_resume.txt" || {
    echo "ERROR: delta-chain resumed sweep differs from the straight run" >&2
    exit 1
}
echo "ok: delta-chain sweep survives SIGKILL and resumes byte-for-byte"

echo "== shootout: 9-policy report with host-cost columns =="
# The profiled policy matrix: one row per scheduler in SchedulerKind::ALL,
# each with stall attribution and host/* cost columns, plus a JSON export.
(cd "$tracedir" && "$OLDPWD/target/release/repro" shootout --quick) \
    > "$tracedir/shootout.txt"
for policy in LRR GTO TL OWL PRO PRO-NB PRO-NF PRO-NS PRO-AD; do
    grep -q "^$policy " "$tracedir/shootout.txt" || {
        echo "ERROR: shootout table is missing policy $policy" >&2
        exit 1
    }
done
grep -q '"policies":\[' "$tracedir/shootout.json" || {
    echo "ERROR: shootout.json missing the policies array" >&2
    exit 1
}
echo "ok: shootout covers all 9 policies in text and JSON"

echo "== incremental issue path: reuse counters + bench smoke =="
# The order-reuse telemetry (DESIGN.md §15): every profiled run publishes
# host/issue/* counters, surfaced as the shootout's reuse% column and
# JSON fields. If the reused count ever collapses to zero the incremental
# path has silently degraded to scratch recomputes.
grep -q '"issue_orders_reused"' "$tracedir/shootout.json" || {
    echo "ERROR: shootout.json missing the issue_orders_reused counter" >&2
    exit 1
}
grep -q 'reuse%' "$tracedir/shootout.txt" || {
    echo "ERROR: shootout table lost the reuse% column" >&2
    exit 1
}
# One-iteration smoke of the issue/ bench family: the scratch/incremental
# replay pair must run for every policy (speedup numbers are for
# EXPERIMENTS.md, not gated here — machines vary).
PRO_BENCH_ITERS=1 PRO_BENCH_WARMUP=0 \
    cargo bench -q -p pro-bench --bench sim_throughput -- issue/ \
    > "$tracedir/bench_issue.txt"
for policy in LRR GTO PRO; do
    grep -q "issue/incremental_${policy}_x10k" "$tracedir/bench_issue.txt" || {
        echo "ERROR: issue/ bench family is missing policy $policy" >&2
        exit 1
    }
done
echo "ok: reuse counters published and the issue/ bench family runs"

echo "== mask-only probe: probe counters + TL reference storm =="
# The mask-only issue probe (DESIGN.md §15) publishes how many warps it
# still evaluates against the scoreboard; the shootout must carry it.
grep -q '"issue_probe_evals"' "$tracedir/shootout.json" || {
    echo "ERROR: shootout.json missing the issue_probe_evals counter" >&2
    exit 1
}
# TL's O(n) mask rebalance must stay lockstep-identical (orders, active
# sets, save_state bytes) to the O(n^2) reference kept in the test.
cargo test -q -p pro-core --test prop_tl
echo "ok: probe counters published and TL matches its quadratic reference"

echo "== docs: checkpoint CLI flags are documented =="
for flag in checkpoint-path checkpoint-every checkpoint-delta checkpoint-keep \
    resume heartbeat; do
    for doc in README.md DESIGN.md; do
        grep -q -- "--$flag" "$doc" || {
            echo "ERROR: --$flag is not documented in $doc" >&2
            exit 1
        }
    done
done
echo "ok: README.md and DESIGN.md document all checkpoint flags"

echo "== docs: calendar event queue is documented =="
for doc in README.md DESIGN.md EXPERIMENTS.md; do
    grep -q "calq" "$doc" || {
        echo "ERROR: pro_core::calq is not documented in $doc" >&2
        exit 1
    }
done
grep -q "calendar" ROADMAP.md || {
    echo "ERROR: ROADMAP.md lost the calendar-queue item record" >&2
    exit 1
}
echo "ok: the calendar queue is documented in README, DESIGN, EXPERIMENTS, ROADMAP"

echo "== docs: incremental issue path is documented =="
for doc in README.md DESIGN.md EXPERIMENTS.md; do
    grep -q "host/issue/" "$doc" || {
        echo "ERROR: the host/issue/* counters are not documented in $doc" >&2
        exit 1
    }
done
grep -q "order_dirty" DESIGN.md || {
    echo "ERROR: DESIGN.md lost the order_dirty contract section" >&2
    exit 1
}
echo "ok: the incremental issue path is documented in README, DESIGN, EXPERIMENTS"

echo "== docs: mask-only probe masks are documented =="
# DESIGN.md §15 must name every probe mask with its writers and clear
# points (and the probe_evals counter that measures them).
section15=$(sed -n '/^## 15\./,/^## 16\./p' DESIGN.md)
for name in fetched_mask mem_ready_mask sfu_ready_mask sb_wait_mask \
    host/issue/probe_evals; do
    grep -q "$name" <<< "$section15" || {
        echo "ERROR: DESIGN.md §15 does not document $name" >&2
        exit 1
    }
done
echo "ok: DESIGN.md §15 documents the probe masks"

echo "== verify: all green =="

//! Reduce passes and spans to named metrics.
//!
//! End-to-end metrics come from untraced passes (medians across passes);
//! per-layer metrics from traced passes (medians across traced passes).
//! A per-layer metric that does not apply to a workload reads 0.

use std::collections::BTreeMap;

use crate::adapter::{self as sim, DepthHist, LaunchStats};
use crate::spans::{self_by_name, Span};
use crate::stats::{fig4_err, frac, median, speedup_geomean, tail_alone, tail_percentile};
use crate::workloads::Pass;

/// A metric's name and unit.
pub type Def = (&'static str, &'static str);

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [Def; 5] = [
    ("wall_s", "s"),
    ("sim_kips", "kinstr/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_cycles", "cycles"),
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: [Def; 53] = [
    // pro-bench
    ("bench.cell_s.p50", "s"),
    ("bench.cell_s.p80", "s"),
    ("bench.cell_s.samples", "count"),
    ("bench.self_s", "s"),
    ("bench.pool.busy_frac", "ratio"),
    ("bench.pool.tail_s", "s"),
    // pro-workloads
    ("workloads.build_s", "s"),
    ("workloads.verify_s", "s"),
    // pro-sim
    ("sim.new_s", "s"),
    ("sim.launch_s", "s"),
    ("sim.launch_self_s", "s"),
    ("sim.phase_cover_frac", "ratio"),
    ("sim.host_ns_per_cycle", "ns/cycle"),
    ("sim.merge_s", "s"),
    ("sim.ckpt.write_s", "s"),
    ("sim.ckpt.writes", "count"),
    ("sim.ckpt.base_kb", "kB"),
    ("sim.ckpt.delta_kb_mean", "kB"),
    ("sim.restore.load_s", "s"),
    ("sim.restore.state_s", "s"),
    // pro-sm
    ("sm.issue_s", "s"),
    ("sm.issue_ns_per_unit_cycle", "ns/unit-cycle"),
    ("sm.mask_skips_per_unit_cycle", "1/unit-cycle"),
    ("sm.stall_frac", "ratio"),
    ("sm.idle_frac", "ratio"),
    ("sm.scoreboard_frac", "ratio"),
    ("sm.pipeline_frac", "ratio"),
    ("sm.lsuq.hwm", "count"),
    // pro-core
    ("core.order_reuse_frac", "ratio"),
    ("core.orders_recomputed", "count"),
    ("core.policy.tl.host_s", "s"),
    ("core.policy.lrr.host_s", "s"),
    ("core.policy.gto.host_s", "s"),
    ("core.policy.pro.host_s", "s"),
    ("core.pro_vs_tl", "ratio"),
    ("core.pro_vs_lrr", "ratio"),
    ("core.pro_vs_gto", "ratio"),
    // pro-mem
    ("mem.phase_s", "s"),
    ("mem.phase_frac", "ratio"),
    ("mem.host_ns_per_cycle", "ns/cycle"),
    ("mem.evq.depth_p50", "events"),
    ("mem.evq.depth_p99", "events"),
    ("mem.evq.hwm", "events"),
    ("mem.l1_miss_frac", "ratio"),
    ("mem.l2_miss_frac", "ratio"),
    ("mem.dram_row_hit_frac", "ratio"),
    ("mem.mshr_rejections", "count"),
    ("mem.load_latency_mean", "cycles"),
    // pro-trace
    ("trace.overhead_frac", "ratio"),
    // Whole-workload figures that exist on one workload only, or are
    // zero on a correct run, so they cannot carry an end-to-end bound.
    ("fig4_err", "ratio"),
    ("restore_s", "s"),
    ("ckpt_mb", "MB"),
    ("fail_frac", "ratio"),
];

/// Workspace crates whose lines of Rust are reported as `loc.<crate>`.
pub const LOC_CRATES: [&str; 8] = [
    "pro-bench",
    "pro-core",
    "pro-isa",
    "pro-mem",
    "pro-sim",
    "pro-sm",
    "pro-trace",
    "pro-workloads",
];

const NS: f64 = 1e9;

fn sum_stats(p: &Pass) -> impl Iterator<Item = &LaunchStats> {
    p.launches.iter().filter_map(|l| l.stats.as_ref())
}

/// Median across passes of `f(pass)`.
fn med(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// End-to-end metrics of untraced passes.
pub fn end_to_end(passes: &[Pass]) -> BTreeMap<&'static str, f64> {
    let wall = |p: &Pass| p.wall_ns as f64 / NS;
    let instr = |p: &Pass| sum_stats(p).map(|s| s.instructions).sum::<u64>() as f64;
    BTreeMap::from([
        ("wall_s", med(passes, wall)),
        ("sim_kips", med(passes, |p| instr(p) / wall(p) / 1e3)),
        (
            "setup_s",
            med(passes, |p| {
                p.launches.iter().map(|l| l.setup_ns).sum::<u64>() as f64 / NS
            }),
        ),
        ("peak_rss_mb", med(passes, |p| p.peak_rss_mb)),
        (
            "sim_cycles",
            med(passes, |p| {
                sum_stats(p).map(|s| s.cycles).sum::<u64>() as f64
            }),
        ),
    ])
}

/// PRO's geomean speedup over `base` across kernels run under both.
fn pro_vs(p: &Pass, base: sim::Policy) -> f64 {
    let cycles = |policy: sim::Policy| -> BTreeMap<(&str, u64), u64> {
        p.launches
            .iter()
            .filter(|l| l.policy == Some(policy))
            .filter_map(|l| Some(((l.kernel, l.variant), l.stats.as_ref()?.cycles)))
            .collect()
    };
    let (b, pro) = (cycles(base), cycles(sim::PRO));
    let pairs: Vec<(u64, u64)> = b
        .iter()
        .filter_map(|(k, &c)| Some((c, *pro.get(k)?)))
        .collect();
    speedup_geomean(&pairs)
}

/// Figures that exist on a single workload or only when something fails:
/// from untraced passes, medians across them.
pub fn whole_workload(passes: &[Pass], failed: u64, attempted: u64) -> BTreeMap<&'static str, f64> {
    let policies = sim::PAPER_POLICIES;
    let fig4 = |p: &Pass| {
        let has_all = policies
            .iter()
            .all(|&q| p.launches.iter().any(|l| l.policy == Some(q)));
        if has_all {
            fig4_err([
                pro_vs(p, policies[0]),
                pro_vs(p, policies[1]),
                pro_vs(p, policies[2]),
            ])
        } else {
            0.0
        }
    };
    BTreeMap::from([
        ("fig4_err", med(passes, fig4)),
        ("restore_s", med(passes, |p| p.ckpt.restore_ns as f64 / NS)),
        (
            "ckpt_mb",
            med(passes, |p| p.ckpt.files.iter().sum::<u64>() as f64 / 1e6),
        ),
        ("fail_frac", frac(failed as f64, attempted as f64)),
    ])
}

/// Per-layer metrics of one traced pass and the spans it recorded.
pub fn per_layer(p: &Pass, spans: &[Span], jobs: usize) -> BTreeMap<&'static str, f64> {
    let own = self_by_name(spans);
    let mut dur: BTreeMap<&str, u64> = BTreeMap::new();
    for s in spans {
        *dur.entry(s.name).or_default() += s.end - s.start;
    }
    let d = |n: &str| dur.get(n).copied().unwrap_or(0) as f64 / NS;
    let o = |n: &str| own.get(n).copied().unwrap_or(0) as f64 / NS;

    let cells: Vec<f64> = p
        .launches
        .iter()
        .map(|l| (l.interval.1 - l.interval.0) as f64 / NS)
        .collect();
    let intervals: Vec<(u64, u64)> = p.launches.iter().map(|l| l.interval).collect();
    let wall = p.wall_ns as f64 / NS;

    let st: Vec<&LaunchStats> = sum_stats(p).collect();
    let total = |f: &dyn Fn(&LaunchStats) -> u64| st.iter().map(|s| f(s)).sum::<u64>() as f64;
    let hmax = |f: &dyn Fn(&LaunchStats) -> u64| st.iter().map(|s| f(s)).max().unwrap_or(0) as f64;
    let cycles = total(&|s| s.cycles);
    let unit_cycles = total(&|s| s.unit_cycles);
    let (idle, sb, pipe) = (
        total(&|s| s.idle),
        total(&|s| s.scoreboard),
        total(&|s| s.pipeline),
    );
    let stalls = idle + sb + pipe;
    let issue_ns = total(&|s| s.host.issue_ns);
    let mem_ns = total(&|s| s.host.mem_ns);
    let merge_ns = total(&|s| s.host.merge_ns);
    let write_ns = total(&|s| s.host.ckpt_write_ns);
    let reused = total(&|s| s.host.orders_reused);
    let recomputed = total(&|s| s.host.orders_recomputed);
    let mut evq = DepthHist::default();
    for s in &st {
        evq.merge(&s.host.evq_depth);
    }
    // Launch spans whose phase totals are known (they have phase children).
    let parents: std::collections::BTreeSet<u64> = spans.iter().filter_map(|s| s.parent).collect();
    let profiled_launch_ns: u64 = spans
        .iter()
        .filter(|s| matches!(s.name, "sim.launch" | "sim.resume") && parents.contains(&s.id))
        .map(|s| s.end - s.start)
        .sum();
    let policy_s = |q: sim::Policy| {
        let ns: u64 = p
            .launches
            .iter()
            .filter(|l| l.policy == Some(q))
            .map(|l| l.sim_ns)
            .sum();
        ns as f64 / NS
    };
    let launch_s = d("sim.launch") + d("sim.resume");
    let files = &p.ckpt.files;
    let deltas = files.len().saturating_sub(1);
    let pair = |base| {
        if p.launches.iter().any(|l| l.policy == Some(base)) {
            pro_vs(p, base)
        } else {
            0.0
        }
    };

    BTreeMap::from([
        ("bench.cell_s.p50", median(&cells)),
        (
            "bench.cell_s.p80",
            tail_percentile(&cells, 80.0).unwrap_or(0.0),
        ),
        ("bench.cell_s.samples", cells.len() as f64),
        ("bench.self_s", o("bench.cell")),
        (
            "bench.pool.busy_frac",
            frac(cells.iter().sum(), wall * jobs as f64),
        ),
        ("bench.pool.tail_s", tail_alone(&intervals) as f64 / NS),
        ("workloads.build_s", d("workloads.build")),
        ("workloads.verify_s", d("workloads.verify")),
        ("sim.new_s", d("sim.new")),
        ("sim.launch_s", launch_s),
        ("sim.launch_self_s", o("sim.launch") + o("sim.resume")),
        (
            "sim.phase_cover_frac",
            frac(
                issue_ns + mem_ns + merge_ns + write_ns,
                profiled_launch_ns as f64,
            ),
        ),
        ("sim.host_ns_per_cycle", frac(launch_s * NS, cycles)),
        ("sim.merge_s", merge_ns / NS),
        ("sim.ckpt.write_s", write_ns / NS),
        ("sim.ckpt.writes", files.len() as f64),
        (
            "sim.ckpt.base_kb",
            files.first().copied().unwrap_or(0) as f64 / 1e3,
        ),
        (
            "sim.ckpt.delta_kb_mean",
            frac(
                files.iter().skip(1).sum::<u64>() as f64 / 1e3,
                deltas as f64,
            ),
        ),
        ("sim.restore.load_s", p.ckpt.load_ns as f64 / NS),
        (
            "sim.restore.state_s",
            p.ckpt.restore_ns.saturating_sub(p.ckpt.load_ns) as f64 / NS,
        ),
        ("sm.issue_s", issue_ns / NS),
        ("sm.issue_ns_per_unit_cycle", frac(issue_ns, unit_cycles)),
        (
            "sm.mask_skips_per_unit_cycle",
            frac(total(&|s| s.host.mask_skips), unit_cycles),
        ),
        ("sm.stall_frac", frac(stalls, unit_cycles)),
        ("sm.idle_frac", frac(idle, stalls)),
        ("sm.scoreboard_frac", frac(sb, stalls)),
        ("sm.pipeline_frac", frac(pipe, stalls)),
        ("sm.lsuq.hwm", hmax(&|s| s.host.lsuq_hwm)),
        ("core.order_reuse_frac", frac(reused, reused + recomputed)),
        ("core.orders_recomputed", recomputed),
        ("core.policy.tl.host_s", policy_s(sim::PAPER_POLICIES[0])),
        ("core.policy.lrr.host_s", policy_s(sim::PAPER_POLICIES[1])),
        ("core.policy.gto.host_s", policy_s(sim::PAPER_POLICIES[2])),
        ("core.policy.pro.host_s", policy_s(sim::PRO)),
        ("core.pro_vs_tl", pair(sim::PAPER_POLICIES[0])),
        ("core.pro_vs_lrr", pair(sim::PAPER_POLICIES[1])),
        ("core.pro_vs_gto", pair(sim::PAPER_POLICIES[2])),
        ("mem.phase_s", mem_ns / NS),
        ("mem.phase_frac", frac(mem_ns, profiled_launch_ns as f64)),
        ("mem.host_ns_per_cycle", frac(mem_ns, cycles)),
        ("mem.evq.depth_p50", evq.quantile(0.5) as f64),
        ("mem.evq.depth_p99", evq.quantile(0.99) as f64),
        ("mem.evq.hwm", hmax(&|s| s.host.evq_hwm)),
        (
            "mem.l1_miss_frac",
            frac(total(&|s| s.l1.1), total(&|s| s.l1.0 + s.l1.1)),
        ),
        (
            "mem.l2_miss_frac",
            frac(total(&|s| s.l2.1), total(&|s| s.l2.0 + s.l2.1)),
        ),
        (
            "mem.dram_row_hit_frac",
            frac(
                total(&|s| s.dram_rows.0),
                total(&|s| s.dram_rows.0 + s.dram_rows.1),
            ),
        ),
        ("mem.mshr_rejections", total(&|s| s.mshr_rejections)),
        (
            "mem.load_latency_mean",
            frac(total(&|s| s.loads.1), total(&|s| s.loads.0)),
        ),
    ])
}

/// Median of each metric across several maps with the same keys.
pub fn median_of(maps: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let Some(first) = maps.first() else {
        return BTreeMap::new();
    };
    first
        .keys()
        .map(|&k| (k, median(&maps.iter().map(|m| m[k]).collect::<Vec<_>>())))
        .collect()
}

/// Non-blank, non-comment lines of Rust under `dir`, recursively.
pub fn rust_loc(dir: &std::path::Path) -> u64 {
    let mut n = 0;
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    for e in rd.filter_map(Result::ok) {
        let path = e.path();
        if path.is_dir() {
            n += rust_loc(&path);
        } else if path.extension().is_some_and(|x| x == "rs") {
            n += std::fs::read_to_string(&path).map_or(0, |t| code_lines(&t));
        }
    }
    n
}

/// Count lines that hold code: not blank, not a `//` comment, and not
/// inside or wholly made of a `/* */` block comment.
pub fn code_lines(text: &str) -> u64 {
    let mut in_block = false;
    let mut n = 0;
    for line in text.lines() {
        let mut l = line.trim();
        if in_block {
            match l.find("*/") {
                Some(i) => {
                    in_block = false;
                    l = l[i + 2..].trim();
                }
                None => continue,
            }
        }
        if let Some(rest) = l.strip_prefix("/*") {
            match rest.find("*/") {
                Some(i) => l = rest[i + 2..].trim(),
                None => {
                    in_block = true;
                    continue;
                }
            }
        }
        if !l.is_empty() && !l.starts_with("//") {
            n += 1;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|d| d.0).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the checkout root");
        let section = |key: &str| {
            let start = doc.find(&format!("\"{key}\": [")).expect("section present");
            let end = start + doc[start..].find(']').expect("section closed");
            doc[start..end].to_string()
        };
        let (e2e, layer) = (section("end_to_end"), section("per_layer"));
        let locs: Vec<(String, &str)> = LOC_CRATES
            .iter()
            .map(|c| format!("loc.{c}"))
            .chain(["loc.total".to_string()])
            .map(|n| (n, "lines"))
            .collect();
        let listed = |text: &str, defs: Vec<(String, &str)>| {
            for (n, u) in &defs {
                let entry = format!("{{\"name\": \"{n}\", \"unit\": \"{u}\"");
                assert!(
                    text.contains(&entry),
                    "{n} [{u}] missing from BENCHMARK.json"
                );
            }
            assert_eq!(
                text.matches("\"name\":").count(),
                defs.len(),
                "extra metrics listed"
            );
        };
        listed(
            &e2e,
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect(),
        );
        let layer_defs = PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(locs)
            .collect();
        listed(&layer, layer_defs);
    }

    #[test]
    fn code_lines_skip_comments_and_blanks() {
        let src = "//! doc\n\nfn a() {} // trailing\n/* block\n still */\n/* one */ let x = 1;\n  // c\n}\n";
        assert_eq!(code_lines(src), 3);
    }

    #[test]
    fn median_of_takes_each_key_separately() {
        let maps = [
            BTreeMap::from([("a", 1.0), ("b", 9.0)]),
            BTreeMap::from([("a", 3.0), ("b", 7.0)]),
            BTreeMap::from([("a", 2.0), ("b", 8.0)]),
        ];
        assert_eq!(median_of(&maps), BTreeMap::from([("a", 2.0), ("b", 8.0)]));
    }
}

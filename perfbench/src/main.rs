//! `perfbench` — the simulator workspace's end-to-end and per-layer
//! benchmark. See `README.md` in this directory.
//!
//! ```text
//! perfbench --workload <quick_sweep|long_ckpt|synth_seeded>
//!           --seed N --seconds S --trace <0|1> [--out DIR]
//! ```
//!
//! Runs passes of the workload until `--seconds` have elapsed (at least
//! one), checks every output, prints each metric as `metric <name>
//! <value> <unit>`, and ends with one JSON line: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`).

mod adapter;
mod metrics;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::Def;
use spans::Recorder;
use workloads::{Ctx, Pass};

/// Golden output of `repro json --quick`, relative to the checkout root.
const GOLDEN: &str = "scripts/golden/repro_quick.json";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<Option<&str>, String> {
        match argv.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => argv
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or(format!("{flag} needs a value")),
        }
    };
    let num = |flag: &str, default: u64| -> Result<u64, String> {
        get(flag)?.map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("{flag}: not a number: {v}"))
        })
    };
    let workload = get("--workload")?
        .ok_or("--workload is required")?
        .to_string();
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {:?}",
            workloads::NAMES
        ));
    }
    let trace = match num("--trace", 0)? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed: num("--seed", 1)?,
        seconds: num("--seconds", 10)?.max(1),
        trace,
        out: PathBuf::from(get("--out")?.unwrap_or(".bench_build/perfbench")),
    })
}

/// Checks prepared once per run, outside every timed region.
enum Reference {
    Golden(Result<String, String>),
    Long(Box<Result<adapter::LaunchStats, String>>),
    Oracles(Vec<Result<Vec<u32>, String>>),
}

fn prepare(workload: &str, seed: u64) -> Reference {
    match workload {
        "quick_sweep" => {
            Reference::Golden(std::fs::read_to_string(GOLDEN).map_err(|e| format!("{GOLDEN}: {e}")))
        }
        "long_ckpt" => Reference::Long(Box::new(workloads::long_reference())),
        _ => Reference::Oracles(workloads::synth_oracles(seed)),
    }
}

fn run_pass(workload: &str, ctx: &Ctx, seed: u64) -> Pass {
    match workload {
        "quick_sweep" => workloads::quick_pass(ctx),
        "long_ckpt" => workloads::long_pass(ctx),
        _ => workloads::synth_pass(ctx, seed),
    }
}

fn check(p: &mut Pass, r: &Reference) {
    match r {
        Reference::Golden(Ok(g)) => workloads::check_quick(p, g),
        Reference::Golden(Err(e)) => {
            for l in &mut p.launches {
                l.error.get_or_insert_with(|| e.clone());
            }
        }
        Reference::Long(r) => workloads::check_long(p, r),
        Reference::Oracles(o) => workloads::check_synth(p, o),
    }
}

/// Restart the kernel's peak-RSS count (`VmHWM`) for this process, so
/// each pass reports its own peak; without it, the process's peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// First line of a command's stdout, or `unknown`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The host facts printed with every result.
fn host_facts(seed: u64) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Only a checkout's own repository: git would otherwise search the
    // directories above it.
    let commit = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".into()
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\":{nproc},\"jobs\":{},\"profile\":{},\"rustc\":{},\"commit\":{},\"cpu\":{},\"seed\":{seed}}}",
        adapter::pool_jobs(),
        json_str(profile),
        json_str(&command_line("rustc", &["-V"])),
        json_str(&commit),
        json_str(&cpu),
    )
}

fn loc_metrics() -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut total = 0.0;
    for name in metrics::LOC_CRATES {
        let dir = Path::new("crates").join(name.trim_start_matches("pro-"));
        let n = metrics::rust_loc(&dir) as f64;
        total += n;
        out.push((format!("loc.{name}"), n));
    }
    out.push(("loc.total".into(), total));
    out
}

/// Run one workload; print its metrics and result line.
fn run_workload(name: &str, args: &Args) {
    println!(
        "# perfbench workload={name} seed={} seconds={} trace={}",
        args.seed, args.seconds, args.trace as u8
    );
    println!("# host {}", host_facts(args.seed));
    let tmp = args.out.join(format!("tmp-{name}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("{}: {e}", tmp.display());
        std::process::exit(1);
    }
    let reference = prepare(name, args.seed);
    let plain_rec = Recorder::new(false);
    let plain = Ctx {
        rec: &plain_rec,
        profiled: false,
        tmp: tmp.clone(),
    };
    let budget = Duration::from_secs(args.seconds);
    let (mut plain_passes, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while plain_passes.is_empty() || start.elapsed() < budget {
        reset_peak_rss();
        let mut p = run_pass(name, &plain, args.seed);
        p.peak_rss_mb = peak_rss_mb();
        plain_passes.push(p);
        if args.trace {
            let rec = Recorder::new(true);
            let ctx = Ctx {
                rec: &rec,
                profiled: true,
                tmp: tmp.clone(),
            };
            let p = run_pass(name, &ctx, args.seed);
            traced.push((p, rec));
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);

    let (mut attempted, mut failed) = (0u64, 0u64);
    for p in plain_passes
        .iter_mut()
        .chain(traced.iter_mut().map(|(p, _)| p))
    {
        check(p, &reference);
        for l in &p.launches {
            attempted += 1;
            if let Some(e) = &l.error {
                failed += 1;
                eprintln!(
                    "FAILED {name} {} {}: {e}",
                    l.kernel,
                    l.policy.map_or("-", adapter::policy_name)
                );
            }
        }
    }

    let e2e = metrics::end_to_end(&plain_passes);
    let mut lines: Vec<(String, f64, &str)> = Vec::new();
    let push = |lines: &mut Vec<(String, f64, &str)>, defs: &[Def], m: &BTreeMap<&str, f64>| {
        for &(n, unit) in defs {
            lines.push((n.to_string(), m[n], unit));
        }
    };
    push(&mut lines, &metrics::END_TO_END, &e2e);
    let mut result_from = 0;
    if args.trace {
        let jobs = adapter::pool_jobs();
        let maps: Vec<_> = traced
            .iter()
            .map(|(p, rec)| metrics::per_layer(p, &rec.spans(), jobs))
            .collect();
        let traced_wall = stats::median(
            &traced
                .iter()
                .map(|(p, _)| p.wall_ns as f64)
                .collect::<Vec<_>>(),
        );
        let plain_wall = stats::median(
            &plain_passes
                .iter()
                .map(|p| p.wall_ns as f64)
                .collect::<Vec<_>>(),
        );
        let mut layer = metrics::median_of(&maps);
        layer.insert("trace.overhead_frac", traced_wall / plain_wall - 1.0);
        layer.extend(metrics::whole_workload(&plain_passes, failed, attempted));
        result_from = lines.len();
        push(&mut lines, &metrics::PER_LAYER, &layer);
        for (n, v) in loc_metrics() {
            lines.push((n, v, "lines"));
        }
        write_spans(&args.out, name, args.seed, &traced);
    }
    let walls: Vec<String> = plain_passes
        .iter()
        .map(|p| format!("{:.3}", p.wall_ns as f64 / 1e9))
        .collect();
    println!(
        "# passes untraced={} traced={} wall_s=[{}]",
        plain_passes.len(),
        traced.len(),
        walls.join(" ")
    );
    for (n, v, unit) in &lines {
        println!("metric {n} {v} {unit}");
    }
    let body: Vec<String> = lines[result_from..]
        .iter()
        .map(|(n, v, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(n),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        body.join(",")
    );
}

/// A finite JSON number (non-finite values, which no metric should
/// produce, print as 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Write every traced pass's spans as JSON lines, one file per run.
fn write_spans(out: &Path, name: &str, seed: u64, traced: &[(Pass, Recorder)]) {
    let path = out.join(format!("spans-{name}-seed{seed}.jsonl"));
    let text: String = traced
        .iter()
        .enumerate()
        .map(|(i, (_, rec))| rec.to_jsonl(i))
        .collect();
    match std::fs::write(&path, text) {
        Ok(()) => println!("# spans {}", path.display()),
        Err(e) => eprintln!("{}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    run_workload(&args.workload, &args);
    ExitCode::SUCCESS
}

//! The three workloads. Each runs one pass as a closed batch, timing its
//! calls into the simulator from outside with [`Recorder`] spans; output
//! checks run after the pass, outside the timed region.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::adapter::{self as sim, Built, LaunchStats, Machine, Outcome, Policy};
use crate::spans::{Open, Recorder};

/// Workload names.
pub const NAMES: [&str; 3] = ["quick_sweep", "long_ckpt", "synth_seeded"];

/// Synthetic kernels per `synth_seeded` pass (each runs under PRO and TL).
pub const SYNTH_KERNELS: u64 = 60;

/// `long_ckpt`'s kernel, run at its full Table II grid (18 432 TBs).
const LONG_KERNEL: &str = "convolutionRowsKernel";
/// `long_ckpt` writes a delta capture every this many simulated cycles.
const LONG_EVERY: u64 = 10_000;
/// `long_ckpt` pauses at about the midpoint of its 130 896 cycles.
const LONG_PAUSE: u64 = 65_000;

/// Everything measured about one launch.
#[derive(Debug, Default)]
pub struct LaunchRec {
    /// Kernel name.
    pub kernel: &'static str,
    /// Distinguishes kernels sharing a name (the synthetic kernel seed).
    pub variant: u64,
    /// Policy.
    pub policy: Option<Policy>,
    /// Host ns inside `Gpu::launch*`/`resume*` calls, all legs.
    pub sim_ns: u64,
    /// Host ns of the launch's cell span (start, end).
    pub interval: (u64, u64),
    /// Host ns in `Gpu::new` plus kernel build/generate, all legs.
    pub setup_ns: u64,
    /// Simulated statistics of the completed launch.
    pub stats: Option<LaunchStats>,
    /// Why the launch failed, if it did.
    pub error: Option<String>,
}

/// One pass over a workload.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host wall time of the whole pass.
    pub wall_ns: u64,
    /// Peak resident memory during the pass, MiB.
    pub peak_rss_mb: f64,
    /// Per-launch records, in submission order.
    pub launches: Vec<LaunchRec>,
    /// `quick_sweep`: the exported cell JSON.
    pub export: String,
    /// `quick_sweep`: the launch index of each exported cell.
    pub exported: Vec<usize>,
    /// `synth_seeded`: each launch's output words.
    pub outputs: Vec<Vec<u32>>,
    /// `long_ckpt` only.
    pub ckpt: CkptRec,
}

/// Checkpoint and restore measurements of a `long_ckpt` pass.
#[derive(Debug, Default, Clone)]
pub struct CkptRec {
    /// `SnapshotChain::load_dir` start until the resumed run's first cycle.
    pub restore_ns: u64,
    /// The `load_dir` call alone.
    pub load_ns: u64,
    /// Chain files and their sizes in bytes: base first, then deltas.
    pub files: Vec<u64>,
}

/// Per-run context shared by every pass.
pub struct Ctx<'a> {
    /// Span sink (stores spans only on traced passes).
    pub rec: &'a Recorder,
    /// Host profiler on for launches.
    pub profiled: bool,
    /// Scratch directory inside the checkout for checkpoint chains.
    pub tmp: PathBuf,
}

impl Ctx<'_> {
    fn timed<R>(&self, name: &'static str, parent: &Open, f: impl FnOnce() -> R) -> (R, u64) {
        let span = self.rec.open(name, Some(parent), parent.launch());
        let r = f();
        (r, self.rec.close(&span))
    }

    /// Lay the launch's `host/*` phase totals end to end inside its span,
    /// so the span's self time is the part no phase timer covers.
    fn phases(&self, span: &Open, s: &LaunchStats) {
        if !self.rec.enabled() {
            return;
        }
        let mut t = span.start();
        for (name, ns) in [
            ("sm.issue", s.host.issue_ns),
            ("mem.phase", s.host.mem_ns),
            ("sim.merge", s.host.merge_ns),
            ("sim.ckpt.write", s.host.ckpt_write_ns),
        ] {
            if ns > 0 {
                self.rec.record(name, span, t, t + ns);
                t += ns;
            }
        }
    }
}

/// Run `f` on its own launch id under a `bench.cell` span, turning a
/// panic into a failed launch.
fn cell(
    ctx: &Ctx,
    kernel: &'static str,
    policy: Policy,
    f: impl FnOnce(&Open, &mut LaunchRec),
) -> LaunchRec {
    let launch = ctx.rec.new_launch();
    let root = ctx.rec.open("bench.cell", None, launch);
    let mut rec = LaunchRec {
        kernel,
        policy: Some(policy),
        ..Default::default()
    };
    if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(&root, &mut rec))) {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into());
        rec.error.get_or_insert(format!("panic: {msg}"));
    }
    let start = root.start();
    let end = start + ctx.rec.close(&root);
    rec.interval = (start, end);
    rec
}

/// Build a machine and a kernel under setup spans, then launch, profile
/// and verify. Returns the machine, build and outcome for output checks.
fn setup_launch_verify(
    ctx: &Ctx,
    root: &Open,
    rec: &mut LaunchRec,
    gmem: u64,
    build: impl FnOnce(&mut Machine) -> Built,
) -> Option<(Machine, Built, Outcome)> {
    let (mut m, new_ns) = ctx.timed("sim.new", root, || sim::new_machine(gmem));
    let (b, build_ns) = ctx.timed("workloads.build", root, || build(&mut m));
    rec.setup_ns = new_ns + build_ns;
    let policy = rec.policy.expect("cells carry a policy");
    let span = ctx.rec.open("sim.launch", Some(root), root.launch());
    let out = sim::launch(&mut m, &b, policy, ctx.profiled);
    rec.sim_ns = ctx.rec.close(&span);
    let out = match out {
        Ok(o) => {
            let s = o.stats();
            ctx.phases(&span, &s);
            rec.stats = Some(s);
            o
        }
        Err(e) => {
            rec.error = Some(e);
            return None;
        }
    };
    let (verdict, _) = ctx.timed("workloads.verify", root, || sim::verify(&m, &b));
    if let Err(e) = verdict {
        rec.error = Some(format!("verifier: {e}"));
    }
    Some((m, b, out))
}

/// Time a whole pass.
fn pass(ctx: &Ctx, f: impl FnOnce() -> Pass) -> Pass {
    let t0 = ctx.rec.now();
    let mut p = f();
    p.wall_ns = ctx.rec.now() - t0;
    p
}

// ---------------------------------------------------------------- quick

/// The 60 cells of `repro json --quick`, kernel-major, policies in
/// TL/LRR/GTO/PRO order.
fn quick_cells() -> Vec<(sim::TableKernel, Policy)> {
    sim::quick_kernels()
        .into_iter()
        .flat_map(|k| sim::PAPER_POLICIES.into_iter().map(move |p| (k, p)))
        .collect()
}

/// One pass of `quick_sweep` on the experiment pool.
pub fn quick_pass(ctx: &Ctx) -> Pass {
    let cells = quick_cells();
    pass(ctx, || {
        let runs = sim::parallel_map(&cells, |&(k, p)| {
            let mut out = None;
            let rec = cell(ctx, k.name(), p, |root, rec| {
                out = setup_launch_verify(ctx, root, rec, k.gmem_bytes(false), |m| {
                    sim::build_table(m, &k, false)
                })
                .map(|(_, _, o)| o);
            });
            (rec, out)
        });
        // Cells that failed to launch are left out of the export; the
        // check maps the rest back to their golden positions.
        let (exported, present): (Vec<usize>, Vec<sim::QuickCell>) = cells
            .iter()
            .zip(&runs)
            .enumerate()
            .filter_map(|(i, (&(kernel, policy), (_, o)))| {
                Some((
                    i,
                    sim::QuickCell {
                        kernel,
                        policy,
                        outcome: o.as_ref()?,
                    },
                ))
            })
            .unzip();
        let export = sim::export_quick(&present);
        let launches = runs.into_iter().map(|(r, _)| r).collect();
        Pass {
            launches,
            export,
            exported,
            ..Default::default()
        }
    })
}

/// Split a flat JSON array of flat objects into its object texts.
pub fn split_objects(doc: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut depth, mut start, mut in_str, mut esc) = (0usize, 0usize, false, false);
    for (i, c) in doc.char_indices() {
        if in_str {
            match (esc, c) {
                (true, _) => esc = false,
                (false, '\\') => esc = true,
                (false, '"') => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            '}' if depth > 0 => {
                depth -= 1;
                if depth == 0 {
                    out.push(&doc[start..=i]);
                }
            }
            _ => {}
        }
    }
    out
}

/// Mark every quick-sweep launch whose exported cell differs from the
/// golden file's cell at the same position. When every cell matches but
/// the documents still differ, every launch fails.
pub fn check_quick(p: &mut Pass, golden: &str) {
    if p.export == golden && p.exported.len() == p.launches.len() {
        return;
    }
    let (ours, theirs) = (split_objects(&p.export), split_objects(golden));
    let mut blamed = false;
    for (obj, &i) in ours.iter().zip(&p.exported) {
        if theirs.get(i) != Some(obj) {
            p.launches[i]
                .error
                .get_or_insert_with(|| "differs from the golden output".into());
            blamed = true;
        }
    }
    let whole_doc_differs = p.exported.len() == p.launches.len();
    if !blamed && whole_doc_differs {
        for l in &mut p.launches {
            l.error
                .get_or_insert_with(|| "golden document differs outside the cells".into());
        }
    }
}

// ---------------------------------------------------------------- synth

/// Seed of synthetic kernel `i` of a run seeded with `seed` (SplitMix64).
pub fn kernel_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The synthetic kernels of `seed`, each under PRO then TL.
fn synth_cells(seed: u64) -> Vec<(u64, Policy)> {
    (0..SYNTH_KERNELS)
        .map(|i| kernel_seed(seed, i))
        .flat_map(|s| [(s, sim::PRO), (s, sim::TL)])
        .collect()
}

/// Oracle output words for every cell of [`synth_cells`] (one per kernel,
/// shared by its two policies).
pub fn synth_oracles(seed: u64) -> Vec<Result<Vec<u32>, String>> {
    let seeds: Vec<u64> = (0..SYNTH_KERNELS).map(|i| kernel_seed(seed, i)).collect();
    sim::parallel_map(&seeds, |&s| sim::synth_oracle(s))
}

/// One pass of `synth_seeded` on the experiment pool.
pub fn synth_pass(ctx: &Ctx, seed: u64) -> Pass {
    let cells = synth_cells(seed);
    pass(ctx, || {
        let runs = sim::parallel_map(&cells, |&(s, p)| {
            let mut words = Vec::new();
            let rec = cell(ctx, "synth", p, |root, rec| {
                rec.variant = s;
                let done = setup_launch_verify(ctx, root, rec, sim::SYNTH_GMEM, |m| {
                    sim::build_synth(m, s)
                });
                if let Some((m, b, _)) = done {
                    words = sim::output_words(&m, &b);
                }
            });
            (rec, words)
        });
        let (launches, outputs) = runs.into_iter().unzip();
        Pass {
            launches,
            outputs,
            ..Default::default()
        }
    })
}

/// Mark every synthetic launch whose output differs from its oracle.
pub fn check_synth(p: &mut Pass, oracles: &[Result<Vec<u32>, String>]) {
    for (i, (l, words)) in p.launches.iter_mut().zip(&p.outputs).enumerate() {
        if l.error.is_some() {
            continue;
        }
        match &oracles[i / 2] {
            Ok(want) if want == words => {}
            Ok(_) => l.error = Some("output differs from the scalar oracle".into()),
            Err(e) => l.error = Some(e.clone()),
        }
    }
}

// ----------------------------------------------------------------- long

/// An uninterrupted launch of `long_ckpt`'s kernel: the reference its
/// checkpointed-and-resumed passes must reproduce.
pub fn long_reference() -> Result<LaunchStats, String> {
    let k = sim::table_kernel(LONG_KERNEL);
    let mut m = sim::new_machine(k.gmem_bytes(true));
    let b = sim::build_table(&mut m, &k, true);
    let out = sim::launch(&mut m, &b, sim::PRO, false)?;
    sim::verify(&m, &b).map_err(|e| format!("verifier: {e}"))?;
    Ok(out.stats())
}

fn chain_files(dir: &Path) -> Vec<u64> {
    let mut files: Vec<(String, u64)> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| Some((e.file_name().into_string().ok()?, e.metadata().ok()?.len())))
                .filter(|(n, _)| n.ends_with(".ckpt"))
                .collect()
        })
        .unwrap_or_default();
    // "base.ckpt" sorts before "delta-NNNNNN.ckpt".
    files.sort();
    files.into_iter().map(|(_, len)| len).collect()
}

/// One pass of `long_ckpt`: launch to the midpoint writing a delta chain,
/// then restore the chain into a fresh machine and run to completion.
pub fn long_pass(ctx: &Ctx) -> Pass {
    let k = sim::table_kernel(LONG_KERNEL);
    let dir = ctx.tmp.join("chain");
    let _ = std::fs::remove_dir_all(&dir);
    let mut ck = CkptRec::default();
    let mut p = pass(ctx, || {
        let rec = cell(ctx, k.name(), sim::PRO, |root, rec| {
            let gmem = k.gmem_bytes(true);
            let (mut m, new_ns) = ctx.timed("sim.new", root, || sim::new_machine(gmem));
            let (b, build_ns) = ctx.timed("workloads.build", root, || {
                sim::build_table(&mut m, &k, true)
            });
            let (leg, leg_ns) = ctx.timed("sim.launch", root, || {
                sim::launch_until_pause(&mut m, &b, sim::PRO, &dir, LONG_EVERY, LONG_PAUSE)
            });
            drop((m, b));
            let (mut m, new2_ns) = ctx.timed("sim.new", root, || sim::new_machine(gmem));
            let (b, build2_ns) = ctx.timed("workloads.build", root, || {
                sim::build_table(&mut m, &k, true)
            });
            rec.setup_ns = new_ns + build_ns + new2_ns + build2_ns;
            if let Err(e) = leg {
                rec.error = Some(e);
                return;
            }
            let load_start = ctx.rec.now();
            let (chain, load_ns) = ctx.timed("sim.restore.load", root, || sim::load_chain(&dir));
            ck.load_ns = load_ns;
            let Some(chain) = chain else {
                rec.error = Some("no restorable chain on disk".into());
                return;
            };
            let first = Arc::new(AtomicU64::new(0));
            let first_cb = first.clone();
            let epoch = ctx.rec.epoch();
            let span = ctx.rec.open("sim.resume", Some(root), root.launch());
            let out = sim::resume_chain(
                &mut m,
                &chain,
                &b,
                sim::PRO,
                ctx.profiled,
                LONG_EVERY,
                move || first_cb.store(epoch.elapsed().as_nanos() as u64, Ordering::Relaxed),
            );
            rec.sim_ns = leg_ns + ctx.rec.close(&span);
            match out {
                Ok(o) => {
                    let s = o.stats();
                    ctx.phases(&span, &s);
                    rec.stats = Some(s);
                }
                Err(e) => rec.error = Some(e),
            }
            ck.restore_ns = first.load(Ordering::Relaxed).saturating_sub(load_start);
            if rec.error.is_none() {
                let (verdict, _) = ctx.timed("workloads.verify", root, || sim::verify(&m, &b));
                if let Err(e) = verdict {
                    rec.error = Some(format!("verifier: {e}"));
                }
            }
        });
        Pass {
            launches: vec![rec],
            ..Default::default()
        }
    });
    ck.files = chain_files(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    p.ckpt = ck;
    p
}

/// Mark the launch failed unless its simulated result equals the
/// uninterrupted reference's.
pub fn check_long(p: &mut Pass, reference: &Result<LaunchStats, String>) {
    for l in &mut p.launches {
        if l.error.is_some() {
            continue;
        }
        match (reference, &l.stats) {
            (Ok(r), Some(s)) if r.sim_bytes == s.sim_bytes => {}
            (Ok(_), _) => {
                l.error = Some("resumed result differs from the uninterrupted launch".into())
            }
            (Err(e), _) => l.error = Some(format!("reference launch: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_objects_handles_braces_in_strings() {
        let doc = r#"[{"a":1,"s":"x}{"},{"b":"\"}"}]"#;
        assert_eq!(
            split_objects(doc),
            vec![r#"{"a":1,"s":"x}{"}"#, r#"{"b":"\"}"}"#]
        );
        // A stray closing brace in a corrupt file is ignored, not a panic.
        assert_eq!(split_objects("}[{\"k\":1}]"), vec!["{\"k\":1}"]);
    }

    #[test]
    fn quick_check_blames_only_differing_cells() {
        let golden = "[{\"k\":1},{\"k\":2},{\"k\":3}]\n";
        let mut p = Pass {
            launches: (0..3).map(|_| LaunchRec::default()).collect(),
            export: "[{\"k\":1},{\"k\":9},{\"k\":3}]\n".into(),
            exported: vec![0, 1, 2],
            ..Default::default()
        };
        check_quick(&mut p, golden);
        let failed: Vec<bool> = p.launches.iter().map(|l| l.error.is_some()).collect();
        assert_eq!(failed, [false, true, false]);
    }

    #[test]
    fn quick_check_fails_all_on_a_trailer_difference() {
        let mut p = Pass {
            launches: (0..2).map(|_| LaunchRec::default()).collect(),
            export: "[{\"k\":1},{\"k\":2}]".into(),
            exported: vec![0, 1],
            ..Default::default()
        };
        check_quick(&mut p, "[{\"k\":1},{\"k\":2}]\n");
        assert!(p.launches.iter().all(|l| l.error.is_some()));
    }

    #[test]
    fn quick_check_maps_a_partial_export_to_golden_positions() {
        // Launch 1 failed and was left out; launch 2 is checked against
        // golden cell 2, not 1.
        let mut launches: Vec<LaunchRec> = (0..3).map(|_| LaunchRec::default()).collect();
        launches[1].error = Some("sim error".into());
        let mut p = Pass {
            launches,
            export: "[{\"k\":1},{\"k\":3}]\n".into(),
            exported: vec![0, 2],
            ..Default::default()
        };
        check_quick(&mut p, "[{\"k\":1},{\"k\":2},{\"k\":3}]\n");
        let failed: Vec<bool> = p.launches.iter().map(|l| l.error.is_some()).collect();
        assert_eq!(failed, [false, true, false]);
        assert_eq!(p.launches[1].error.as_deref(), Some("sim error"));
    }

    #[test]
    fn kernel_seeds_are_distinct_and_seeded() {
        let a: Vec<u64> = (0..SYNTH_KERNELS).map(|i| kernel_seed(1, i)).collect();
        let b: Vec<u64> = (0..SYNTH_KERNELS).map(|i| kernel_seed(2, i)).collect();
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len());
        assert_ne!(a, b);
        assert_eq!(
            a,
            (0..SYNTH_KERNELS)
                .map(|i| kernel_seed(1, i))
                .collect::<Vec<_>>()
        );
    }
}

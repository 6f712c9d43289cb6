//! Checkpoint/resume support types for [`crate::Gpu`] launches.
//!
//! A *checkpoint* is a complete, versioned binary snapshot of a launch in
//! flight — SM pipelines, SIMT stacks, scoreboards, caches, MSHRs, DRAM
//! queues, scheduler-internal state, trace accumulators and the run-loop
//! bookkeeping — encoded with [`pro_core::codec`] (magic, format version,
//! per-section CRC-32). Restoring a snapshot into a freshly constructed
//! [`crate::Gpu`] and continuing the run produces **bit-identical** results
//! to the uninterrupted run: the same counters, the same stall attribution,
//! the same trace bytes.
//!
//! See `DESIGN.md` §12 for the byte-level container specification.

use pro_core::codec::{crc32, CodecError, ContainerKind, FileReader};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::result::RunResult;

/// A host-side observer invoked from inside the run loop; the sweep
/// heartbeat hangs off this. `Arc`'d so [`CheckpointOptions`] stays
/// cloneable across the experiment pool's workers.
pub type ProgressFn = std::sync::Arc<dyn Fn(ProgressEvent) + Send + Sync>;

/// What a [`ProgressFn`] observer learns at each reporting boundary.
#[derive(Debug, Clone, Copy)]
pub struct ProgressEvent {
    /// Kernel-relative cycles simulated so far in this launch.
    pub cycles: u64,
    /// True when this boundary also wrote a periodic checkpoint file.
    pub checkpointed: bool,
}

/// Knobs controlling mid-launch checkpointing, passed to
/// [`crate::Gpu::launch_checkpointed`] and [`crate::Gpu::resume`].
///
/// The default (`every = 0`, `pause_at = 0`) disables both mechanisms, which
/// makes the checkpointed entry points behave exactly like [`crate::Gpu::launch`].
#[derive(Clone, Default)]
pub struct CheckpointOptions {
    /// Write a checkpoint to [`CheckpointOptions::path`] every `every`
    /// kernel-relative cycles (0 = never). Each write atomically replaces
    /// the previous one, so the file always holds the latest consistent
    /// snapshot even if the process dies mid-run.
    pub every: u64,
    /// Destination file for periodic checkpoints. Required when
    /// [`CheckpointOptions::every`] is nonzero.
    pub path: Option<PathBuf>,
    /// Pause the launch once at least `pause_at` kernel-relative cycles
    /// have elapsed (0 = run to completion), returning
    /// [`LaunchStatus::Paused`] with an in-memory snapshot instead of a
    /// result. Used by tests and by hosts that want to interleave work.
    pub pause_at: u64,
    /// Emit delta chains instead of rewriting one full snapshot per
    /// interval. When set, [`CheckpointOptions::path`] names a *directory*:
    /// the first periodic capture writes a full `base.ckpt`, every later
    /// one appends a `delta-NNNNNN.ckpt` holding only the state that
    /// changed (dirty gmem pages plus the small always-rewritten
    /// sections). The `--checkpoint-delta` knob.
    pub delta: bool,
    /// Cap on chain files (base + deltas) before the chain rolls over
    /// into a fresh full `base.ckpt` (0 = unbounded). Old deltas are
    /// pruned only after the new base is fsynced and renamed, so a crash
    /// at any instant leaves a restorable chain on disk. The
    /// `--checkpoint-keep` knob; only meaningful with
    /// [`CheckpointOptions::delta`].
    pub keep: usize,
    /// Invoke [`CheckpointOptions::progress`] every `progress_every`
    /// kernel-relative cycles (0 = never). Independent of `every`: a
    /// heartbeat works without checkpoint files and vice versa.
    pub progress_every: u64,
    /// Host-side progress observer (the `--heartbeat` plumbing). Purely
    /// observational: called between cycles on the main thread, it can see
    /// only the [`ProgressEvent`], never simulator state.
    pub progress: Option<ProgressFn>,
}

impl std::fmt::Debug for CheckpointOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointOptions")
            .field("every", &self.every)
            .field("path", &self.path)
            .field("delta", &self.delta)
            .field("keep", &self.keep)
            .field("pause_at", &self.pause_at)
            .field("progress_every", &self.progress_every)
            .field("progress", &self.progress.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

/// Outcome of a checkpointed launch: either the kernel ran to completion,
/// or it was paused at [`CheckpointOptions::pause_at`] and can be resumed
/// later (in this process or another) via [`crate::Gpu::resume`].
#[derive(Debug)]
pub enum LaunchStatus {
    /// The grid finished; the usual launch result.
    Completed(RunResult),
    /// The launch was paused; the snapshot resumes it bit-identically.
    Paused(GpuSnapshot),
}

impl LaunchStatus {
    /// Unwrap the completed result, panicking on [`LaunchStatus::Paused`].
    /// Convenience for call sites that did not request a pause.
    pub fn expect_completed(self) -> RunResult {
        match self {
            LaunchStatus::Completed(r) => r,
            LaunchStatus::Paused(_) => panic!("launch paused but no pause was requested"),
        }
    }
}

/// An opaque, self-validating snapshot of a launch in flight.
///
/// The byte layout is the [`pro_core::codec`] container format; the
/// constructor methods never inspect the payload beyond what the container
/// header requires, so corruption is reported lazily by
/// [`GpuSnapshot::validate`] or at resume time — always as a typed
/// [`CodecError`], never a panic.
#[derive(Debug, Clone)]
pub struct GpuSnapshot {
    bytes: Vec<u8>,
}

impl GpuSnapshot {
    /// Wrap raw snapshot bytes (e.g. read from a socket or archive).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        GpuSnapshot { bytes }
    }

    /// The raw container bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consume the snapshot, yielding its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Parse the container header and verify every section's CRC.
    pub fn validate(&self) -> Result<(), CodecError> {
        FileReader::parse(&self.bytes).map(|_| ())
    }

    /// Read a snapshot file from disk.
    pub fn read_from(path: &Path) -> std::io::Result<Self> {
        Ok(GpuSnapshot {
            bytes: std::fs::read(path)?,
        })
    }

    /// Write the snapshot to `path` atomically: the bytes land in a
    /// sibling temporary file first and are `rename`d into place, so a
    /// crash mid-write never leaves a torn checkpoint behind.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&self.bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// CRC-32 of the complete container bytes — the value the next delta
    /// in a chain records as its `parent_crc` link.
    pub fn crc(&self) -> u32 {
        crc32(&self.bytes)
    }
}

/// File name of the full snapshot that anchors a delta chain.
pub const CHAIN_BASE_FILE: &str = "base.ckpt";

/// File name of the `seq`-th delta in a chain (`seq` starts at 1).
pub fn chain_delta_file(seq: u64) -> String {
    format!("delta-{seq:06}.ckpt")
}

/// The longest valid prefix of a delta-checkpoint chain found on disk.
///
/// A chain directory holds one full [`CHAIN_BASE_FILE`] plus zero or more
/// [`chain_delta_file`]s. Validation walks forward from the base: each
/// delta must parse, carry the expected sequence number, and record a
/// `parent_crc` equal to the CRC-32 of its predecessor's complete file
/// bytes. The walk stops at the first missing or invalid link — a
/// truncated or corrupt tail shortens the chain instead of killing the
/// restore, which is exactly the recovery behaviour a crash-interrupted
/// sweep needs.
#[derive(Debug)]
pub struct SnapshotChain {
    /// `containers[0]` is the full base; the rest are deltas in sequence
    /// order. Every element has already passed header + CRC validation.
    pub containers: Vec<GpuSnapshot>,
    /// Directory the chain was loaded from.
    pub dir: PathBuf,
}

impl SnapshotChain {
    /// Load the longest valid chain prefix from `dir`. Returns `None`
    /// when there is no usable base snapshot at all (missing, unreadable,
    /// torn, or not a full container) — callers treat that as "no
    /// checkpoint" and start fresh.
    pub fn load_dir(dir: &Path) -> Option<SnapshotChain> {
        let base = GpuSnapshot::read_from(&dir.join(CHAIN_BASE_FILE)).ok()?;
        match FileReader::parse(base.as_bytes()) {
            Ok(fr) if fr.kind() == ContainerKind::Full => {}
            _ => return None,
        }
        let mut link_crc = base.crc();
        let mut containers = vec![base];
        for seq in 1u64.. {
            let Ok(delta) = GpuSnapshot::read_from(&dir.join(chain_delta_file(seq))) else {
                break;
            };
            let valid = matches!(
                FileReader::parse(delta.as_bytes()),
                Ok(fr) if fr.kind() == ContainerKind::Delta
                    && fr.sequence() == seq
                    && fr.parent_crc() == link_crc
            );
            if !valid {
                break;
            }
            link_crc = delta.crc();
            containers.push(delta);
        }
        Some(SnapshotChain { containers, dir: dir.to_path_buf() })
    }

    /// The newest container in the chain — the one whose non-gmem
    /// sections describe the state a restore lands on.
    pub fn newest(&self) -> &GpuSnapshot {
        self.containers.last().expect("chain is never empty")
    }

    /// Number of deltas after the base.
    pub fn deltas(&self) -> usize {
        self.containers.len() - 1
    }
}

/// Writes a delta chain to a directory: one full `base.ckpt`, then
/// numbered deltas, rolling over into a fresh base when the file count
/// reaches `keep`.
///
/// Crash safety invariant: every write is atomic (tmp + fsync + rename)
/// and pruning happens only *after* the replacement base has been
/// renamed into place — at which point the stale deltas already fail
/// `parent_crc` validation against the new base, so even a crash between
/// the rename and the pruning leaves a directory that restores correctly.
#[derive(Debug)]
pub struct ChainWriter {
    dir: PathBuf,
    next_seq: u64,
    last_crc: u32,
    keep: usize,
}

impl ChainWriter {
    /// Start a fresh chain in `dir`: write `base` as the anchoring full
    /// snapshot and prune any deltas left over from a previous chain.
    /// (The rename of the new base already invalidated them; removing
    /// them keeps the directory tidy and the next `load_dir` fast.)
    pub fn start(dir: &Path, base: &GpuSnapshot, keep: usize) -> std::io::Result<ChainWriter> {
        std::fs::create_dir_all(dir)?;
        base.write_to(&dir.join(CHAIN_BASE_FILE))?;
        Self::prune_deltas_from(dir, 1);
        Ok(ChainWriter {
            dir: dir.to_path_buf(),
            next_seq: 1,
            last_crc: base.crc(),
            keep,
        })
    }

    /// Continue appending to a chain previously loaded by
    /// [`SnapshotChain::load_dir`]. Stale files beyond the valid prefix
    /// are removed first so the directory and the in-memory chain agree.
    pub fn resume(chain: &SnapshotChain, keep: usize) -> ChainWriter {
        let next_seq = chain.containers.len() as u64;
        Self::prune_deltas_from(&chain.dir, next_seq);
        ChainWriter {
            dir: chain.dir.clone(),
            next_seq,
            last_crc: chain.newest().crc(),
            keep,
        }
    }

    /// Sequence number the next delta container must be built with.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// `parent_crc` the next delta container must be built with.
    pub fn last_crc(&self) -> u32 {
        self.last_crc
    }

    /// True when the next capture should be a full base (chain rollover)
    /// rather than a delta: either the chain has hit the `keep` cap, or
    /// nothing has been written yet (`next_seq` 1 with no base is never
    /// the case for a writer constructed via `start`/`resume`).
    pub fn due_rollover(&self) -> bool {
        self.keep != 0 && self.next_seq >= self.keep as u64
    }

    /// Append a delta container (already built with
    /// [`ChainWriter::next_seq`] / [`ChainWriter::last_crc`] linkage).
    pub fn append(&mut self, delta: &GpuSnapshot) -> std::io::Result<()> {
        delta.write_to(&self.dir.join(chain_delta_file(self.next_seq)))?;
        self.last_crc = delta.crc();
        self.next_seq += 1;
        Ok(())
    }

    /// Roll the chain over: atomically replace `base.ckpt` with a fresh
    /// full snapshot, then prune the now-invalid deltas.
    pub fn rollover(&mut self, base: &GpuSnapshot) -> std::io::Result<()> {
        base.write_to(&self.dir.join(CHAIN_BASE_FILE))?;
        Self::prune_deltas_from(&self.dir, 1);
        self.next_seq = 1;
        self.last_crc = base.crc();
        Ok(())
    }

    /// Best-effort removal of `delta-NNNNNN.ckpt` files with sequence ≥
    /// `from`. Stops at the first gap — chains are contiguous, so
    /// anything past a gap is already unreachable by `load_dir`.
    fn prune_deltas_from(dir: &Path, from: u64) {
        for seq in from.. {
            let path = dir.join(chain_delta_file(seq));
            if !path.exists() || std::fs::remove_file(&path).is_err() {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_file_roundtrip_is_atomic() {
        let dir = std::env::temp_dir().join("pro_snap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.ckpt");
        let snap = GpuSnapshot::from_bytes(vec![1, 2, 3, 4]);
        snap.write_to(&path).unwrap();
        let back = GpuSnapshot::read_from(&path).unwrap();
        assert_eq!(back.as_bytes(), &[1, 2, 3, 4]);
        assert!(!path.with_extension("tmp").exists(), "tmp file renamed away");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn garbage_bytes_fail_validation_cleanly() {
        let snap = GpuSnapshot::from_bytes(b"definitely not a snapshot".to_vec());
        assert_eq!(snap.validate(), Err(CodecError::BadMagic));
    }

    use pro_core::codec::{FileWriter, Writer};

    fn full_container(tag: u32) -> GpuSnapshot {
        let mut fw = FileWriter::new();
        let mut w = Writer::new();
        w.put_u32(tag);
        fw.add_section(1, w);
        GpuSnapshot::from_bytes(fw.finish())
    }

    fn delta_container(seq: u64, parent: u32, tag: u32) -> GpuSnapshot {
        let mut fw = FileWriter::new_delta(seq, parent);
        let mut w = Writer::new();
        w.put_u32(tag);
        fw.add_section(1, w);
        GpuSnapshot::from_bytes(fw.finish())
    }

    fn temp_chain_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pro_chain_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Write a base plus `n` correctly linked deltas into `dir`.
    fn write_chain(dir: &Path, n: u64) -> Vec<GpuSnapshot> {
        let base = full_container(0);
        let mut out = vec![base];
        let mut w = ChainWriter::start(dir, &out[0], 0).unwrap();
        for i in 1..=n {
            let d = delta_container(w.next_seq(), w.last_crc(), i as u32);
            w.append(&d).unwrap();
            out.push(d);
        }
        out
    }

    #[test]
    fn chain_roundtrips_through_a_directory() {
        let dir = temp_chain_dir("roundtrip");
        let written = write_chain(&dir, 3);
        let chain = SnapshotChain::load_dir(&dir).unwrap();
        assert_eq!(chain.deltas(), 3);
        for (a, b) in written.iter().zip(&chain.containers) {
            assert_eq!(a.as_bytes(), b.as_bytes());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_base_means_no_chain() {
        let dir = temp_chain_dir("nobase");
        assert!(SnapshotChain::load_dir(&dir).is_none());
        // A delta without a base is equally useless.
        delta_container(1, 0x1234, 9)
            .write_to(&dir.join(chain_delta_file(1)))
            .unwrap();
        assert!(SnapshotChain::load_dir(&dir).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_middle_delta_truncates_the_prefix() {
        let dir = temp_chain_dir("corrupt");
        write_chain(&dir, 3);
        // Flip one payload byte in delta 2: its section CRC now fails, so
        // the valid prefix is base + delta 1. Delta 3 is unreachable even
        // though it is intact.
        let p = dir.join(chain_delta_file(2));
        let mut bytes = std::fs::read(&p).unwrap();
        *bytes.last_mut().unwrap() ^= 0xff;
        std::fs::write(&p, &bytes).unwrap();
        let chain = SnapshotChain::load_dir(&dir).unwrap();
        assert_eq!(chain.deltas(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_delta_is_discarded() {
        let dir = temp_chain_dir("truncated");
        write_chain(&dir, 2);
        let p = dir.join(chain_delta_file(2));
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..bytes.len() / 2]).unwrap();
        let chain = SnapshotChain::load_dir(&dir).unwrap();
        assert_eq!(chain.deltas(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_parent_crc_breaks_the_link() {
        let dir = temp_chain_dir("badparent");
        write_chain(&dir, 1);
        // Forge a delta 2 whose parent link points at the base instead of
        // delta 1 — correct sequence number, wrong predecessor.
        let base_crc = SnapshotChain::load_dir(&dir).unwrap().containers[0].crc();
        delta_container(2, base_crc, 7)
            .write_to(&dir.join(chain_delta_file(2)))
            .unwrap();
        let chain = SnapshotChain::load_dir(&dir).unwrap();
        assert_eq!(chain.deltas(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_prunes_stale_tail_and_continues_linkage() {
        let dir = temp_chain_dir("resume");
        write_chain(&dir, 3);
        // Corrupt delta 2; resume should prune deltas 2 and 3 and hand
        // out linkage continuing from delta 1.
        let p = dir.join(chain_delta_file(2));
        let mut bytes = std::fs::read(&p).unwrap();
        *bytes.last_mut().unwrap() ^= 0xff;
        std::fs::write(&p, &bytes).unwrap();
        let chain = SnapshotChain::load_dir(&dir).unwrap();
        let mut w = ChainWriter::resume(&chain, 0);
        assert_eq!(w.next_seq(), 2);
        assert!(!dir.join(chain_delta_file(2)).exists());
        assert!(!dir.join(chain_delta_file(3)).exists());
        let d = delta_container(w.next_seq(), w.last_crc(), 42);
        w.append(&d).unwrap();
        let chain = SnapshotChain::load_dir(&dir).unwrap();
        assert_eq!(chain.deltas(), 2);
        assert_eq!(chain.newest().as_bytes(), d.as_bytes());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rollover_replaces_base_and_prunes_deltas() {
        let dir = temp_chain_dir("rollover");
        let base = full_container(0);
        let mut w = ChainWriter::start(&dir, &base, 3).unwrap();
        assert!(!w.due_rollover());
        let d1 = delta_container(w.next_seq(), w.last_crc(), 1);
        w.append(&d1).unwrap();
        let d2 = delta_container(w.next_seq(), w.last_crc(), 2);
        w.append(&d2).unwrap();
        // base + 2 deltas = 3 files = keep cap → next capture rolls over.
        assert!(w.due_rollover());
        let base2 = full_container(99);
        w.rollover(&base2).unwrap();
        assert!(!dir.join(chain_delta_file(1)).exists());
        assert!(!dir.join(chain_delta_file(2)).exists());
        let chain = SnapshotChain::load_dir(&dir).unwrap();
        assert_eq!(chain.deltas(), 0);
        assert_eq!(chain.containers[0].as_bytes(), base2.as_bytes());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

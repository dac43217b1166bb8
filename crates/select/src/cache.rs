//! The persistent selection table.
//!
//! A plain-text, line-oriented format: a version header, an FNV-1a
//! checksum of the payload, then one `class` line per shape class
//! followed by its `cand` measurement lines. Timings round-trip
//! exactly (`f64::to_bits` hex), so a save/load cycle is lossless.
//!
//! Robustness contract: *any* anomaly — missing file, wrong magic,
//! version mismatch, checksum mismatch, truncation, garbled line —
//! makes [`SelectionCache::load`] return `None` and the selector
//! starts cold, silently. A stale or corrupt cache must never be
//! worth more than an empty one. Saves go through a uniquely named
//! temp file in the target directory followed by an atomic rename, so
//! concurrent writers interleave to *some* writer's complete file,
//! never a torn mix.

use crate::candidates::Candidate;
use crate::class::ShapeClass;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Format magic; bump [`CACHE_VERSION`] on any layout change.
const CACHE_MAGIC: &str = "streamk-select-cache";
/// Current format version. Version 1 carried a kernel token in every
/// candidate; its images load as a cold start.
pub const CACHE_VERSION: u32 = 2;

/// Running measurement statistics for one candidate of one class.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CandidateStats {
    /// Number of measured launches folded in.
    pub trials: u32,
    /// Running mean launch time in seconds.
    pub mean_s: f64,
    /// Running mean of summed fixup wait stall per launch in seconds
    /// (from `ExecStats` / `RequestStats`); breaks near-ties toward
    /// schedules that consolidate without blocking.
    pub wait_s: f64,
}

impl CandidateStats {
    /// Folds one measured launch into the running means.
    pub fn record(&mut self, secs: f64, wait_s: f64) {
        self.trials += 1;
        let n = f64::from(self.trials);
        self.mean_s += (secs - self.mean_s) / n;
        self.wait_s += (wait_s - self.wait_s) / n;
    }
}

/// One shape class's slate and its measurements (parallel arrays).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassEntry {
    /// The candidate slate, heuristic seed first.
    pub candidates: Vec<Candidate>,
    /// Per-candidate measurement state, indexed like `candidates`.
    pub stats: Vec<CandidateStats>,
}

impl ClassEntry {
    /// Builds an unmeasured entry over `candidates`.
    #[must_use]
    pub fn new(candidates: Vec<Candidate>) -> Self {
        let stats = vec![CandidateStats::default(); candidates.len()];
        Self { candidates, stats }
    }

    /// Index of the measured winner: lowest mean among tried
    /// candidates, near-ties (within 2%) broken by lower wait stall.
    /// `None` when nothing has been measured.
    #[must_use]
    pub fn winner(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, s) in self.stats.iter().enumerate() {
            if s.trials == 0 {
                continue;
            }
            match best {
                None => best = Some(i),
                Some(b) => {
                    let sb = &self.stats[b];
                    let near = (s.mean_s - sb.mean_s).abs() <= 0.02 * sb.mean_s;
                    if (near && s.wait_s < sb.wait_s) || (!near && s.mean_s < sb.mean_s) {
                        best = Some(i);
                    }
                }
            }
        }
        best
    }

    /// Index of the first untried candidate, if any.
    #[must_use]
    pub fn first_untried(&self) -> Option<usize> {
        self.stats.iter().position(|s| s.trials == 0)
    }
}

/// The selection table: shape class → measured slate.
#[derive(Debug, Clone, Default)]
pub struct SelectionCache {
    /// `BTreeMap` so serialization order — and thus the checksum — is
    /// deterministic.
    pub entries: BTreeMap<ShapeClass, ClassEntry>,
}

/// Monotonic counter making temp-file names unique within a process.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl SelectionCache {
    /// An empty (cold) table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total measured launches across all classes.
    #[must_use]
    pub fn total_trials(&self) -> u64 {
        self.entries
            .values()
            .flat_map(|e| e.stats.iter())
            .map(|s| u64::from(s.trials))
            .sum()
    }

    /// Serializes the payload (everything the checksum covers).
    fn payload(&self) -> String {
        let mut out = String::new();
        for (class, entry) in &self.entries {
            out.push_str(&format!("class {} {}\n", class.encode(), entry.candidates.len()));
            for (candidate, stats) in entry.candidates.iter().zip(&entry.stats) {
                out.push_str(&format!(
                    "cand {} {} {:016x} {:016x}\n",
                    candidate.encode(),
                    stats.trials,
                    stats.mean_s.to_bits(),
                    stats.wait_s.to_bits(),
                ));
            }
        }
        out
    }

    /// The full file image: magic + version, checksum, payload.
    #[must_use]
    pub fn serialize(&self) -> String {
        let payload = self.payload();
        format!("{CACHE_MAGIC} v{CACHE_VERSION}\nchecksum {:016x}\n{payload}", fnv1a(payload.as_bytes()))
    }

    /// Parses a file image; `None` on any anomaly.
    #[must_use]
    pub fn deserialize(text: &str) -> Option<Self> {
        let mut lines = text.lines();
        let header = lines.next()?;
        let version = header.strip_prefix(CACHE_MAGIC)?.trim().strip_prefix('v')?;
        if version.parse::<u32>().ok()? != CACHE_VERSION {
            return None;
        }
        let checksum_line = lines.next()?;
        let expected = u64::from_str_radix(checksum_line.strip_prefix("checksum ")?, 16).ok()?;
        let payload_start = text.match_indices('\n').nth(1)? .0 + 1;
        let payload = &text[payload_start..];
        if fnv1a(payload.as_bytes()) != expected {
            return None;
        }

        let mut entries = BTreeMap::new();
        let mut lines = payload.lines().peekable();
        while let Some(line) = lines.next() {
            let rest = line.strip_prefix("class ")?;
            let (key, count) = rest.rsplit_once(' ')?;
            let class = ShapeClass::decode(key)?;
            let count: usize = count.parse().ok()?;
            let mut entry = ClassEntry::default();
            for _ in 0..count {
                let cand_line = lines.next()?.strip_prefix("cand ")?;
                // The candidate's encoding (strategy, tile, an optional
                // Strassen token), then three stat fields.
                let fields: Vec<&str> = cand_line.split(' ').collect();
                let (encoded, stats) = fields.split_at(fields.len().checked_sub(3)?);
                let candidate = Candidate::decode(&encoded.join(" "))?;
                let trials: u32 = stats[0].parse().ok()?;
                let mean_s = f64::from_bits(u64::from_str_radix(stats[1], 16).ok()?);
                let wait_s = f64::from_bits(u64::from_str_radix(stats[2], 16).ok()?);
                if !mean_s.is_finite() || !wait_s.is_finite() || mean_s < 0.0 || wait_s < 0.0 {
                    return None;
                }
                entry.candidates.push(candidate);
                entry.stats.push(CandidateStats { trials, mean_s, wait_s });
            }
            entries.insert(class, entry);
        }
        Some(Self { entries })
    }

    /// Loads a cache from `path`. `None` — silently — on any failure:
    /// a cold start is always acceptable, a torn table never is.
    #[must_use]
    pub fn load(path: &Path) -> Option<Self> {
        let text = std::fs::read_to_string(path).ok()?;
        Self::deserialize(&text)
    }

    /// Saves atomically: write a uniquely named temp file next to
    /// `path`, then rename over it. Concurrent savers race to the
    /// rename; the file is always *some* saver's complete image.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the temp write or the rename.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let mut temp = path.as_os_str().to_owned();
        temp.push(format!(".{}.{seq}.tmp", std::process::id()));
        let temp = std::path::PathBuf::from(temp);
        {
            let mut f = std::fs::File::create(&temp)?;
            f.write_all(self.serialize().as_bytes())?;
            f.sync_all()?;
        }
        let renamed = std::fs::rename(&temp, path);
        if renamed.is_err() {
            let _ = std::fs::remove_file(&temp);
        }
        renamed
    }
}

/// FNV-1a 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamk_core::Strategy;
    use streamk_types::{GemmShape, Layout, Precision, TileShape};

    fn sample_cache() -> SelectionCache {
        let mut cache = SelectionCache::new();
        for (i, shape) in
            [GemmShape::new(256, 256, 256), GemmShape::new(64, 64, 4096)].iter().enumerate()
        {
            let class = ShapeClass::of(*shape, Precision::Fp64, Layout::RowMajor, 4);
            let mut entry = ClassEntry::new(vec![
                Candidate {
                    strategy: Strategy::DataParallel,
                    tile: TileShape::new(64, 64, 16),
                    strassen_depth: 0,
                },
                Candidate {
                    strategy: Strategy::StreamK { grid: 4 },
                    tile: TileShape::new(32, 32, 16),
                    strassen_depth: 2,
                },
            ]);
            entry.stats[0].record(1e-3 * (i + 1) as f64, 1e-5);
            entry.stats[1].record(2e-3, 3e-5);
            entry.stats[1].record(4e-3, 1e-5);
            cache.entries.insert(class, entry);
        }
        cache
    }

    #[test]
    fn serialize_round_trips_exactly() {
        let cache = sample_cache();
        let text = cache.serialize();
        let back = SelectionCache::deserialize(&text).expect("valid image");
        assert_eq!(back.entries.len(), cache.entries.len());
        for (class, entry) in &cache.entries {
            let b = &back.entries[class];
            assert_eq!(b.candidates, entry.candidates);
            for (s1, s2) in entry.stats.iter().zip(&b.stats) {
                assert_eq!(s1.trials, s2.trials);
                // Bit-exact timing round-trip.
                assert_eq!(s1.mean_s.to_bits(), s2.mean_s.to_bits());
                assert_eq!(s1.wait_s.to_bits(), s2.wait_s.to_bits());
            }
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let text = sample_cache().serialize();
        let bumped = text.replace(&format!("v{CACHE_VERSION}"), "v999");
        assert!(SelectionCache::deserialize(&bumped).is_none());
    }

    #[test]
    fn corruption_and_truncation_are_rejected() {
        let text = sample_cache().serialize();
        // Flip one payload byte: checksum must catch it.
        let flipped = text.replacen("cand dp", "cand dq", 1);
        assert!(SelectionCache::deserialize(&flipped).is_none());
        // Truncate mid-payload.
        let truncated = &text[..text.len() - 20];
        assert!(SelectionCache::deserialize(truncated).is_none());
        // Garbage and empty input.
        assert!(SelectionCache::deserialize("not a cache").is_none());
        assert!(SelectionCache::deserialize("").is_none());
    }

    #[test]
    fn winner_prefers_lower_mean_and_breaks_ties_on_wait() {
        let mut entry = ClassEntry::new(vec![
            Candidate {
                strategy: Strategy::DataParallel,
                tile: TileShape::new(64, 64, 16),
                strassen_depth: 0,
            },
            Candidate {
                strategy: Strategy::StreamK { grid: 4 },
                tile: TileShape::new(64, 64, 16),
                strassen_depth: 0,
            },
        ]);
        assert_eq!(entry.winner(), None);
        entry.stats[0].record(1.00e-3, 5e-5);
        assert_eq!(entry.winner(), Some(0));
        // Within 2% on time but much lower stall: the tie-break flips.
        entry.stats[1].record(1.01e-3, 1e-6);
        assert_eq!(entry.winner(), Some(1));
    }

    #[test]
    fn running_mean_is_exact_for_constant_series() {
        let mut s = CandidateStats::default();
        for _ in 0..17 {
            s.record(2.5e-3, 1e-4);
        }
        assert_eq!(s.trials, 17);
        assert!((s.mean_s - 2.5e-3).abs() < 1e-12);
        assert!((s.wait_s - 1e-4).abs() < 1e-12);
    }
}

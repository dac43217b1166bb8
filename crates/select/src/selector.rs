//! The online adaptive selector.
//!
//! The decision ladder, per launch:
//!
//! 1. **Cold class** (never seen): return the App. A.1 heuristic pick
//!    — the paper's static decision is the floor the selector can
//!    never regress below on first contact. If a distilled tree is
//!    loaded, it overrides the heuristic for cold classes (that is
//!    the zero-lookup steady state).
//! 2. **Warming class** (slate not fully measured): explore the first
//!    untried candidate — after `top_k` launches every candidate has
//!    one real measurement.
//! 3. **Warm class**: epsilon-greedy — with probability `epsilon`
//!    re-explore a uniform candidate (guards against measurement
//!    noise freezing a wrong winner), otherwise exploit the measured
//!    winner (near-ties broken by fixup wait stall from `ExecStats`).

use crate::cache::{ClassEntry, SelectionCache};
use crate::candidates::{candidates_for, Candidate};
use crate::class::ShapeClass;
use std::path::PathBuf;
use streamk_cpu::ExecStats;
use streamk_ensemble::{HeuristicSelector, TileEnsemble};
use streamk_tune::DecisionTree;
use streamk_types::{GemmShape, Layout, Precision};

/// Selector tuning knobs.
#[derive(Debug, Clone)]
pub struct SelectorConfig {
    /// Compute precision of the launches this selector serves.
    pub precision: Precision,
    /// Worker count of the executor the selections run on.
    pub workers: usize,
    /// Slate size per class (top-K of the tune space).
    pub top_k: usize,
    /// Re-exploration probability once a slate is fully measured.
    pub epsilon: f64,
    /// Seed of the deterministic epsilon stream.
    pub seed: u64,
    /// Cache file; `None` keeps the table in memory only.
    pub cache_path: Option<PathBuf>,
}

impl SelectorConfig {
    /// Defaults: `top_k = 8`, `epsilon = 0.1`, fixed seed, no
    /// persistence.
    #[must_use]
    pub fn new(precision: Precision, workers: usize) -> Self {
        Self {
            precision,
            workers,
            top_k: 8,
            epsilon: 0.1,
            seed: 0x5eed_cafe,
            cache_path: None,
        }
    }

    /// Sets the slate size.
    #[must_use]
    pub fn with_top_k(mut self, top_k: usize) -> Self {
        self.top_k = top_k;
        self
    }

    /// Sets the re-exploration probability.
    #[must_use]
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the epsilon-stream seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables persistence at `path`.
    #[must_use]
    pub fn with_cache_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.cache_path = Some(path.into());
        self
    }
}

/// How a selection was made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionSource {
    /// Cold class: the App. A.1 static heuristic decision.
    ColdHeuristic,
    /// Cold class under a distilled tree: zero-lookup prediction.
    Distilled,
    /// Warming or epsilon re-exploration: gathering measurements.
    Explore,
    /// Warm class: the measured winner.
    Exploit,
}

/// One selection: enough context to execute it and to feed the
/// measurement back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Selection {
    /// The class the launch was keyed to.
    pub class: ShapeClass,
    /// The chosen schedule.
    pub candidate: Candidate,
    /// Index of `candidate` in the class slate (best effort — the
    /// feedback path re-resolves by equality if the slate shifted).
    pub index: usize,
    /// Decision provenance.
    pub source: SelectionSource,
}

/// The distilled model: a decision tree over class features plus the
/// label → candidate mapping it predicts into.
#[derive(Debug, Clone)]
struct DistilledModel {
    tree: DecisionTree,
    labels: Vec<Candidate>,
}

/// The online adaptive selector. See the module docs for the
/// decision ladder.
#[derive(Debug)]
pub struct AdaptiveSelector {
    config: SelectorConfig,
    heuristic: HeuristicSelector,
    cache: SelectionCache,
    /// Whether construction found and accepted a persisted table.
    loaded_from_disk: bool,
    distilled: Option<DistilledModel>,
    rng: u64,
}

impl AdaptiveSelector {
    /// Builds a selector, loading the persisted table when
    /// `config.cache_path` is set and the file is intact (any
    /// anomaly → silent cold start).
    ///
    /// # Panics
    ///
    /// Panics if `config.workers == 0` or `config.top_k == 0`.
    #[must_use]
    pub fn new(config: SelectorConfig) -> Self {
        assert!(config.workers > 0, "workers must be at least 1");
        assert!(config.top_k > 0, "top_k must be at least 1");
        let heuristic = HeuristicSelector::new(
            TileEnsemble::for_precision(config.precision),
            config.workers,
        );
        let cache = config
            .cache_path
            .as_deref()
            .and_then(SelectionCache::load);
        let loaded_from_disk = cache.is_some();
        let rng = config.seed | 1;
        Self {
            heuristic,
            cache: cache.unwrap_or_default(),
            loaded_from_disk,
            distilled: None,
            rng,
            config,
        }
    }

    /// The configuration this selector was built with.
    #[must_use]
    pub fn config(&self) -> &SelectorConfig {
        &self.config
    }

    /// `true` when construction recovered a persisted table.
    #[must_use]
    pub fn loaded_from_disk(&self) -> bool {
        self.loaded_from_disk
    }

    /// The classes currently tracked.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.cache.entries.len()
    }

    /// Total measured launches folded into the table.
    #[must_use]
    pub fn total_trials(&self) -> u64 {
        self.cache.total_trials()
    }

    /// The class a launch of `shape` on `layout` operands keys to.
    #[must_use]
    pub fn class_of(&self, shape: GemmShape, layout: Layout) -> ShapeClass {
        ShapeClass::of(shape, self.config.precision, layout, self.config.workers)
    }

    /// The slate for `shape`, creating the class entry if absent.
    pub fn slate(&mut self, shape: GemmShape, layout: Layout) -> (ShapeClass, Vec<Candidate>) {
        let class = self.class_of(shape, layout);
        let entry = self.entry_mut(class, shape);
        (class, entry.candidates.clone())
    }

    fn entry_mut(&mut self, class: ShapeClass, shape: GemmShape) -> &mut ClassEntry {
        let config = &self.config;
        self.cache.entries.entry(class).or_insert_with(|| {
            ClassEntry::new(candidates_for(shape, config.precision, config.workers, config.top_k))
        })
    }

    fn next_random(&mut self) -> f64 {
        // xorshift64*: deterministic, seedable, plenty for epsilon.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Selects a schedule for a launch, advancing the exploration
    /// state (see the module docs for the ladder).
    pub fn select(&mut self, shape: GemmShape, layout: Layout) -> Selection {
        self.select_inner(shape, layout, true)
    }

    /// Selects without exploring: cold classes still fall back to the
    /// tree/heuristic, warm classes always return the measured
    /// winner. Use for regret evaluation and steady-state serving.
    pub fn select_frozen(&mut self, shape: GemmShape, layout: Layout) -> Selection {
        self.select_inner(shape, layout, false)
    }

    fn select_inner(&mut self, shape: GemmShape, layout: Layout, explore: bool) -> Selection {
        let class = self.class_of(shape, layout);
        let epsilon_roll = if explore { self.next_random() } else { 1.0 };
        self.entry_mut(class, shape);
        let pick = |entry: &ClassEntry, index: usize, source: SelectionSource| Selection {
            class,
            candidate: entry.candidates[index],
            index,
            source,
        };

        let cold = self.cache.entries[&class].stats.iter().all(|s| s.trials == 0);
        if cold {
            // Cold: distilled prediction when available, else the
            // static heuristic decision.
            if let Some(model) = &self.distilled {
                let predicted = model.labels[model.tree.predict(&class.features())];
                let entry = &self.cache.entries[&class];
                let index = entry.candidates.iter().position(|c| *c == predicted).unwrap_or(0);
                return pick(entry, index, SelectionSource::Distilled);
            }
            let (config, strategy) = self.heuristic.select(shape);
            let entry = &self.cache.entries[&class];
            let index = entry
                .candidates
                .iter()
                .position(|c| c.strategy == strategy && c.tile == config.tile)
                .unwrap_or(0);
            return pick(entry, index, SelectionSource::ColdHeuristic);
        }

        if explore {
            if let Some(index) = self.cache.entries[&class].first_untried() {
                return pick(&self.cache.entries[&class], index, SelectionSource::Explore);
            }
            if epsilon_roll < self.config.epsilon {
                let roll = self.next_random();
                let entry = &self.cache.entries[&class];
                let index = (roll * entry.candidates.len() as f64) as usize % entry.candidates.len();
                return pick(entry, index, SelectionSource::Explore);
            }
        }

        let entry = &self.cache.entries[&class];
        let index = entry.winner().unwrap_or(0);
        pick(entry, index, SelectionSource::Exploit)
    }

    /// Feeds one measured launch back into the table. `secs` is the
    /// wall time of the launch `selection` scheduled; `stats` is the
    /// executor's per-launch counter snapshot.
    pub fn feedback(&mut self, selection: &Selection, secs: f64, stats: &ExecStats) {
        self.feedback_raw(selection, secs, stats.wait_stall.as_secs_f64());
    }

    /// Feedback with an explicit wait-stall figure (the common core;
    /// also the entry point for a replay that measures outside the
    /// executor).
    pub fn feedback_raw(&mut self, selection: &Selection, secs: f64, wait_s: f64) {
        if !secs.is_finite() || secs < 0.0 {
            return;
        }
        let shape = selection.class.representative();
        let entry = self.entry_mut(selection.class, shape);
        let index = if entry.candidates.get(selection.index) == Some(&selection.candidate) {
            selection.index
        } else if let Some(i) = entry.candidates.iter().position(|c| *c == selection.candidate) {
            i
        } else {
            entry.candidates.push(selection.candidate);
            entry.stats.push(Default::default());
            entry.candidates.len() - 1
        };
        entry.stats[index].record(secs, wait_s.max(0.0));
    }

    /// Persists the table to the configured cache path. Returns
    /// `Ok(false)` when no path is configured.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from [`SelectionCache::save`].
    pub fn persist(&self) -> std::io::Result<bool> {
        match &self.config.cache_path {
            None => Ok(false),
            Some(path) => self.cache.save(path).map(|()| true),
        }
    }

    /// Distills the measured table into a decision tree over class
    /// features (via [`streamk_tune::DecisionTree`]). Classes with at
    /// least one measurement contribute their winner as a training
    /// sample. Returns the number of training classes, or `None` when
    /// nothing is measured yet. The tree then serves cold classes in
    /// [`select`](Self::select) — the zero-lookup steady state.
    pub fn distill(&mut self) -> Option<usize> {
        let mut labels: Vec<Candidate> = Vec::new();
        let mut samples: Vec<(Vec<f64>, usize)> = Vec::new();
        for (class, entry) in &self.cache.entries {
            let Some(w) = entry.winner() else { continue };
            let candidate = entry.candidates[w];
            let label = labels.iter().position(|c| *c == candidate).unwrap_or_else(|| {
                labels.push(candidate);
                labels.len() - 1
            });
            samples.push((class.features(), label));
        }
        if samples.is_empty() {
            return None;
        }
        let classes = samples.len();
        let tree = DecisionTree::train(&samples, 16, 1);
        self.distilled = Some(DistilledModel { tree, labels });
        Some(classes)
    }

    /// `true` once a distilled tree is active.
    #[must_use]
    pub fn is_distilled(&self) -> bool {
        self.distilled.is_some()
    }

    /// Read access to the underlying table (reporting, tests).
    #[must_use]
    pub fn cache(&self) -> &SelectionCache {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATS: ExecStats = ExecStats {
        steals: 0,
        deferrals: 0,
        wait_stall: std::time::Duration::ZERO,
        recoveries: 0,
        launches: 1,
    };

    fn selector() -> AdaptiveSelector {
        AdaptiveSelector::new(SelectorConfig::new(Precision::Fp64, 4).with_top_k(4))
    }

    #[test]
    fn cold_class_returns_the_heuristic_pick() {
        let mut s = selector();
        let shape = GemmShape::new(512, 512, 512);
        let sel = s.select(shape, Layout::RowMajor);
        assert_eq!(sel.source, SelectionSource::ColdHeuristic);
        let (config, strategy) = HeuristicSelector::new(TileEnsemble::fp64(), 4).select(shape);
        assert_eq!(sel.candidate.tile, config.tile);
        assert_eq!(sel.candidate.strategy, strategy);
    }

    #[test]
    fn exploration_covers_the_slate_then_exploits_the_winner() {
        let mut s = selector();
        let shape = GemmShape::new(256, 256, 256);
        let (_, slate) = s.slate(shape, Layout::RowMajor);

        // Feed every candidate a distinct synthetic time; candidate 2
        // is the plant.
        for round in 0..slate.len() {
            let sel = s.select(shape, Layout::RowMajor);
            assert!(
                matches!(sel.source, SelectionSource::ColdHeuristic | SelectionSource::Explore),
                "round {round}: {:?}",
                sel.source
            );
            let secs = if sel.candidate == slate[2] { 1e-4 } else { 5e-4 };
            s.feedback(&sel, secs, &STATS);
        }
        // Fully measured: frozen selection must return the plant.
        let sel = s.select_frozen(shape, Layout::RowMajor);
        assert_eq!(sel.source, SelectionSource::Exploit);
        assert_eq!(sel.candidate, slate[2]);
    }

    #[test]
    fn feedback_converges_to_the_measured_winner() {
        let mut s = AdaptiveSelector::new(
            SelectorConfig::new(Precision::Fp64, 4).with_top_k(4).with_epsilon(0.5),
        );
        let shape = GemmShape::new(128, 128, 1024);
        let (_, slate) = s.slate(shape, Layout::RowMajor);
        let planted = slate[1];
        for _ in 0..50 {
            let sel = s.select(shape, Layout::RowMajor);
            let secs = if sel.candidate == planted { 1e-4 } else { 8e-4 };
            s.feedback(&sel, secs, &STATS);
        }
        let sel = s.select_frozen(shape, Layout::RowMajor);
        assert_eq!(sel.candidate, planted, "epsilon-greedy failed to converge");
    }

    #[test]
    fn distilled_tree_predicts_the_converged_winner_for_cold_lookups() {
        let mut s = selector();
        // Converge several classes onto their slate seed (index 0) by
        // measuring it fastest.
        let shapes =
            [GemmShape::new(256, 256, 256), GemmShape::new(64, 64, 2048), GemmShape::new(512, 128, 128)];
        for &shape in &shapes {
            let (_, slate) = s.slate(shape, Layout::RowMajor);
            for (i, &candidate) in slate.iter().enumerate() {
                let sel = Selection {
                    class: s.class_of(shape, Layout::RowMajor),
                    candidate,
                    index: i,
                    source: SelectionSource::Explore,
                };
                s.feedback(&sel, if i == 1 { 1e-4 } else { 9e-4 }, &STATS);
            }
        }
        assert_eq!(s.distill(), Some(shapes.len()));
        assert!(s.is_distilled());

        // A fresh selector sharing the tree state: cold classes now
        // resolve through the tree. Simulate by clearing the table
        // but keeping the model.
        s.cache.entries.clear();
        for &shape in &shapes {
            let sel = s.select(shape, Layout::RowMajor);
            assert_eq!(sel.source, SelectionSource::Distilled, "{shape}");
            let (_, slate) = s.slate(shape, Layout::RowMajor);
            assert_eq!(sel.candidate, slate[1], "{shape}");
        }
    }

    #[test]
    fn feedback_with_shifted_index_reresolves_by_equality() {
        let mut s = selector();
        let shape = GemmShape::new(96, 96, 96);
        let (class, slate) = s.slate(shape, Layout::RowMajor);
        let sel = Selection {
            class,
            candidate: slate[1],
            index: 0, // wrong on purpose
            source: SelectionSource::Explore,
        };
        s.feedback(&sel, 1e-3, &STATS);
        let entry = &s.cache().entries[&class];
        assert_eq!(entry.stats[1].trials, 1);
        assert_eq!(entry.stats[0].trials, 0);
    }

    #[test]
    fn nonfinite_feedback_is_dropped() {
        let mut s = selector();
        let shape = GemmShape::new(96, 96, 96);
        let sel = s.select(shape, Layout::RowMajor);
        s.feedback_raw(&sel, f64::NAN, 0.0);
        s.feedback_raw(&sel, -1.0, 0.0);
        assert_eq!(s.total_trials(), 0);
    }
}

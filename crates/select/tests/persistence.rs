//! Selector persistence: round-trip through the cache file, rejection
//! of incompatible or damaged files (always a silent cold start, never
//! an error), and concurrent-writer atomicity.

use std::path::PathBuf;
use std::sync::Arc;
use streamk_select::cache::CACHE_VERSION;
use streamk_select::{AdaptiveSelector, SelectionCache, SelectorConfig, ShapeClass};
use streamk_types::{GemmShape, Layout, Precision};

/// A unique scratch directory per test (process id + test name), so
/// parallel test binaries and threads never collide.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("streamk-select-test-{}-{test}", std::process::id()));
    // Left over from a previous failed run, possibly.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn config(path: &std::path::Path) -> SelectorConfig {
    SelectorConfig::new(Precision::Fp64, 4).with_top_k(4).with_cache_path(path)
}

/// Warms one class with synthetic measurements so `selector` has a
/// non-trivial table: candidate `winner_index` gets the fastest time.
fn warm(selector: &mut AdaptiveSelector, shape: GemmShape, winner_index: usize) {
    let (class, slate) = selector.slate(shape, Layout::RowMajor);
    for (i, &candidate) in slate.iter().enumerate() {
        let sel = streamk_select::Selection {
            class,
            candidate,
            index: i,
            source: streamk_select::SelectionSource::Explore,
        };
        let secs = if i == winner_index { 1e-4 } else { 7e-4 };
        selector.feedback_raw(&sel, secs, 1e-6);
    }
}

#[test]
fn persist_then_reload_round_trips_the_table_and_the_decision() {
    let dir = scratch_dir("round-trip");
    let path = dir.join("cache");
    let shapes = [GemmShape::new(256, 256, 256), GemmShape::new(64, 64, 4096)];

    let mut first = AdaptiveSelector::new(config(&path));
    assert!(!first.loaded_from_disk(), "no file yet: must start cold");
    for (i, &shape) in shapes.iter().enumerate() {
        warm(&mut first, shape, 1 + i);
    }
    let trials = first.total_trials();
    assert!(trials > 0);
    assert!(first.persist().expect("persist"), "path configured: must write");
    assert!(path.exists(), "cache file must exist after persist");

    let mut second = AdaptiveSelector::new(config(&path));
    assert!(second.loaded_from_disk(), "intact file must be recovered");
    assert_eq!(second.total_trials(), trials);
    assert_eq!(second.class_count(), first.class_count());
    for &shape in &shapes {
        let a = first.select_frozen(shape, Layout::RowMajor);
        let b = second.select_frozen(shape, Layout::RowMajor);
        assert_eq!(a.candidate, b.candidate, "{shape}: reloaded winner differs");
        // Timings must survive bit-exactly, not just approximately.
        let class = first.class_of(shape, Layout::RowMajor);
        let e1 = &first.cache().entries[&class];
        let e2 = &second.cache().entries[&class];
        for (s1, s2) in e1.stats.iter().zip(&e2.stats) {
            assert_eq!(s1.trials, s2.trials);
            assert_eq!(s1.mean_s.to_bits(), s2.mean_s.to_bits());
            assert_eq!(s1.wait_s.to_bits(), s2.wait_s.to_bits());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_mismatch_falls_back_to_cold_without_error() {
    let dir = scratch_dir("version");
    let path = dir.join("cache");
    let mut s = AdaptiveSelector::new(config(&path));
    warm(&mut s, GemmShape::new(128, 128, 128), 0);
    s.persist().expect("persist");

    // Rewrite the header with a future version; the payload stays
    // intact, so only the version gate can reject it.
    let text = std::fs::read_to_string(&path).expect("read cache");
    let bumped = text.replacen(&format!(" v{CACHE_VERSION}\n"), " v999\n", 1);
    assert_ne!(text, bumped, "header rewrite must take effect");
    std::fs::write(&path, bumped).expect("rewrite cache");

    let reloaded = AdaptiveSelector::new(config(&path));
    assert!(!reloaded.loaded_from_disk(), "future version must be rejected");
    assert_eq!(reloaded.total_trials(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// FNV-1a 64-bit, the cache file's payload checksum, written out here
/// so that the images below fail on their content and not on a
/// checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// A version-1 image, byte for byte the format that carried a kernel
/// token in every candidate, loads as a cold start — and so does the
/// same payload under the current header, whose candidates do not
/// decode. Neither panics, and the selector runs on from the heuristic.
#[test]
fn a_version_one_image_with_kernel_tokens_loads_cold() {
    let dir = scratch_dir("v1");
    let path = dir.join("cache");
    let shape = GemmShape::new(256, 256, 256);
    let class = ShapeClass::of(shape, Precision::Fp64, Layout::RowMajor, 4).encode();
    let payload = format!(
        "class {class} 2\n\
         cand dp 64x64x16 simd8x32 3 {:016x} {:016x}\n\
         cand sk.4 32x32x16 packed4x8 1 {:016x} {:016x}\n",
        1.0e-3f64.to_bits(),
        1.0e-5f64.to_bits(),
        2.0e-3f64.to_bits(),
        0.0f64.to_bits(),
    );
    for version in [1, CACHE_VERSION] {
        let image = format!("streamk-select-cache v{version}\nchecksum {:016x}\n{payload}", fnv1a(payload.as_bytes()));
        std::fs::write(&path, image).expect("write cache");
        let mut s = AdaptiveSelector::new(config(&path));
        assert!(!s.loaded_from_disk(), "a v{version} header over kernel tokens must load cold");
        assert_eq!(s.total_trials(), 0);
        let pick = s.select(shape, Layout::RowMajor);
        assert_eq!(pick.source, streamk_select::SelectionSource::ColdHeuristic);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_or_corrupted_file_falls_back_to_cold_without_error() {
    let dir = scratch_dir("corrupt");
    let path = dir.join("cache");
    let mut s = AdaptiveSelector::new(config(&path));
    warm(&mut s, GemmShape::new(192, 192, 192), 2);
    s.persist().expect("persist");
    let intact = std::fs::read(&path).expect("read cache");

    // Truncation at several points, including mid-line.
    for cut in [0, 1, intact.len() / 2, intact.len() - 1] {
        std::fs::write(&path, &intact[..cut]).expect("truncate");
        let r = AdaptiveSelector::new(config(&path));
        assert!(!r.loaded_from_disk(), "truncation at {cut} must be rejected");
        assert_eq!(r.total_trials(), 0);
    }

    // Single-byte payload corruption: caught by the checksum.
    let mut flipped = intact.clone();
    let last = flipped.len() - 2;
    flipped[last] ^= 0x01;
    std::fs::write(&path, &flipped).expect("corrupt");
    let r = AdaptiveSelector::new(config(&path));
    assert!(!r.loaded_from_disk(), "bit flip must be rejected");

    // Outright garbage, and a missing file.
    std::fs::write(&path, b"\x00\xffnot a cache\n").expect("garbage");
    assert!(!AdaptiveSelector::new(config(&path)).loaded_from_disk());
    std::fs::remove_file(&path).expect("remove");
    assert!(!AdaptiveSelector::new(config(&path)).loaded_from_disk());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_writers_leave_some_writers_complete_image() {
    let dir = scratch_dir("concurrent");
    let path = Arc::new(dir.join("cache"));

    // Each writer builds a distinct valid table (its own class), then
    // all save to the same path simultaneously, repeatedly.
    let writers: Vec<(u64, SelectionCache)> = (0..4)
        .map(|w| {
            let mut s = AdaptiveSelector::new(SelectorConfig::new(Precision::Fp64, 4).with_top_k(4));
            let extent = 64 << w; // distinct shape class per writer
            warm(&mut s, GemmShape::new(extent, extent, extent), 0);
            (s.total_trials(), s.cache().clone())
        })
        .collect();
    let trial_counts: Vec<u64> = writers.iter().map(|(t, _)| *t).collect();

    let handles: Vec<_> = writers
        .into_iter()
        .map(|(_, cache)| {
            let path = Arc::clone(&path);
            std::thread::spawn(move || {
                for _ in 0..25 {
                    cache.save(&path).expect("save");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("writer thread");
    }

    // The surviving file must be one writer's complete image — loadable
    // (checksum intact, so no torn interleaving) and matching one of
    // the written tables exactly.
    let loaded = SelectionCache::load(&path).expect("file must parse after the race");
    assert_eq!(loaded.entries.len(), 1, "each writer wrote exactly one class");
    assert!(
        trial_counts.contains(&loaded.total_trials()),
        "loaded table must match some writer's image"
    );

    // No temp droppings left behind.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("read scratch dir")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

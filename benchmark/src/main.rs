//! The repo's benchmark: seven workloads over the CPU executor, the
//! GEMM service and the GPU simulator, every layer measured from
//! outside through its public functions.
//!
//! ```text
//! benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced]
//!               [--smoke] [--repeat N] [--workers W] [--out FILE] [--samples FILE]
//! benchmark compare BASE.json NEW.json
//! ```
//!
//! `run --workload NAME` measures one workload in this process and
//! prints its metrics by name, the last line of standard output being
//! the result as one JSON object. Without `--workload`, or with
//! `--repeat`/`--out`, each run is a child process of its own and the
//! results are collected into one file for `compare`. See `README.md`.

mod compare;
mod env;
mod heap;
mod json;
mod layers;
mod probes;
mod reference;
mod spans;
mod spec;
mod stats;
mod workloads;

use env::Env;
use reference::Reference;
use spec::{spec, Metric};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::{Outcome, Workload};

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// `setup_s` and `setup_heap_mb` are medians over repeated set-ups: at
/// least five, and as many as fit in a tenth of the timed length (101
/// at most) — at the declared 15 s, ten to twenty for the workloads
/// that set up in a tenth of a second — so one late thread spawn, or
/// one free that loses a race with the next allocation, cannot move
/// them.
const SETUP_REPEATS: std::ops::RangeInclusive<usize> = 5..=101;
const SETUP_SHARE: f64 = 0.1;
/// Op samples the end-to-end run reserves room for up front, so the
/// sample buffer does not reallocate between timed ops: 60 s of the
/// fastest workload.
const SAMPLE_CAPACITY: usize = 1 << 18;
/// Windows a run is cut into for `op_ref_ratio`: each long enough for
/// a lower quartile of its own, short enough that the host's weather
/// holds across it.
const RATIO_WINDOWS: usize = 20;
/// `--smoke` measures for this share of the declared run length.
const SMOKE_DIVISOR: f64 = 50.0;

const USAGE: &str = "usage:
  benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced]
                [--smoke] [--repeat N] [--workers W] [--out FILE] [--samples FILE]
  benchmark compare BASE.json NEW.json";

#[derive(Debug, Clone)]
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat: usize,
    workers: Option<usize>,
    out: Option<String>,
    samples: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: None,
        seed: 1,
        seconds: spec().run_seconds,
        traced: false,
        repeat: 1,
        workers: None,
        out: None,
        samples: None,
    };
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} expects {what}"));
        fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot read `{v}`"))
        }
        match flag.as_str() {
            "--workload" => run.workload = Some(value("a workload name")?.clone()),
            "--seed" => run.seed = number(flag, value("a number")?)?,
            "--seconds" => run.seconds = number(flag, value("a number of seconds")?)?,
            "--trace" => run.traced = number::<u8>(flag, value("0 or 1")?)? != 0,
            "--traced" => run.traced = true,
            "--smoke" => smoke = true,
            "--repeat" => run.repeat = number(flag, value("a count")?)?,
            "--workers" => run.workers = Some(number(flag, value("a count")?)?),
            "--out" => run.out = Some(value("a file")?.clone()),
            "--samples" => run.samples = Some(value("a file")?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if smoke {
        run.seconds /= SMOKE_DIVISOR;
    }
    if !(run.seconds > 0.0 && run.seconds <= 60.0) || run.repeat == 0 {
        return Err("--seconds must be in (0, 60] and --repeat at least 1".into());
    }
    if let Some(name) = &run.workload {
        if !spec().workload_names().contains(&name.as_str()) {
            return Err(format!(
                "unknown workload `{name}`; declared: {}",
                spec().workload_names().join(", ")
            ));
        }
    }
    Ok(run)
}

/// One workload's result: the object the driver reads.
struct RunResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    /// `(name, value)` in declaration order.
    metrics: Vec<(String, f64)>,
}

impl RunResult {
    fn to_json(&self, declared: &[Metric]) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .zip(declared)
            .map(|((name, value), m)| {
                // A non-finite reading cannot be written as JSON.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Orders `values` as `declared` lists them; a metric the run did not
/// produce is an error, so the printed set always equals the declared
/// one.
fn in_declared_order(declared: &[Metric], mut values: Vec<(String, f64)>) -> Vec<(String, f64)> {
    let ordered: Vec<(String, f64)> = declared
        .iter()
        .map(|m| {
            let at = values
                .iter()
                .position(|(n, _)| *n == m.name)
                .unwrap_or_else(|| panic!("declared metric `{}` was not measured", m.name));
            values.swap_remove(at)
        })
        .collect();
    assert!(values.is_empty(), "measured but not declared: {:?}", values);
    ordered
}

/// The end-to-end run: tracing off, set-up repeated, ops timed for
/// `seconds`.
fn run_end_to_end(
    name: &str,
    seed: u64,
    seconds: f64,
    env: &Env,
    samples: Option<&str>,
) -> RunResult {
    let mut out = Outcome::with_capacity(SAMPLE_CAPACITY);
    let threads = workloads::busy_threads(name, env);
    let reference = Reference::new(threads);
    let (mut setups, mut setup_refs, mut setup_heaps) = (Vec::new(), Vec::new(), Vec::new());
    let mut workload = None;
    let setup_start = Instant::now();
    let setup_budget = Duration::from_secs_f64(seconds * SETUP_SHARE);
    while setups.len() < *SETUP_REPEATS.start()
        || (setups.len() < *SETUP_REPEATS.end() && setup_start.elapsed() < setup_budget)
    {
        // The previous set-up's pools and buffers go first, so the
        // repeats measure the same thing and memory holds one copy.
        drop(workload.take());
        let heap_before = heap::mark();
        let t0 = Instant::now();
        workload = Workload::setup(name, seed, env);
        setups.push(t0.elapsed().as_secs_f64());
        setup_heaps.push(heap::peak_since_mb(heap_before));
        // The weather this set-up ran in: the best of three runs of
        // the reference job straight after it. Set-up is mostly one
        // thread's work, so it is the job's fastest thread that counts.
        setup_refs.push(
            (0..3)
                .map(|_| reference.run().fastest)
                .fold(f64::INFINITY, f64::min),
        );
    }
    let mut workload = workload.expect("the workload name was checked against the declaration");
    workload.measure(Duration::from_secs_f64(seconds), &reference, &mut out);
    let n = out.op_ms.len();
    if let Some(path) = samples {
        // In time order: `op MS` lines, a `ref MS` line after each stretch.
        let mut lines = Vec::new();
        let mut from = 0;
        for (&after, r) in out.ref_after.iter().zip(&out.ref_ms) {
            lines.extend(out.op_ms[from..after].iter().map(|ms| format!("op {ms}\n")));
            lines.push(format!("ref {r}\n"));
            from = after;
        }
        std::fs::write(path, lines.concat()).expect("the samples file can be written");
    }
    let ratio = stats::windowed_ratio(&out.op_ms, &out.ref_ms, &out.ref_after, RATIO_WINDOWS);
    // The fastest any thread ran the reference job in the whole
    // process is this machine undisturbed — it moves by a few percent
    // between runs whose medians differ by half — so a set-up time
    // scaled by it over the reference time taken beside the set-up is
    // that set-up's time on a calm host.
    let calm_ref = setup_refs.iter().fold(out.ref_fastest_ms, |a, b| a.min(*b));
    let calm_setups: Vec<f64> = setups
        .iter()
        .zip(&setup_refs)
        .map(|(s, r)| s * calm_ref / r)
        .collect();
    let values = vec![
        ("setup_s".to_owned(), stats::median(&calm_setups)),
        ("op_ref_ratio".to_owned(), ratio),
        ("setup_heap_mb".to_owned(), stats::median(&setup_heaps)),
    ];
    println!(
        "{name}: seed {seed}, {seconds} s timed, {} set-ups, {n} op samples, {} ops attempted, {} failed (failed_share {})",
        setups.len(),
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted as f64
    );
    // The raw times behind the ratio, for the reader; the traced run
    // declares them (`op_ms_p50`, `machine.ref_job_ms`).
    println!(
        "{name}: op time p50 {} ms over {n} samples, reference job p50 {} ms (fastest {calm_ref} ms) over {} runs on {threads} threads, set-up p50 {} s as timed",
        stats::median(&out.op_ms),
        stats::median(&out.ref_ms),
        out.ref_ms.len(),
        stats::median(&setups),
    );
    if !workload.verified() {
        println!("{name}: set-up output did NOT match the sequential reference");
    }
    RunResult {
        correct: workload.verified() && out.failed == 0 && out.attempted > 0,
        attempted: out.attempted,
        failed: out.failed,
        metrics: in_declared_order(&spec().end_to_end, values),
    }
}

/// Measures one workload in this process and prints the result, the
/// JSON object last. Whether the outputs were correct is in that
/// object, not in the exit code: a wrong result is still a result.
fn run_one(name: &str, run: &RunArgs) -> Result<(), String> {
    let env = Env::detect(run.workers)?;
    println!("{}", env.describe());
    let (declared, result) = if run.traced {
        let idx = spec()
            .workload_names()
            .iter()
            .position(|n| *n == name)
            .expect("declared");
        (
            &spec().per_layer,
            layers::run_traced(name, idx, run.seed, run.seconds, &env)?,
        )
    } else {
        (
            &spec().end_to_end,
            run_end_to_end(name, run.seed, run.seconds, &env, run.samples.as_deref()),
        )
    };
    for ((metric, value), m) in result.metrics.iter().zip(declared) {
        println!("{name}  {metric} = {value} {}", m.unit);
    }
    println!("{}", result.to_json(declared));
    Ok(())
}

/// Runs `workloads` `repeat` times each (seeds `seed`, `seed + 1`, …),
/// every run a child process of its own — a fresh address space, so
/// `peak_rss_mb` and warm-up belong to that run alone — and writes the
/// result set `compare` reads. Returns whether every output was
/// correct.
fn run_set(workloads: &[&str], run: &RunArgs) -> Result<bool, String> {
    let env = Env::detect(run.workers)?;
    println!("{}", env.describe());
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut all_correct = true;
    let mut sets = Vec::new();
    for name in workloads {
        let mut runs = Vec::new();
        for r in 0..run.repeat {
            let seed = run.seed + r as u64;
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", name, "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &run.seconds.to_string(),
                    "--trace",
                    if run.traced { "1" } else { "0" },
                ])
                .stdout(Stdio::piped());
            if let Some(w) = run.workers {
                cmd.args(["--workers", &w.to_string()]);
            }
            let child = cmd
                .spawn()
                .map_err(|e| format!("cannot start the {name} run: {e}"))?;
            let output = child
                .wait_with_output()
                .map_err(|e| format!("{name} run: {e}"))?;
            let text = String::from_utf8_lossy(&output.stdout);
            let last = text.lines().last().unwrap_or_default();
            let Some(result) = json::Json::parse(last)
                .ok()
                .filter(|_| output.status.success())
            else {
                return Err(format!(
                    "the {name} run failed ({}):\n{text}",
                    output.status
                ));
            };
            // The child's lines, minus its copy of the environment line
            // and the result object, which goes into the result set.
            for line in text.lines().skip(1).filter(|l| *l != last) {
                println!("{line}");
            }
            all_correct &= result.get("correct") == Some(&json::Json::Bool(true));
            runs.push(format!("{{\"seed\": {seed}, \"result\": {last}}}"));
        }
        sets.push(format!(
            "    \"{name}\": [\n      {}\n    ]",
            runs.join(",\n      ")
        ));
    }
    if let Some(path) = &run.out {
        let doc = format!(
            "{{\n  \"env\": {},\n  \"seconds\": {},\n  \"traced\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
            env.to_json(),
            run.seconds,
            run.traced,
            sets.join(",\n")
        );
        std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|run| match &run.workload {
            // The form the driver calls: one workload, one run, here.
            Some(name) if run.repeat == 1 && run.out.is_none() => {
                run_one(name, &run).map(|()| true)
            }
            Some(name) => run_set(&[name], &run),
            None => run_set(&spec().workload_names(), &run),
        }),
        Some((cmd, rest)) if cmd == "compare" => match rest {
            [base, new] => compare::compare_files(base, new),
            _ => Err("compare expects two result files".into()),
        },
        _ => Err(USAGE.into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // Measured, but an output was wrong or a row regressed.
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

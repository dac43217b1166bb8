//! Hand-rolled argument parsing (no external dependencies).

use std::fmt;
use streamk_types::{GemmShape, Precision, TileShape};

/// A parse/usage failure, displayed to the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// The strategy selector accepted on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyArg {
    /// `dp`
    DataParallel,
    /// `splitk:S`
    FixedSplit(usize),
    /// `streamk:G`
    StreamK(usize),
    /// `hybrid` (two-tile Stream-K + data-parallel)
    Hybrid,
    /// `auto` (grid-size model decides)
    Auto,
}

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The subcommand.
    pub command: Command,
}

/// Subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print usage.
    Help,
    /// ASCII schedule of one decomposition on an overhead-free GPU.
    Schedule {
        /// Problem shape.
        shape: GemmShape,
        /// Blocking factor.
        tile: TileShape,
        /// Cores of the hypothetical GPU.
        sms: usize,
        /// Which decomposition.
        strategy: StrategyArg,
    },
    /// The Appendix A.1 model curve and selection.
    BestGrid {
        /// Problem shape.
        shape: GemmShape,
        /// Blocking factor (defaults to the precision's Stream-K
        /// blocking).
        tile: TileShape,
        /// Precision (sets the calibrated constants).
        precision: Precision,
        /// Processor cores.
        sms: usize,
    },
    /// Four-contender comparison on the simulated A100.
    Compare {
        /// Problem shape.
        shape: GemmShape,
        /// Precision.
        precision: Precision,
    },
    /// Corpus statistics.
    Corpus {
        /// Sample size.
        count: usize,
    },
    /// Seeded fault-injection campaign across every strategy.
    Chaos {
        /// Problem shape.
        shape: GemmShape,
        /// Blocking factor.
        tile: TileShape,
        /// Deterministic seeds per strategy × fault kind cell.
        seeds: u64,
        /// Executor worker threads.
        threads: usize,
        /// Owner-side watchdog deadline, milliseconds.
        watchdog_ms: u64,
        /// Also run the service-level campaign: seeded request faults
        /// through `GemmService`.
        serve: bool,
    },
    /// CPU kernel benchmark sweep, emitting `BENCH_cpu.json`.
    Bench {
        /// Side of the headline `size³` f32 problem.
        size: usize,
        /// Blocking factor.
        tile: TileShape,
        /// Corpus shapes to sweep in addition to the headline.
        corpus: usize,
        /// Timing repetitions per cell; medians are reported.
        reps: usize,
        /// Cut the sweep down for CI smoke runs.
        smoke: bool,
        /// Output path for the JSON report.
        out: String,
    },
    /// Concurrent-launch service benchmark, emitting `BENCH_serve.json`.
    ServeBench {
        /// Service worker threads.
        threads: usize,
        /// Requests per mix.
        requests: usize,
        /// Active-window size (concurrently running requests).
        window: usize,
        /// Pending-queue capacity before admission rejects.
        capacity: usize,
        /// Owner-side watchdog deadline, milliseconds.
        watchdog_ms: u64,
        /// Cut the campaign down for CI smoke runs.
        smoke: bool,
        /// Output path for the JSON report.
        out: String,
        /// Optional output path for a Prometheus text snapshot of the
        /// service's telemetry registry, taken at shutdown.
        metrics_out: Option<String>,
    },
    /// Strassen–Winograd hybrid crossover benchmark, splicing a
    /// `strassen_hybrid` section into `BENCH_cpu.json`.
    StrassenBench {
        /// Crossover cutoff of the hybrid under test.
        cutoff: usize,
        /// Blocking factor of the leaf sub-products.
        tile: TileShape,
        /// Timing repetitions per cell; medians are reported.
        reps: usize,
        /// Executor worker threads.
        threads: usize,
        /// Cut the sweep down for CI smoke runs.
        smoke: bool,
        /// Report path; an existing `BENCH_cpu.json` gains the
        /// section, anything else is created.
        out: String,
    },
    /// Adaptive-selector replay benchmark: cold / warm / distilled
    /// regret vs a measured oracle, spliced into `BENCH_cpu.json`.
    SelectBench {
        /// Corpus shapes replayed (in addition to the fixed anchors).
        shapes: usize,
        /// Adaptation rounds between the cold and warm passes.
        rounds: usize,
        /// Timing repetitions per oracle cell; medians are reported.
        reps: usize,
        /// Executor worker threads.
        threads: usize,
        /// Cut the replay down for CI smoke runs.
        smoke: bool,
        /// Selector cache file (persisted across invocations).
        cache: String,
        /// Report path; an existing `BENCH_cpu.json` gains a
        /// `selection_adaptive` section, anything else is created.
        out: String,
    },
    /// Traced executor run + matching simulation: merged Chrome
    /// trace, phase breakdown, and model-vs-measured residuals.
    Profile {
        /// Problem shape.
        shape: GemmShape,
        /// Blocking factor.
        tile: TileShape,
        /// Executor worker threads (and simulated SM count).
        threads: usize,
        /// Which decomposition.
        strategy: StrategyArg,
        /// Output path for the merged Chrome trace JSON.
        out: String,
        /// Optional output path for the measured-timeline SVG.
        svg: Option<String>,
        /// Also run a traced `GemmService` campaign over the same
        /// shape and merge per-request tracks (queue-wait included)
        /// into the Chrome trace.
        serve: bool,
    },
    /// SVG schedule to a file.
    Svg {
        /// Problem shape.
        shape: GemmShape,
        /// Blocking factor.
        tile: TileShape,
        /// Cores.
        sms: usize,
        /// Which decomposition.
        strategy: StrategyArg,
        /// Output path.
        out: String,
    },
}

/// Usage text.
pub const USAGE: &str = "\
streamk — explore Stream-K work decompositions (PPoPP 2023 reproduction)

USAGE:
  streamk schedule <m> <n> <k> [--tile MxNxK] [--sms P] [--strategy S]
  streamk bestgrid <m> <n> <k> [--tile MxNxK] [--sms P] [--precision fp64|fp16]
  streamk compare  <m> <n> <k> [--precision fp64|fp16]
  streamk corpus   [count]
  streamk chaos    <m> <n> <k> [--tile MxNxK] [--seeds N] [--threads T] [--watchdog-ms MS] [--serve]
  streamk bench    [--size N] [--tile MxNxK] [--corpus C] [--reps R] [--out FILE] [--smoke]
  streamk serve-bench [--threads T] [--requests N] [--window W] [--capacity C] [--watchdog-ms MS] [--out FILE] [--metrics-out FILE] [--smoke]
  streamk select-bench [--shapes N] [--rounds R] [--reps P] [--threads T] [--select-cache FILE] [--out FILE] [--smoke]
  streamk strassen-bench [--cutoff N] [--tile MxNxK] [--reps R] [--threads T] [--out FILE] [--smoke]
  streamk profile  <m> <n> <k> [--tile MxNxK] [--threads T] [--strategy S] [--out FILE] [--svg FILE] [--serve]
  streamk svg      <m> <n> <k> --out FILE [--tile MxNxK] [--sms P] [--strategy S]
  streamk help

STRATEGIES (for --strategy):
  dp          one CTA per output tile (Algorithm 2)
  splitk:S    fixed-split with factor S (Algorithm 4)
  streamk:G   basic Stream-K with grid G (Algorithm 5)
  hybrid      two-tile Stream-K + data-parallel (§5.2)   [default]
  auto        Appendix A.1 model picks the launch
";

fn parse_tile(s: &str) -> Result<TileShape, ParseError> {
    s.parse::<TileShape>().map_err(|e| ParseError(format!("--tile: {e} (expected MxNxK)")))
}

fn parse_precision(s: &str) -> Result<Precision, ParseError> {
    match s {
        "fp64" => Ok(Precision::Fp64),
        "fp16" | "fp16t32" => Ok(Precision::Fp16To32),
        other => Err(ParseError(format!("--precision expects fp64 or fp16, got '{other}'"))),
    }
}

fn parse_strategy(s: &str) -> Result<StrategyArg, ParseError> {
    if s == "dp" {
        return Ok(StrategyArg::DataParallel);
    }
    if s == "hybrid" {
        return Ok(StrategyArg::Hybrid);
    }
    if s == "auto" {
        return Ok(StrategyArg::Auto);
    }
    if let Some(v) = s.strip_prefix("splitk:") {
        return v
            .parse::<usize>()
            .ok()
            .filter(|&x| x > 0)
            .map(StrategyArg::FixedSplit)
            .ok_or_else(|| ParseError(format!("splitk: expects a positive integer, got '{v}'")));
    }
    if let Some(v) = s.strip_prefix("streamk:") {
        return v
            .parse::<usize>()
            .ok()
            .filter(|&x| x > 0)
            .map(StrategyArg::StreamK)
            .ok_or_else(|| ParseError(format!("streamk: expects a positive integer, got '{v}'")));
    }
    Err(ParseError(format!("unknown strategy '{s}' (see `streamk help`)")))
}

/// Collects `<m> <n> <k>` from the front of `rest` and named flags
/// from the remainder.
struct Flags<'a> {
    positional: Vec<&'a str>,
    named: Vec<(&'a str, &'a str)>,
}

/// Flags that take no value; their presence means "true".
const BOOL_FLAGS: &[&str] = &["smoke", "serve"];

fn split_flags(rest: &[String]) -> Result<Flags<'_>, ParseError> {
    let mut positional = Vec::new();
    let mut named = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        let a = rest[i].as_str();
        if let Some(name) = a.strip_prefix("--") {
            if BOOL_FLAGS.contains(&name) {
                named.push((name, "true"));
                i += 1;
                continue;
            }
            let value = rest
                .get(i + 1)
                .ok_or_else(|| ParseError(format!("flag --{name} expects a value")))?;
            named.push((name, value.as_str()));
            i += 2;
        } else {
            positional.push(a);
            i += 1;
        }
    }
    Ok(Flags { positional, named })
}

fn get_flag<'a>(flags: &Flags<'a>, name: &str) -> Option<&'a str> {
    flags.named.iter().rev().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

fn parse_shape(flags: &Flags<'_>) -> Result<GemmShape, ParseError> {
    if flags.positional.len() < 3 {
        return Err(ParseError("expected <m> <n> <k>".into()));
    }
    let dims: Result<Vec<usize>, _> = flags.positional[..3].iter().map(|p| p.parse::<usize>()).collect();
    match dims {
        Ok(d) if d.iter().all(|&x| x > 0) => Ok(GemmShape::new(d[0], d[1], d[2])),
        _ => Err(ParseError(format!("<m> <n> <k> must be positive integers, got {:?}", &flags.positional[..3]))),
    }
}

impl Cli {
    /// Parses `argv` (excluding the program name).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] with a user-facing message.
    pub fn parse(argv: &[String]) -> Result<Self, ParseError> {
        let Some(cmd) = argv.first() else {
            return Ok(Cli { command: Command::Help });
        };
        let rest = &argv[1..];
        let command = match cmd.as_str() {
            "help" | "--help" | "-h" => Command::Help,
            "schedule" => {
                let flags = split_flags(rest)?;
                Command::Schedule {
                    shape: parse_shape(&flags)?,
                    tile: get_flag(&flags, "tile").map_or(Ok(TileShape::new(128, 128, 32)), parse_tile)?,
                    sms: get_flag(&flags, "sms").map_or(Ok(4), |v| {
                        v.parse().map_err(|_| ParseError(format!("--sms expects an integer, got '{v}'")))
                    })?,
                    strategy: get_flag(&flags, "strategy").map_or(Ok(StrategyArg::Hybrid), parse_strategy)?,
                }
            }
            "bestgrid" => {
                let flags = split_flags(rest)?;
                let precision = get_flag(&flags, "precision").map_or(Ok(Precision::Fp16To32), parse_precision)?;
                Command::BestGrid {
                    shape: parse_shape(&flags)?,
                    tile: get_flag(&flags, "tile")
                        .map_or_else(|| Ok(TileShape::streamk_default(precision)), parse_tile)?,
                    precision,
                    sms: get_flag(&flags, "sms").map_or(Ok(108), |v| {
                        v.parse().map_err(|_| ParseError(format!("--sms expects an integer, got '{v}'")))
                    })?,
                }
            }
            "compare" => {
                let flags = split_flags(rest)?;
                Command::Compare {
                    shape: parse_shape(&flags)?,
                    precision: get_flag(&flags, "precision").map_or(Ok(Precision::Fp16To32), parse_precision)?,
                }
            }
            "corpus" => {
                let flags = split_flags(rest)?;
                let count = flags
                    .positional
                    .first()
                    .map_or(Ok(1000), |v| {
                        v.parse().map_err(|_| ParseError(format!("corpus expects a count, got '{v}'")))
                    })?;
                Command::Corpus { count }
            }
            "chaos" => {
                let flags = split_flags(rest)?;
                let parse_u64 = |name: &str, default: u64, flags: &Flags<'_>| {
                    get_flag(flags, name).map_or(Ok(default), |v| {
                        v.parse::<u64>()
                            .map_err(|_| ParseError(format!("--{name} expects an integer, got '{v}'")))
                    })
                };
                Command::Chaos {
                    shape: parse_shape(&flags)?,
                    tile: get_flag(&flags, "tile").map_or(Ok(TileShape::new(32, 32, 16)), parse_tile)?,
                    seeds: parse_u64("seeds", 3, &flags)?,
                    threads: get_flag(&flags, "threads").map_or(Ok(8), |v| {
                        v.parse::<usize>()
                            .ok()
                            .filter(|&t| t > 0)
                            .ok_or_else(|| ParseError(format!("--threads expects a positive integer, got '{v}'")))
                    })?,
                    watchdog_ms: parse_u64("watchdog-ms", 200, &flags)?,
                    serve: get_flag(&flags, "serve") == Some("true"),
                }
            }
            "serve-bench" => {
                let flags = split_flags(rest)?;
                let parse_usize = |name: &str, default: usize, flags: &Flags<'_>| {
                    get_flag(flags, name).map_or(Ok(default), |v| {
                        v.parse::<usize>()
                            .ok()
                            .filter(|&x| x > 0)
                            .ok_or_else(|| ParseError(format!("--{name} expects a positive integer, got '{v}'")))
                    })
                };
                let smoke = get_flag(&flags, "smoke") == Some("true");
                Command::ServeBench {
                    threads: parse_usize("threads", 8, &flags)?,
                    requests: parse_usize("requests", if smoke { 16 } else { 64 }, &flags)?,
                    window: parse_usize("window", 4, &flags)?,
                    capacity: parse_usize("capacity", 64, &flags)?,
                    watchdog_ms: get_flag(&flags, "watchdog-ms").map_or(Ok(200), |v| {
                        v.parse::<u64>()
                            .map_err(|_| ParseError(format!("--watchdog-ms expects an integer, got '{v}'")))
                    })?,
                    smoke,
                    out: get_flag(&flags, "out").unwrap_or("BENCH_serve.json").to_string(),
                    metrics_out: get_flag(&flags, "metrics-out").map(String::from),
                }
            }
            "strassen-bench" => {
                let flags = split_flags(rest)?;
                let parse_usize = |name: &str, default: usize, flags: &Flags<'_>| {
                    get_flag(flags, name).map_or(Ok(default), |v| {
                        v.parse::<usize>()
                            .ok()
                            .filter(|&x| x > 0)
                            .ok_or_else(|| ParseError(format!("--{name} expects a positive integer, got '{v}'")))
                    })
                };
                let smoke = get_flag(&flags, "smoke") == Some("true");
                Command::StrassenBench {
                    cutoff: parse_usize("cutoff", if smoke { 64 } else { 512 }, &flags)?,
                    tile: get_flag(&flags, "tile").map_or(Ok(TileShape::new(64, 64, 16)), parse_tile)?,
                    reps: parse_usize("reps", if smoke { 1 } else { 3 }, &flags)?,
                    threads: parse_usize("threads", 1, &flags)?,
                    smoke,
                    out: get_flag(&flags, "out").unwrap_or("BENCH_cpu.json").to_string(),
                }
            }
            "select-bench" => {
                let flags = split_flags(rest)?;
                let parse_usize = |name: &str, default: usize, flags: &Flags<'_>| {
                    get_flag(flags, name).map_or(Ok(default), |v| {
                        v.parse::<usize>()
                            .ok()
                            .filter(|&x| x > 0)
                            .ok_or_else(|| ParseError(format!("--{name} expects a positive integer, got '{v}'")))
                    })
                };
                let smoke = get_flag(&flags, "smoke") == Some("true");
                Command::SelectBench {
                    shapes: parse_usize("shapes", if smoke { 2 } else { 8 }, &flags)?,
                    rounds: parse_usize("rounds", if smoke { 2 } else { 4 }, &flags)?,
                    reps: parse_usize("reps", if smoke { 2 } else { 3 }, &flags)?,
                    threads: parse_usize("threads", 4, &flags)?,
                    smoke,
                    // --select-cache is the documented spelling;
                    // --cache stays accepted for compatibility. The
                    // default lives under target/ so scratch state
                    // never lands in the working tree.
                    cache: get_flag(&flags, "select-cache")
                        .or_else(|| get_flag(&flags, "cache"))
                        .unwrap_or("target/SELECT_cache")
                        .to_string(),
                    out: get_flag(&flags, "out").unwrap_or("BENCH_cpu.json").to_string(),
                }
            }
            "bench" => {
                let flags = split_flags(rest)?;
                let parse_usize = |name: &str, default: usize, flags: &Flags<'_>| {
                    get_flag(flags, name).map_or(Ok(default), |v| {
                        v.parse::<usize>()
                            .ok()
                            .filter(|&x| x > 0)
                            .ok_or_else(|| ParseError(format!("--{name} expects a positive integer, got '{v}'")))
                    })
                };
                let smoke = get_flag(&flags, "smoke") == Some("true");
                Command::Bench {
                    size: parse_usize("size", if smoke { 128 } else { 512 }, &flags)?,
                    tile: get_flag(&flags, "tile").map_or(Ok(TileShape::new(64, 64, 16)), parse_tile)?,
                    corpus: parse_usize("corpus", if smoke { 2 } else { 6 }, &flags)?,
                    reps: parse_usize("reps", if smoke { 2 } else { 5 }, &flags)?,
                    smoke,
                    out: get_flag(&flags, "out").unwrap_or("BENCH_cpu.json").to_string(),
                }
            }
            "profile" => {
                let flags = split_flags(rest)?;
                Command::Profile {
                    shape: parse_shape(&flags)?,
                    tile: get_flag(&flags, "tile").map_or(Ok(TileShape::new(32, 32, 16)), parse_tile)?,
                    threads: get_flag(&flags, "threads").map_or(Ok(4), |v| {
                        v.parse::<usize>()
                            .ok()
                            .filter(|&t| t > 0)
                            .ok_or_else(|| ParseError(format!("--threads expects a positive integer, got '{v}'")))
                    })?,
                    strategy: get_flag(&flags, "strategy").map_or(Ok(StrategyArg::Hybrid), parse_strategy)?,
                    out: get_flag(&flags, "out").unwrap_or("TRACE_profile.json").to_string(),
                    svg: get_flag(&flags, "svg").map(String::from),
                    serve: get_flag(&flags, "serve") == Some("true"),
                }
            }
            "svg" => {
                let flags = split_flags(rest)?;
                Command::Svg {
                    shape: parse_shape(&flags)?,
                    tile: get_flag(&flags, "tile").map_or(Ok(TileShape::new(128, 128, 32)), parse_tile)?,
                    sms: get_flag(&flags, "sms").map_or(Ok(4), |v| {
                        v.parse().map_err(|_| ParseError(format!("--sms expects an integer, got '{v}'")))
                    })?,
                    strategy: get_flag(&flags, "strategy").map_or(Ok(StrategyArg::Hybrid), parse_strategy)?,
                    out: get_flag(&flags, "out")
                        .map(String::from)
                        .ok_or_else(|| ParseError("svg requires --out FILE".into()))?,
                }
            }
            other => return Err(ParseError(format!("unknown command '{other}' (see `streamk help`)"))),
        };
        Ok(Cli { command })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(Cli::parse(&[]).unwrap().command, Command::Help);
        assert_eq!(Cli::parse(&argv("help")).unwrap().command, Command::Help);
    }

    #[test]
    fn schedule_defaults() {
        let cli = Cli::parse(&argv("schedule 384 384 128")).unwrap();
        match cli.command {
            Command::Schedule { shape, tile, sms, strategy } => {
                assert_eq!(shape, GemmShape::new(384, 384, 128));
                assert_eq!(tile, TileShape::new(128, 128, 32));
                assert_eq!(sms, 4);
                assert_eq!(strategy, StrategyArg::Hybrid);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn schedule_with_flags() {
        let cli = Cli::parse(&argv("schedule 100 200 300 --tile 64x64x16 --sms 8 --strategy streamk:6")).unwrap();
        match cli.command {
            Command::Schedule { tile, sms, strategy, .. } => {
                assert_eq!(tile, TileShape::new(64, 64, 16));
                assert_eq!(sms, 8);
                assert_eq!(strategy, StrategyArg::StreamK(6));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn strategy_variants() {
        assert_eq!(parse_strategy("dp").unwrap(), StrategyArg::DataParallel);
        assert_eq!(parse_strategy("splitk:4").unwrap(), StrategyArg::FixedSplit(4));
        assert_eq!(parse_strategy("streamk:9").unwrap(), StrategyArg::StreamK(9));
        assert_eq!(parse_strategy("hybrid").unwrap(), StrategyArg::Hybrid);
        assert_eq!(parse_strategy("auto").unwrap(), StrategyArg::Auto);
        assert!(parse_strategy("bogus").is_err());
        assert!(parse_strategy("splitk:0").is_err());
    }

    #[test]
    fn bestgrid_precision_sets_default_tile() {
        let cli = Cli::parse(&argv("bestgrid 128 128 16384 --precision fp64")).unwrap();
        match cli.command {
            Command::BestGrid { tile, precision, sms, .. } => {
                assert_eq!(precision, Precision::Fp64);
                assert_eq!(tile, TileShape::FP64_STREAMK);
                assert_eq!(sms, 108);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn svg_requires_out() {
        assert!(Cli::parse(&argv("svg 10 10 10")).is_err());
        let cli = Cli::parse(&argv("svg 10 10 10 --out /tmp/x.svg")).unwrap();
        assert!(matches!(cli.command, Command::Svg { .. }));
    }

    #[test]
    fn error_messages_are_actionable() {
        let e = Cli::parse(&argv("schedule 10 10")).unwrap_err();
        assert!(e.0.contains("<m> <n> <k>"));
        let e = Cli::parse(&argv("frobnicate")).unwrap_err();
        assert!(e.0.contains("unknown command"));
        let e = Cli::parse(&argv("schedule 10 10 10 --tile 4x4")).unwrap_err();
        assert!(e.0.contains("MxNxK"));
    }

    #[test]
    fn chaos_defaults_and_flags() {
        let cli = Cli::parse(&argv("chaos 96 80 64")).unwrap();
        assert_eq!(
            cli.command,
            Command::Chaos {
                shape: GemmShape::new(96, 80, 64),
                tile: TileShape::new(32, 32, 16),
                seeds: 3,
                threads: 8,
                watchdog_ms: 200,
                serve: false,
            }
        );
        let cli = Cli::parse(&argv("chaos 64 64 64 --tile 16x16x8 --seeds 5 --threads 4 --watchdog-ms 50 --serve")).unwrap();
        match cli.command {
            Command::Chaos { tile, seeds, threads, watchdog_ms, serve, .. } => {
                assert_eq!(tile, TileShape::new(16, 16, 8));
                assert_eq!(seeds, 5);
                assert_eq!(threads, 4);
                assert_eq!(watchdog_ms, 50);
                assert!(serve);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(Cli::parse(&argv("chaos 64 64 64 --threads 0")).is_err());
        assert!(Cli::parse(&argv("chaos 64 64 64 --seeds x")).is_err());
    }

    #[test]
    fn bench_defaults_and_smoke() {
        let cli = Cli::parse(&argv("bench")).unwrap();
        assert_eq!(
            cli.command,
            Command::Bench {
                size: 512,
                tile: TileShape::new(64, 64, 16),
                corpus: 6,
                reps: 5,
                smoke: false,
                out: "BENCH_cpu.json".into(),
            }
        );
        // --smoke is a boolean flag: it consumes no value and shrinks
        // the default sweep.
        let cli = Cli::parse(&argv("bench --smoke --out /tmp/b.json")).unwrap();
        match cli.command {
            Command::Bench { size, corpus, reps, smoke, out, .. } => {
                assert!(smoke);
                assert_eq!(size, 128);
                assert_eq!(corpus, 2);
                assert_eq!(reps, 2);
                assert_eq!(out, "/tmp/b.json");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Explicit values override the smoke defaults regardless of
        // flag order.
        let cli = Cli::parse(&argv("bench --size 256 --smoke --reps 3")).unwrap();
        match cli.command {
            Command::Bench { size, reps, smoke, .. } => {
                assert!(smoke);
                assert_eq!(size, 256);
                assert_eq!(reps, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(Cli::parse(&argv("bench --size 0")).is_err());
        assert!(Cli::parse(&argv("bench --reps x")).is_err());
    }

    #[test]
    fn serve_bench_defaults_and_smoke() {
        let cli = Cli::parse(&argv("serve-bench")).unwrap();
        assert_eq!(
            cli.command,
            Command::ServeBench {
                threads: 8,
                requests: 64,
                window: 4,
                capacity: 64,
                watchdog_ms: 200,
                smoke: false,
                out: "BENCH_serve.json".into(),
                metrics_out: None,
            }
        );
        let cli = Cli::parse(&argv(
            "serve-bench --smoke --threads 4 --out /tmp/s.json --metrics-out /tmp/m.prom",
        ))
        .unwrap();
        match cli.command {
            Command::ServeBench { threads, requests, smoke, out, metrics_out, .. } => {
                assert!(smoke);
                assert_eq!(threads, 4);
                assert_eq!(requests, 16);
                assert_eq!(out, "/tmp/s.json");
                assert_eq!(metrics_out.as_deref(), Some("/tmp/m.prom"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(Cli::parse(&argv("serve-bench --requests 0")).is_err());
        assert!(Cli::parse(&argv("serve-bench --window x")).is_err());
    }

    #[test]
    fn select_bench_defaults_and_smoke() {
        let cli = Cli::parse(&argv("select-bench")).unwrap();
        assert_eq!(
            cli.command,
            Command::SelectBench {
                shapes: 8,
                rounds: 4,
                reps: 3,
                threads: 4,
                smoke: false,
                cache: "target/SELECT_cache".into(),
                out: "BENCH_cpu.json".into(),
            }
        );
        let cli = Cli::parse(&argv("select-bench --select-cache /tmp/sc")).unwrap();
        match cli.command {
            Command::SelectBench { cache, .. } => assert_eq!(cache, "/tmp/sc"),
            other => panic!("unexpected {other:?}"),
        }
        let cli = Cli::parse(&argv("select-bench --smoke --cache /tmp/c --out /tmp/b.json")).unwrap();
        match cli.command {
            Command::SelectBench { shapes, rounds, reps, smoke, cache, out, .. } => {
                assert!(smoke);
                assert_eq!(shapes, 2);
                assert_eq!(rounds, 2);
                assert_eq!(reps, 2);
                assert_eq!(cache, "/tmp/c");
                assert_eq!(out, "/tmp/b.json");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(Cli::parse(&argv("select-bench --shapes 0")).is_err());
        assert!(Cli::parse(&argv("select-bench --rounds x")).is_err());
    }

    #[test]
    fn strassen_bench_defaults_and_smoke() {
        let cli = Cli::parse(&argv("strassen-bench")).unwrap();
        assert_eq!(
            cli.command,
            Command::StrassenBench {
                cutoff: 512,
                tile: TileShape::new(64, 64, 16),
                reps: 3,
                threads: 1,
                smoke: false,
                out: "BENCH_cpu.json".into(),
            }
        );
        let cli = Cli::parse(&argv("strassen-bench --smoke --cutoff 32 --out /tmp/b.json")).unwrap();
        match cli.command {
            Command::StrassenBench { cutoff, reps, smoke, out, .. } => {
                assert!(smoke);
                assert_eq!(cutoff, 32);
                assert_eq!(reps, 1);
                assert_eq!(out, "/tmp/b.json");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(Cli::parse(&argv("strassen-bench --cutoff 0")).is_err());
        assert!(Cli::parse(&argv("strassen-bench --reps x")).is_err());
    }

    #[test]
    fn profile_defaults_and_flags() {
        let cli = Cli::parse(&argv("profile 96 96 128")).unwrap();
        assert_eq!(
            cli.command,
            Command::Profile {
                shape: GemmShape::new(96, 96, 128),
                tile: TileShape::new(32, 32, 16),
                threads: 4,
                strategy: StrategyArg::Hybrid,
                out: "TRACE_profile.json".into(),
                svg: None,
                serve: false,
            }
        );
        let cli = Cli::parse(&argv("profile 64 64 64 --serve")).unwrap();
        match cli.command {
            Command::Profile { serve, .. } => assert!(serve),
            other => panic!("unexpected {other:?}"),
        }
        let cli = Cli::parse(&argv(
            "profile 64 64 64 --tile 16x16x8 --threads 2 --strategy streamk:6 --out /tmp/t.json --svg /tmp/t.svg",
        ))
        .unwrap();
        match cli.command {
            Command::Profile { tile, threads, strategy, out, svg, .. } => {
                assert_eq!(tile, TileShape::new(16, 16, 8));
                assert_eq!(threads, 2);
                assert_eq!(strategy, StrategyArg::StreamK(6));
                assert_eq!(out, "/tmp/t.json");
                assert_eq!(svg.as_deref(), Some("/tmp/t.svg"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(Cli::parse(&argv("profile 64 64 64 --threads 0")).is_err());
    }

    #[test]
    fn corpus_count() {
        let cli = Cli::parse(&argv("corpus 250")).unwrap();
        assert_eq!(cli.command, Command::Corpus { count: 250 });
        let cli = Cli::parse(&argv("corpus")).unwrap();
        assert_eq!(cli.command, Command::Corpus { count: 1000 });
    }
}

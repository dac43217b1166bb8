//! The `streamk` command-line explorer.
//!
//! A thin, dependency-free front-end over the workspace: inspect how
//! a GEMM decomposes, what the Appendix A.1 model would launch, how
//! the four contenders compare on the simulated A100, what the
//! evaluation corpus looks like, how every strategy survives injected
//! faults, and where a real launch spends its time against the
//! model's prediction.
//!
//! ```text
//! streamk schedule 384 384 128 --tile 128x128x4 --sms 4 --strategy streamk:4
//! streamk bestgrid 128 128 16384 --precision fp16
//! streamk compare 256 3584 8192 --precision fp16
//! streamk corpus 1000
//! streamk chaos 96 80 64 --seeds 2 --threads 8 --serve
//! streamk profile 96 96 128 --tile 32x32x16 --threads 4 --out trace.json
//! streamk svg 896 384 128 --strategy hybrid --out fig.svg
//! ```
//!
//! Nothing here measures performance: the gated benchmark is the
//! `benchmark/` crate, the kernel timings are the `streamk-bench`
//! criterion benches, and the correctness and timing gates are crate
//! tests. Every command refuses a flag it does not take.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod args;
pub mod commands;

pub use args::{Cli, Command, ParseError};

/// Parses `argv` (without the program name) and runs the command,
/// returning the text to print.
///
/// # Errors
///
/// Returns a usage/parse error message for invalid invocations.
pub fn run(argv: &[String]) -> Result<String, ParseError> {
    let cli = Cli::parse(argv)?;
    Ok(commands::execute(&cli))
}

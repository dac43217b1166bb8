//! The environment a run was measured in, and the thread sizing every
//! workload follows.

use std::process::Command;
use streamk_core::tev::escape_json;
use streamk_cpu::SimdLevel;

/// Never more runnable threads than cores: the executor gets
/// `min(nproc, 4)` workers (the caller blocks inside
/// `WorkerPool::run`), the service one fewer so the request generator
/// has a core of its own.
const MAX_WORKERS: usize = 4;

/// What was measured on, recorded with every result.
#[derive(Debug, Clone)]
pub struct Env {
    pub nproc: usize,
    /// Executor workers `W` of the direct workloads.
    pub workers: usize,
    /// Workers of the `GemmService` in `serve-closed`.
    pub service_workers: usize,
    pub cpu_model: String,
    pub simd: SimdLevel,
    pub rustc: &'static str,
    pub rustflags: &'static str,
    pub git: String,
}

impl Env {
    /// Detects the environment. `workers` overrides `W`; asking for
    /// more workers than cores is refused, because every scaling
    /// figure of an oversubscribed run is an artefact.
    pub fn detect(workers: Option<usize>) -> Result<Env, String> {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let workers = workers.unwrap_or(nproc.min(MAX_WORKERS));
        if workers == 0 || workers > nproc {
            return Err(format!(
                "refusing W = {workers} workers on {nproc} core(s): W must be in 1..=nproc"
            ));
        }
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".into());
        let git = Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".into());
        Ok(Env {
            nproc,
            workers,
            service_workers: workers.saturating_sub(1).max(1),
            cpu_model,
            simd: SimdLevel::detect(),
            rustc: env!("BENCH_RUSTC"),
            rustflags: env!("BENCH_RUSTFLAGS"),
            git,
        })
    }

    /// Whether figures that need two threads running at once (parallel
    /// efficiency, Stream-K against data-parallel, fixup hand-offs)
    /// can be measured here.
    pub fn parallel(&self) -> bool {
        self.workers > 1
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"workers\": {}, \"service_workers\": {}, \"cpu_model\": \"{}\", \"simd\": \"{}\", \"rustc\": \"{}\", \"rustflags\": \"{}\", \"git\": \"{}\"}}",
            self.nproc,
            self.workers,
            self.service_workers,
            escape_json(&self.cpu_model),
            self.simd,
            escape_json(self.rustc),
            escape_json(self.rustflags),
            escape_json(&self.git),
        )
    }

    pub fn describe(&self) -> String {
        format!(
            "env: nproc {} · W {} · service workers {} · {} · simd {} · {} · rustflags [{}] · git {}",
            self.nproc,
            self.workers,
            self.service_workers,
            self.cpu_model,
            self.simd,
            self.rustc,
            self.rustflags,
            self.git
        )
    }
}

/// The process's peak resident set (`VmHWM`) in MB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_workers_than_cores_is_refused() {
        let nproc = Env::detect(None).unwrap().nproc;
        assert!(Env::detect(Some(nproc + 1)).is_err());
        assert!(Env::detect(Some(0)).is_err());
        let one = Env::detect(Some(1)).unwrap();
        assert_eq!((one.workers, one.service_workers), (1, 1));
        assert!(!one.parallel());
    }
}

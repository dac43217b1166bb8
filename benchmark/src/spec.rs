//! The benchmark's declaration, read from the root `BENCHMARK.json`.
//!
//! The file is compiled in, so the workload and metric names, units
//! and regression bounds exist once: what `run` prints, what `compare`
//! judges and what the driver reads cannot drift apart.

use crate::json::Json;
use std::sync::OnceLock;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `true` when a larger value is the better one.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the base median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// `(name, why)` per workload, in declaration order.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub run_seconds: f64,
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: no list `{key}`"))
        };
        let text_of = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("BENCHMARK.json: entry without `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(Metric {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: text_of(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no `run_seconds`")?,
        })
    }

    pub fn workload_names(&self) -> Vec<&str> {
        self.workloads.iter().map(|(n, _)| n.as_str()).collect()
    }
}

/// The compiled-in declaration.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is checked by the test suite")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_declared_name_is_well_formed_and_unique() {
        let s = spec();
        let names: Vec<&str> = s
            .workload_names()
            .into_iter()
            .chain(
                s.end_to_end
                    .iter()
                    .chain(&s.per_layer)
                    .map(|m| m.name.as_str()),
            )
            .collect();
        for n in &names {
            assert!(well_formed(n), "bad name {n:?}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is declared twice");
    }

    #[test]
    fn declaration_meets_the_contract_limits() {
        let s = spec();
        assert!((2..=8).contains(&s.workloads.len()));
        assert!((1..=16).contains(&s.end_to_end.len()));
        assert!((1..=128).contains(&s.per_layer.len()));
        assert!((1.0..=60.0).contains(&s.run_seconds) && s.run_seconds.fract() == 0.0);
        for m in &s.end_to_end {
            let bound = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        }
        let setup = s
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(s
            .workloads
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }
}

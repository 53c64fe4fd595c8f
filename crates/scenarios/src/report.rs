//! Sweep diagnostics: per-scenario solve telemetry plus the sweep's cache
//! totals, serialized to JSON through the serde shim (bit-exact `f64`).

use std::io;
use std::path::Path;

use serde::Serialize;

use crate::cache::{CacheStats, CachedSurface};
use crate::hash::HashId;

/// How a scenario's solve interacted with the policy-surface cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheKind {
    /// Solved from the constant steady-state guess.
    Cold,
    /// Warm started from a nearby cached surface.
    Warm,
    /// Identical scenario already solved; surface reused verbatim.
    Exact,
}

impl CacheKind {
    /// The JSON/display spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            CacheKind::Cold => "cold",
            CacheKind::Warm => "warm",
            CacheKind::Exact => "exact",
        }
    }
}

impl std::fmt::Display for CacheKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

// Manual serde impls: the offline serde_derive shim only expands named
// structs, so the enum serializes as its display string by hand.
impl Serialize for CacheKind {
    fn serialize_json(&self, out: &mut String) {
        serde::write_json_string(self.as_str(), out);
    }
}

/// One scenario's solve telemetry.
#[derive(Clone, Debug, Serialize)]
pub struct ScenarioReport {
    /// Scenario display name.
    pub name: String,
    /// Deterministic content hash (the cache key). Serialized as a
    /// fixed-width hex string: JSON numbers above 2⁵³ lose precision in
    /// `f64`-based readers, which would corrupt persisted cache keys.
    pub hash: HashId,
    /// Time-iteration steps executed (0 for an exact cache hit).
    pub steps: usize,
    /// Whether the final sup policy change beat the tolerance.
    pub converged: bool,
    /// Final `‖p − pnext‖_∞`.
    pub final_sup_change: f64,
    /// Point solves that fell back after solver failure, summed over
    /// steps.
    pub solver_failures: usize,
    /// Total grid points of the final policy (summed over states).
    pub grid_points: usize,
    /// Wall-clock seconds for this scenario.
    pub wall_seconds: f64,
    /// Cache interaction.
    pub cache: CacheKind,
    /// Hash of the cached scenario a warm start came from (`None` for
    /// cold solves and exact hits).
    pub warm_source: Option<HashId>,
}

impl ScenarioReport {
    /// The report of an exact cache hit: zero time-iteration steps, the
    /// cached surface *is* the answer. Shared by the batch executor and
    /// the serving front-end so both describe a hit identically.
    pub fn from_exact_hit(
        name: &str,
        surface: &CachedSurface,
        wall_seconds: f64,
    ) -> ScenarioReport {
        ScenarioReport {
            name: name.to_string(),
            hash: HashId(surface.hash),
            steps: 0,
            converged: true,
            final_sup_change: surface.final_sup_change,
            solver_failures: 0,
            grid_points: surface.grid_points(),
            wall_seconds,
            cache: CacheKind::Exact,
            warm_source: None,
        }
    }
}

/// The complete record of one sweep: every scenario's telemetry and the
/// cache totals.
#[derive(Clone, Debug, Serialize)]
pub struct SweepReport {
    /// Per-scenario reports, in scenario-set order.
    pub scenarios: Vec<ScenarioReport>,
    /// Exact cache hits in this sweep.
    pub exact_hits: usize,
    /// Warm starts in this sweep.
    pub warm_starts: usize,
    /// Cold solves in this sweep.
    pub cold_solves: usize,
    /// Lifetime counters of the cache instance that served the sweep,
    /// including persisted-store telemetry (disk hits, evictions, skipped
    /// artifacts). Unlike the per-sweep counts above, these accumulate
    /// across sweeps sharing the cache.
    pub cache_stats: CacheStats,
    /// Host wall-clock seconds for the whole sweep.
    pub total_wall_seconds: f64,
}

impl SweepReport {
    /// Whether every scenario converged.
    pub fn all_converged(&self) -> bool {
        self.scenarios.iter().all(|s| s.converged)
    }

    /// Serializes to JSON text.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("sweep report serialization cannot fail")
    }

    /// Writes the JSON report to `path`.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::value::Value;

    /// The value of `key` in a parsed JSON object.
    fn member<'a>(obj: &'a [(String, Value)], key: &str) -> &'a Value {
        &obj.iter().find(|(k, _)| k == key).expect("the member").1
    }

    #[test]
    fn sweep_report_roundtrips_through_json() {
        let report = SweepReport {
            scenarios: vec![ScenarioReport {
                name: "demo/beta=0.95".into(),
                hash: HashId(0xDEAD_BEEF_CAFE_F00D),
                steps: 12,
                converged: true,
                final_sup_change: 3.25e-7,
                solver_failures: 0,
                grid_points: 82,
                wall_seconds: 0.125,
                cache: CacheKind::Warm,
                warm_source: Some(HashId(42)),
            }],
            exact_hits: 0,
            warm_starts: 1,
            cold_solves: 0,
            cache_stats: CacheStats {
                entries: 1,
                warm_hits: 1,
                misses: 1,
                ..CacheStats::default()
            },
            total_wall_seconds: 0.25,
        };
        let tree = serde_json::parse(&report.to_json()).unwrap();
        let root = tree.as_object().unwrap();
        let s = member(root, "scenarios").as_array().unwrap()[0]
            .as_object()
            .unwrap();
        let text = |key| serde::field::<String>(s, key).unwrap();
        // Hashes cross JSON as fixed-width hex strings, never as numbers
        // an f64-based reader would round above 2^53.
        assert_eq!(text("hash"), "deadbeefcafef00d");
        assert_eq!(text("warm_source"), "000000000000002a");
        assert_eq!(text("cache"), "warm");
        assert_eq!(member(s, "converged"), &Value::Bool(true));
        // An f64 is written in its shortest round-trip form.
        let sup: f64 = serde::field(s, "final_sup_change").unwrap();
        assert_eq!(sup.to_bits(), 3.25e-7f64.to_bits());
        let stats = member(root, "cache_stats").as_object().unwrap();
        assert_eq!(serde::field(stats, "warm_hits"), Ok(1u64));
    }
}

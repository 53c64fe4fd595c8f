//! Deterministic scenario hashing — the content address of the policy
//! cache.
//!
//! The hash must be (a) a pure function of everything that affects the
//! *solution* of a scenario, (b) independent of anything that only
//! affects its execution (name, thread counts), and (c) bit-stable across
//! runs, processes, and platforms — which rules out `std`'s seeded
//! `DefaultHasher`. We use FNV-1a over a canonical little-endian byte
//! stream: every field is folded with a leading tag byte, `f64`s enter as
//! their IEEE bit patterns, and collection lengths are folded before
//! elements so `[1.0] ++ []` and `[] ++ [1.0]` cannot collide.

use serde::{Deserialize, Serialize};

use crate::scenario::Scenario;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A scenario content hash as it crosses serialization boundaries.
///
/// JSON readers outside this workspace parse numbers as `f64`, which is
/// lossy above 2⁵³ — a silently corrupted cache key. `HashId` therefore
/// serializes as a fixed-width 16-digit lowercase hex *string* everywhere
/// a hash enters JSON (reports), the spelling a cache record's file name
/// uses too; legacy numeric encodings are still accepted on the way in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HashId(pub u64);

impl HashId {
    /// The fixed-width lowercase hex spelling (always 16 digits).
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the fixed-width hex spelling produced by [`HashId::to_hex`].
    pub fn from_hex(text: &str) -> Result<HashId, String> {
        if text.len() != 16 {
            return Err(format!(
                "hash id must be 16 hex digits, got {:?} ({} chars)",
                text,
                text.len()
            ));
        }
        u64::from_str_radix(text, 16)
            .map(HashId)
            .map_err(|e| format!("invalid hash id {text:?}: {e}"))
    }
}

impl std::fmt::Display for HashId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl From<u64> for HashId {
    fn from(v: u64) -> Self {
        HashId(v)
    }
}

impl From<HashId> for u64 {
    fn from(v: HashId) -> Self {
        v.0
    }
}

impl Serialize for HashId {
    fn serialize_json(&self, out: &mut String) {
        serde::write_json_string(&self.to_hex(), out);
    }
}

impl Deserialize for HashId {
    fn deserialize_json(v: &serde::value::Value) -> Result<Self, String> {
        match v {
            serde::value::Value::String(s) => HashId::from_hex(s),
            // Legacy numeric encoding (pre-hex reports). The shim parses
            // the source text directly, so this path is still exact.
            serde::value::Value::Number(text) => text
                .parse::<u64>()
                .map(HashId)
                .map_err(|e| format!("invalid numeric hash id {text:?}: {e}")),
            other => Err(format!("expected hash id string, found {}", other.kind())),
        }
    }
}

/// An incremental FNV-1a hasher over tagged canonical bytes.
#[derive(Clone, Debug)]
pub struct ScenarioHasher {
    state: u64,
}

impl Default for ScenarioHasher {
    fn default() -> Self {
        ScenarioHasher { state: FNV_OFFSET }
    }
}

impl ScenarioHasher {
    /// Folds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a domain tag separating field groups.
    pub fn tag(&mut self, tag: u8) {
        self.write_bytes(&[tag]);
    }

    /// Folds a `u64` as little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds a `usize` (canonicalized to 64 bits).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds an `f64` as its IEEE-754 bit pattern (NaN-free inputs are
    /// the caller's responsibility; validation runs before hashing).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Folds a length-prefixed `f64` slice.
    pub fn write_f64_slice(&mut self, vs: &[f64]) {
        self.write_usize(vs.len());
        for &v in vs {
            self.write_f64(v);
        }
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// The content hash of a scenario: calibration, Markov chain, box
/// policy, and solution-relevant solver settings. Excludes `name` and
/// `solver_threads` (execution details that cannot change the solution).
pub fn scenario_hash(scenario: &Scenario) -> u64 {
    let mut h = ScenarioHasher::default();
    let cal = &scenario.calibration;

    h.tag(0x01); // demographics + preferences + technology
    h.write_usize(cal.lifespan);
    h.write_usize(cal.work_years);
    h.write_f64(cal.beta);
    h.write_f64(cal.gamma);
    h.write_f64(cal.capital_share);
    h.write_f64(cal.depreciation);
    h.write_f64_slice(&cal.efficiency);

    h.tag(0x02); // regimes
    h.write_usize(cal.regimes.len());
    for r in &cal.regimes {
        h.write_f64(r.productivity);
        h.write_f64(r.labor_tax);
        h.write_f64(r.capital_tax);
    }

    h.tag(0x03); // Markov chain, row-major
    let ns = cal.chain.num_states();
    h.write_usize(ns);
    for z in 0..ns {
        h.write_f64_slice(cal.chain.row(z));
    }

    h.tag(0x04); // box policy
    h.write_f64(scenario.box_policy.capital_span);
    h.write_f64(scenario.box_policy.wealth_rel);
    h.write_f64(scenario.box_policy.wealth_abs);

    h.tag(0x05); // solver settings that shape the solution
    let s = &scenario.solve;
    h.write_u64(s.start_level as u64);
    match s.refine_epsilon {
        None => h.tag(0x00),
        Some(eps) => {
            h.tag(0x01);
            h.write_f64(eps);
        }
    }
    h.write_u64(s.max_level as u64);
    h.write_usize(s.max_steps);
    h.write_f64(s.tolerance);
    h.write_usize(s.newton_max_iterations);

    h.finish()
}

/// A low-dimensional parameter fingerprint used for nearest-neighbour
/// warm-start lookups: close fingerprints ⇒ close policy surfaces.
pub fn fingerprint(scenario: &Scenario) -> Vec<f64> {
    let cal = &scenario.calibration;
    let nr = cal.regimes.len().max(1) as f64;
    let mean = |f: fn(&hddm_olg::RegimeSpec) -> f64| cal.regimes.iter().map(f).sum::<f64>() / nr;
    vec![
        cal.beta,
        cal.gamma,
        cal.depreciation,
        cal.capital_share,
        mean(|r| r.productivity),
        mean(|r| r.labor_tax),
        mean(|r| r.capital_tax),
        cal.chain.prob(0, 0),
        scenario.box_policy.capital_span,
        scenario.box_policy.wealth_rel,
        scenario.box_policy.wealth_abs,
    ]
}

/// Scale-aware distance between two fingerprints:
/// `max_k |a_k − b_k| / (1 + max(|a_k|, |b_k|))`. Returns `f64::INFINITY`
/// for mismatched lengths (incomparable scenarios) and whenever any
/// component comparison is NaN — `f64::max` would silently drop the NaN
/// operand, letting a corrupted fingerprint score distance ≈ 0 and win
/// the nearest-neighbour search.
pub fn fingerprint_distance(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    let mut d = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        let component = (x - y).abs() / (1.0 + x.abs().max(y.abs()));
        if component.is_nan() {
            return f64::INFINITY;
        }
        d = d.max(component);
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Knob;
    use hddm_olg::Calibration;

    fn base() -> Scenario {
        Scenario::from_calibration("hash-base", Calibration::small(5, 3, 2, 0.03))
    }

    #[test]
    fn hash_ignores_name_and_thread_count() {
        let a = base();
        let mut b = base();
        b.name = "renamed".into();
        b.solve.solver_threads = 8;
        assert_eq!(scenario_hash(&a), scenario_hash(&b));
    }

    #[test]
    fn hash_sees_every_solution_relevant_field() {
        let reference = scenario_hash(&base());
        let mut seen = std::collections::HashSet::new();
        seen.insert(reference);
        for knob in [
            Knob::Beta,
            Knob::Gamma,
            Knob::Depreciation,
            Knob::CapitalShare,
            Knob::ProductivityScale,
            Knob::LaborTaxShift,
            Knob::Persistence,
            Knob::CapitalSpan,
            Knob::WealthRel,
        ] {
            let mut s = base();
            let bumped = knob.read(&s) + 0.011;
            knob.apply(&mut s, bumped).unwrap();
            assert!(
                seen.insert(scenario_hash(&s)),
                "perturbing {} did not change the hash",
                knob.label()
            );
        }
        let mut s = base();
        s.solve.tolerance = 1e-8;
        assert!(seen.insert(scenario_hash(&s)), "tolerance invisible");
        let mut s = base();
        s.solve.refine_epsilon = Some(1e-3);
        assert!(seen.insert(scenario_hash(&s)), "refine_epsilon invisible");
        let mut s = base();
        s.solve.max_steps = 61;
        assert!(seen.insert(scenario_hash(&s)), "max_steps invisible");
    }

    #[test]
    fn distance_is_zero_iff_equal_and_scales_sensibly() {
        let a = fingerprint(&base());
        assert_eq!(fingerprint_distance(&a, &a), 0.0);
        let mut s = base();
        s.calibration.beta += 0.01;
        let b = fingerprint(&s);
        let d = fingerprint_distance(&a, &b);
        assert!(d > 0.0 && d < 0.01, "d = {d}");
        assert_eq!(fingerprint_distance(&a, &[0.0]), f64::INFINITY);
    }

    #[test]
    fn nan_fingerprints_are_infinitely_far() {
        // A corrupted (NaN) component must disqualify the candidate, not
        // vanish inside f64::max and score as a perfect neighbour.
        assert_eq!(
            fingerprint_distance(&[f64::NAN, 1.0], &[0.95, 1.0]),
            f64::INFINITY
        );
        assert_eq!(
            fingerprint_distance(&[0.95, 1.0], &[0.95, f64::NAN]),
            f64::INFINITY
        );
        assert_eq!(
            fingerprint_distance(&[f64::NAN], &[f64::NAN]),
            f64::INFINITY
        );
        // A clean comparison after a NaN-free prefix still works.
        assert_eq!(fingerprint_distance(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn hash_ids_roundtrip_as_hex_strings_up_to_u64_max() {
        use serde::{Deserialize, Serialize};
        for v in [0u64, 1, 2u64.pow(53) - 1, 2u64.pow(53) + 1, u64::MAX] {
            let id = HashId(v);
            let mut json = String::new();
            id.serialize_json(&mut json);
            // Fixed-width hex string, never a bare JSON number.
            assert_eq!(json, format!("{:?}", format!("{v:016x}")), "value {v}");
            let tree = serde_json::parse(&json).unwrap();
            let back = HashId::deserialize_json(&tree).unwrap();
            assert_eq!(back, id, "value {v}");
        }
        // Legacy numeric encoding is still accepted exactly.
        let tree = serde_json::parse(&u64::MAX.to_string()).unwrap();
        assert_eq!(HashId::deserialize_json(&tree).unwrap(), HashId(u64::MAX));
        // Garbage is rejected, not misparsed.
        assert!(HashId::from_hex("xyz").is_err());
        assert!(HashId::from_hex("00ff").is_err());
    }
}

//! `Snapshot::from_json` reads files it did not write: `metrics-check`
//! takes any path. Whatever the text, it must answer `Ok` or `Err` and
//! never panic, and every snapshot it accepts must re-encode to text that
//! parses back to the same snapshot.

use hddm_telemetry::Snapshot;
use proptest::prelude::*;

/// The snapshot a demo sweep writes (`scenarios --demo --metrics-out`).
const SWEEP: &str = include_str!("data/sweep_snapshot.json");

/// Parses `text` (lossily decoded, as a text reader would refuse or
/// replace bad UTF-8) and, if it is accepted, checks the round trip.
fn refused_or_round_trips(bytes: &[u8]) -> Result<(), String> {
    let text = String::from_utf8_lossy(bytes);
    let Ok(snapshot) = Snapshot::from_json(&text) else {
        return Ok(());
    };
    match Snapshot::from_json(&snapshot.to_json()) {
        Ok(again) if again == snapshot => Ok(()),
        Ok(again) => Err(format!("{text:?} re-reads as {again:?}, not {snapshot:?}")),
        Err(e) => Err(format!(
            "{text:?} is accepted but its re-encoding is not: {e}"
        )),
    }
}

/// A JSON number: optional sign, integer digits, optional fraction and
/// exponent — wide enough to overflow `u64` and `f64`.
fn number_text() -> impl Strategy<Value = String> {
    let digits = |n| prop::collection::vec(prop::sample::select(b"0123456789".to_vec()), n);
    (
        any::<bool>(),
        digits(1..=21),
        digits(0..=4),
        prop::sample::select(vec!["", "e", "E", "e-", "e+"]),
        digits(1..=3),
    )
        .prop_map(|(negative, int, frac, marker, exp)| {
            let text = |d: Vec<u8>| String::from_utf8(d).unwrap();
            let mut number = if negative {
                "-".to_string()
            } else {
                String::new()
            };
            number += &text(int);
            if !frac.is_empty() {
                number = number + "." + &text(frac);
            }
            if !marker.is_empty() {
                number = number + marker + &text(exp);
            }
            number
        })
}

#[test]
fn the_sweep_snapshot_re_encodes_to_its_own_bytes() {
    let snapshot = Snapshot::from_json(SWEEP).unwrap();
    assert!(snapshot
        .counter("hddm_solve_newton_iterations_total")
        .is_some());
    assert_eq!(snapshot.to_json(), SWEEP);
}

#[test]
fn every_truncation_and_single_byte_flip_is_refused_or_round_trips() {
    let good = SWEEP.as_bytes();
    for cut in 0..good.len() {
        refused_or_round_trips(&good[..cut]).unwrap();
    }
    let mut bytes = good.to_vec();
    for at in 0..good.len() {
        for bit in 0..8 {
            bytes[at] = good[at] ^ (1 << bit);
            refused_or_round_trips(&bytes).unwrap();
        }
        bytes[at] = good[at];
    }
}

#[test]
fn nesting_deep_enough_to_exhaust_the_stack_is_refused() {
    assert!(Snapshot::from_json(&"[".repeat(1 << 20)).is_err());
    let counters = format!("{{\"counters\":{}", "[".repeat(1 << 20));
    assert!(Snapshot::from_json(&counters).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_bytes_are_refused_or_round_trip(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        refused_or_round_trips(&bytes)?;
    }

    #[test]
    fn any_number_in_a_numeric_field_is_refused_or_round_trips(
        field in any::<usize>(),
        number in number_text(),
    ) {
        let good = SWEEP.as_bytes();
        let starts: Vec<usize> = (1..good.len())
            .filter(|&i| good[i - 1] == b':' && (good[i].is_ascii_digit() || good[i] == b'-'))
            .collect();
        let start = starts[field % starts.len()];
        let end = (start..good.len())
            .find(|&i| matches!(good[i], b',' | b'}'))
            .unwrap();
        let mut bytes = good[..start].to_vec();
        bytes.extend_from_slice(number.as_bytes());
        bytes.extend_from_slice(&good[end..]);
        refused_or_round_trips(&bytes)?;
    }
}

//! Behavioral equivalence checking between two designs.
//!
//! The synthesis pipeline replaces clusters of pre-defined blocks with
//! programmable blocks; this harness verifies the replacement preserved
//! behavior by running both designs under the same stimulus and comparing
//! the *settled* value at every shared output block after each stimulus
//! change. Settled-value comparison (rather than packet-by-packet) reflects
//! the paper's globally-asynchronous model: merging blocks changes internal
//! latencies but not the human-scale outcome (§3.1).

use crate::sim::{Simulator, Time};
use crate::stimulus::Stimulus;
use crate::SimError;
use std::collections::BTreeSet;

/// The result of an equivalence run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivalenceReport {
    /// Output names compared (the union of both designs' outputs).
    pub outputs: Vec<String>,
    /// Sample instants used for comparison.
    pub sample_times: Vec<Time>,
    /// Mismatches found: `(output, time, left value, right value)`.
    pub mismatches: Vec<(String, Time, Option<bool>, Option<bool>)>,
}

impl EquivalenceReport {
    /// Whether the designs agreed at every output and sample instant.
    pub fn is_equivalent(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Runs `left` and `right` under `stimulus` and compares settled output
/// values `settle` ticks after each stimulus change (and at the final
/// horizon).
///
/// An output that never received a packet compares as `false` (eBlock lines
/// idle low).
///
/// `tolerance` absorbs timing skew: merging blocks removes internal wire
/// hops, which shifts pulse/delay windows by a few ticks without changing
/// behavior (§3.1: "no detailed timing characteristics can be inferred").
/// A sample that disagrees is discounted when either trace transitions on
/// that output within `tolerance` ticks of the sample instant — the
/// disagreement is then an edge-alignment artifact, not divergence. Pass
/// `0` for exact comparison.
///
/// # Errors
///
/// Propagates any [`SimError`] from either simulator.
pub fn equivalence(
    left: &Simulator,
    right: &Simulator,
    stimulus: &Stimulus,
    settle: Time,
    tolerance: Time,
) -> Result<EquivalenceReport, SimError> {
    let mut sample_times: Vec<Time> = stimulus
        .events()
        .iter()
        .map(|&(t, _, _)| t.saturating_add(settle))
        .collect();
    let horizon = stimulus
        .end_time()
        .unwrap_or(0)
        .saturating_add(settle.saturating_mul(2));
    sample_times.push(horizon);
    sample_times.sort_unstable();
    sample_times.dedup();

    let lt = left.run(stimulus, horizon)?;
    let rt = right.run(stimulus, horizon)?;

    let outputs: BTreeSet<String> = lt
        .outputs()
        .chain(rt.outputs())
        .map(str::to_string)
        .collect();

    let mut mismatches = Vec::new();
    for name in &outputs {
        compare(
            lt.history(name),
            rt.history(name),
            &sample_times,
            tolerance,
            |t, lv, rv| mismatches.push((name.clone(), t, Some(lv), Some(rv))),
        );
    }

    Ok(EquivalenceReport {
        outputs: outputs.into_iter().collect(),
        sample_times,
        mismatches,
    })
}

/// One output's history read at ascending sample instants.
struct Walk<'h> {
    history: &'h [(Time, bool)],
    /// Entries at or before the last sample instant.
    shown: usize,
    /// Entries more than `tolerance` before the last sample instant.
    passed: usize,
}

impl Walk<'_> {
    /// The value shown at `t` (idle low before the first packet), and
    /// whether the history changes within `tolerance` of `t`. Instants
    /// must not decrease from one call to the next.
    fn sample(&mut self, t: Time, tolerance: Time) -> (bool, bool) {
        let h = self.history;
        while self.shown < h.len() && h[self.shown].0 <= t {
            self.shown += 1;
        }
        while self.passed < h.len() && h[self.passed].0 < t.saturating_sub(tolerance) {
            self.passed += 1;
        }
        let value = self.shown > 0 && h[self.shown - 1].1;
        let near = h
            .get(self.passed)
            .is_some_and(|&(tt, _)| tt <= t.saturating_add(tolerance));
        (value, near)
    }
}

/// Compares two histories of one output at the ascending instants
/// `samples`, reporting each disagreement as `(instant, left, right)` to
/// `mismatch`, except where `tolerance > 0` and either history changes
/// within `tolerance` of the instant. One pass over each history.
fn compare(
    left: &[(Time, bool)],
    right: &[(Time, bool)],
    samples: &[Time],
    tolerance: Time,
    mut mismatch: impl FnMut(Time, bool, bool),
) {
    let walk = |history| Walk {
        history,
        shown: 0,
        passed: 0,
    };
    let (mut l, mut r) = (walk(left), walk(right));
    for &t in samples {
        let (lv, l_near) = l.sample(t, tolerance);
        let (rv, r_near) = r.sample(t, tolerance);
        if lv != rv && !(tolerance > 0 && (l_near || r_near)) {
            mismatch(t, lv, rv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblocks_behavior::parse;
    use eblocks_core::{ComputeKind, Design, OutputKind, ProgrammableSpec, SensorKind};
    use std::collections::HashMap;

    /// door AND NOT(light) two ways: pre-defined blocks vs one programmable.
    fn garage_predefined() -> Design {
        let mut d = Design::new("garage");
        let door = d.add_block("door", SensorKind::ContactSwitch);
        let light = d.add_block("light", SensorKind::Light);
        let inv = d.add_block("inv", ComputeKind::Not);
        let both = d.add_block("both", ComputeKind::and2());
        let led = d.add_block("led", OutputKind::Led);
        d.connect((door, 0), (both, 0)).unwrap();
        d.connect((light, 0), (inv, 0)).unwrap();
        d.connect((inv, 0), (both, 1)).unwrap();
        d.connect((both, 0), (led, 0)).unwrap();
        d
    }

    fn garage_programmable() -> (
        Design,
        HashMap<eblocks_core::BlockId, eblocks_behavior::Program>,
    ) {
        let mut d = Design::new("garage-synth");
        let door = d.add_block("door", SensorKind::ContactSwitch);
        let light = d.add_block("light", SensorKind::Light);
        let p = d.add_block("p0", ProgrammableSpec::default());
        let led = d.add_block("led", OutputKind::Led);
        d.connect((door, 0), (p, 0)).unwrap();
        d.connect((light, 0), (p, 1)).unwrap();
        d.connect((p, 0), (led, 0)).unwrap();
        let program = parse("on input { out0 = in0 && !in1; }").unwrap();
        (d, HashMap::from([(p, program)]))
    }

    #[test]
    fn equivalent_designs_pass() {
        let a = Simulator::new(&garage_predefined()).unwrap();
        let (d, programs) = garage_programmable();
        let b = Simulator::with_programs(&d, &programs).unwrap();
        let stim = Stimulus::new()
            .set(10, "light", true)
            .set(30, "door", true)
            .set(50, "light", false)
            .set(70, "door", false);
        let report = equivalence(&a, &b, &stim, 10, 0).unwrap();
        assert!(report.is_equivalent(), "{:?}", report.mismatches);
        assert_eq!(report.outputs, vec!["led"]);
    }

    #[test]
    fn divergent_designs_flagged() {
        let a = Simulator::new(&garage_predefined()).unwrap();
        // Broken merge: OR instead of AND.
        let (d, _) = garage_programmable();
        let p = d.block_by_name("p0").unwrap();
        let wrong = parse("on input { out0 = in0 || !in1; }").unwrap();
        let b = Simulator::with_programs(&d, &HashMap::from([(p, wrong)])).unwrap();
        let stim = Stimulus::new().set(10, "light", true).set(30, "door", true);
        let report = equivalence(&a, &b, &stim, 10, 0).unwrap();
        assert!(!report.is_equivalent());
        assert!(report
            .mismatches
            .iter()
            .all(|(name, _, _, _)| name == "led"));
    }

    #[test]
    fn walk_matches_the_per_sample_definition() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        // The reference definition: every sample scans both histories
        // from their start.
        let value_at = |h: &[(Time, bool)], t: Time| {
            h.iter()
                .take_while(|&&(tt, _)| tt <= t)
                .last()
                .is_some_and(|&(_, v)| v)
        };
        let near =
            |h: &[(Time, bool)], t: Time, tol: Time| h.iter().any(|&(tt, _)| tt.abs_diff(t) <= tol);
        let mut rng = StdRng::seed_from_u64(0xE0);
        let history = |rng: &mut StdRng| {
            let mut t = 0;
            (0..rng.random_range(0..12usize))
                .map(|_| {
                    // Steps of 0 put two packets on one instant.
                    t += rng.random_range(0..6u64);
                    (t, rng.random())
                })
                .collect::<Vec<_>>()
        };
        for _ in 0..2000 {
            let left = history(&mut rng);
            let right = history(&mut rng);
            let mut samples: Vec<Time> = (0..rng.random_range(1..10usize))
                .map(|_| rng.random_range(0..50u64))
                .collect();
            samples.sort_unstable();
            samples.dedup();
            let tolerance = rng.random_range(0..4u64);
            let expected: Vec<(Time, bool, bool)> = samples
                .iter()
                .map(|&t| (t, value_at(&left, t), value_at(&right, t)))
                .filter(|&(t, lv, rv)| {
                    lv != rv
                        && !(tolerance > 0
                            && (near(&left, t, tolerance) || near(&right, t, tolerance)))
                })
                .collect();
            let mut got = Vec::new();
            compare(&left, &right, &samples, tolerance, |t, lv, rv| {
                got.push((t, lv, rv))
            });
            assert_eq!(
                got, expected,
                "{left:?} vs {right:?} at {samples:?} ±{tolerance}"
            );
        }
    }

    #[test]
    fn empty_stimulus_still_compares_initial_state() {
        let a = Simulator::new(&garage_predefined()).unwrap();
        let (d, programs) = garage_programmable();
        let b = Simulator::with_programs(&d, &programs).unwrap();
        let report = equivalence(&a, &b, &Stimulus::new(), 10, 0).unwrap();
        assert!(report.is_equivalent());
        assert_eq!(report.sample_times, vec![20]);
    }
}

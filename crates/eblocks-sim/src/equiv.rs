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
use crate::trace::Trace;
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

    let settled = |trace: &Trace, name: &str, t: Time| trace.value_at(name, t).or(Some(false));

    let near_transition = |trace: &Trace, name: &str, t: Time| {
        trace
            .history(name)
            .iter()
            .any(|&(tt, _)| tt.abs_diff(t) <= tolerance)
    };

    let mut mismatches = Vec::new();
    for name in &outputs {
        for &t in &sample_times {
            let lv = settled(&lt, name, t);
            let rv = settled(&rt, name, t);
            if lv != rv
                && !(tolerance > 0
                    && (near_transition(&lt, name, t) || near_transition(&rt, name, t)))
            {
                mismatches.push((name.clone(), t, lv, rv));
            }
        }
    }

    Ok(EquivalenceReport {
        outputs: outputs.into_iter().collect(),
        sample_times,
        mismatches,
    })
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
    fn empty_stimulus_still_compares_initial_state() {
        let a = Simulator::new(&garage_predefined()).unwrap();
        let (d, programs) = garage_programmable();
        let b = Simulator::with_programs(&d, &programs).unwrap();
        let report = equivalence(&a, &b, &Stimulus::new(), 10, 0).unwrap();
        assert!(report.is_equivalent());
        assert_eq!(report.sample_times, vec![20]);
    }
}

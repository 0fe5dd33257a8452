//! Monte-Carlo reliability analysis (extension).
//!
//! The paper motivates eBlocks with always-on monitor/control systems —
//! garage doors, intrusion detection, sleepwalking children — whose value
//! is exactly that they keep working unattended. This module estimates how
//! a network's *outputs* degrade as its parts fail: each trial samples a
//! random [`FaultPlan`] (sensors stuck, radio hops dead) from per-class
//! failure probabilities, re-runs the simulation, and compares every
//! output's settled value against the healthy run.
//!
//! The per-output *availability* — the fraction of trials in which that
//! output still ends at its healthy value — tells a designer which outputs
//! hang off single points of failure. Trials are deterministic for a fixed
//! seed: every plan is sampled up front in trial order, then contiguous
//! chunks of trials run on the shared worker pool
//! ([`eblocks_core::pool`]), one runner arena per chunk (exact per-output
//! sums, so the worker count never changes the report).

use crate::fault::{Fault, FaultPlan};
use crate::sim::{Runner, Simulator, Time};
use crate::stimulus::Stimulus;
use crate::trace::Trace;
use crate::SimError;
use eblocks_core::{pool, BlockKind};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Failure model for [`reliability`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliabilityConfig {
    /// Monte-Carlo trials. Default `200`.
    pub trials: u32,
    /// Probability (per mille) that each sensor is stuck, at a uniformly
    /// random value. Default `50` (5%).
    pub sensor_stuck_pm: u16,
    /// Probability (per mille) that each communication block is dead from
    /// power-on. Default `100` (10%) — radios fail more than wires.
    pub comm_failure_pm: u16,
    /// RNG seed; identical seeds give identical reports. Default `0x5EED`.
    pub seed: u64,
    /// Worker threads for the trial sweep on the worker pool; `0` (the
    /// default) uses the core count, and there are never more workers
    /// than trials. The worker count never changes the report: fault
    /// plans are sampled up front in trial order from the seed, and
    /// per-output match counts are exact sums over trials.
    pub threads: usize,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        Self {
            trials: 200,
            sensor_stuck_pm: 50,
            comm_failure_pm: 100,
            seed: 0x5EED,
            threads: 0,
        }
    }
}

/// The outcome of a [`reliability`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityReport {
    /// Trials executed.
    pub trials: u32,
    /// Trials in which the sampled plan contained no fault at all.
    pub fault_free_trials: u32,
    /// Per output, sorted by name: fraction of trials whose settled value
    /// matched the healthy run.
    pub availability: Vec<(String, f64)>,
}

impl ReliabilityReport {
    /// The lowest per-output availability — the network's weakest signal.
    pub fn worst(&self) -> Option<(&str, f64)> {
        self.availability
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(n, v)| (n.as_str(), *v))
    }
}

/// Runs the Monte-Carlo trials and reports per-output availability.
///
/// # Errors
///
/// Propagates any [`SimError`] from the healthy or a faulty run.
///
/// # Examples
///
/// ```
/// use eblocks_core::{CommKind, Design, OutputKind, SensorKind};
/// use eblocks_sim::{reliability, ReliabilityConfig, Simulator, Stimulus};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut d = Design::new("radio-bell");
/// let b = d.add_block("btn", SensorKind::Button);
/// let tx = d.add_block("radio", CommKind::WirelessTx);
/// let o = d.add_block("bell", OutputKind::Buzzer);
/// d.connect((b, 0), (tx, 0))?;
/// d.connect((tx, 0), (o, 0))?;
///
/// let sim = Simulator::new(&d)?;
/// let stim = Stimulus::new().set(20, "btn", true);
/// let report = reliability(&sim, &stim, 100, &ReliabilityConfig::default())?;
/// let (name, avail) = report.worst().expect("one output");
/// assert_eq!(name, "bell");
/// assert!(avail < 1.0, "a lossy radio and a stickable button degrade it");
/// # Ok(())
/// # }
/// ```
pub fn reliability(
    sim: &Simulator,
    stimulus: &Stimulus,
    until: Time,
    config: &ReliabilityConfig,
) -> Result<ReliabilityReport, SimError> {
    // The healthy run, whose settled outputs every trial is held to.
    let mut runner = Runner::new(sim, &FaultPlan::new())?;
    runner.load_stimulus(stimulus)?;
    runner.run(until)?;
    let baseline = settled(runner.trace());

    let design = sim.design();
    let sensors: Vec<String> = design
        .sensors()
        .map(|s| design.block(s).expect("sensor").name().to_string())
        .collect();
    let comms: Vec<String> = design
        .blocks()
        .filter(|&b| matches!(design.block(b).expect("block").kind(), BlockKind::Comm(_)))
        .map(|b| design.block(b).expect("block").name().to_string())
        .collect();

    // Sample every trial's plan up front, in trial order, from one seeded
    // RNG: the sampled fault sequence — and therefore the report — is
    // byte-identical no matter how many workers later run the trials.
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut plans = Vec::with_capacity(config.trials as usize);
    for _ in 0..config.trials {
        let mut plan = FaultPlan::new();
        for name in &sensors {
            if rng.random_range(0..1000u32) < config.sensor_stuck_pm as u32 {
                plan = plan.with(Fault::StuckAt {
                    block: name.clone(),
                    value: rng.random(),
                });
            }
        }
        for name in &comms {
            if rng.random_range(0..1000u32) < config.comm_failure_pm as u32 {
                plan = plan.with(Fault::DropPackets {
                    block: name.clone(),
                    from: 0,
                    to: Time::MAX,
                });
            }
        }
        plans.push(plan);
    }
    let fault_free = plans.iter().filter(|p| p.is_empty()).count() as u32;

    // One runner arena per chunk: a worker builds its engine once and
    // resets it in place across a contiguous chunk of trials, instead of
    // recompiling machines and reallocating queues per run (the stimulus
    // is resolved and sorted once per arena and re-woven on each reset).
    // Match counts are exact per-output sums, so the chunk totals add up
    // to the same numbers for any worker count.
    let workers = pool::workers((config.threads > 0).then_some(config.threads), plans.len());
    let chunks: Vec<&[FaultPlan]> = plans.chunks(plans.len().div_ceil(workers).max(1)).collect();
    let order: Vec<usize> = (0..chunks.len()).collect();
    let sweeps = pool::run(workers, &order, |i| {
        Some(trial_sweep(sim, stimulus, chunks[i], until, &baseline))
    });
    let mut matches = vec![0u32; baseline.len()];
    for local in sweeps.into_iter().flatten() {
        for (total, add) in matches.iter_mut().zip(&local?) {
            *total += add;
        }
    }

    let availability = baseline
        .iter()
        .zip(&matches)
        .map(|((name, _), &m)| (name.clone(), f64::from(m) / f64::from(config.trials.max(1))))
        .collect();
    Ok(ReliabilityReport {
        trials: config.trials,
        fault_free_trials: fault_free,
        availability,
    })
}

/// Runs `plans` on one fresh arena and counts, per output, the trials in
/// which its settled value equals the baseline's.
fn trial_sweep(
    sim: &Simulator,
    stimulus: &Stimulus,
    plans: &[FaultPlan],
    until: Time,
    baseline: &[(String, bool)],
) -> Result<Vec<u32>, SimError> {
    let mut runner = Runner::new(sim, &FaultPlan::new())?;
    runner.load_stimulus(stimulus)?;
    let mut matches = vec![0u32; baseline.len()];
    for plan in plans {
        runner.reset(plan);
        runner.run(until)?;
        let outcome = settled(runner.trace());
        for (count, healthy) in matches.iter_mut().zip(baseline) {
            *count += u32::from(outcome.contains(healthy));
        }
    }
    Ok(matches)
}

/// Settled (final) value per output, idle-low default, sorted by name.
fn settled(trace: &Trace) -> Vec<(String, bool)> {
    let mut outs: Vec<(String, bool)> = trace
        .outputs()
        .map(|o| (o.to_string(), trace.final_value(o).unwrap_or(false)))
        .collect();
    outs.sort();
    outs
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblocks_core::{CommKind, ComputeKind, Design, OutputKind, SensorKind};

    /// btn -> led (wired) alongside btn2 -> radio -> led2.
    fn mixed() -> Design {
        let mut d = Design::new("mixed");
        let b1 = d.add_block("btn1", SensorKind::Button);
        let l1 = d.add_block("led1", OutputKind::Led);
        d.connect((b1, 0), (l1, 0)).unwrap();
        let b2 = d.add_block("btn2", SensorKind::Button);
        let tx = d.add_block("radio", CommKind::WirelessTx);
        let l2 = d.add_block("led2", OutputKind::Led);
        d.connect((b2, 0), (tx, 0)).unwrap();
        d.connect((tx, 0), (l2, 0)).unwrap();
        d
    }

    #[test]
    fn radio_path_is_less_available() {
        let d = mixed();
        let sim = Simulator::new(&d).unwrap();
        let stim = Stimulus::new().set(20, "btn1", true).set(20, "btn2", true);
        let config = ReliabilityConfig {
            trials: 400,
            sensor_stuck_pm: 50,
            comm_failure_pm: 150,
            ..Default::default()
        };
        let report = reliability(&sim, &stim, 100, &config).unwrap();
        let get = |name: &str| {
            report
                .availability
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert!(
            get("led2") < get("led1"),
            "the radio hop must cost availability: led1={} led2={}",
            get("led1"),
            get("led2")
        );
        assert_eq!(report.worst().unwrap().0, "led2");
    }

    #[test]
    fn zero_probability_means_full_availability() {
        let d = mixed();
        let sim = Simulator::new(&d).unwrap();
        let stim = Stimulus::new().set(20, "btn1", true);
        let config = ReliabilityConfig {
            trials: 50,
            sensor_stuck_pm: 0,
            comm_failure_pm: 0,
            ..Default::default()
        };
        let report = reliability(&sim, &stim, 100, &config).unwrap();
        assert_eq!(report.fault_free_trials, 50);
        assert!(report.availability.iter().all(|(_, v)| *v == 1.0));
    }

    #[test]
    fn deterministic_per_seed() {
        let d = mixed();
        let sim = Simulator::new(&d).unwrap();
        let stim = Stimulus::new().set(20, "btn2", true);
        let config = ReliabilityConfig {
            trials: 100,
            ..Default::default()
        };
        assert_eq!(
            reliability(&sim, &stim, 100, &config).unwrap(),
            reliability(&sim, &stim, 100, &config).unwrap()
        );
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let d = mixed();
        let sim = Simulator::new(&d).unwrap();
        let stim = Stimulus::new().set(20, "btn1", true).set(25, "btn2", true);
        let report_at = |trials: u32, threads: usize| {
            let config = ReliabilityConfig {
                trials,
                threads,
                ..Default::default()
            };
            reliability(&sim, &stim, 100, &config).unwrap()
        };
        let sequential = report_at(120, 1);
        assert_eq!(sequential, report_at(120, 4));
        assert_eq!(sequential, report_at(120, 7));
        // More workers than trials also degrades gracefully.
        assert_eq!(sequential, report_at(120, 1000));
        // An empty sweep has no chunk to run on any worker count: every
        // output reports zero availability over zero trials.
        let empty = ReliabilityReport {
            trials: 0,
            fault_free_trials: 0,
            availability: vec![("led1".to_string(), 0.0), ("led2".to_string(), 0.0)],
        };
        assert_eq!(report_at(0, 1), empty);
        assert_eq!(report_at(0, 4), empty);
    }

    #[test]
    fn stuck_sensor_can_help_or_hurt_symmetrically() {
        // An inverter chain: stuck-at-true *matches* the stimulus end state,
        // so availability stays high even with certain stuck sensors when
        // the stuck value equals the final stimulus value.
        let mut d = Design::new("inv");
        let b = d.add_block("btn", SensorKind::Button);
        let n = d.add_block("n", ComputeKind::Not);
        let l = d.add_block("led", OutputKind::Led);
        d.connect((b, 0), (n, 0)).unwrap();
        d.connect((n, 0), (l, 0)).unwrap();
        let sim = Simulator::new(&d).unwrap();
        let stim = Stimulus::new().set(10, "btn", true);
        let config = ReliabilityConfig {
            trials: 300,
            sensor_stuck_pm: 1000, // always stuck, value 50/50
            comm_failure_pm: 0,
            ..Default::default()
        };
        let report = reliability(&sim, &stim, 60, &config).unwrap();
        let (_, avail) = report.worst().unwrap();
        assert!(
            (0.35..=0.65).contains(&avail),
            "stuck value is a coin flip, got {avail}"
        );
    }
}

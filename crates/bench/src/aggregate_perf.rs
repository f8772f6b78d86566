//! Server aggregate-phase measurement and its CI gate.
//!
//! The server aggregates accepted pushes one way: worker-order float sums
//! accumulated straight from decoded symbols (no per-worker tensor
//! allocation, no separate dequantize pass). [`measure`] prices that path
//! serially on a 4-worker workload, and the gate holds it to its claim
//! against the checked-in baseline: it must beat the calibration-scaled
//! decode-then-sum (`f32`) row recorded there, and may not regress more
//! than [`MAX_REGRESSION`] past its own scaled row. Baselines written by
//! earlier builds carry rows for retired modes and thread counts; the
//! gate reads only the serial `f32` and `exact` rows.
//!
//! The aggregate phase is read from the engine's own telemetry
//! (`engine.aggregate.symbol_decode_seconds` +
//! `engine.aggregate.accumulate_seconds` histogram deltas around the
//! timed loop) rather than re-instrumented here, so the bench measures
//! exactly what `threelc analyze` attributes.

use crate::perf::calibrate;
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::time::Instant;
use threelc_baselines::SchemeKind;
use threelc_distsim::engine::{Problem, ServerCore, WorkerReplica};
use threelc_distsim::ExperimentConfig;

/// Workers in the bench workload (the ISSUE's 4-worker reference shape).
pub const WORKERS: usize = 4;
/// Model width of the bench workload: large enough that every block
/// tensor clears the compression threshold and the aggregate phase does
/// real work per step.
pub const WIDTH: usize = 256;
/// Residual blocks in the bench model.
pub const BLOCKS: usize = 2;
/// The mode name the measured path is recorded under: baselines written
/// before aggregation had one path name it `exact`.
pub const MODE: &str = "exact";
/// `apply_step` calls folded into one timed sample.
const STEP_BATCH: usize = 8;
/// Allowed fractional regression of the aggregate phase against
/// the calibration-scaled baseline. As loose as the policy gate's
/// decide threshold: the measured quantity is microseconds per step,
/// where scheduler noise is proportionally large.
pub const MAX_REGRESSION: f64 = 0.5;

/// One (mode, threads) measurement row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModeSample {
    /// Aggregation path name: [`MODE`] for fresh samples; baselines may
    /// also carry rows for the retired `f32` and `compressed` modes.
    pub mode: String,
    /// Server thread budget for this sample (1 for fresh samples).
    pub threads: usize,
    /// Best-of-N wall nanoseconds for one full `apply_step`.
    pub step_ns: f64,
    /// Best-of-N per-step CPU nanoseconds decoding payloads to symbols
    /// (or to floats, for schemes without a symbol form).
    pub symbol_decode_ns: f64,
    /// Best-of-N per-step CPU nanoseconds accumulating the decoded
    /// pushes into the mean gradient.
    pub accumulate_ns: f64,
    /// `symbol_decode_ns + accumulate_ns` — the gated aggregate phase.
    pub aggregate_ns: f64,
}

/// An aggregate-phase measurement run, as written to `BENCH_pr10.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregateBenchReport {
    /// Hardware parallelism of the measuring host.
    pub host_cpus: usize,
    /// Nanoseconds for the fixed calibration workload on this host.
    pub calibration_ns: f64,
    /// Workers in the measured workload.
    pub workers: usize,
    /// Model width of the measured workload.
    pub width: usize,
    /// Residual blocks of the measured workload.
    pub blocks: usize,
    /// The measured samples (one serial [`MODE`] row when fresh).
    pub samples: Vec<ModeSample>,
}

fn bench_config(width: usize, blocks: usize) -> ExperimentConfig {
    ExperimentConfig {
        scheme: SchemeKind::three_lc(1.0),
        workers: WORKERS,
        batch_per_worker: 8,
        total_steps: u64::MAX, // stepped manually; never reached
        model_width: width,
        model_blocks: blocks,
        eval_every: 0,
        seed: 11,
        ..Default::default()
    }
}

/// Prices the aggregate phase: builds the problem, has each worker
/// encode one realistic push, then times `apply_step` replaying those
/// payloads. Decode purity makes the replay legitimate — the server
/// does identical aggregate-phase work every call; only its model and
/// schedule advance.
fn measure_sample(reps: usize, w: usize, b: usize) -> ModeSample {
    let config = bench_config(w, b);
    let problem = Problem::build(&config);
    let mut server = ServerCore::new(&problem);

    let mut payloads = Vec::with_capacity(config.workers);
    let mut residual_l2 = 0.0f64;
    for w in 0..config.workers {
        let mut replica = WorkerReplica::new(&problem, w);
        let (_, grads) = replica.compute(&problem.data, config.batch_per_worker);
        payloads.push(replica.encode_push(grads).payloads);
        residual_l2 += replica.residual_l2();
    }

    let reg = threelc_obs::global();
    let decode_h = reg.histogram("engine.aggregate.symbol_decode_seconds");
    let accumulate_h = reg.histogram("engine.aggregate.accumulate_seconds");
    server
        .apply_step(&payloads, config.workers, residual_l2)
        .expect("bench payloads are all accepted"); // warm-up
    let (mut step_ns, mut decode_ns, mut acc_ns) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..reps.max(1) {
        let d0 = decode_h.snapshot().sum;
        let a0 = accumulate_h.snapshot().sum;
        let t0 = Instant::now();
        for _ in 0..STEP_BATCH {
            black_box(
                server
                    .apply_step(black_box(&payloads), config.workers, residual_l2)
                    .expect("bench payloads are all accepted"),
            );
        }
        let wall = t0.elapsed().as_secs_f64();
        let per = 1e9 / STEP_BATCH as f64;
        step_ns = step_ns.min(wall * per);
        decode_ns = decode_ns.min((decode_h.snapshot().sum - d0) * per);
        acc_ns = acc_ns.min((accumulate_h.snapshot().sum - a0) * per);
    }
    ModeSample {
        mode: MODE.to_string(),
        threads: 1,
        step_ns,
        symbol_decode_ns: decode_ns,
        accumulate_ns: acc_ns,
        aggregate_ns: decode_ns + acc_ns,
    }
}

fn measure_sized(reps: usize, width: usize, blocks: usize) -> AggregateBenchReport {
    let samples = vec![measure_sample(reps, width, blocks)];
    AggregateBenchReport {
        host_cpus: threelc::parallel::available_threads(),
        calibration_ns: calibrate(reps),
        workers: WORKERS,
        width,
        blocks,
        samples,
    }
}

/// Measures the serial aggregate phase, best of `reps`.
pub fn measure(reps: usize) -> AggregateBenchReport {
    measure_sized(reps, WIDTH, BLOCKS)
}

impl AggregateBenchReport {
    /// The sample for `mode` at `threads`, if measured.
    pub fn sample(&self, mode: &str, threads: usize) -> Option<&ModeSample> {
        self.samples
            .iter()
            .find(|s| s.mode == mode && s.threads == threads)
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "host_cpus {}  calibration {:.0} ns  workload {} workers × width {} × {} blocks",
            self.host_cpus, self.calibration_ns, self.workers, self.width, self.blocks
        );
        let _ = writeln!(
            out,
            "{:<12} {:>7} {:>14} {:>14} {:>14} {:>14}",
            "mode", "threads", "step ns", "decode ns", "accumulate ns", "aggregate ns"
        );
        for s in &self.samples {
            let _ = writeln!(
                out,
                "{:<12} {:>7} {:>14.0} {:>14.0} {:>14.0} {:>14.0}",
                s.mode, s.threads, s.step_ns, s.symbol_decode_ns, s.accumulate_ns, s.aggregate_ns
            );
        }
        out
    }
}

/// Compares `current` against `baseline`: the serial aggregate phase
/// must beat the baseline's calibration-scaled serial `f32` row, and may
/// not regress more than [`MAX_REGRESSION`] past its own scaled row.
///
/// # Errors
///
/// Returns the concatenated violations (one per line) if any check
/// fails.
pub fn gate(
    current: &AggregateBenchReport,
    baseline: &AggregateBenchReport,
) -> Result<String, String> {
    if (current.workers, current.width, current.blocks)
        != (baseline.workers, baseline.width, baseline.blocks)
    {
        return Err(format!(
            "workloads differ: current {}w×{}×{}b, baseline {}w×{}×{}b",
            current.workers,
            current.width,
            current.blocks,
            baseline.workers,
            baseline.width,
            baseline.blocks
        ));
    }
    let scale = if current.calibration_ns > 0.0 && baseline.calibration_ns > 0.0 {
        current.calibration_ns / baseline.calibration_ns
    } else {
        1.0
    };
    let need = |report: &AggregateBenchReport, mode: &str| {
        report.sample(mode, 1).cloned().ok_or_else(|| {
            format!("report is missing the serial `{mode}` sample; re-run bench_aggregate")
        })
    };
    let now = need(current, MODE)?;
    let (f32_base, base) = match (need(baseline, "f32"), need(baseline, MODE)) {
        (Ok(f), Ok(e)) => (f, e),
        (Err(e), _) | (_, Err(e)) => return Err(e),
    };
    let mut violations = Vec::new();
    let bar = f32_base.aggregate_ns * scale;
    if now.aggregate_ns <= 0.0 || now.aggregate_ns >= bar {
        violations.push(format!(
            "aggregate phase lost to the calibration-scaled f32 baseline: \
             {:.0} ns vs {:.0} (baseline {:.0} × host scale {:.2})",
            now.aggregate_ns, bar, f32_base.aggregate_ns, scale
        ));
    }
    let allowed = base.aggregate_ns * scale * (1.0 + MAX_REGRESSION);
    if now.aggregate_ns > allowed {
        violations.push(format!(
            "aggregate phase regressed: {:.0} ns/step vs allowed {:.0} \
             (baseline {:.0} × host scale {:.2} × {:.0}%)",
            now.aggregate_ns,
            allowed,
            base.aggregate_ns,
            scale,
            (1.0 + MAX_REGRESSION) * 100.0
        ));
    }
    if violations.is_empty() {
        Ok(format!(
            "aggregate bench gate passed: {:.0} ns/step beats the scaled f32 baseline {:.0} ns/step ({:.2}×)",
            now.aggregate_ns,
            bar,
            bar / now.aggregate_ns
        ))
    } else {
        Err(violations.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(mode: &str, threads: usize, aggregate_ns: f64) -> ModeSample {
        ModeSample {
            mode: mode.into(),
            threads,
            step_ns: aggregate_ns * 3.0,
            symbol_decode_ns: aggregate_ns * 0.6,
            accumulate_ns: aggregate_ns * 0.4,
            aggregate_ns,
        }
    }

    /// A current report: the one fresh serial sample.
    fn current(exact_ns: f64) -> AggregateBenchReport {
        AggregateBenchReport {
            host_cpus: 4,
            calibration_ns: 1000.0,
            workers: WORKERS,
            width: WIDTH,
            blocks: BLOCKS,
            samples: vec![sample(MODE, 1, exact_ns)],
        }
    }

    /// A baseline in the shape earlier builds wrote: every retired mode
    /// and thread count alongside the serial `exact` row.
    fn baseline(f32_ns: f64, exact_ns: f64) -> AggregateBenchReport {
        let mut r = current(exact_ns);
        r.samples = vec![
            sample("f32", 1, f32_ns),
            sample("f32", 4, f32_ns * 0.1),
            sample(MODE, 1, exact_ns),
            sample(MODE, 4, exact_ns * 0.1),
            sample("compressed", 1, exact_ns * 0.1),
        ];
        r
    }

    #[test]
    fn gate_accepts_beating_the_f32_baseline() {
        let summary = gate(&current(600.0), &baseline(1000.0, 600.0)).expect("passes");
        assert!(summary.contains("passed"), "{summary}");
        assert!(summary.contains("1.67×"), "{summary}");
    }

    #[test]
    fn gate_rejects_losing_to_the_scaled_f32_baseline() {
        // A faster host (calibration 500 vs 1000) halves the baseline
        // bar: 700 ns would beat the unscaled f32 row (1000) but not the
        // scaled one (1000 × 0.5 = 500).
        let mut now = current(700.0);
        now.calibration_ns = 500.0;
        let err = gate(&now, &baseline(1000.0, 600.0)).unwrap_err();
        assert!(err.contains("calibration-scaled f32 baseline"), "{err}");
    }

    #[test]
    fn gate_rejects_an_aggregate_regression() {
        let err = gate(&current(950.0), &baseline(1000.0, 600.0)).unwrap_err();
        assert!(err.contains("aggregate phase regressed"), "{err}");
        assert!(!err.contains("f32 baseline"), "{err}");
    }

    #[test]
    fn gate_rejects_a_baseline_without_the_f32_row() {
        let err = gate(&current(600.0), &current(600.0)).unwrap_err();
        assert!(err.contains("serial `f32` sample"), "{err}");
    }

    #[test]
    fn gate_rejects_mismatched_workloads() {
        let mut other = baseline(1000.0, 600.0);
        other.width = 64;
        let err = gate(&current(600.0), &other).unwrap_err();
        assert!(err.contains("workloads differ"), "{err}");
    }

    #[test]
    fn checked_in_baseline_loads_and_gates() {
        let text = include_str!("../../../BENCH_pr10.json");
        let base: AggregateBenchReport = serde_json::from_str(text).expect("baseline parses");
        let mut now = current(base.sample(MODE, 1).expect("exact row").aggregate_ns);
        now.calibration_ns = base.calibration_ns;
        gate(&now, &base).expect("the baseline's own exact row passes");
    }

    #[test]
    fn measurement_holds_together_on_a_tiny_workload() {
        // One rep on a toy model keeps this cheap in a debug build; the
        // point is that the payload replay and histogram-delta plumbing
        // work, not the release-build timing (ci.sh gates that).
        let r = measure_sized(1, 32, 1);
        assert_eq!(r.samples.len(), 1);
        let s = &r.samples[0];
        assert_eq!((s.mode.as_str(), s.threads), (MODE, 1));
        assert!(s.step_ns > 0.0, "{s:?}");
        assert!(s.aggregate_ns > 0.0, "{s:?}");
        assert!(
            (s.aggregate_ns - (s.symbol_decode_ns + s.accumulate_ns)).abs() < 1e-6,
            "{s:?}"
        );
        let rendered = r.render();
        assert!(rendered.contains("aggregate ns"), "{rendered}");
        let json = serde_json::to_string(&r).unwrap();
        let back: AggregateBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}

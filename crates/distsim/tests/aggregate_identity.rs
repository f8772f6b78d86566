//! Property tests for the server's aggregation claim: **the engine's
//! aggregation is bit-identical to decoding every accepted payload to an
//! f32 tensor and summing in worker order** — checked every step, against
//! a decode-then-sum oracle that lives only here, across codec thread
//! counts, schemes with a symbol form (3LC: summed from decoded symbols)
//! and without one (Float32, Int8: dense decode, then summed), and
//! adversarial inputs (all-zero tensors, denormal scales, single-worker
//! steps, and payloads rejected mid-step).
//!
//! The optimizer and pull code after aggregation is shared, so per-step
//! gradient identity implies model identity.
//!
//! Codec-tier coverage (scalar / SWAR / SIMD) comes from re-running this
//! suite under `THREELC_CODEC_IMPL` in ci.sh's codec matrix: the engine
//! aggregates with the process-wide active tier, so one env var pins it.
//!
//! Bit patterns are compared directly (`f32::to_bits`), which is strictly
//! stronger than the CRC32 comparison the networked loopback tests use.

use proptest::prelude::*;
use threelc::Compressor;
use threelc_baselines::SchemeKind;
use threelc_distsim::{ExperimentConfig, Problem, ServerCore, TensorPayload, WorkerReplica};
use threelc_tensor::Tensor;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// 3LC takes the symbol-domain branch of the engine's aggregation; the
/// baselines take the dense-decode branch.
fn scheme(idx: usize) -> SchemeKind {
    [
        SchemeKind::three_lc(1.5),
        SchemeKind::Float32,
        SchemeKind::Int8,
    ][idx]
}

fn config(scheme: SchemeKind, workers: usize) -> ExperimentConfig {
    ExperimentConfig {
        scheme,
        workers,
        batch_per_worker: 8,
        total_steps: 8,
        model_width: 16,
        model_blocks: 1,
        seed: 11,
        ..Default::default()
    }
}

/// Bit patterns of a model snapshot (or any tensor list).
fn bits(ts: &[Tensor]) -> Vec<Vec<u32>> {
    ts.iter()
        .map(|t| t.as_slice().iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// The reference aggregation: decode every accepted payload to an f32
/// [`Tensor`] (with fresh mirror contexts — decode is pure), sum in
/// worker-id order, divide by the accepted count.
fn oracle(
    ctxs: &[Vec<Option<Box<dyn Compressor>>>],
    payloads: &[Vec<TensorPayload>],
    accepted: usize,
) -> Vec<Tensor> {
    let n_params = ctxs[0].len();
    (0..n_params)
        .map(|i| {
            let mut sum: Option<Tensor> = None;
            for (w, push) in payloads.iter().enumerate() {
                if push.is_empty() {
                    continue; // rejected
                }
                let grad = match &push[i] {
                    TensorPayload::Compressed(wire) => ctxs[w][i]
                        .as_ref()
                        .expect("compressed payload implies a context")
                        .decompress(wire)
                        .expect("payload produced by a matching context"),
                    TensorPayload::Raw(t) => t.clone(),
                };
                match &mut sum {
                    Some(s) => s.add_assign(&grad).expect("same shapes"),
                    None => sum = Some(grad),
                }
            }
            let mut avg = sum.expect("an accepted worker");
            avg.scale_inplace(1.0 / accepted as f32);
            avg
        })
        .collect()
}

/// Aggregates `payloads` on `server` and demands the oracle's bits.
fn assert_matches_oracle(
    server: &ServerCore,
    ctxs: &[Vec<Option<Box<dyn Compressor>>>],
    payloads: &[Vec<TensorPayload>],
    accepted: usize,
    step: usize,
) -> Result<(), TestCaseError> {
    let got = server
        .aggregate(payloads, accepted)
        .expect("at least one valid push accepted");
    let want = oracle(ctxs, payloads, accepted);
    prop_assert!(
        bits(&got) == bits(&want),
        "step {}: averaged gradient diverged from decode-then-sum",
        step
    );
    Ok(())
}

/// Deterministic adversarial fill for one tensor. `kind` selects the
/// pathology; `seed` varies the pattern between workers and steps.
fn fill(kind: u8, seed: u64, n: usize) -> Vec<f32> {
    match kind % 4 {
        // All-zero gradient: 3LC's scale collapses to 0.0.
        0 => vec![0.0; n],
        // Subnormal magnitudes: the wire scale itself goes denormal.
        1 => (0..n)
            .map(|i| {
                if (i as u64 + seed).is_multiple_of(3) {
                    1.0e-41
                } else {
                    -1.0e-41
                }
            })
            .collect(),
        // Pseudo-random small values (the common case).
        2 => (0..n)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed)
                    >> 33;
                ((x % 2001) as f32 - 1000.0) / 500.0
            })
            .collect(),
        // Sparse with exact zeros mixed among quantized-looking values.
        _ => (0..n)
            .map(|i| {
                if (i as u64 + seed).is_multiple_of(7) {
                    0.0
                } else {
                    ((i % 13) as f32 - 6.0) * 0.25
                }
            })
            .collect(),
    }
}

/// Compresses one crafted gradient set through worker `w`'s contexts,
/// keeping `ctxs` stateful across steps (error accumulation feeds back).
fn crafted_push(
    problem: &Problem,
    ctxs: &mut [Option<Box<dyn threelc::Compressor>>],
    kind: u8,
    seed: u64,
) -> Vec<TensorPayload> {
    problem
        .shapes
        .iter()
        .enumerate()
        .map(|(i, shape)| {
            let t = Tensor::from_vec(
                fill(kind, seed ^ (i as u64) << 8, shape.num_elements()),
                shape.clone(),
            );
            match ctxs[i].as_mut() {
                Some(ctx) => TensorPayload::Compressed(
                    ctx.compress(&t)
                        .expect("finite adversarial values compress"),
                ),
                None => TensorPayload::Raw(t),
            }
        })
        .collect()
}

proptest! {
    /// Feeds the engine crafted payload bytes — adversarial value
    /// patterns, per-step rejection masks (a payload dropped mid-step,
    /// exactly what the networked server does on a CRC failure),
    /// single-worker steps — and demands the oracle's bits every step.
    #[test]
    fn aggregate_matches_oracle_on_adversarial_pushes(
        scheme_idx in 0usize..3,
        workers in 1usize..5,
        threads_idx in 0usize..4,
        kinds in prop::collection::vec(0u8..4, 4..5),
        masks in prop::collection::vec(0u32..16, 2..3),
        seed in any::<u64>(),
    ) {
        let problem = Problem::build(&config(scheme(scheme_idx), workers));
        let mut server = ServerCore::new(&problem);
        server.set_threads(THREAD_COUNTS[threads_idx]);
        let mirrors: Vec<_> = (0..workers).map(|w| problem.push_ctxs(w)).collect();
        let mut ctxs: Vec<_> = (0..workers).map(|w| problem.push_ctxs(w)).collect();

        for (step, &mask) in masks.iter().enumerate() {
            let rejected = |w: usize| w != 0 && (mask >> w) & 1 == 1;
            let mut payloads: Vec<Vec<TensorPayload>> = Vec::with_capacity(workers);
            let mut accepted = 0usize;
            for w in 0..workers {
                // A rejected worker still compressed (its residual state
                // advances) — the server just never sees the bytes.
                let push = crafted_push(
                    &problem,
                    &mut ctxs[w],
                    kinds[w % kinds.len()].wrapping_add(step as u8),
                    seed ^ (w as u64) << 32 ^ step as u64,
                );
                if rejected(w) {
                    payloads.push(Vec::new());
                } else {
                    payloads.push(push);
                    accepted += 1;
                }
            }
            assert_matches_oracle(&server, &mirrors, &payloads, accepted, step)?;
            server
                .apply_step(&payloads, accepted, 0.0)
                .expect("worker 0 always accepted");
        }
    }

    /// Full training loop (real gradients, error accumulation in every
    /// worker) with one worker's push rejected at a random step: every
    /// step's averaged gradient must equal the oracle's bit for bit.
    #[test]
    fn aggregate_matches_oracle_through_training(
        scheme_idx in 0usize..3,
        threads_idx in 0usize..4,
        drop_step in 0usize..4,
        drop_worker in 0usize..2,
    ) {
        let workers = 2usize;
        let problem = Problem::build(&config(scheme(scheme_idx), workers));
        let mut replicas: Vec<WorkerReplica> = (0..workers)
            .map(|w| WorkerReplica::new(&problem, w))
            .collect();
        let mut server = ServerCore::new(&problem);
        server.set_threads(THREAD_COUNTS[threads_idx]);
        let mirrors: Vec<_> = (0..workers).map(|w| problem.push_ctxs(w)).collect();

        for step in 0..4usize {
            let mut payloads = Vec::with_capacity(workers);
            let mut residual = 0.0f64;
            for w in replicas.iter_mut() {
                let (_loss, grads) = w.compute(&problem.data, problem.config.batch_per_worker);
                payloads.push(w.encode_push(grads).payloads);
                residual = residual.max(w.residual_l2());
            }
            let mut accepted = workers;
            if step == drop_step {
                // The networked server rejects this worker's frame (bad
                // CRC); the worker itself is none the wiser.
                payloads[drop_worker].clear();
                accepted -= 1;
            }
            assert_matches_oracle(&server, &mirrors, &payloads, accepted, step)?;
            let out = server
                .apply_step(&payloads, accepted, residual)
                .expect("at most one worker rejected");
            for w in replicas.iter_mut() {
                w.apply_deltas(&out.step_deltas);
                w.apply_policy(&out.next_decisions);
            }
        }
    }
}

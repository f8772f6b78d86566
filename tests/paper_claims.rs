//! The paper's headline claims, as executable checks.
//!
//! Each test names the section of the 3LC paper it reproduces. They run
//! under a plain `cargo test` at the workspace root, so the root test
//! command guards the reproduction itself and not only the crates.

use std::net::TcpListener;
use std::thread;
use threelc::{quartic, Compressor, SparsityMultiplier, ThreeLcCompressor};
use threelc_baselines::SchemeKind;
use threelc_distsim::{Cluster, ExperimentConfig};
use threelc_net::{model_crc32, run_worker, serve, ServeOptions, WorkerOptions};
use threelc_tensor::{Initializer, Shape, Tensor};

fn context(n: usize, s: f32) -> ThreeLcCompressor {
    ThreeLcCompressor::new(
        Shape::new(&[n]),
        SparsityMultiplier::new(s).expect("valid multiplier"),
    )
}

/// §3.3: "In a hypothetical case of compressing a zero 32-bit
/// floating-point tensor, the combination of all techniques in 3LC
/// reaches a compression ratio of 280×." Every zero quantizes to the
/// zero symbol, five of them pack into one quartic byte, and one
/// zero-run byte stands for 14 quartic bytes: 70 values, 280 input bytes.
#[test]
fn claim_zero_tensor_compresses_280x() {
    let wire_len = |n: usize| {
        context(n, 1.0)
            .compress(&Tensor::zeros([n]))
            .expect("zeros compress")
            .len()
    };
    // The payload's fixed header cancels in the difference: the marginal
    // 70 000 values cost exactly 1 000 bytes.
    let n = 70 * 1000;
    let body = wire_len(2 * n) - wire_len(n);
    assert_eq!(body, 1000, "70 zero values must cost one byte");
    let ratio = (n * 4) as f64 / body as f64;
    assert_eq!(ratio, 280.0);
}

/// §3.2: quartic encoding packs five ternary values into one byte
/// (3⁵ = 243 ≤ 256), i.e. 1.6 bits per value, and decodes back exactly.
#[test]
fn claim_quartic_encoding_packs_5_values_per_byte() {
    assert_eq!(quartic::VALUES_PER_BYTE, 5);
    assert_eq!(quartic::BITS_PER_VALUE, 1.6);
    for n in [1usize, 4, 5, 6, 243, 1000, 4099] {
        let values: Vec<i8> = (0..n).map(|i| ((i * 7 + i / 3) % 3) as i8 - 1).collect();
        let bytes = quartic::encode(&values);
        assert_eq!(bytes.len(), n.div_ceil(5), "n={n}");
        assert!(bytes.iter().all(|&b| b <= quartic::MAX_QUARTIC_BYTE));
        assert_eq!(quartic::decode(&bytes, n).expect("decodes"), values);
    }
}

/// §3.1: 3-value quantization with error feedback keeps what it could not
/// send in a per-tensor residual. With scale `max|x| · s` and `s ≥ 1`,
/// every residual element is at most half the payload scale: the
/// quantization error of rounding to the nearest multiple of the scale.
#[test]
fn claim_error_feedback_residual_is_at_most_half_the_scale() {
    let n = 4096;
    for s in [1.0f32, 1.5, 1.9] {
        let mut ctx = context(n, s);
        let mut rng = threelc_tensor::rng(17);
        let mut syms = Vec::new();
        for step in 0..8 {
            let grad = Initializer::Normal {
                mean: 0.0,
                std_dev: 0.01 * (step + 1) as f32,
            }
            .init(&mut rng, [n]);
            let wire = ctx.compress(&grad).expect("finite gradient");
            let scale = ctx
                .decompress_symbols(&wire, &mut syms)
                .expect("own payload decodes")
                .expect("3LC payloads have a symbol form");
            let bound = 0.5 * scale * (1.0 + f32::EPSILON);
            let residual = ctx.residual().expect("error accumulation is on");
            for (e, &r) in residual.as_slice().iter().enumerate() {
                assert!(
                    r.abs() <= bound,
                    "s={s} step={step} element {e}: |{r}| exceeds half the scale {scale}"
                );
            }
        }
    }
}

/// §4 (the parameter-server deployment): a real `serve` with two TCP
/// workers trains the same model the in-process simulator trains, bit
/// for bit.
#[test]
fn claim_networked_training_matches_the_simulator() {
    let config = ExperimentConfig {
        scheme: SchemeKind::three_lc(1.5),
        workers: 2,
        batch_per_worker: 8,
        total_steps: 3,
        model_width: 16,
        model_blocks: 1,
        seed: 9,
        ..Default::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = thread::spawn(move || serve(&listener, &config, &ServeOptions::default()));
    let workers: Vec<_> = (0..config.workers as u16)
        .map(|w| {
            let addr = addr.clone();
            thread::spawn(move || run_worker(&WorkerOptions::new(addr, w)))
        })
        .collect();
    for w in workers {
        w.join().expect("worker thread").expect("worker run");
    }
    let report = server.join().expect("server thread").expect("serve run");

    let mut cluster = Cluster::new(config);
    for _ in 0..config.total_steps {
        cluster.step();
    }
    assert_eq!(
        report.final_model_crc32,
        model_crc32(cluster.global_model())
    );
}

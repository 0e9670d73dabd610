//! Speed-of-light probes, std only, run outside set-up: the
//! denominators that turn kernel rates into shares of what the host can
//! do.
//!
//! - Streaming-read bandwidth: one thread summing a buffer far larger
//!   than the last-level cache, the ceiling for a gather-and-pool SLS
//!   pass on one shard thread.
//! - Peak GEMM rate per SIMD tier: the engine's own GEMM kernel, one
//!   thread, on a square compute-bound shape, under each dispatch tier
//!   the CPU supports.
//!
//! FLOPs and bytes are computed from tensor shapes, not counted by
//! hardware.

use dlrm_core::runtime::{KernelDispatch, Pool};
use dlrm_core::tensor::{matmul_transb_into, Matrix};
use std::hint::black_box;
use std::time::Instant;

/// Bytes streamed per bandwidth pass (beyond any last-level cache).
const STREAM_BYTES: usize = 128 << 20;
/// Timed passes; the best one is reported.
const PASSES: usize = 3;
/// GEMM probe shape: `M × K` times `(N × K)ᵀ`.
const GEMM_M: usize = 256;
const GEMM_K: usize = 512;
const GEMM_N: usize = 512;

/// Best single-thread streaming-read bandwidth, GB/s.
#[must_use]
pub fn stream_read_gb_s() -> f64 {
    let words: Vec<u64> = (0..STREAM_BYTES / 8).map(|i| i as u64).collect();
    let mut best = f64::INFINITY;
    for _ in 0..PASSES {
        let t = Instant::now();
        let mut acc = [0u64; 4];
        for c in black_box(&words).chunks_exact(4) {
            for (a, &w) in acc.iter_mut().zip(c) {
                *a = a.wrapping_add(w);
            }
        }
        black_box(acc);
        best = best.min(t.elapsed().as_secs_f64());
    }
    STREAM_BYTES as f64 / best / 1e9
}

/// Best single-thread GEMM rate of the engine's kernel under
/// `dispatch`, GFLOP/s.
#[must_use]
pub fn gemm_gflops(dispatch: KernelDispatch) -> f64 {
    let pool = Pool::with_dispatch(1, dispatch);
    let a = Matrix::from_vec(
        GEMM_M,
        GEMM_K,
        (0..GEMM_M * GEMM_K).map(|i| (i % 7) as f32 * 0.1).collect(),
    );
    let b = Matrix::from_vec(
        GEMM_N,
        GEMM_K,
        (0..GEMM_N * GEMM_K).map(|i| (i % 5) as f32 * 0.1).collect(),
    );
    let mut out = Matrix::zeros(GEMM_M, GEMM_N);
    let mut best = f64::INFINITY;
    for _ in 0..PASSES {
        let t = Instant::now();
        matmul_transb_into(black_box(&a), black_box(&b), &mut out, &pool);
        black_box(&out);
        best = best.min(t.elapsed().as_secs_f64());
    }
    2.0 * (GEMM_M * GEMM_K * GEMM_N) as f64 / best / 1e9
}

/// Peak GEMM rate per tier: `(scalar, avx2, fma)`, `None` for a tier
/// the CPU lacks.
#[must_use]
pub fn gemm_tiers() -> (f64, Option<f64>, Option<f64>) {
    (
        gemm_gflops(KernelDispatch::scalar()),
        KernelDispatch::forced_avx2().map(gemm_gflops),
        KernelDispatch::forced_fma().map(gemm_gflops),
    )
}

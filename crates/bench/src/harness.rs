//! Minimal timing harness for the `harness = false` bench targets.
//!
//! Adaptive batch sizing (grow until a batch runs ≥ 5 ms), a warmup pass,
//! then a few timed samples; reports mean and best ns/iteration. Fancy
//! statistics belong to profilers — these benches exist to catch order-of-
//! magnitude regressions in the simulator hot paths.

use std::time::Instant;

pub use std::hint::black_box;

const SAMPLES: usize = 3;
const MIN_BATCH_MS: u128 = 5;
const MAX_BATCH: u64 = 1 << 20;

/// Batch cap for [`bench_with_setup`]. Deliberately far below [`MAX_BATCH`]:
/// every iteration's input is rebuilt by `setup()` *outside* the timed
/// region, so a batch of N holds N prebuilt inputs in memory at once and
/// pays N untimed setup calls per sample. Setup-bound benches (whole-system
/// construction, workload generation) would otherwise spend minutes and
/// gigabytes growing toward `MAX_BATCH` for a few milliseconds of timed
/// work. 4096 inputs is enough to amortize timer overhead while keeping the
/// prebuilt vector small.
const MAX_SETUP_BATCH: u64 = 4096;

/// Times `f` and prints one result line.
pub fn bench(name: &str, mut f: impl FnMut()) {
    // Grow the batch until one batch takes at least MIN_BATCH_MS; the first
    // pass doubles as warmup.
    let mut iters: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed().as_millis() >= MIN_BATCH_MS || iters >= MAX_BATCH {
            break;
        }
        iters = iters.saturating_mul(4).min(MAX_BATCH);
    }
    let mut samples = [0f64; SAMPLES];
    for s in samples.iter_mut() {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        *s = t.elapsed().as_nanos() as f64 / iters as f64;
    }
    report(name, &samples, iters);
}

/// Like [`bench`], but rebuilds fresh input with `setup` for every
/// iteration, outside the timed region. Batches cap at [`MAX_SETUP_BATCH`],
/// not [`MAX_BATCH`] — see the constant's doc for why.
pub fn bench_with_setup<T>(name: &str, mut setup: impl FnMut() -> T, mut f: impl FnMut(T)) {
    let mut iters: u64 = 1;
    loop {
        let inputs: Vec<T> = (0..iters).map(|_| setup()).collect();
        let t = Instant::now();
        for input in inputs {
            f(input);
        }
        if t.elapsed().as_millis() >= MIN_BATCH_MS || iters >= MAX_SETUP_BATCH {
            break;
        }
        iters = iters.saturating_mul(4).min(MAX_SETUP_BATCH);
    }
    let mut samples = [0f64; SAMPLES];
    for s in samples.iter_mut() {
        let inputs: Vec<T> = (0..iters).map(|_| setup()).collect();
        let t = Instant::now();
        for input in inputs {
            f(input);
        }
        *s = t.elapsed().as_nanos() as f64 / iters as f64;
    }
    report(name, &samples, iters);
}

fn report(name: &str, samples: &[f64], iters: u64) {
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let best = samples.iter().cloned().fold(f64::INFINITY, f64::min);
    println!("{name:<44} {mean:>14.1} ns/iter   (best {best:.1}, {iters} iters/sample)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_batch_cap_is_below_global_cap() {
        const { assert!(MAX_SETUP_BATCH < MAX_BATCH) }
    }
}

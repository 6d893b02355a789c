//! How fast was this machine while the run was on it? Informational only.
//!
//! The hosts this benchmark runs on are small VMs on shared hardware whose base
//! speed drifts by 5-15 % over minutes. Every run therefore times a fixed kernel
//! between its rounds, on the cores the program under test runs on, and prints the
//! fastest execution in its header (and as the per-layer row `host.kernel_ms`), so
//! that someone comparing two sets of runs can see whether the host moved between
//! them. **No reported metric is scaled by it**: every end-to-end number is
//! wall-clock as measured.

use crate::stats::min;
use crate::sys;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Back-to-back kernel executions per sample.
const REPEATS: usize = 3;

/// String hashing, hash-map churn, a sort and some copying over a fixed input: the
/// mix log parsing is made of.
fn kernel(words: &[String]) -> usize {
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for (i, word) in words.iter().enumerate() {
        *counts.entry(word.as_str()).or_insert(0) += i;
    }
    let mut sorted: Vec<(&&str, &usize)> = counts.iter().collect();
    sorted.sort_unstable();
    let mut joined = String::new();
    for (word, _) in sorted.iter().take(2_000) {
        joined.push_str(word);
    }
    joined.len() + counts.len()
}

#[derive(Debug)]
pub struct HostSpeed {
    cpus: std::ops::Range<usize>,
    words: Vec<String>,
    samples_ms: Vec<f64>,
}

impl HostSpeed {
    /// Calibrate on `cpus`: the cores the program under test is pinned to.
    pub fn new(cpus: std::ops::Range<usize>) -> Self {
        let words = (0..60_000u64)
            .map(|i| format!("tok{}x{}", i.wrapping_mul(2_654_435_761) % 20_000, i % 7))
            .collect();
        HostSpeed {
            cpus,
            words,
            samples_ms: Vec::new(),
        }
    }

    /// Time the kernel now (call between rounds, while the program under test idles).
    pub fn sample(&mut self) {
        let (cpus, words) = (self.cpus.clone(), &self.words);
        let timed = std::thread::scope(|scope| {
            scope
                .spawn(move || {
                    // Pins this thread only; the caller stays where it was.
                    sys::pin(0, cpus);
                    (0..REPEATS)
                        .map(|_| {
                            let started = Instant::now();
                            black_box(kernel(black_box(words)));
                            started.elapsed().as_secs_f64() * 1e3
                        })
                        .collect::<Vec<f64>>()
                })
                .join()
                .expect("calibration thread panicked")
        });
        self.samples_ms.extend(timed);
    }

    /// Fastest kernel execution seen in this run.
    pub fn kernel_ms(&self) -> f64 {
        min(&self.samples_ms)
    }

    pub fn note(&self) -> String {
        format!(
            "# host speed: calibration kernel floor {:.3} ms over {} samples (informational; nothing is scaled by it)",
            self.kernel_ms(),
            self.samples_ms.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_a_pure_function_of_its_input() {
        let host = HostSpeed::new(0..1);
        assert_eq!(kernel(&host.words), kernel(&host.words));
    }
}

//! Minimal work-stealing-free parallel map used by training and matching.
//!
//! The paper parallelises preprocessing, per-group clustering, online matching and query
//! processing, but caps production deployments at 1–5 cores (§3 "Parallel"). A simple
//! chunked scoped-thread map is all that is needed: tasks are independent (one per initial
//! group or one per batch of logs) and results come back in input order.

/// Apply `f` to every item of `items`, using up to `workers` OS threads. With
/// `workers <= 1` (or a single item) the map runs inline on the calling thread.
///
/// Results come back in input order: the chunks are contiguous and joined in order.
pub fn run_parallel<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let workers = workers.min(items.len());
    // Split items into `workers` contiguous chunks of near-equal size.
    let chunk_size = items.len().div_ceil(workers);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(workers);
    let mut iter = items.into_iter();
    loop {
        let chunk: Vec<T> = iter.by_ref().take(chunk_size).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push(chunk);
    }
    let f = &f;
    let results: Vec<Vec<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| scope.spawn(move || chunk.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    results.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn sequential_path_preserves_order() {
        let out = run_parallel(1, vec![1, 2, 3, 4], |x| x * 10);
        assert_eq!(out, vec![10, 20, 30, 40]);
    }

    #[test]
    fn parallel_path_preserves_order() {
        let input: Vec<u64> = (0..1000).collect();
        let out = run_parallel(4, input.clone(), |x| x * 2);
        let expected: Vec<u64> = input.iter().map(|x| x * 2).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn more_workers_than_items() {
        let out = run_parallel(16, vec![1, 2, 3], |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = run_parallel(4, Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn heavy_closure_runs_concurrently_without_loss() {
        let input: Vec<usize> = (0..64).collect();
        let out = run_parallel(8, input, |x| {
            // Small busy loop so threads overlap.
            let mut acc = 0usize;
            for i in 0..1000 {
                acc = acc.wrapping_add(i * x);
            }
            (x, acc)
        });
        assert_eq!(out.len(), 64);
        let xs: HashSet<usize> = out.iter().map(|(x, _)| *x).collect();
        assert_eq!(xs.len(), 64);
    }
}

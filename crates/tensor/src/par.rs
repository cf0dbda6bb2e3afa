//! Row-chunk parallel executor for tensor kernels.
//!
//! Matrix kernels in this crate write disjoint row ranges of one output
//! buffer, so the only parallel primitive they need is "split the output
//! into contiguous row chunks and run a closure on each chunk in its own
//! scoped thread". [`for_each_row_chunk`] provides exactly that, built on
//! [`std::thread::scope`].
//!
//! Small problems stay serial: spawning and joining the scoped threads costs
//! more than a model-sized product takes. Work is estimated by the caller in
//! multiply-add units and compared against [`PAR_MIN_WORK`].

use std::sync::OnceLock;

/// Minimum estimated work (multiply-adds) before a kernel goes parallel.
///
/// Set from measurement (2 vCPUs, three alternating runs, `nn_kernels` /
/// `tensor_kernels` medians): the register-tile kernel runs at 20–30 G
/// multiply-adds per second, and one `thread::scope` spawn + join costs
/// 40–100 µs. At the previous `1 << 20` the 200 × 192 forward `embed`
/// (1.8 M multiply-adds, called ~1 200 times per `paper_shift` repetition)
/// took 73–107 µs on one thread and 113–177 µs split over two, and
/// `matmul_64x256x128` (2.1 M) 89–116 µs against 145–165 µs. `1 << 24` is
/// ~0.6–0.8 ms of serial work: every dense-layer product of the shipped
/// models stays serial, while the 41–82 M multiply-add Gram products of the
/// MMD / clustering path still split.
pub const PAR_MIN_WORK: usize = 1 << 24;

/// Number of worker threads tensor kernels may use.
///
/// Defaults to [`std::thread::available_parallelism`]; override with the
/// `SHIFTEX_NUM_THREADS` environment variable (values `0` and `1` both mean
/// "serial"). The value is read once and cached for the process lifetime.
pub fn max_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("SHIFTEX_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .max(1)
    })
}

/// Runs `f(first_row, chunk)` over disjoint contiguous row chunks of `out`.
///
/// `out` is interpreted as a row-major buffer of `row_width`-wide rows.
/// When `work` (caller's estimate of total multiply-adds) is below
/// [`PAR_MIN_WORK`], or only one thread is available, `f` runs once on the
/// whole buffer — the serial fast path pays zero synchronisation cost.
/// Otherwise the rows are split into at most [`max_threads`] chunks, each
/// handled by a scoped thread.
///
/// # Panics
///
/// Panics if `row_width == 0` while `out` is non-empty, or if a worker
/// thread panics (the panic is propagated).
pub fn for_each_row_chunk<F>(out: &mut [f32], row_width: usize, work: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if out.is_empty() {
        return;
    }
    assert!(row_width > 0, "row_width must be positive");
    debug_assert_eq!(out.len() % row_width, 0, "buffer is not whole rows");
    let rows = out.len() / row_width;
    let threads = max_threads();
    if threads <= 1 || rows < 2 || work < PAR_MIN_WORK {
        f(0, out);
        return;
    }
    let chunks = threads.min(rows);
    let rows_per_chunk = rows.div_ceil(chunks);
    std::thread::scope(|scope| {
        for (ci, chunk) in out.chunks_mut(rows_per_chunk * row_width).enumerate() {
            let f = &f;
            scope.spawn(move || f(ci * rows_per_chunk, chunk));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_path_covers_all_rows() {
        let mut buf = vec![0.0f32; 4 * 3];
        for_each_row_chunk(&mut buf, 3, 0, |first, chunk| {
            for (r, row) in chunk.chunks_exact_mut(3).enumerate() {
                row.fill((first + r) as f32);
            }
        });
        assert_eq!(buf[0], 0.0);
        assert_eq!(buf[3], 1.0);
        assert_eq!(buf[9], 3.0);
    }

    #[test]
    fn parallel_path_covers_all_rows() {
        // Force the parallel branch regardless of machine size by passing
        // huge estimated work; with one hardware thread it still runs serial,
        // which is exactly the contract.
        let rows = 37;
        let width = 5;
        let mut buf = vec![-1.0f32; rows * width];
        for_each_row_chunk(&mut buf, width, usize::MAX, |first, chunk| {
            for (r, row) in chunk.chunks_exact_mut(width).enumerate() {
                row.fill((first + r) as f32);
            }
        });
        for r in 0..rows {
            assert!(buf[r * width..(r + 1) * width]
                .iter()
                .all(|&v| v == r as f32));
        }
    }

    #[test]
    fn empty_buffer_is_noop() {
        let mut buf: Vec<f32> = Vec::new();
        for_each_row_chunk(&mut buf, 0, usize::MAX, |_, _| panic!("must not run"));
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }
}

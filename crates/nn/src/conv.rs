//! GEMM-lowered convolution: the production kernels behind
//! [`crate::Layer::Conv2d`].
//!
//! Stride 1, odd kernel, "same" zero padding — the arithmetic of the scalar
//! loops in [`crate::naive`], addend for addend and in the same order, run
//! on the register-tile [`shiftex_tensor::gemm_acc`] kernel over an im2col
//! panel of a bounded chunk of rows:
//!
//! * **forward** gathers a *tap-major* panel `(in_c·k·k) × (rows·h·w)` —
//!   row `(ic, ky, kx)` holds, for every output pixel of the chunk, the
//!   input value under that tap, `+0.0` where the tap falls outside the
//!   image — seeds one accumulator row per output channel with its bias and
//!   multiplies the filter bank into it. Each output pixel receives its
//!   taps in ascending `(ic, ky, kx)` order, exactly the scalar loop's.
//! * **backward, parameters** gathers the transposed *patch-major* panel
//!   `(rows·h·w) × (in_c·k·k)` and accumulates `grad_out · panel` one batch
//!   row at a time: every filter weight receives its addends in ascending
//!   `(b, oy, ox)` order, zero gradients added as `±0.0` where the scalar
//!   loop skips them.
//! * **backward, input** is the forward kernel run on `grad_out` with the
//!   filter bank transposed and flipped, `w'[ic][oc, ky, kx] =
//!   w[oc][ic, k−1−ky, k−1−kx]`: ascending flipped taps are descending
//!   original taps, i.e. ascending `(oy, ox)` for each input pixel, after
//!   ascending `oc` — the scalar loop's order again.
//!
//! # Why the zero addends are harmless
//!
//! Where the scalar loops *skip* an out-of-image tap or a zero gradient,
//! the kernel multiplies through — the panel holds `0.0` under the tap, the
//! gradient is a `0.0` coefficient — and *adds* `c·0.0 = ±0.0`. For finite
//! operands `x + (±0.0)` is `x` bit for bit unless `x` is `-0.0`, and a
//! running sum that started at `+0.0` can never be `-0.0` (`x + y` is
//! `-0.0` only when both are). That covers every gradient accumulator and
//! every forward accumulator seeded with any bias but `-0.0`. With a `-0.0`
//! bias the outputs are still equal as numbers; only an output that is
//! exactly zero at a border pixel may come out `+0.0` where the scalar loop
//! leaves `-0.0`, and the ReLU that follows every convolution here maps
//! both to `+0.0`. Non-finite weights, inputs or gradients are outside the
//! contract (`∞·0.0` is NaN).
//!
//! # Residency
//!
//! Panels are built per chunk of at most [`MAX_CHUNK_ROWS`] rows and
//! [`PANEL_FLOATS`] elements, whatever the batch: scratch is O(chunk),
//! never O(dataset). Chunking changes which rows share a panel, not the
//! order in which any output element is accumulated.

use serde::{Deserialize, Serialize};
use shiftex_tensor::{gemm_acc, Matrix};

/// Most rows one im2col panel covers.
const MAX_CHUNK_ROWS: usize = 32;

/// Panel size (in `f32`s) a chunk aims to stay under — 256 KiB, so the panel
/// of a small image batch stays cache-resident while the filter bank sweeps
/// it. A single row larger than this still gets a chunk of its own.
const PANEL_FLOATS: usize = 1 << 16;

/// Geometry of one convolution layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvShape {
    /// Input channels.
    pub in_c: usize,
    /// Output channels.
    pub out_c: usize,
    /// Kernel side length (odd).
    pub k: usize,
    /// Input (and output) height.
    pub h: usize,
    /// Input (and output) width.
    pub w: usize,
}

impl ConvShape {
    /// Taps feeding one output pixel: `in_c · k · k`.
    pub fn taps(&self) -> usize {
        self.in_c * self.k * self.k
    }

    /// Pixels per channel plane.
    pub fn pixels(&self) -> usize {
        self.h * self.w
    }

    /// Rows per panel chunk for this geometry.
    fn chunk_rows(&self) -> usize {
        (PANEL_FLOATS / (self.taps() * self.pixels()).max(1)).clamp(1, MAX_CHUNK_ROWS)
    }
}

/// Scratch of the convolution kernels; lives in the layer's
/// [`crate::LayerCache`] and is resized in place.
#[derive(Debug, Default)]
pub(crate) struct ConvScratch {
    /// im2col panel of the current chunk.
    panel: Vec<f32>,
    /// One accumulator row per output channel over the chunk's pixels.
    acc: Vec<f32>,
    /// Transposed, flipped filter bank of the input-gradient pass.
    flipped: Vec<f32>,
}

/// Forward convolution of `input` (`batch × in_c·h·w`) into `out`
/// (`batch × out_c·h·w`); `weight` is the `out_c × taps` filter bank.
pub(crate) fn forward(
    shape: ConvShape,
    input: &Matrix,
    weight: &[f32],
    bias: &[f32],
    out: &mut Matrix,
    scratch: &mut ConvScratch,
) {
    let ConvScratch { panel, acc, .. } = scratch;
    correlate(shape, input, weight, |oc| bias[oc], out, panel, acc);
}

/// Backward convolution: the filter and bias gradients are written over
/// `param_grad` (`out_c·taps` weights, then `out_c` biases); the input
/// gradient into `grad_in` when one is asked for.
pub(crate) fn backward(
    shape: ConvShape,
    input: &Matrix,
    grad_out: &Matrix,
    weight: &[f32],
    grad_in: Option<&mut Matrix>,
    param_grad: &mut [f32],
    scratch: &mut ConvScratch,
) {
    let (taps, px) = (shape.taps(), shape.pixels());
    let (grad_w, grad_b) = param_grad.split_at_mut(shape.out_c * taps);
    grad_w.fill(0.0);
    grad_b.fill(0.0);
    let step = shape.chunk_rows();
    for first in (0..input.rows()).step_by(step) {
        let rows = step.min(input.rows() - first);
        im2col::<true>(shape, input, first, rows, &mut scratch.panel);
        for (r, patches) in scratch.panel.chunks_exact(px * taps).enumerate() {
            let g = grad_out.row(first + r);
            gemm_acc(g, patches, grad_w, px, taps);
            for (gb, plane) in grad_b.iter_mut().zip(g.chunks_exact(px)) {
                for &v in plane {
                    if v != 0.0 {
                        *gb += v;
                    }
                }
            }
        }
    }

    let Some(grad_in) = grad_in else { return };
    let ConvShape { in_c, out_c, k, .. } = shape;
    let ConvScratch {
        panel,
        acc,
        flipped,
    } = scratch;
    flipped.clear();
    for ic in 0..in_c {
        for oc in 0..out_c {
            let taps_of = &weight[oc * taps + ic * k * k..][..k * k];
            flipped.extend(taps_of.iter().rev());
        }
    }
    let transposed = ConvShape {
        in_c: out_c,
        out_c: in_c,
        ..shape
    };
    correlate(transposed, grad_out, flipped, |_| 0.0, grad_in, panel, acc);
}

/// `out[b][oc] = seed(oc) + Σ_t weight[oc][t] · tap_t(input[b])`, taps
/// ascending, one row chunk at a time.
fn correlate(
    shape: ConvShape,
    input: &Matrix,
    weight: &[f32],
    seed: impl Fn(usize) -> f32,
    out: &mut Matrix,
    panel: &mut Vec<f32>,
    acc: &mut Vec<f32>,
) {
    let (taps, px) = (shape.taps(), shape.pixels());
    out.reset(input.rows(), shape.out_c * px);
    let step = shape.chunk_rows();
    for first in (0..input.rows()).step_by(step) {
        let rows = step.min(input.rows() - first);
        let n = rows * px;
        im2col::<false>(shape, input, first, rows, panel);
        acc.clear();
        for oc in 0..shape.out_c {
            acc.resize((oc + 1) * n, seed(oc));
        }
        gemm_acc(weight, panel, acc, taps, n);
        for (oc, acc_row) in acc.chunks_exact(n).enumerate() {
            for (r, plane) in acc_row.chunks_exact(px).enumerate() {
                out.row_mut(first + r)[oc * px..(oc + 1) * px].copy_from_slice(plane);
            }
        }
    }
}

/// Gathers the im2col panel of `rows` rows of `input` starting at `first`:
/// entry `(tap, pixel)` is the input value under `tap = (ic, ky, kx)` at
/// output `pixel = (row, oy, ox)`, `+0.0` outside the image. Tap-major
/// (`taps × pixels`) by default, pixel-major (`pixels × taps`) under
/// `PATCH_MAJOR`.
fn im2col<const PATCH_MAJOR: bool>(
    shape: ConvShape,
    input: &Matrix,
    first: usize,
    rows: usize,
    panel: &mut Vec<f32>,
) {
    let ConvShape { in_c, k, h, w, .. } = shape;
    let (taps, px, pad) = (shape.taps(), shape.pixels(), k / 2);
    let n = rows * px;
    panel.clear();
    panel.resize(taps * n, 0.0);
    for ic in 0..in_c {
        for ky in 0..k {
            // Output rows whose tap row `oy + ky - pad` lies inside the image.
            let (oy0, oy1) = (pad.saturating_sub(ky), (h + pad).saturating_sub(ky).min(h));
            for kx in 0..k {
                let (ox0, ox1) = (pad.saturating_sub(kx), (w + pad).saturating_sub(kx).min(w));
                if oy0 >= oy1 || ox0 >= ox1 {
                    continue;
                }
                let tap = (ic * k + ky) * k + kx;
                for r in 0..rows {
                    let chan = &input.row(first + r)[ic * px..(ic + 1) * px];
                    if PATCH_MAJOR {
                        for oy in oy0..oy1 {
                            let src = &chan[(oy + ky - pad) * w + ox0 + kx - pad..][..ox1 - ox0];
                            let base = (r * px + oy * w + ox0) * taps + tap;
                            for (i, &v) in src.iter().enumerate() {
                                panel[base + i * taps] = v;
                            }
                        }
                    } else {
                        // The in-image pixels of this tap, first to last, are
                        // one contiguous run of the plane shifted by the tap
                        // offset: copy it whole, then clear the columns the
                        // shift wrapped around a row end. Column-major so the
                        // stores stay a handful of scalar writes.
                        let plane = &mut panel[tap * n + r * px..][..px];
                        let (lo, hi) = (oy0 * w + ox0, (oy1 - 1) * w + ox1);
                        let src = (oy0 + ky - pad) * w + ox0 + kx - pad;
                        plane[lo..hi].copy_from_slice(&chan[src..src + hi - lo]);
                        for col in (0..ox0).chain(ox1..w) {
                            for oy in oy0..oy1 {
                                plane[oy * w + col] = 0.0;
                            }
                        }
                    }
                }
            }
        }
    }
}

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
//!   The panel is gathered one tap row at a time, as a shifted copy of the
//!   chunk's channel plane with the padding masked to `+0.0` ([`Panel`]).
//! * **backward, parameters** gathers the forward's tap-major panel again
//!   and packs `grad_out` pixel-major, `(rows·h·w) × out_c`; one product
//!   `panel · grad_out` per chunk accumulates a `taps × out_c` scratch that
//!   is transposed into the filter gradient at the end. Every filter weight
//!   receives its addends in ascending `(b, oy, ox)` order from `+0.0`
//!   (`x·g` is `g·x` bit for bit), zero gradients added as `±0.0` where
//!   the scalar loop skips them. The bias gradient adds every packed pixel
//!   row, zeros included, all channels side by side.
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
//! [`PANEL_FLOATS`] elements, whatever the batch: scratch (the panel, the
//! channel planes and masks it is gathered from, the packed gradient) is
//! O(chunk), never O(dataset). Chunking changes which rows share a panel,
//! not the order in which any output element is accumulated.

use shiftex_tensor::{gemm_acc, Matrix};

/// Most rows one im2col panel covers.
const MAX_CHUNK_ROWS: usize = 32;

/// Panel size (in `f32`s) a chunk aims to stay under — 256 KiB, so the panel
/// of a small image batch stays cache-resident while the filter bank sweeps
/// it. A single row larger than this still gets a chunk of its own.
const PANEL_FLOATS: usize = 1 << 16;

/// Geometry of one convolution layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    panel: Panel,
    /// One accumulator row per output channel over the chunk's pixels.
    acc: Vec<f32>,
    /// Transposed, flipped filter bank of the input-gradient pass.
    flipped: Vec<f32>,
    /// Backward: the chunk's `grad_out`, pixel-major (`pixels × out_c`).
    grad_px: Vec<f32>,
    /// Backward: the filter gradient, tap-major (`taps × out_c`).
    grad_wt: Vec<f32>,
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
    let ConvShape { in_c, out_c, k, .. } = shape;
    let (taps, px) = (shape.taps(), shape.pixels());
    let ConvScratch {
        panel,
        acc,
        flipped,
        grad_px,
        grad_wt,
    } = scratch;
    let (grad_w, grad_b) = param_grad.split_at_mut(out_c * taps);
    grad_b.fill(0.0);
    grad_wt.clear();
    grad_wt.resize(taps * out_c, 0.0);
    let step = shape.chunk_rows();
    for first in (0..input.rows()).step_by(step) {
        let rows = step.min(input.rows() - first);
        panel.gather(shape, input, first, rows);
        grad_px.clear();
        grad_px.resize(rows * px * out_c, 0.0);
        for (r, packed) in grad_px.chunks_exact_mut(px * out_c).enumerate() {
            for (oc, plane) in grad_out.row(first + r).chunks_exact(px).enumerate() {
                for (p, &g) in plane.iter().enumerate() {
                    packed[p * out_c + oc] = g;
                }
            }
        }
        gemm_acc(&panel.data, grad_px, grad_wt, rows * px, out_c);
        for pixel in grad_px.chunks_exact(out_c) {
            for (gb, &g) in grad_b.iter_mut().zip(pixel) {
                *gb += g;
            }
        }
    }
    for (oc, gw) in grad_w.chunks_exact_mut(taps).enumerate() {
        for (t, w) in gw.iter_mut().enumerate() {
            *w = grad_wt[t * out_c + oc];
        }
    }

    let Some(grad_in) = grad_in else { return };
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
    panel: &mut Panel,
    acc: &mut Vec<f32>,
) {
    let (taps, px) = (shape.taps(), shape.pixels());
    out.reset(input.rows(), shape.out_c * px);
    let step = shape.chunk_rows();
    for first in (0..input.rows()).step_by(step) {
        let rows = step.min(input.rows() - first);
        let n = rows * px;
        panel.gather(shape, input, first, rows);
        acc.clear();
        for oc in 0..shape.out_c {
            acc.resize((oc + 1) * n, seed(oc));
        }
        gemm_acc(weight, &panel.data, acc, taps, n);
        for (oc, acc_row) in acc.chunks_exact(n).enumerate() {
            for (r, plane) in acc_row.chunks_exact(px).enumerate() {
                out.row_mut(first + r)[oc * px..(oc + 1) * px].copy_from_slice(plane);
            }
        }
    }
}

/// The im2col panel of one row chunk, with the buffers that gather it.
#[derive(Debug, Default)]
struct Panel {
    /// Entry `(tap, pixel)`: the input value under `tap = (ic, ky, kx)` at
    /// output `pixel = (row, oy, ox)`, `+0.0` outside the image; tap-major
    /// (`taps × rows·h·w`).
    data: Vec<f32>,
    /// The chunk channel-major — channel `ic` of every row, row after row
    /// — each channel between runs of `pad·w + pad` zeros.
    planes: Vec<f32>,
    /// Per kernel offset `(ky, kx)`, one mask per chunk pixel: all ones
    /// where the offset lands inside the image, zero where it pads.
    masks: Vec<u32>,
    /// `(k, h, w, rows)` that `masks` was built for.
    masks_for: (usize, usize, usize, usize),
}

impl Panel {
    /// Gathers the panel of `rows` rows of `input` starting at `first`.
    ///
    /// Within one channel of the channel-major chunk, the values a tap
    /// reads at consecutive output pixels are consecutive inputs shifted by
    /// the tap's offset `(ky − pad)·w + kx − pad`, across row ends and
    /// image ends alike. So each panel row is one shifted copy of its
    /// channel, masked: the offset's mask clears every pixel where the tap
    /// falls outside the image — and with it every value the shift pulled
    /// in from a neighbouring row or image, or from the zero runs — to
    /// `+0.0`.
    fn gather(&mut self, shape: ConvShape, input: &Matrix, first: usize, rows: usize) {
        let ConvShape { in_c, k, h, w, .. } = shape;
        let (px, pad) = (shape.pixels(), k / 2);
        let n = rows * px;
        self.data.resize(shape.taps() * n, 0.0);
        if n == 0 {
            return;
        }
        let margin = pad * w + pad;
        self.planes.clear();
        self.planes.reserve(in_c * (n + margin) + margin);
        self.planes.resize(margin, 0.0);
        for ic in 0..in_c {
            for r in first..first + rows {
                self.planes
                    .extend_from_slice(&input.row(r)[ic * px..(ic + 1) * px]);
            }
            self.planes.resize(self.planes.len() + margin, 0.0);
        }
        if self.masks_for != (k, h, w, rows) {
            self.masks_for = (k, h, w, rows);
            self.masks.clear();
            self.masks.reserve(k * k * n);
            for ky in 0..k {
                let rows_in = pad.saturating_sub(ky)..(h + pad).saturating_sub(ky).min(h);
                for kx in 0..k {
                    let cols_in = pad.saturating_sub(kx)..(w + pad).saturating_sub(kx).min(w);
                    let image = self.masks.len();
                    for oy in 0..h {
                        for ox in 0..w {
                            let keep = rows_in.contains(&oy) && cols_in.contains(&ox);
                            self.masks.push(if keep { u32::MAX } else { 0 });
                        }
                    }
                    for _ in 1..rows {
                        self.masks.extend_from_within(image..image + px);
                    }
                }
            }
        }
        for (ic, taps) in self.data.chunks_exact_mut(k * k * n).enumerate() {
            let channel = ic * (n + margin);
            for (t, (row, mask)) in taps
                .chunks_exact_mut(n)
                .zip(self.masks.chunks_exact(n))
                .enumerate()
            {
                // Panel entry `j` reads channel entry `j + (ky·w + kx) − margin`.
                let src = &self.planes[channel + t / k * w + t % k..][..n];
                for ((v, &x), &m) in row.iter_mut().zip(src).zip(mask) {
                    *v = f32::from_bits(x.to_bits() & m);
                }
            }
        }
    }
}

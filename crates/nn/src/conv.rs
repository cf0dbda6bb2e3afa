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
//!   image. Each output row of the batch is one **output block**, its
//!   `out_c × h·w` slice of `out`: every channel plane is seeded with its
//!   bias, and the filter bank is multiplied into the block where it lies
//!   ([`shiftex_tensor::gemm_acc_strided`], the row's panel columns as the
//!   right operand). Nothing is accumulated elsewhere and copied out, and
//!   `out` is not zero-filled first. Each output pixel receives its taps
//!   in ascending `(ic, ky, kx)` order, exactly the scalar loop's. The
//!   panel is gathered one tap row at a time, as a shifted copy of the
//!   chunk's channel plane with the padding masked to `+0.0` ([`Panel`]);
//!   a single-channel input (LeNet-lite's first layer) is its own channel
//!   plane and is read in place.
//! * **backward, parameters** gathers the forward's tap-major panel again,
//!   plus one **bias tap row** of `1.0`s, and packs `grad_out` pixel-major,
//!   `(rows·h·w) × out_c`; one product `panel · grad_out` per chunk
//!   accumulates a `(taps + 1) × out_c` scratch from `+0.0`. Its first
//!   `taps` rows are transposed into the filter gradient at the end; its
//!   last row, `Σ 1·g`, is the bias gradient, since `1·g = g` bit for bit.
//!   Every filter weight and every bias receives its addends in ascending
//!   `(b, oy, ox)` order from `+0.0` (`x·g` is `g·x` bit for bit), zero
//!   gradients added as `±0.0` where the scalar loop skips them.
//! * **backward, input** is the forward kernel run on `grad_out` with the
//!   filter bank transposed and flipped, `w'[ic][oc, ky, kx] =
//!   w[oc][ic, k−1−ky, k−1−kx]`, seeded `+0.0`: ascending flipped taps are
//!   descending original taps, i.e. ascending `(oy, ox)` for each input
//!   pixel, after ascending `oc` — the scalar loop's order again.
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

use shiftex_tensor::{gemm_acc, gemm_acc_strided, Matrix};

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
    /// Transposed, flipped filter bank of the input-gradient pass.
    flipped: Vec<f32>,
    /// Backward: the chunk's `grad_out`, pixel-major (`pixels × out_c`).
    grad_px: Vec<f32>,
    /// Backward: the filter gradient, tap-major (`taps × out_c`), then the
    /// bias gradient as the ones row's product (one more row of `out_c`).
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
    correlate(shape, input, weight, |oc| bias[oc], out, &mut scratch.panel);
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
        flipped,
        grad_px,
        grad_wt,
    } = scratch;
    grad_wt.clear();
    grad_wt.resize((taps + 1) * out_c, 0.0);
    let step = shape.chunk_rows();
    for first in (0..input.rows()).step_by(step) {
        let rows = step.min(input.rows() - first);
        panel.gather(shape, input, first, rows, true);
        // Pixel-major `grad_out`: entry `(row, p)·out_c + oc`, each channel
        // plane written down its column of the row's block.
        grad_px.resize(rows * px * out_c, 0.0);
        let blocks = grad_px.chunks_exact_mut((px * out_c).max(1));
        let grad_rows = grad_out.as_slice()[first * out_c * px..].chunks_exact((out_c * px).max(1));
        for (packed, grad_row) in blocks.zip(grad_rows) {
            for (oc, plane) in grad_row.chunks_exact(px).enumerate() {
                for (dst, &g) in packed[oc..].iter_mut().step_by(out_c).zip(plane) {
                    *dst = g;
                }
            }
        }
        gemm_acc(&panel.data, grad_px, grad_wt, rows * px, out_c);
    }
    let (grad_w, grad_b) = param_grad.split_at_mut(out_c * taps);
    for (oc, gw) in grad_w.chunks_exact_mut(taps).enumerate() {
        for (w, &g) in gw.iter_mut().zip(grad_wt[oc..].iter().step_by(out_c)) {
            *w = g;
        }
    }
    grad_b.copy_from_slice(&grad_wt[taps * out_c..]);

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
    correlate(transposed, grad_out, flipped, |_| 0.0, grad_in, panel);
}

/// `out[b][oc] = seed(oc) + Σ_t weight[oc][t] · tap_t(input[b])`, taps
/// ascending, one row chunk at a time. Each output row is one block of
/// `out_c × h·w`: seeded plane by plane, then handed to the GEMM as its
/// output, with the chunk panel's columns of that row as the right operand
/// where they lie.
fn correlate(
    shape: ConvShape,
    input: &Matrix,
    weight: &[f32],
    seed: impl Fn(usize) -> f32,
    out: &mut Matrix,
    panel: &mut Panel,
) {
    let (taps, px) = (shape.taps(), shape.pixels());
    out.reshape_for_overwrite(input.rows(), shape.out_c * px);
    if px == 0 {
        return;
    }
    let step = shape.chunk_rows();
    for first in (0..input.rows()).step_by(step) {
        let rows = step.min(input.rows() - first);
        let n = rows * px;
        panel.gather(shape, input, first, rows, false);
        for r in 0..rows {
            let block = out.row_mut(first + r);
            for (oc, plane) in block.chunks_exact_mut(px).enumerate() {
                plane.fill(seed(oc));
            }
            gemm_acc_strided(weight, &panel.data[r * px..], n, block, taps, px);
        }
    }
}

/// The im2col panel of one row chunk, with the buffers that gather it.
#[derive(Debug, Default)]
struct Panel {
    /// Entry `(tap, pixel)`: the input value under `tap = (ic, ky, kx)` at
    /// output `pixel = (row, oy, ox)`, `+0.0` outside the image; tap-major
    /// (`taps × rows·h·w`). A backward gather appends one row of `1.0`s,
    /// the bias's tap.
    data: Vec<f32>,
    /// The chunk channel-major — channel `ic` of every row, row after row —
    /// when the input has more than one channel. A single-channel chunk is
    /// already that, in the input's own rows.
    planes: Vec<f32>,
    /// One set per geometry the panel has gathered: an inference scratch
    /// that a model's layers share keeps every convolution's masks, rather
    /// than rebuilding one set per layer per pass.
    masks: Vec<Masks>,
}

/// The padding masks of one geometry.
#[derive(Debug)]
struct Masks {
    /// `(k, h, w)`.
    geometry: (usize, usize, usize),
    /// Images in the chunk `bits` was built for.
    rows: usize,
    /// Per kernel offset `(ky, kx)`, one mask per chunk pixel: all ones
    /// where the offset lands inside the image, zero where it pads.
    bits: Vec<u32>,
}

impl Panel {
    /// Gathers the panel of `rows` rows of `input` starting at `first`,
    /// plus the ones row when `ones` is set.
    ///
    /// Within one channel of the channel-major chunk, the values a tap
    /// reads at consecutive output pixels are consecutive inputs shifted by
    /// the tap's offset `(ky − pad)·w + kx − pad`, across row ends and
    /// image ends alike. So each panel row is one shifted copy of its
    /// channel, masked: the offset's mask clears every pixel where the tap
    /// falls outside the image — and with it every value the shift pulled
    /// in from a neighbouring row or image — to `+0.0`. A shift past either
    /// end of the chunk reads nothing: the tap is outside the image there.
    fn gather(&mut self, shape: ConvShape, input: &Matrix, first: usize, rows: usize, ones: bool) {
        let ConvShape { in_c, k, h, w, .. } = shape;
        let (px, pad) = (shape.pixels(), k / 2);
        let n = rows * px;
        let Panel {
            data,
            planes,
            masks,
        } = self;
        data.resize((shape.taps() + usize::from(ones)) * n, 0.0);
        if n == 0 {
            return;
        }
        let chunk: &[f32] = if in_c == 1 {
            &input.as_slice()[first * px..][..n]
        } else {
            planes.clear();
            for ic in 0..in_c {
                for r in first..first + rows {
                    planes.extend_from_slice(&input.row(r)[ic * px..(ic + 1) * px]);
                }
            }
            planes
        };
        let at = match masks.iter().position(|m| m.geometry == (k, h, w)) {
            Some(at) => at,
            None => {
                masks.push(Masks {
                    geometry: (k, h, w),
                    rows: 0,
                    bits: Vec::new(),
                });
                masks.len() - 1
            }
        };
        let masks = &mut masks[at];
        if masks.rows != rows {
            masks.rows = rows;
            build_masks(&mut masks.bits, k, h, w, rows);
        }
        let mask = &masks.bits;
        let (taps, bias_row) = data.split_at_mut(shape.taps() * n);
        for (channel, taps) in chunk.chunks_exact(n).zip(taps.chunks_exact_mut(k * k * n)) {
            for (t, (row, mask)) in taps
                .chunks_exact_mut(n)
                .zip(mask.chunks_exact(n))
                .enumerate()
            {
                // Panel entry `j` reads channel entry `j + shift`.
                let shift = (t / k * w + t % k) as isize - (pad * w + pad) as isize;
                let off_end = shift.unsigned_abs().min(n);
                let (lo, hi) = if shift < 0 {
                    (off_end, n)
                } else {
                    (0, n - off_end)
                };
                let from = (lo as isize + shift).clamp(0, n as isize) as usize;
                let src = &channel[from..][..hi - lo];
                for ((v, &x), &m) in row[lo..hi].iter_mut().zip(src).zip(&mask[lo..hi]) {
                    *v = f32::from_bits(x.to_bits() & m);
                }
                // Past either end of the chunk the tap is outside the image,
                // where the mask would give `+0.0`.
                row[..lo].fill(0.0);
                row[hi..].fill(0.0);
            }
        }
        bias_row.fill(1.0);
    }
}

/// Rebuilds `masks` for kernel side `k` over a chunk of `rows` images of
/// `h × w`: per offset `(ky, kx)`, one mask per chunk pixel, all ones where
/// the offset reads inside the image and zero where it reads padding.
fn build_masks(masks: &mut Vec<u32>, k: usize, h: usize, w: usize, rows: usize) {
    let pad = k / 2;
    let px = h * w;
    let inside =
        |kk: usize, len: usize| pad.saturating_sub(kk)..(len + pad).saturating_sub(kk).min(len);
    masks.clear();
    masks.reserve(k * k * rows * px);
    for ky in 0..k {
        let rows_in = inside(ky, h);
        for kx in 0..k {
            let cols_in = inside(kx, w);
            let image = masks.len();
            for oy in 0..h {
                for ox in 0..w {
                    let keep = rows_in.contains(&oy) && cols_in.contains(&ox);
                    masks.push(if keep { u32::MAX } else { 0 });
                }
            }
            for _ in 1..rows {
                masks.extend_from_within(image..image + px);
            }
        }
    }
}

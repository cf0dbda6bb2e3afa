//! Scalar reference kernels: the oracles of the production layers.
//!
//! * The convolution: seven-deep textbook loops with two bounds branches
//!   per tap and no blocking, panels or scratch — what this crate shipped
//!   until the production path was lowered onto `shiftex_tensor::gemm_acc`,
//!   kept verbatim.
//! * The instance norm: one row at a time, two serial sums per row — what
//!   this crate shipped until [`crate::Layer::InstanceNorm`] standardised
//!   rows side by side, kept verbatim.
//! * The max pool: one branch per window candidate — what this crate
//!   shipped until [`crate::Layer::MaxPool2d`] selected over row slices
//!   (and later pooled eight windows as lanes), kept verbatim.
//!
//! Tests assert that [`crate::Layer`] matches these loops bit for bit, and
//! the `nn_kernels/*_naive` benches time them; production code always goes
//! through [`crate::Layer`].

use shiftex_tensor::Matrix;

use crate::conv::ConvShape;

/// Forward convolution, "same" zero padding, stride 1: `input` is
/// `batch × in_c·h·w`, `weight` the `out_c × in_c·k·k` filter bank.
pub fn conv_forward(shape: ConvShape, input: &Matrix, weight: &Matrix, bias: &[f32]) -> Matrix {
    let ConvShape {
        in_c,
        out_c,
        k,
        h,
        w,
    } = shape;
    let pad = k / 2;
    let batch = input.rows();
    let mut out = Matrix::zeros(batch, out_c * h * w);
    for b in 0..batch {
        let x = input.row(b);
        let out_row = out.row_mut(b);
        for oc in 0..out_c {
            let wrow = weight.row(oc);
            for oy in 0..h {
                for ox in 0..w {
                    let mut acc = bias[oc];
                    for ic in 0..in_c {
                        let chan = &x[ic * h * w..(ic + 1) * h * w];
                        let wbase = ic * k * k;
                        for ky in 0..k {
                            let iy = oy as isize + ky as isize - pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let iy = iy as usize;
                            for kx in 0..k {
                                let ix = ox as isize + kx as isize - pad as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                acc += chan[iy * w + ix as usize] * wrow[wbase + ky * k + kx];
                            }
                        }
                    }
                    out_row[oc * h * w + oy * w + ox] = acc;
                }
            }
        }
    }
    out
}

/// Backward convolution: `(grad_in, param_grad)` with the parameter
/// gradient in flatten order (`out_c·in_c·k·k` filter weights, then `out_c`
/// biases).
pub fn conv_backward(
    shape: ConvShape,
    input: &Matrix,
    grad_out: &Matrix,
    weight: &Matrix,
) -> (Matrix, Vec<f32>) {
    let ConvShape {
        in_c,
        out_c,
        k,
        h,
        w,
    } = shape;
    let pad = k / 2;
    let batch = input.rows();
    let mut grad_in = Matrix::zeros(batch, in_c * h * w);
    let mut grad_w = vec![0.0f32; out_c * in_c * k * k];
    let mut grad_b = vec![0.0f32; out_c];
    for b in 0..batch {
        let x = input.row(b);
        let go = grad_out.row(b);
        let gi = grad_in.row_mut(b);
        for oc in 0..out_c {
            let wrow = weight.row(oc);
            let gw = &mut grad_w[oc * in_c * k * k..(oc + 1) * in_c * k * k];
            for oy in 0..h {
                for ox in 0..w {
                    let g = go[oc * h * w + oy * w + ox];
                    if g == 0.0 {
                        continue;
                    }
                    grad_b[oc] += g;
                    for ic in 0..in_c {
                        let cbase = ic * h * w;
                        let wbase = ic * k * k;
                        for ky in 0..k {
                            let iy = oy as isize + ky as isize - pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let iy = iy as usize;
                            for kx in 0..k {
                                let ix = ox as isize + kx as isize - pad as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let ix = ix as usize;
                                gw[wbase + ky * k + kx] += g * x[cbase + iy * w + ix];
                                gi[cbase + iy * w + ix] += g * wrow[wbase + ky * k + kx];
                            }
                        }
                    }
                }
            }
        }
    }
    grad_w.extend_from_slice(&grad_b);
    (grad_in, grad_w)
}

/// Per-row standardisation of `input`: `(output, stds)`, each row shifted
/// to zero mean and scaled by its eps-floored standard deviation.
pub fn instance_norm(input: &Matrix) -> (Matrix, Vec<f32>) {
    let n = input.cols().max(1) as f32;
    let mut out = input.clone();
    let mut stds = Vec::with_capacity(input.rows());
    for r in 0..input.rows() {
        let row = out.row_mut(r);
        let mean: f32 = row.iter().sum::<f32>() / n;
        let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
        let std = (var + 1e-5).sqrt();
        for v in row.iter_mut() {
            *v = (*v - mean) / std;
        }
        stds.push(std);
    }
    (out, stds)
}

/// Forward 2×2/stride-2 max pooling of `input` (`batch × c·h·w`, `h` and
/// `w` even): `(output, winners)`, `winners` holding the flat input index
/// (within its row) behind every output element.
pub fn max_pool(input: &Matrix, c: usize, h: usize, w: usize) -> (Matrix, Vec<usize>) {
    let (oh, ow) = (h / 2, w / 2);
    let batch = input.rows();
    let out_dim = c * oh * ow;
    let mut out = Matrix::zeros(batch, out_dim);
    let mut winners = vec![0usize; batch * out_dim];
    for b in 0..batch {
        let x = input.row(b);
        let out_row = out.row_mut(b);
        for ch in 0..c {
            let cbase = ch * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            let idx = cbase + (oy * 2 + dy) * w + ox * 2 + dx;
                            if x[idx] > best {
                                best = x[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    let o = ch * oh * ow + oy * ow + ox;
                    out_row[o] = best;
                    winners[b * out_dim + o] = best_idx;
                }
            }
        }
    }
    (out, winners)
}

//! Scalar reference convolution: the oracle of the GEMM-lowered kernels.
//!
//! Seven-deep textbook loops with two bounds branches per tap and no
//! blocking, panels or scratch — the convolution this crate shipped until
//! the production path was lowered onto `shiftex_tensor::gemm_acc`, kept
//! verbatim. Property tests assert that [`crate::Layer::Conv2d`] matches
//! these loops bit for bit, and the `nn_kernels/*_naive` benches time them;
//! production code always goes through [`crate::Layer`].

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

//! The GEMM-lowered convolution behind `Layer::Conv2d` against the scalar
//! oracle in `shiftex_nn::naive`: every output and every gradient must agree
//! **bit for bit** (`to_bits`), over shapes that straddle the panel chunking,
//! sparse and all-zero gradient planes, and every kind of bias. The one
//! decided corner — a `-0.0` bias — is pinned by its own tests.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shiftex_nn::{naive, ConvShape, Layer, LayerCache};
use shiftex_tensor::Matrix;

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Random values with exact `+0.0` / `-0.0` entries mixed in at rate
/// `zero_rate` — post-ReLU activations and masked gradients look like this.
fn sparse_randn(rows: usize, cols: usize, zero_rate: f64, rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        if rng.random_bool(zero_rate) {
            if rng.random_bool(0.5) {
                0.0
            } else {
                -0.0
            }
        } else {
            shiftex_tensor::rngx::normal(rng, 0.0, 1.0)
        }
    })
}

/// A random geometry (`k ∈ {1,3,5}`, `in_c` 1–6, small unequal `h`/`w`) and
/// filter bank.
fn random_conv(rng: &mut StdRng) -> (ConvShape, Matrix) {
    let shape = ConvShape {
        in_c: rng.random_range(1..=6),
        out_c: rng.random_range(1..=5),
        k: [1, 3, 5][rng.random_range(0..3)],
        h: rng.random_range(1..=9),
        w: rng.random_range(1..=9),
    };
    let weight = Matrix::randn(shape.out_c, shape.taps(), 0.0, 0.5, rng);
    (shape, weight)
}

/// Row counts on both sides of the 32-row chunk bound (and of the smaller
/// chunks that large geometries get).
fn random_rows(rng: &mut StdRng) -> usize {
    [0, 1, 2, 5, 31, 32, 33, 40, 64, 65][rng.random_range(0..10)]
}

fn forward(layer: &Layer, x: &Matrix) -> Matrix {
    let mut out = Matrix::default();
    layer.forward(x, &mut out, &mut LayerCache::default());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Forward output is bit-identical for negative, positive and `+0.0`
    /// biases, dense and zero-riddled inputs.
    #[test]
    fn prop_forward_matches_naive_bit_for_bit(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (shape, weight) = random_conv(&mut rng);
        let bias: Vec<f32> = (0..shape.out_c)
            .map(|_| match rng.random_range(0..3) {
                0 => 0.0,
                1 => -rng.random_range(0.01f32..2.0),
                _ => rng.random_range(0.01f32..2.0),
            })
            .collect();
        let zero_rate = [0.0, 0.6][rng.random_range(0..2)];
        let x = sparse_randn(random_rows(&mut rng), shape.in_c * shape.pixels(), zero_rate, &mut rng);
        let expect = naive::conv_forward(shape, &x, &weight, &bias);
        let got = forward(&Layer::Conv2d { shape, weight, bias }, &x);
        prop_assert_eq!(got.shape(), expect.shape());
        prop_assert_eq!(bits(got.as_slice()), bits(expect.as_slice()), "{:?}", shape);
    }

    /// With `-0.0` biases the outputs are equal as numbers, bit-identical
    /// wherever they are not zero, and bit-identical after the ReLU that
    /// follows every convolution.
    #[test]
    fn prop_negative_zero_bias_differs_at_most_in_the_sign_of_zero(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (shape, weight) = random_conv(&mut rng);
        let x = sparse_randn(random_rows(&mut rng), shape.in_c * shape.pixels(), 0.7, &mut rng);
        let bias = vec![-0.0f32; shape.out_c];
        let expect = naive::conv_forward(shape, &x, &weight, &bias);
        let got = forward(&Layer::Conv2d { shape, weight, bias }, &x);
        for (g, e) in got.as_slice().iter().zip(expect.as_slice()) {
            prop_assert!(g == e, "{g} vs {e}");
            prop_assert!(*e == 0.0 || g.to_bits() == e.to_bits());
        }
        prop_assert_eq!(
            bits(forward(&Layer::Relu, &got).as_slice()),
            bits(forward(&Layer::Relu, &expect).as_slice())
        );
    }

    /// `grad_in`, `grad_w` and `grad_b` are bit-identical for dense,
    /// ReLU-sparse and all-zero gradient planes; skipping `grad_in` leaves
    /// the parameter gradient untouched.
    #[test]
    fn prop_backward_matches_naive_bit_for_bit(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (shape, weight) = random_conv(&mut rng);
        let rows = random_rows(&mut rng);
        let zero_rate = [0.0, 0.5][rng.random_range(0..2)];
        let x = sparse_randn(rows, shape.in_c * shape.pixels(), zero_rate, &mut rng);
        let grad_rate = [0.0, 0.8, 1.0][rng.random_range(0..3)];
        let grad_out = sparse_randn(rows, shape.out_c * shape.pixels(), grad_rate, &mut rng);
        let (expect_in, expect_params) = naive::conv_backward(shape, &x, &grad_out, &weight);

        let layer = Layer::Conv2d { shape, weight, bias: vec![0.0; shape.out_c] };
        let mut cache = LayerCache::default();
        let mut out = Matrix::default();
        layer.forward(&x, &mut out, &mut cache);
        let mut grad_in = Matrix::default();
        let mut params = vec![f32::NAN; layer.num_params()];
        layer.backward(&x, &out, &mut cache, &grad_out, Some(&mut grad_in), &mut params);
        prop_assert_eq!(grad_in.shape(), expect_in.shape());
        prop_assert_eq!(bits(grad_in.as_slice()), bits(expect_in.as_slice()), "grad_in {:?}", shape);
        prop_assert_eq!(bits(&params), bits(&expect_params), "grad_w|grad_b {:?}", shape);

        let mut dead = vec![f32::NAN; layer.num_params()];
        layer.backward(&x, &out, &mut cache, &grad_out, None, &mut dead);
        prop_assert_eq!(bits(&dead), bits(&expect_params));
    }
}

/// The corner itself, constructed: an all-`+0.0` image, a `-0.0` bias and a
/// filter whose only positive weight sits on a tap that is outside the
/// image at pixel `(0, 0)`. The scalar loop sums `-0.0` products only and
/// keeps `-0.0`; the panel adds the padding tap's `+0.0` and lands on
/// `+0.0`. Interior pixels, which have no padding taps, agree bit for bit.
#[test]
fn negative_zero_bias_corner_is_the_sign_of_a_border_zero() {
    let shape = ConvShape {
        in_c: 1,
        out_c: 1,
        k: 3,
        h: 3,
        w: 3,
    };
    let mut weight = Matrix::full(1, 9, -1.0);
    weight.set(0, 0, 1.0);
    let x = Matrix::zeros(1, 9);
    let expect = naive::conv_forward(shape, &x, &weight, &[-0.0]);
    let got = forward(
        &Layer::Conv2d {
            shape,
            weight,
            bias: vec![-0.0],
        },
        &x,
    );
    assert_eq!(expect.get(0, 0).to_bits(), (-0.0f32).to_bits());
    assert_eq!(got.get(0, 0).to_bits(), 0.0f32.to_bits());
    // The centre pixel sees all nine taps inside the image: one `+0.0`
    // product among them makes both paths land on `+0.0`.
    assert_eq!(got.get(0, 4).to_bits(), expect.get(0, 4).to_bits());
    assert_eq!(got, expect, "equal as numbers everywhere");
}

/// Both LeNet-lite shapes of the benchmark workloads, at the batch sizes the
/// `nn_kernels` benches time.
#[test]
fn lenet_shapes_match_naive_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(12);
    for (in_c, out_c, side, rows) in [(1, 6, 8, 16), (6, 12, 4, 16), (1, 6, 28, 3)] {
        let shape = ConvShape {
            in_c,
            out_c,
            k: 3,
            h: side,
            w: side,
        };
        let weight = Matrix::randn(out_c, shape.taps(), 0.0, 0.3, &mut rng);
        let bias: Vec<f32> = (0..out_c).map(|i| 0.01 * i as f32 - 0.02).collect();
        let x = sparse_randn(rows, in_c * shape.pixels(), 0.3, &mut rng);
        let expect = naive::conv_forward(shape, &x, &weight, &bias);
        let got = forward(
            &Layer::Conv2d {
                shape,
                weight,
                bias,
            },
            &x,
        );
        assert_eq!(bits(got.as_slice()), bits(expect.as_slice()), "{shape:?}");
    }
}

/// Batches that cross the chunk bound once, twice and three times — the
/// 32-row cap at both LeNet-lite shapes, and the 9-row chunks the panel
/// budget gives a 28×28 input — forward, and backward with and without the
/// input gradient: each output row is its own GEMM block, and the weight
/// and bias gradients run over every chunk in turn.
#[test]
fn batches_across_chunk_bounds_match_naive_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(13);
    let lenet = [(1, 6, 8), (6, 12, 4)].map(|c| (c, [31, 33, 64, 65, 96, 97, 100]));
    let wide = [((1, 6, 28), [8, 9, 10, 19, 27, 28, 29])];
    for ((in_c, out_c, side), batches) in lenet.into_iter().chain(wide) {
        let shape = ConvShape {
            in_c,
            out_c,
            k: 3,
            h: side,
            w: side,
        };
        let weight = Matrix::randn(out_c, shape.taps(), 0.0, 0.3, &mut rng);
        let bias: Vec<f32> = (0..out_c).map(|i| 0.02 * i as f32 - 0.05).collect();
        let layer = Layer::Conv2d {
            shape,
            weight: weight.clone(),
            bias: bias.clone(),
        };
        for rows in batches {
            let x = sparse_randn(rows, in_c * shape.pixels(), 0.3, &mut rng);
            let grad_out = sparse_randn(rows, out_c * shape.pixels(), 0.6, &mut rng);
            let at = format!("{rows} rows of {shape:?}");
            let (mut out, mut cache) = (Matrix::default(), LayerCache::default());
            layer.forward(&x, &mut out, &mut cache);
            let expect = naive::conv_forward(shape, &x, &weight, &bias);
            assert_eq!(bits(out.as_slice()), bits(expect.as_slice()), "{at}");

            let (expect_in, expect_params) = naive::conv_backward(shape, &x, &grad_out, &weight);
            let mut grad_in = Matrix::default();
            let mut params = vec![f32::NAN; layer.num_params()];
            layer.backward(
                &x,
                &out,
                &mut cache,
                &grad_out,
                Some(&mut grad_in),
                &mut params,
            );
            assert_eq!(
                bits(grad_in.as_slice()),
                bits(expect_in.as_slice()),
                "{at} grad_in"
            );
            assert_eq!(bits(&params), bits(&expect_params), "{at} grad_w|grad_b");
            let mut dead = vec![f32::NAN; layer.num_params()];
            layer.backward(&x, &out, &mut cache, &grad_out, None, &mut dead);
            assert_eq!(bits(&dead), bits(&expect_params), "{at} without grad_in");
        }
    }
}

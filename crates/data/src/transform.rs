//! Geometric / photometric transforms used for the synthetic-shift protocol
//! on FEMNIST and Fashion-MNIST ("PyTorch image transformations (e.g.,
//! rotation, scaling, color jitter)").

use rand::Rng;
use shiftex_tensor::rngx;

use crate::dataset::ImageShape;

/// A geometric or photometric input transform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Transform {
    /// Rotation about the image centre, in degrees.
    Rotation(f32),
    /// Isotropic scaling about the centre (`> 1` zooms in).
    Scale(f32),
    /// Translation in pixels `(dy, dx)`.
    Translate(f32, f32),
    /// Colour jitter: brightness offset and contrast factor, randomly
    /// perturbed per sample by the given amounts.
    ColorJitter {
        /// Max absolute brightness offset.
        brightness: f32,
        /// Max relative contrast change.
        contrast: f32,
    },
    /// Horizontal flip.
    FlipHorizontal,
    /// Deterministic brightness offset — a regime-level lighting condition
    /// (the fixed component of torchvision-style ColorJitter).
    Brightness(f32),
}

impl Transform {
    /// Applies the transform to one flattened `(c, h, w)` image in place.
    ///
    /// Geometric transforms use bilinear resampling with zero padding.
    ///
    /// # Panics
    ///
    /// Panics if the buffer length does not match `shape.dim()`.
    pub fn apply(&self, x: &mut [f32], shape: ImageShape, rng: &mut impl Rng) {
        assert_eq!(x.len(), shape.dim(), "buffer length mismatch");
        match *self {
            Transform::Rotation(deg) => {
                let rad = deg.to_radians();
                warp(x, shape, |y, xx, cy, cx| {
                    let (dy, dx) = (y - cy, xx - cx);
                    (
                        cy + dy * rad.cos() - dx * rad.sin(),
                        cx + dy * rad.sin() + dx * rad.cos(),
                    )
                });
            }
            Transform::Scale(factor) => {
                assert!(factor > 0.0, "scale factor must be positive");
                let inv = 1.0 / factor;
                warp(x, shape, |y, xx, cy, cx| {
                    (cy + (y - cy) * inv, cx + (xx - cx) * inv)
                });
            }
            Transform::Translate(dy, dx) => {
                warp(x, shape, |y, xx, _, _| (y - dy, xx - dx));
            }
            Transform::ColorJitter {
                brightness,
                contrast,
            } => {
                let b = rngx::normal(rng, 0.0, brightness.max(0.0));
                let k = 1.0 + rngx::normal(rng, 0.0, contrast.max(0.0));
                let mean = shiftex_tensor::vector::mean(x);
                for v in x.iter_mut() {
                    *v = mean + k * (*v - mean) + b;
                }
            }
            Transform::FlipHorizontal => {
                let (h, w) = (shape.h, shape.w);
                for c in 0..shape.c {
                    let base = c * h * w;
                    for y in 0..h {
                        let row = &mut x[base + y * w..base + (y + 1) * w];
                        row.reverse();
                    }
                }
            }
            Transform::Brightness(offset) => {
                for v in x.iter_mut() {
                    *v += offset;
                }
            }
        }
    }
}

impl std::fmt::Display for Transform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Transform::Rotation(d) => write!(f, "rotate({d}°)"),
            Transform::Scale(s) => write!(f, "scale({s})"),
            Transform::Translate(dy, dx) => write!(f, "translate({dy},{dx})"),
            Transform::ColorJitter {
                brightness,
                contrast,
            } => {
                write!(f, "jitter(b={brightness},c={contrast})")
            }
            Transform::FlipHorizontal => write!(f, "hflip"),
            Transform::Brightness(b) => write!(f, "brightness({b})"),
        }
    }
}

/// Inverse-warps each output pixel from source coordinates produced by `f`,
/// sampling bilinearly with zero padding.
fn warp(x: &mut [f32], shape: ImageShape, f: impl Fn(f32, f32, f32, f32) -> (f32, f32)) {
    let (h, w) = (shape.h, shape.w);
    let (cy, cx) = ((h as f32 - 1.0) / 2.0, (w as f32 - 1.0) / 2.0);
    let orig = x.to_vec();
    for c in 0..shape.c {
        let base = c * h * w;
        for y in 0..h {
            for xx in 0..w {
                let (sy, sx) = f(y as f32, xx as f32, cy, cx);
                x[base + y * w + xx] = bilinear(&orig[base..base + h * w], h, w, sy, sx);
            }
        }
    }
}

/// Bilinear sample with zero padding outside the image.
fn bilinear(chan: &[f32], h: usize, w: usize, y: f32, x: f32) -> f32 {
    if y < -1.0 || x < -1.0 || y > h as f32 || x > w as f32 {
        return 0.0;
    }
    let (y0, x0) = (y.floor() as isize, x.floor() as isize);
    let (fy, fx) = (y - y0 as f32, x - x0 as f32);
    let at = |yy: isize, xx: isize| -> f32 {
        if yy < 0 || xx < 0 || yy >= h as isize || xx >= w as isize {
            0.0
        } else {
            chan[yy as usize * w + xx as usize]
        }
    };
    at(y0, x0) * (1.0 - fy) * (1.0 - fx)
        + at(y0, x0 + 1) * (1.0 - fy) * fx
        + at(y0 + 1, x0) * fy * (1.0 - fx)
        + at(y0 + 1, x0 + 1) * fy * fx
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use shiftex_tensor::vector;

    fn ramp(shape: ImageShape) -> Vec<f32> {
        (0..shape.dim())
            .map(|i| i as f32 / shape.dim() as f32)
            .collect()
    }

    #[test]
    fn rotation_360_is_near_identity() {
        let shape = ImageShape::new(1, 9, 9);
        let orig = ramp(shape);
        let mut x = orig.clone();
        let mut rng = StdRng::seed_from_u64(0);
        Transform::Rotation(360.0).apply(&mut x, shape, &mut rng);
        // Interior pixels must match; borders may differ from padding.
        let d = vector::l2_dist(&orig, &x);
        assert!(d < 0.2, "rot360 distance {d}");
    }

    #[test]
    fn flip_twice_is_identity() {
        let shape = ImageShape::new(2, 4, 4);
        let orig = ramp(shape);
        let mut x = orig.clone();
        let mut rng = StdRng::seed_from_u64(0);
        Transform::FlipHorizontal.apply(&mut x, shape, &mut rng);
        assert_ne!(orig, x);
        Transform::FlipHorizontal.apply(&mut x, shape, &mut rng);
        assert_eq!(orig, x);
    }

    #[test]
    fn scale_one_is_identity() {
        let shape = ImageShape::new(1, 6, 6);
        let orig = ramp(shape);
        let mut x = orig.clone();
        let mut rng = StdRng::seed_from_u64(0);
        Transform::Scale(1.0).apply(&mut x, shape, &mut rng);
        for (a, b) in orig.iter().zip(x.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn translate_moves_content() {
        let shape = ImageShape::new(1, 4, 4);
        let mut x = vec![0.0; 16];
        x[5] = 1.0; // (1,1)
        let mut rng = StdRng::seed_from_u64(0);
        Transform::Translate(1.0, 1.0).apply(&mut x, shape, &mut rng);
        assert!(
            (x[10] - 1.0).abs() < 1e-5,
            "pixel should move to (2,2): {x:?}"
        );
    }

    #[test]
    fn rotation_changes_image() {
        let shape = ImageShape::new(1, 8, 8);
        let orig = ramp(shape);
        let mut x = orig.clone();
        let mut rng = StdRng::seed_from_u64(0);
        Transform::Rotation(45.0).apply(&mut x, shape, &mut rng);
        assert!(vector::l2_dist(&orig, &x) > 0.05);
    }

    #[test]
    fn jitter_changes_stats() {
        let shape = ImageShape::new(1, 4, 4);
        let orig = ramp(shape);
        let mut x = orig.clone();
        let mut rng = StdRng::seed_from_u64(3);
        Transform::ColorJitter {
            brightness: 0.8,
            contrast: 0.5,
        }
        .apply(&mut x, shape, &mut rng);
        assert!(vector::l2_dist(&orig, &x) > 1e-3);
    }
}

//! Parametric image corruptions at five severities.
//!
//! Mirrors the construction of Tiny-ImageNet-C / CIFAR-10-C (Hendrycks &
//! Dietterich, 2019): fifteen corruption families grouped into noise, blur,
//! weather and digital categories, each applied at severity 1–5, plus `Rain`
//! which the paper's Figure 1 uses as a weather condition.

use rand::Rng;
use shiftex_tensor::rngx;

use crate::dataset::ImageShape;

/// Pixels [`add_noise`] draws per [`rngx::fill_normal`] call, into a stack
/// buffer.
const NOISE_BLOCK: usize = 64;

/// Corruption family. Severity is passed at application time (1–5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Corruption {
    /// Additive white Gaussian noise.
    GaussianNoise,
    /// Signal-dependent (Poisson-like) noise.
    ShotNoise,
    /// Salt-and-pepper impulses.
    ImpulseNoise,
    /// Box blur (defocus).
    DefocusBlur,
    /// Blur with local pixel shuffling (glass).
    GlassBlur,
    /// Horizontal streak blur (motion).
    MotionBlur,
    /// Centre-weighted multi-scale blur (zoom).
    ZoomBlur,
    /// Additive haze field plus contrast loss.
    Fog,
    /// Diagonal bright streak occlusions.
    Rain,
    /// Bright speckle occlusions.
    Snow,
    /// Low-frequency occlusion plus desaturation.
    Frost,
    /// Global brightness offset.
    Brightness,
    /// Contrast reduction towards the mean.
    Contrast,
    /// Smooth spatial displacement (elastic).
    ElasticTransform,
    /// Block down-sampling (pixelate).
    Pixelate,
    /// Block quantisation artefacts (JPEG-like).
    JpegCompression,
}

impl Corruption {
    /// All fifteen `-C` benchmark corruption families (excludes [`Corruption::Rain`],
    /// which is an extra weather condition used by the paper's Figure 1).
    pub fn all() -> [Corruption; 15] {
        use Corruption::*;
        [
            GaussianNoise,
            ShotNoise,
            ImpulseNoise,
            DefocusBlur,
            GlassBlur,
            MotionBlur,
            ZoomBlur,
            Fog,
            Snow,
            Frost,
            Brightness,
            Contrast,
            ElasticTransform,
            Pixelate,
            JpegCompression,
        ]
    }

    /// The weather conditions of the paper's Figure 1 (clear is "no corruption").
    pub fn weather() -> [Corruption; 4] {
        [
            Corruption::Fog,
            Corruption::Rain,
            Corruption::Snow,
            Corruption::Frost,
        ]
    }

    /// Corruption *groups* used by the Tiny-ImageNet-C protocol ("we group
    /// corruption types and randomly sample severity levels across windows").
    pub fn groups() -> [&'static [Corruption]; 4] {
        use Corruption::*;
        const NOISE: &[Corruption] = &[GaussianNoise, ShotNoise, ImpulseNoise];
        const BLUR: &[Corruption] = &[DefocusBlur, GlassBlur, MotionBlur, ZoomBlur];
        const WEATHER: &[Corruption] = &[Fog, Snow, Frost, Brightness];
        const DIGITAL: &[Corruption] = &[Contrast, ElasticTransform, Pixelate, JpegCompression];
        [NOISE, BLUR, WEATHER, DIGITAL]
    }

    /// Applies the corruption to one flattened `(c, h, w)` image in place.
    ///
    /// # Panics
    ///
    /// Panics if `severity` is outside `1..=5` or the buffer length does not
    /// match `shape.dim()`.
    pub fn apply(&self, x: &mut [f32], shape: ImageShape, severity: u8, rng: &mut impl Rng) {
        assert!(
            (1..=5).contains(&severity),
            "severity must be 1..=5, got {severity}"
        );
        assert_eq!(x.len(), shape.dim(), "buffer length mismatch");
        let s = severity as f32 / 5.0; // 0.2 .. 1.0
        match self {
            Corruption::GaussianNoise => add_noise(x, rng, |_| 0.8 * s),
            Corruption::ShotNoise => add_noise(x, rng, |v| 0.7 * s * (v.abs() + 0.1).sqrt()),
            Corruption::ImpulseNoise => {
                let p = 0.25 * s;
                for v in x.iter_mut() {
                    if rng.random_range(0.0..1.0) < p {
                        *v = if rng.random_range(0.0..1.0) < 0.5 {
                            2.5
                        } else {
                            -2.5
                        };
                    }
                }
            }
            Corruption::DefocusBlur => box_blur(x, shape, 1 + severity as usize / 2),
            Corruption::GlassBlur => {
                glass_shuffle(x, shape, severity as usize, rng);
                box_blur(x, shape, 1);
            }
            Corruption::MotionBlur => motion_blur(x, shape, 1 + severity as usize),
            Corruption::ZoomBlur => {
                // Blend increasingly blurred copies to mimic zoom streaking.
                let mut blurred = x.to_vec();
                box_blur(&mut blurred, shape, 1 + severity as usize);
                for (v, b) in x.iter_mut().zip(blurred.iter()) {
                    *v = (1.0 - 0.6 * s) * *v + 0.6 * s * b;
                }
            }
            Corruption::Fog => {
                // Haze blend that moves the distribution strongly while
                // keeping class structure recoverable (the blend scales signal
                // and noise equally): at severity 5 only 25 % of the raw
                // signal magnitude survives.
                let haze = smooth_noise(shape, rng);
                let t = 0.15 * severity as f32;
                for (i, v) in x.iter_mut().enumerate() {
                    *v = (1.0 - t) * *v + t * (1.4 + 0.4 * haze[i]);
                }
            }
            // Semi-transparent additive streaks: occlude without erasing.
            Corruption::Rain => streaks(x, shape, severity as usize + 1, 1.2, rng),
            Corruption::Snow => {
                // Additive speckle plus brightness lift and mild blur.
                let p = 0.12 * s;
                for v in x.iter_mut() {
                    if rng.random_range(0.0..1.0) < p {
                        *v += 1.8 + rng.random_range(0.0..0.5);
                    } else {
                        *v += 0.6 * s;
                    }
                }
                box_blur(x, shape, 1);
            }
            Corruption::Frost => {
                // Low-frequency icy occlusion + desaturation towards the
                // mean; keeps 30 % of the signal at severity 5.
                let occl = smooth_noise(shape, rng);
                let mean = shiftex_tensor::vector::mean(x);
                let t = 0.14 * severity as f32;
                for (i, v) in x.iter_mut().enumerate() {
                    let frosted = 0.6 * mean + 1.5 * occl[i].max(0.0) - 0.5;
                    *v = (1.0 - t) * *v + t * frosted;
                }
            }
            Corruption::Brightness => {
                for v in x.iter_mut() {
                    *v += 1.5 * s;
                }
            }
            Corruption::Contrast => {
                let mean = shiftex_tensor::vector::mean(x);
                let k = 1.0 - 0.8 * s;
                for v in x.iter_mut() {
                    *v = mean + k * (*v - mean);
                }
            }
            Corruption::ElasticTransform => elastic(x, shape, 1.0 + 2.0 * s, rng),
            Corruption::Pixelate => pixelate(x, shape, 1 + severity as usize),
            Corruption::JpegCompression => {
                // Coarse quantisation of pixel values in 2x2 blocks.
                pixelate(x, shape, 2);
                let q = 0.2 + 0.5 * s;
                for v in x.iter_mut() {
                    *v = (*v / q).round() * q;
                }
            }
        }
    }
}

impl std::fmt::Display for Corruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Corruption::GaussianNoise => "gaussian-noise",
            Corruption::ShotNoise => "shot-noise",
            Corruption::ImpulseNoise => "impulse-noise",
            Corruption::DefocusBlur => "defocus-blur",
            Corruption::GlassBlur => "glass-blur",
            Corruption::MotionBlur => "motion-blur",
            Corruption::ZoomBlur => "zoom-blur",
            Corruption::Fog => "fog",
            Corruption::Rain => "rain",
            Corruption::Snow => "snow",
            Corruption::Frost => "frost",
            Corruption::Brightness => "brightness",
            Corruption::Contrast => "contrast",
            Corruption::ElasticTransform => "elastic",
            Corruption::Pixelate => "pixelate",
            Corruption::JpegCompression => "jpeg",
        };
        f.write_str(s)
    }
}

/// Adds `0 + std(v)·z` to every pixel `v`, `z` a standard normal drawn in
/// blocks: bit for bit one `rngx::normal(rng, 0.0, std(v))` per pixel.
fn add_noise(x: &mut [f32], rng: &mut impl Rng, std: impl Fn(f32) -> f32) {
    let mut z = [0.0f32; NOISE_BLOCK];
    for chunk in x.chunks_mut(NOISE_BLOCK) {
        let z = &mut z[..chunk.len()];
        rngx::fill_normal(rng, 0.0, 1.0, z);
        for (v, &z) in chunk.iter_mut().zip(z.iter()) {
            *v += 0.0 + std(*v) * z;
        }
    }
}

/// Per-channel box blur with the given radius.
fn box_blur(x: &mut [f32], shape: ImageShape, radius: usize) {
    let (h, w) = (shape.h, shape.w);
    let mut out = vec![0.0f32; h * w];
    for c in 0..shape.c {
        let chan = &x[c * h * w..(c + 1) * h * w];
        for y in 0..h {
            for xx in 0..w {
                let mut acc = 0.0;
                let mut count = 0.0;
                for dy in -(radius as isize)..=(radius as isize) {
                    for dx in -(radius as isize)..=(radius as isize) {
                        let (ny, nx) = (y as isize + dy, xx as isize + dx);
                        if ny >= 0 && ny < h as isize && nx >= 0 && nx < w as isize {
                            acc += chan[ny as usize * w + nx as usize];
                            count += 1.0;
                        }
                    }
                }
                out[y * w + xx] = acc / count;
            }
        }
        x[c * h * w..(c + 1) * h * w].copy_from_slice(&out);
    }
}

/// Horizontal-only blur imitating motion streaks.
fn motion_blur(x: &mut [f32], shape: ImageShape, length: usize) {
    let (h, w) = (shape.h, shape.w);
    let mut out = vec![0.0f32; h * w];
    for c in 0..shape.c {
        let chan = &x[c * h * w..(c + 1) * h * w];
        for y in 0..h {
            for xx in 0..w {
                let mut acc = 0.0f32;
                let mut count = 0.0f32;
                for d in 0..length {
                    if xx + d < w {
                        acc += chan[y * w + xx + d];
                        count += 1.0;
                    }
                }
                out[y * w + xx] = acc / count.max(1.0);
            }
        }
        x[c * h * w..(c + 1) * h * w].copy_from_slice(&out);
    }
}

/// Swaps nearby pixels, as in glass blur.
fn glass_shuffle(x: &mut [f32], shape: ImageShape, reach: usize, rng: &mut impl Rng) {
    let (h, w) = (shape.h, shape.w);
    for c in 0..shape.c {
        let base = c * h * w;
        for y in 0..h {
            for xx in 0..w {
                let dy = rng.random_range(0..=reach.min(h - 1));
                let dx = rng.random_range(0..=reach.min(w - 1));
                let ny = (y + dy).min(h - 1);
                let nx = (xx + dx).min(w - 1);
                x.swap(base + y * w + xx, base + ny * w + nx);
            }
        }
    }
}

/// Adds bright diagonal streaks (rain); additive so the underlying signal
/// survives beneath the occlusion.
fn streaks(x: &mut [f32], shape: ImageShape, count: usize, intensity: f32, rng: &mut impl Rng) {
    let (h, w) = (shape.h, shape.w);
    for _ in 0..count {
        let mut y = 0usize;
        let mut xx = rng.random_range(0..w);
        while y < h {
            for c in 0..shape.c {
                x[c * h * w + y * w + xx] += intensity;
            }
            y += 1;
            xx = (xx + 1) % w;
        }
    }
}

/// Smooth low-frequency noise field in roughly `[-1, 1]`.
fn smooth_noise(shape: ImageShape, rng: &mut impl Rng) -> Vec<f32> {
    const COARSE: usize = 3;
    let grid: Vec<f32> = (0..COARSE * COARSE)
        .map(|_| rngx::normal(rng, 0.0, 0.6))
        .collect();
    // Bilinear taps along one axis: the two grid cells and the weight of
    // the second. The field is the same in every channel.
    let taps = |i: usize, n: usize| {
        let g = i as f32 / n.max(1) as f32 * (COARSE - 1) as f32;
        let i0 = g.floor() as usize;
        (i0, (i0 + 1).min(COARSE - 1), g - i0 as f32)
    };
    let cols: Vec<_> = (0..shape.w).map(|x| taps(x, shape.w)).collect();
    let mut plane = Vec::with_capacity(shape.h * shape.w);
    for y in 0..shape.h {
        let (y0, y1, fy) = taps(y, shape.h);
        for &(x0, x1, fx) in &cols {
            plane.push(
                grid[y0 * COARSE + x0] * (1.0 - fy) * (1.0 - fx)
                    + grid[y0 * COARSE + x1] * (1.0 - fy) * fx
                    + grid[y1 * COARSE + x0] * fy * (1.0 - fx)
                    + grid[y1 * COARSE + x1] * fy * fx,
            );
        }
    }
    plane.repeat(shape.c)
}

/// Smooth random displacement of pixels.
fn elastic(x: &mut [f32], shape: ImageShape, magnitude: f32, rng: &mut impl Rng) {
    let (h, w) = (shape.h, shape.w);
    let field = smooth_noise(shape, rng);
    let orig = x.to_vec();
    for c in 0..shape.c {
        let base = c * h * w;
        for y in 0..h {
            for xx in 0..w {
                let d = field[base + y * w + xx] * magnitude;
                let sy = ((y as f32 + d).round() as isize).clamp(0, h as isize - 1) as usize;
                let sx = ((xx as f32 - d).round() as isize).clamp(0, w as isize - 1) as usize;
                x[base + y * w + xx] = orig[base + sy * w + sx];
            }
        }
    }
}

/// Replaces each `block × block` tile with its mean.
fn pixelate(x: &mut [f32], shape: ImageShape, block: usize) {
    let (h, w) = (shape.h, shape.w);
    for c in 0..shape.c {
        let base = c * h * w;
        let mut y = 0;
        while y < h {
            let mut xx = 0;
            while xx < w {
                let mut acc = 0.0;
                let mut count = 0.0;
                for dy in 0..block.min(h - y) {
                    for dx in 0..block.min(w - xx) {
                        acc += x[base + (y + dy) * w + xx + dx];
                        count += 1.0;
                    }
                }
                let mean = acc / count;
                for dy in 0..block.min(h - y) {
                    for dx in 0..block.min(w - xx) {
                        x[base + (y + dy) * w + xx + dx] = mean;
                    }
                }
                xx += block;
            }
            y += block;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use shiftex_tensor::vector;

    fn image(shape: ImageShape, rng: &mut StdRng) -> Vec<f32> {
        (0..shape.dim())
            .map(|_| rngx::normal(rng, 0.0, 1.0))
            .collect()
    }

    #[test]
    fn every_corruption_changes_the_image() {
        let shape = ImageShape::new(1, 8, 8);
        for &c in Corruption::all().iter().chain([Corruption::Rain].iter()) {
            let mut rng = StdRng::seed_from_u64(11);
            let orig = image(shape, &mut rng);
            let mut x = orig.clone();
            c.apply(&mut x, shape, 3, &mut rng);
            let d = vector::l2_dist(&orig, &x);
            assert!(d > 1e-3, "{c} left the image unchanged");
            assert!(
                x.iter().all(|v| v.is_finite()),
                "{c} produced non-finite values"
            );
        }
    }

    #[test]
    fn severity_increases_distortion_for_noise() {
        let shape = ImageShape::new(1, 8, 8);
        let mut rng = StdRng::seed_from_u64(5);
        let orig = image(shape, &mut rng);
        let mut mild = orig.clone();
        Corruption::GaussianNoise.apply(&mut mild, shape, 1, &mut StdRng::seed_from_u64(1));
        let mut severe = orig.clone();
        Corruption::GaussianNoise.apply(&mut severe, shape, 5, &mut StdRng::seed_from_u64(1));
        assert!(vector::l2_dist(&orig, &severe) > vector::l2_dist(&orig, &mild));
    }

    #[test]
    fn contrast_moves_pixels_towards_mean() {
        let shape = ImageShape::new(1, 2, 2);
        let mut x = vec![-2.0, -1.0, 1.0, 2.0];
        let mut rng = StdRng::seed_from_u64(0);
        Corruption::Contrast.apply(&mut x, shape, 5, &mut rng);
        assert!(x.iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn brightness_shifts_mean_up() {
        let shape = ImageShape::new(1, 2, 2);
        let mut x = vec![0.0; 4];
        let mut rng = StdRng::seed_from_u64(0);
        Corruption::Brightness.apply(&mut x, shape, 3, &mut rng);
        assert!(vector::mean(&x) > 0.5);
    }

    #[test]
    fn groups_cover_all_corruptions() {
        let mut seen: Vec<Corruption> = Corruption::groups()
            .iter()
            .flat_map(|g| g.iter().copied())
            .collect();
        seen.sort_by_key(|c| format!("{c}"));
        seen.dedup();
        assert_eq!(seen.len(), 15, "groups should cover the 15 -C families");
    }

    #[test]
    #[should_panic(expected = "severity must be 1..=5")]
    fn rejects_bad_severity() {
        let shape = ImageShape::new(1, 2, 2);
        let mut x = vec![0.0; 4];
        let mut rng = StdRng::seed_from_u64(0);
        Corruption::Fog.apply(&mut x, shape, 0, &mut rng);
    }
}

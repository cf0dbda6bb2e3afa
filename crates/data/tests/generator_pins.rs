//! Bit pins of every synthetic data stream.
//!
//! Each entry fingerprints, with FNV-1a, the `to_bits` of every generated
//! feature, every label and the RNG's next `u64` afterwards, on a 3×8×8 and
//! a 1×8×8 generator. A change to the samplers that should move no number
//! (batching the normal draws, reordering loops) passes this table
//! untouched, natively and under `-C target-cpu=x86-64`.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use shiftex_data::{Corruption, ImageShape, PrototypeGenerator, Regime, Transform};
use shiftex_tensor::{rngx, Matrix};

/// `(case, fingerprint)`; a corruption's entry covers severities 1, 3 and 5.
const PINS: &[(&str, u64)] = &[
    ("clear", 0x4f66691cd097a821),
    ("gaussian-noise", 0x6a1cf60946f754d6),
    ("shot-noise", 0x955b0be822c54aff),
    ("impulse-noise", 0x31e05bd74b4c4471),
    ("defocus-blur", 0x6d65a1e9cf7a5f0c),
    ("glass-blur", 0xa43cf8bdd8e63f42),
    ("motion-blur", 0xec6e03ed828bc470),
    ("zoom-blur", 0x4aa768d4ac1738de),
    ("fog", 0x51b2a0d6dcb3f0b0),
    ("snow", 0x78893cfbb6fdd10a),
    ("frost", 0x53bfeaf7cb8fa512),
    ("brightness", 0x876a20582a77c624),
    ("contrast", 0x7d3002a6b7e11464),
    ("elastic", 0x4cdbac2cb7df4c17),
    ("pixelate", 0x07245c4417c1b404),
    ("jpeg", 0x4cf7e6f696677b3c),
    ("rain", 0xd08c580371003735),
    ("rotate(15°)", 0xdf566f2c2bc73871),
    ("scale(1.2)", 0xe06926b1f4d47697),
    ("translate(1,-1.5)", 0x06083c5ef2844167),
    ("jitter(b=0.3,c=0.2)", 0x7016c8ec507d0b76),
    ("hflip", 0x9ba366acbae1d7e1),
    ("brightness(0.5)", 0xcff6ae029c176198),
    ("randn", 0x5a2634e75e89ea5e),
    ("normal", 0xf69eaa8f69c13029),
];

/// FNV-1a over a byte stream.
fn fnv1a(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(h, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `values`' bits and the RNG's next word into `h`.
fn fold(h: u64, values: &[f32], labels: &[usize], rng: &mut StdRng) -> u64 {
    let h = fnv1a(h, values.iter().flat_map(|v| v.to_bits().to_le_bytes()));
    let h = fnv1a(h, labels.iter().flat_map(|&l| (l as u64).to_le_bytes()));
    fnv1a(h, rng.next_u64().to_le_bytes())
}

/// Fingerprint of `generate_with_regime` under each regime, on both shapes.
fn regimes_fingerprint(regimes: &[Regime]) -> u64 {
    let mut h = FNV_OFFSET;
    for shape in [ImageShape::new(3, 8, 8), ImageShape::new(1, 8, 8)] {
        for (i, regime) in regimes.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(1_000 + i as u64);
            let gen = PrototypeGenerator::new(shape, 10, &mut rng);
            let ds = gen.generate_with_regime(24, regime, &mut rng);
            h = fold(h, ds.features().as_slice(), ds.labels(), &mut rng);
        }
    }
    h
}

fn actual() -> Vec<(String, u64)> {
    let mut out = vec![("clear".to_string(), regimes_fingerprint(&[Regime::clear()]))];
    for c in Corruption::all().into_iter().chain([Corruption::Rain]) {
        let regimes: Vec<Regime> = [1, 3, 5]
            .into_iter()
            .map(|s| Regime::corrupted(c, s))
            .collect();
        out.push((c.to_string(), regimes_fingerprint(&regimes)));
    }
    for t in [
        Transform::Rotation(15.0),
        Transform::Scale(1.2),
        Transform::Translate(1.0, -1.5),
        Transform::ColorJitter {
            brightness: 0.3,
            contrast: 0.2,
        },
        Transform::FlipHorizontal,
        Transform::Brightness(0.5),
    ] {
        let regime = Regime::transformed(vec![t]);
        out.push((t.to_string(), regimes_fingerprint(&[regime])));
    }
    let mut rng = StdRng::seed_from_u64(77);
    let m = Matrix::randn(13, 37, 0.5, 2.0, &mut rng);
    out.push((
        "randn".to_string(),
        fold(FNV_OFFSET, m.as_slice(), &[], &mut rng),
    ));
    let mut rng = StdRng::seed_from_u64(78);
    let draws: Vec<f32> = (0..1_000)
        .map(|_| rngx::normal(&mut rng, -1.0, 0.75))
        .collect();
    out.push((
        "normal".to_string(),
        fold(FNV_OFFSET, &draws, &[], &mut rng),
    ));
    out
}

#[test]
fn generator_streams_are_bit_pinned() {
    let actual = actual();
    let expected: Vec<(String, u64)> = PINS.iter().map(|&(l, h)| (l.to_string(), h)).collect();
    if actual != expected {
        let table: String = actual
            .iter()
            .map(|(l, h)| format!("    ({l:?}, {h:#018x}),\n"))
            .collect();
        panic!("generator streams moved; the streams now read:\n{table}");
    }
}

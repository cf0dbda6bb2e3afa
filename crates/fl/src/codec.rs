//! Pluggable wire codecs for model updates and global broadcasts.
//!
//! ShiftEx's per-expert training multiplies the communication bill: every
//! live expert's cohort ships a full model per round. This module makes the
//! wire format a first-class, swappable layer so that bill can be paid in
//! compressed bytes — and so the [`CommLedger`](crate::CommLedger) meters
//! **actual encoded bytes** instead of a nominal `4 × params` guess.
//!
//! Three [`CodecKind`]s plus a delta stage cover the standard levers:
//!
//! * [`CodecKind::Dense`] — compact binary framing of raw `f32`
//!   little-endian words (replaces the seed's JSON wire format; lossless).
//! * [`CodecKind::Quant8`] — affine 8-bit quantisation with a per-block
//!   `(zero_point, scale)` pair (block = 256 by default): ~3.9× smaller than
//!   dense, error bounded by `scale / 2` per coordinate.
//! * [`CodecKind::TopK`] — magnitude sparsification: only the
//!   `⌈density · n⌉` largest-magnitude coordinates ship, as `(index, value)`
//!   pairs. Unselected coordinates decode to zero, so top-k is only
//!   meaningful on *residuals* — compose it with the delta stage.
//! * [`CodecSpec::delta`] — encodes the residual against a reference vector
//!   (the last broadcast global, which both endpoints hold) with any kind.
//!   Dense deltas are lossless up to `f32` rounding of the residual
//!   (`(p − r) + r` is not bit-exact, so delta variants always pay the
//!   real roundtrip); quantised deltas are *more* accurate than quantised
//!   absolutes (residual ranges are narrower); top-k deltas are the
//!   classic sparsified-update scheme.
//!
//! [`CodecSpec`] is the serialisable, `Copy` configuration that selects and
//! parameterises a codec; a round runs under the one in its
//! [`RoundCtx`](crate::RoundCtx). Encoded sizes are **value-independent** —
//! [`CodecSpec::update_len`] / [`CodecSpec::broadcast_len`] compute the
//! exact wire size from the parameter count alone, which is what lets the
//! scenario engine meter aborted and late uploads without re-encoding.
//!
//! # Wire format
//!
//! All integers are little-endian. Every frame starts with a 6-byte header:
//!
//! ```text
//! [kind: u8][flags: u8 (bit 0 = delta)][n_params: u32]
//! ```
//!
//! Update frames (party → aggregator) follow with 16 bytes of metadata —
//! `[party: u64][num_samples: u32][train_loss: f32]` — then the payload;
//! broadcast frames (aggregator → party) go straight to the payload.
//! Payloads:
//!
//! ```text
//! dense :  n × f32
//! quant8:  [block: u32] then per block: [zero_point: f32][scale: f32][codes: u8 × len]
//! topk  :  [k: u32] then k × ([index: u32][value: f32])
//! ```

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::party::PartyId;
use crate::update::ModelUpdate;

// ---------------------------------------------------------------------------
// Errors.

/// Why a wire payload failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the declared content did.
    Truncated,
    /// Unknown codec tag byte.
    BadTag(u8),
    /// A sparse index pointed outside the parameter vector.
    BadIndex {
        /// The offending index.
        index: usize,
        /// Parameter-vector length.
        n: usize,
    },
    /// A declared length was internally inconsistent.
    BadLength {
        /// What the header promised.
        expected: usize,
        /// What the payload held.
        got: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CodecError::Truncated => write!(f, "payload truncated"),
            CodecError::BadTag(t) => write!(f, "unknown codec tag {t:#x}"),
            CodecError::BadIndex { index, n } => {
                write!(f, "sparse index {index} out of range for {n} params")
            }
            CodecError::BadLength { expected, got } => {
                write!(f, "length mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------------
// Little-endian cursor helpers.

/// Bounds-checked little-endian cursor over a wire payload. Every read
/// returns [`CodecError::Truncated`] when the input ends first.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(len).ok_or(CodecError::Truncated)?;
        if end > self.bytes.len() {
            return Err(CodecError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f32(&mut self) -> Result<f32, CodecError> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// [`CodecError::BadLength`] unless the payload was fully consumed.
    fn done(&self) -> Result<(), CodecError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(CodecError::BadLength {
                expected: self.pos,
                got: self.bytes.len(),
            })
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

// ---------------------------------------------------------------------------
// The three payload codecs: stateless value-to-bytes functions. Framing
// (headers, update metadata) and the delta stage live in `CodecSpec`.

fn encode_dense(values: &[f32], out: &mut Vec<u8>) {
    out.reserve(4 * values.len());
    for &v in values {
        put_f32(out, v);
    }
}

fn decode_dense(reader: &mut Reader<'_>, n: usize) -> Result<Vec<f32>, CodecError> {
    (0..n).map(|_| reader.f32()).collect()
}

/// Each block of up to `block` coordinates maps to `u8` codes via
/// `code = round((x − zero_point) / scale)` with `zero_point = min(block)`
/// and `scale = (max − min) / 255`.
fn encode_quant8(values: &[f32], block: usize, out: &mut Vec<u8>) {
    let block = block.max(1);
    put_u32(out, block as u32);
    for chunk in values.chunks(block) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &x in chunk {
            lo = lo.min(x);
            hi = hi.max(x);
        }
        let scale = if hi > lo { (hi - lo) / 255.0 } else { 0.0 };
        put_f32(out, lo);
        put_f32(out, scale);
        for &x in chunk {
            let code = if scale > 0.0 {
                ((x - lo) / scale).round().clamp(0.0, 255.0) as u8
            } else {
                0
            };
            out.push(code);
        }
    }
}

/// Decodes `zero_point + code · scale` per coordinate; the block size is
/// read from the payload.
fn decode_quant8(reader: &mut Reader<'_>, n: usize) -> Result<Vec<f32>, CodecError> {
    let block = reader.u32()? as usize;
    if block == 0 {
        return Err(CodecError::BadLength {
            expected: 1,
            got: 0,
        });
    }
    let mut values = Vec::with_capacity(n);
    let mut remaining = n;
    while remaining > 0 {
        let len = remaining.min(block);
        let zero_point = reader.f32()?;
        let scale = reader.f32()?;
        for &code in reader.take(len)? {
            values.push(zero_point + f32::from(code) * scale);
        }
        remaining -= len;
    }
    Ok(values)
}

/// Number of coordinates top-k keeps from an `n`-parameter vector.
fn topk_kept(density: f32, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let d = density.clamp(0.0, 1.0);
    ((d * n as f32).ceil() as usize).clamp(1, n)
}

fn encode_topk(values: &[f32], density: f32, out: &mut Vec<u8>) {
    let k = topk_kept(density, values.len());
    // Deterministic selection: magnitude descending, index ascending on
    // ties, via an O(n) partition; then sort the survivors by index for
    // a canonical wire order. Magnitudes are non-negative, so their IEEE
    // bit patterns order them totally (NaN sorts above infinity and is
    // kept first — finite inputs are the caller's contract).
    let mut order: Vec<u32> = (0..values.len() as u32).collect();
    let rank = |i: u32| (std::cmp::Reverse(values[i as usize].abs().to_bits()), i);
    if k < order.len() && k > 0 {
        order.select_nth_unstable_by_key(k - 1, |&i| rank(i));
        order.truncate(k);
    }
    order.sort_unstable();
    put_u32(out, k as u32);
    for i in order {
        put_u32(out, i);
        put_f32(out, values[i as usize]);
    }
}

/// Selected coordinates decode exactly; everything else decodes to zero.
fn decode_topk(reader: &mut Reader<'_>, n: usize) -> Result<Vec<f32>, CodecError> {
    let k = reader.u32()? as usize;
    if k > n {
        return Err(CodecError::BadLength {
            expected: n,
            got: k,
        });
    }
    let mut values = vec![0.0f32; n];
    for _ in 0..k {
        let index = reader.u32()? as usize;
        let value = reader.f32()?;
        *values
            .get_mut(index)
            .ok_or(CodecError::BadIndex { index, n })? = value;
    }
    Ok(values)
}

// ---------------------------------------------------------------------------
// CodecSpec: serialisable configuration + framing.

/// Which base codec transforms parameter values into payload bytes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CodecKind {
    /// Lossless binary framing: `n` little-endian `f32` words.
    Dense,
    /// Affine 8-bit quantisation with a per-block `(zero_point, scale)`
    /// pair; the per-coordinate error is bounded by `scale / 2`. Payload:
    /// `1 + 8/block ≈ 1.03` bytes per parameter.
    Quant8 {
        /// Coordinates per quantisation block.
        block: usize,
    },
    /// Magnitude sparsification: only the `⌈density · n⌉` largest-magnitude
    /// coordinates ship, as sorted `(index, value)` pairs. Selected
    /// coordinates are preserved **exactly**; everything else decodes to
    /// zero, so ship *residuals* ([`CodecSpec::with_delta`]).
    TopK {
        /// Kept fraction in `(0, 1]`.
        density: f32,
    },
}

impl CodecKind {
    /// Exact payload size for `n` values. Sizes are value-independent by
    /// design, so the ledger can meter traffic (including aborted uploads)
    /// without re-encoding payloads.
    fn payload_len(self, n: usize) -> usize {
        match self {
            CodecKind::Dense => 4 * n,
            CodecKind::Quant8 { block } => 4 + n.div_ceil(block.max(1)) * 8 + n,
            CodecKind::TopK { density } => 4 + 8 * topk_kept(density, n),
        }
    }

    /// Appends the encoded payload for `values` to `out`.
    fn encode_payload(self, values: &[f32], out: &mut Vec<u8>) {
        match self {
            CodecKind::Dense => encode_dense(values, out),
            CodecKind::Quant8 { block } => encode_quant8(values, block, out),
            CodecKind::TopK { density } => encode_topk(values, density, out),
        }
    }

    /// Decodes a payload of `n` values. Block size and kept count are read
    /// from the payload, so the variant's own parameters are not consulted.
    fn decode_payload(self, reader: &mut Reader<'_>, n: usize) -> Result<Vec<f32>, CodecError> {
        match self {
            CodecKind::Dense => decode_dense(reader, n),
            CodecKind::Quant8 { .. } => decode_quant8(reader, n),
            CodecKind::TopK { .. } => decode_topk(reader, n),
        }
    }
}

/// Wire-format configuration: a base codec plus an optional delta stage.
///
/// `Copy` and serialisable so it can ride inside run options and scenario
/// reports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CodecSpec {
    /// Base payload codec.
    pub kind: CodecKind,
    /// Encode residuals against the last broadcast global.
    pub delta: bool,
    /// Party-side error feedback: coordinates a lossy upload drops are
    /// accumulated locally and added to the next round's upload before
    /// encoding (EF-SGD style). Changes nothing on the wire — frame sizes
    /// and the decode path are identical — but requires per-party state, so
    /// it only takes effect on paths that hold accumulators (the
    /// [`ScenarioEngine`](crate::ScenarioEngine) upload path). Only lossy
    /// kinds benefit; it matters most for [`CodecKind::TopK`] at low density.
    pub error_feedback: bool,
}

/// Frame header: `[kind: u8][flags: u8][n_params: u32]`.
const HEADER_LEN: usize = 6;
/// Update metadata after the header: `[party: u64][samples: u32][loss: f32]`.
const UPDATE_META_LEN: usize = 16;

const TAG_DENSE: u8 = 1;
const TAG_QUANT8: u8 = 2;
const TAG_TOPK: u8 = 3;
const FLAG_DELTA: u8 = 1;

impl Default for CodecSpec {
    fn default() -> Self {
        Self::dense()
    }
}

impl fmt::Display for CodecSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.error_feedback {
            write!(f, "ef+")?;
        }
        if self.delta {
            write!(f, "delta+")?;
        }
        match self.kind {
            CodecKind::Dense => write!(f, "dense"),
            CodecKind::Quant8 { block } => write!(f, "quant8(block={block})"),
            CodecKind::TopK { density } => write!(f, "topk(density={density})"),
        }
    }
}

impl CodecSpec {
    /// Lossless dense `f32` framing (the default).
    pub const fn dense() -> Self {
        Self {
            kind: CodecKind::Dense,
            delta: false,
            error_feedback: false,
        }
    }

    /// Per-block affine int8 quantisation.
    ///
    /// # Panics
    ///
    /// Panics when `block` is zero.
    pub fn quant8(block: usize) -> Self {
        assert!(block >= 1, "quant8 block must be >= 1");
        Self {
            kind: CodecKind::Quant8 { block },
            delta: false,
            error_feedback: false,
        }
    }

    /// Top-k magnitude sparsification keeping `density` of the coordinates.
    ///
    /// # Panics
    ///
    /// Panics when `density` is outside `(0, 1]`.
    pub fn topk(density: f32) -> Self {
        assert!(
            density > 0.0 && density <= 1.0,
            "topk density must be in (0, 1]"
        );
        Self {
            kind: CodecKind::TopK { density },
            delta: false,
            error_feedback: false,
        }
    }

    /// Adds the delta (residual-vs-last-broadcast) stage.
    pub fn with_delta(mut self) -> Self {
        self.delta = true;
        self
    }

    /// Adds party-side error feedback (residual accumulation) to a lossy
    /// upload codec. See [`CodecSpec::error_feedback`].
    pub fn with_error_feedback(mut self) -> Self {
        self.error_feedback = true;
        self
    }

    /// Parses a CLI codec name. `block` / `density` parameterise the
    /// quantised and sparse kinds. Recognised names: `dense`, `quant8`,
    /// `delta` (dense residuals), `delta-quant8`, `topk` / `delta-topk`
    /// (both residual-coded: top-k of absolute parameters would zero every
    /// unselected weight, so the raw variant is not offered), and
    /// `ef-topk` / `ef-delta-topk` (residual-coded with party-side error
    /// feedback).
    pub fn parse(name: &str, block: usize, density: f32) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "dense" => Some(Self::dense()),
            "quant8" => Some(Self::quant8(block)),
            "delta" => Some(Self::dense().with_delta()),
            "delta-quant8" => Some(Self::quant8(block).with_delta()),
            "topk" | "delta-topk" => Some(Self::topk(density).with_delta()),
            "ef-topk" | "ef-delta-topk" => {
                Some(Self::topk(density).with_delta().with_error_feedback())
            }
            _ => None,
        }
    }

    /// `true` when encode → decode reproduces every input bit-for-bit.
    ///
    /// Only plain dense qualifies: delta coding computes `(p − r) + r` in
    /// `f32`, which is *not* bit-exact when `p` and `r` differ widely in
    /// magnitude, so delta variants always pay the real wire roundtrip.
    /// Lossless codecs skip that in-memory roundtrip on the hot path;
    /// metering still uses the exact encoded sizes.
    pub fn is_lossless(&self) -> bool {
        matches!(self.kind, CodecKind::Dense) && !self.delta
    }

    /// Exact size of an update frame (header + metadata + payload) carrying
    /// `n` parameters.
    pub fn update_len(&self, n: usize) -> usize {
        HEADER_LEN + UPDATE_META_LEN + self.payload_len(n)
    }

    /// Exact size of a broadcast frame (header + payload) carrying `n`
    /// parameters.
    pub fn broadcast_len(&self, n: usize) -> usize {
        HEADER_LEN + self.payload_len(n)
    }

    /// Upload compression ratio versus [`CodecSpec::dense`] at `n`
    /// parameters (value-independent, like every encoded size).
    pub fn compression_ratio(&self, n: usize) -> f64 {
        CodecSpec::dense().update_len(n) as f64 / self.update_len(n) as f64
    }

    /// The spec actually used for a downlink broadcast.
    ///
    /// Sparsified downlinks only make sense as residuals against state the
    /// party already holds: top-k of the absolute globals would zero most
    /// of the model. With no delta stage or no stored reference the
    /// broadcast therefore falls back to a dense full-state frame — and is
    /// metered at that honest size. Dense and quantised kinds broadcast
    /// as themselves (quantisation works on absolutes).
    pub fn broadcast_spec(&self, has_reference: bool) -> CodecSpec {
        match self.kind {
            CodecKind::TopK { .. } if !(self.delta && has_reference) => CodecSpec::dense(),
            _ => *self,
        }
    }

    /// The spec used for a **first-contact** downlink: a party that has
    /// never received a broadcast on this stream holds no delta reference,
    /// so delta stages are undecodable for it and sparse frames would zero
    /// most of the model. First contact therefore ships a self-contained
    /// full-state frame: the base codec without the delta stage, with
    /// sparse kinds falling back to dense. The
    /// [`ScenarioEngine`](crate::ScenarioEngine) meters these frames on the
    /// distinct `first_contact_*` ledger counters so comm tables do not
    /// silently undercount joins.
    pub fn first_contact_spec(&self) -> CodecSpec {
        let kind = match self.kind {
            CodecKind::TopK { .. } => CodecKind::Dense,
            other => other,
        };
        CodecSpec {
            kind,
            delta: false,
            error_feedback: false,
        }
    }

    /// Exact payload size for `n` parameters.
    pub fn payload_len(&self, n: usize) -> usize {
        self.kind.payload_len(n)
    }

    fn tag(&self) -> u8 {
        match self.kind {
            CodecKind::Dense => TAG_DENSE,
            CodecKind::Quant8 { .. } => TAG_QUANT8,
            CodecKind::TopK { .. } => TAG_TOPK,
        }
    }

    fn write_header(&self, n: usize, out: &mut Vec<u8>) {
        out.push(self.tag());
        out.push(if self.delta { FLAG_DELTA } else { 0 });
        put_u32(out, n as u32);
    }

    /// The delta stage subtracts the reference (the last broadcast global,
    /// which both endpoints hold) before encoding; missing coordinates (an
    /// empty or shorter reference) count as zero, so delta against nothing
    /// degenerates to the base codec.
    fn encode_payload(&self, params: &[f32], reference: &[f32], out: &mut Vec<u8>) {
        if self.delta {
            let residual: Vec<f32> = params
                .iter()
                .enumerate()
                .map(|(i, &p)| p - reference.get(i).copied().unwrap_or(0.0))
                .collect();
            self.kind.encode_payload(&residual, out);
        } else {
            self.kind.encode_payload(params, out);
        }
    }

    /// Decodes the payload and, under the delta stage, re-adds the reference.
    fn decode_payload(
        &self,
        reader: &mut Reader<'_>,
        n: usize,
        reference: &[f32],
    ) -> Result<Vec<f32>, CodecError> {
        let mut params = self.kind.decode_payload(reader, n)?;
        if self.delta {
            for (i, p) in params.iter_mut().enumerate() {
                *p += reference.get(i).copied().unwrap_or(0.0);
            }
        }
        Ok(params)
    }

    /// Reads a header, returning the spec it declares and the parameter
    /// count. `Quant8` block and `TopK` density live in the payload (and in
    /// the explicit `k`), so the returned spec is sufficient to decode.
    fn read_header(reader: &mut Reader<'_>) -> Result<(CodecSpec, usize), CodecError> {
        let tag = reader.u8()?;
        let flags = reader.u8()?;
        let n = reader.u32()? as usize;
        let kind = match tag {
            TAG_DENSE => CodecKind::Dense,
            // Block size is re-read from the payload; density is implied by
            // the explicit element count. Placeholder parameters are fine.
            TAG_QUANT8 => CodecKind::Quant8 { block: 256 },
            TAG_TOPK => CodecKind::TopK { density: 1.0 },
            other => return Err(CodecError::BadTag(other)),
        };
        Ok((
            CodecSpec {
                kind,
                delta: flags & FLAG_DELTA != 0,
                // Error feedback is party-side state, invisible on the wire.
                error_feedback: false,
            },
            n,
        ))
    }

    /// Encodes a global-model broadcast against `reference` (the previous
    /// broadcast; empty = zeros, degenerating delta to its base codec).
    pub fn encode_global(&self, params: &[f32], reference: &[f32]) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.broadcast_len(params.len()));
        self.write_header(params.len(), &mut out);
        self.encode_payload(params, reference, &mut out);
        debug_assert_eq!(out.len(), self.broadcast_len(params.len()));
        out
    }

    /// Decodes a broadcast frame (self-describing header).
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the frame is truncated, carries an
    /// unknown tag, or holds inconsistent lengths.
    pub fn decode_global(bytes: &[u8], reference: &[f32]) -> Result<Vec<f32>, CodecError> {
        let mut reader = Reader::new(bytes);
        let (spec, n) = Self::read_header(&mut reader)?;
        let params = spec.decode_payload(&mut reader, n, reference)?;
        reader.done()?;
        Ok(params)
    }

    /// Encodes a full update frame. Exposed through
    /// [`ModelUpdate::encode`](crate::ModelUpdate::encode).
    pub(crate) fn encode_update(&self, update: &ModelUpdate, reference: &[f32]) -> Vec<u8> {
        let n = update.params.len();
        let mut out = Vec::with_capacity(self.update_len(n));
        self.write_header(n, &mut out);
        out.extend_from_slice(&(update.party.0 as u64).to_le_bytes());
        put_u32(&mut out, update.num_samples as u32);
        put_f32(&mut out, update.train_loss);
        self.encode_payload(&update.params, reference, &mut out);
        debug_assert_eq!(out.len(), self.update_len(n));
        out
    }

    /// Decodes a full update frame (self-describing header).
    pub(crate) fn decode_update(
        bytes: &[u8],
        reference: &[f32],
    ) -> Result<ModelUpdate, CodecError> {
        let mut reader = Reader::new(bytes);
        let (spec, n) = Self::read_header(&mut reader)?;
        let party = PartyId(reader.u64()? as usize);
        let num_samples = reader.u32()? as usize;
        let train_loss = reader.f32()?;
        let params = spec.decode_payload(&mut reader, n, reference)?;
        reader.done()?;
        Ok(ModelUpdate {
            party,
            params,
            num_samples,
            train_loss,
        })
    }

    /// Sends `params` across the wire and back: encode against `reference`,
    /// decode the payload the receiver would see. Lossless codecs return the
    /// input unchanged without paying the roundtrip.
    pub fn transport(&self, params: Vec<f32>, reference: &[f32]) -> Vec<f32> {
        if self.is_lossless() {
            return params;
        }
        let wire = self.encode_global(&params, reference);
        // lint:allow(panic): decoding a frame this codec just encoded cannot fail
        Self::decode_global(&wire, reference).expect("self-encoded payload decodes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(spec: &CodecSpec, params: &[f32], reference: &[f32]) -> Vec<f32> {
        let wire = spec.encode_global(params, reference);
        assert_eq!(
            wire.len(),
            spec.broadcast_len(params.len()),
            "{spec}: encoded_len must be exact"
        );
        CodecSpec::decode_global(&wire, reference).expect("roundtrip decodes")
    }

    #[test]
    fn dense_roundtrip_is_bit_exact() {
        let params = vec![1.0, -2.5, 0.0, f32::MIN_POSITIVE, 3.4e38, -1.0e-20];
        assert_eq!(roundtrip(&CodecSpec::dense(), &params, &[]), params);
    }

    #[test]
    fn empty_vectors_roundtrip_under_every_codec() {
        for spec in [
            CodecSpec::dense(),
            CodecSpec::quant8(256),
            CodecSpec::topk(0.1),
            CodecSpec::dense().with_delta(),
            CodecSpec::quant8(4).with_delta(),
            CodecSpec::topk(0.5).with_delta(),
        ] {
            assert_eq!(roundtrip(&spec, &[], &[]), Vec::<f32>::new(), "{spec}");
        }
    }

    #[test]
    fn quant8_error_is_bounded_by_half_scale_per_block() {
        let params: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.37).sin() * 10.0).collect();
        let spec = CodecSpec::quant8(256);
        let decoded = roundtrip(&spec, &params, &[]);
        for chunk in params.chunks(256).zip(decoded.chunks(256)) {
            let (orig, dec) = chunk;
            let lo = orig.iter().copied().fold(f32::INFINITY, f32::min);
            let hi = orig.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let scale = (hi - lo) / 255.0;
            for (&a, &b) in orig.iter().zip(dec.iter()) {
                assert!(
                    (a - b).abs() <= scale * 0.5 + 1e-5,
                    "quant error {} exceeds half-scale {}",
                    (a - b).abs(),
                    scale * 0.5
                );
            }
        }
    }

    #[test]
    fn quant8_constant_block_is_exact() {
        let params = vec![4.25f32; 300];
        assert_eq!(roundtrip(&CodecSpec::quant8(256), &params, &[]), params);
    }

    #[test]
    fn topk_keeps_largest_magnitudes_exactly_and_zeroes_the_rest() {
        let params = vec![0.1, -9.0, 0.2, 7.0, -0.3, 0.0, 8.0, -0.4];
        let spec = CodecSpec {
            kind: CodecKind::TopK { density: 0.375 },
            delta: false,
            error_feedback: false,
        };
        let decoded = roundtrip(&spec, &params, &[]);
        assert_eq!(decoded, vec![0.0, -9.0, 0.0, 7.0, 0.0, 0.0, 8.0, 0.0]);
    }

    #[test]
    fn topk_tie_break_is_deterministic_by_index() {
        let params = vec![1.0, -1.0, 1.0, 1.0];
        let spec = CodecSpec {
            kind: CodecKind::TopK { density: 0.5 },
            delta: false,
            error_feedback: false,
        };
        let decoded = roundtrip(&spec, &params, &[]);
        assert_eq!(
            decoded,
            vec![1.0, -1.0, 0.0, 0.0],
            "lowest indices win ties"
        );
    }

    #[test]
    fn delta_dense_roundtrips_exactly_on_representable_residuals() {
        let params = vec![1.5, -0.25, 3.0];
        let reference = vec![1.0, 1.0, 1.0];
        let spec = CodecSpec::dense().with_delta();
        assert_eq!(roundtrip(&spec, &params, &reference), params);
    }

    #[test]
    fn delta_dense_is_not_bit_lossless_and_says_so() {
        // (p − r) + r rounds when magnitudes differ widely — which is why
        // is_lossless() must not let delta variants skip the roundtrip.
        assert!(CodecSpec::dense().is_lossless());
        assert!(!CodecSpec::dense().with_delta().is_lossless());
        let spec = CodecSpec::dense().with_delta();
        let decoded = roundtrip(&spec, &[1e-8], &[1.0]);
        assert_eq!(decoded, vec![0.0], "tiny p against large r rounds away");
    }

    #[test]
    fn delta_topk_recovers_reference_plus_largest_residuals() {
        let reference = vec![10.0, 20.0, 30.0, 40.0];
        let params = vec![10.1, 25.0, 30.0, 40.2]; // residuals 0.1, 5.0, 0.0, 0.2
        let spec = CodecSpec::topk(0.25).with_delta();
        let decoded = roundtrip(&spec, &params, &reference);
        assert_eq!(decoded, vec![10.0, 25.0, 30.0, 40.0]);
    }

    #[test]
    fn short_or_empty_reference_counts_as_zeros() {
        let params = vec![1.0, 2.0, 3.0];
        let spec = CodecSpec::dense().with_delta();
        assert_eq!(roundtrip(&spec, &params, &[]), params);
        assert_eq!(roundtrip(&spec, &params, &[0.5]), params);
    }

    #[test]
    fn decode_rejects_garbage_and_truncation() {
        assert_eq!(
            CodecSpec::decode_global(&[], &[]),
            Err(CodecError::Truncated)
        );
        assert_eq!(
            CodecSpec::decode_global(&[9, 0, 1, 0, 0, 0], &[]),
            Err(CodecError::BadTag(9))
        );
        let mut wire = CodecSpec::dense().encode_global(&[1.0, 2.0], &[]);
        wire.truncate(wire.len() - 1);
        assert_eq!(
            CodecSpec::decode_global(&wire, &[]),
            Err(CodecError::Truncated)
        );
        let mut wire = CodecSpec::dense().encode_global(&[1.0], &[]);
        wire.push(0);
        assert_eq!(
            CodecSpec::decode_global(&wire, &[]),
            Err(CodecError::BadLength {
                expected: 10,
                got: 11
            })
        );
        // A zero quantisation block can never be encoded.
        let mut wire = CodecSpec::quant8(4).encode_global(&[1.0, 2.0], &[]);
        wire[6] = 0;
        assert_eq!(
            CodecSpec::decode_global(&wire, &[]),
            Err(CodecError::BadLength {
                expected: 1,
                got: 0
            })
        );
    }

    #[test]
    fn every_strict_prefix_is_truncated_and_every_suffix_is_bad_length() {
        let params = lcg_values(70, 5, 1.0);
        let update = ModelUpdate {
            party: PartyId(9),
            params: params.clone(),
            num_samples: 3,
            train_loss: 1.5,
        };
        for (label, _, _) in WIRE_TABLE {
            let spec = wire_spec(label);
            let global = spec.encode_global(&params, &[]);
            for cut in 0..global.len() {
                assert_eq!(
                    CodecSpec::decode_global(&global[..cut], &[]),
                    Err(CodecError::Truncated),
                    "{label}: broadcast cut at {cut}"
                );
            }
            let frame = update.encode(&spec, &[]);
            for cut in 0..frame.len() {
                assert_eq!(
                    ModelUpdate::decode(&frame[..cut], &[]),
                    Err(CodecError::Truncated),
                    "{label}: update cut at {cut}"
                );
            }
            let long = [frame.as_slice(), &[0]].concat();
            assert_eq!(
                ModelUpdate::decode(&long, &[]),
                Err(CodecError::BadLength {
                    expected: frame.len(),
                    got: frame.len() + 1
                }),
                "{label}"
            );
        }
    }

    #[test]
    fn topk_decode_rejects_out_of_range_indices() {
        let spec = CodecSpec::topk(1.0);
        let mut wire = spec.encode_global(&[1.0, 2.0], &[]);
        // Corrupt the first index (header 6 bytes + k 4 bytes).
        wire[10] = 0xff;
        assert_eq!(
            CodecSpec::decode_global(&wire, &[]),
            Err(CodecError::BadIndex { index: 0xff, n: 2 })
        );
        // More pairs declared than the vector has coordinates.
        let mut wire = spec.encode_global(&[1.0, 2.0], &[]);
        wire[6] = 3;
        assert_eq!(
            CodecSpec::decode_global(&wire, &[]),
            Err(CodecError::BadLength {
                expected: 2,
                got: 3
            })
        );
    }

    /// FNV-1a over a byte stream.
    fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Fingerprint of a frame and of what it decodes to (`to_bits`).
    fn frame_fingerprint(frame: &[u8], decoded: &[f32]) -> u64 {
        let bits = decoded.iter().flat_map(|v| v.to_bits().to_le_bytes());
        fnv1a(frame.iter().copied().chain(bits))
    }

    /// `n` values in `[-scale, scale)` from integer arithmetic only, so the
    /// table below does not depend on libm or on the vendored RNG.
    fn lcg_values(n: usize, seed: u64, scale: f32) -> Vec<f32> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((x >> 40) as f32 / (1u64 << 23) as f32 - 1.0) * scale
            })
            .collect()
    }

    const WIRE_SIZES: [usize; 6] = [0, 1, 255, 256, 257, 10_690];

    /// Fingerprints of the broadcast frame and of the update frame at each
    /// of [`WIRE_SIZES`], for one spec.
    fn wire_fingerprints(spec: &CodecSpec) -> ([u64; 6], [u64; 6]) {
        let mut global = [0u64; 6];
        let mut update = [0u64; 6];
        for (slot, &n) in WIRE_SIZES.iter().enumerate() {
            let reference = lcg_values(n, 11, 2.0);
            let params: Vec<f32> = lcg_values(n, 29, 0.25)
                .iter()
                .zip(&reference)
                .map(|(d, r)| r + d)
                .collect();
            let frame = spec.encode_global(&params, &reference);
            let decoded = CodecSpec::decode_global(&frame, &reference).expect("decodes");
            global[slot] = frame_fingerprint(&frame, &decoded);
            let sent = ModelUpdate {
                party: PartyId(n + 3),
                params,
                num_samples: 17 + n,
                train_loss: 0.625,
            };
            let frame = sent.encode(spec, &reference);
            let back = ModelUpdate::decode(&frame, &reference).expect("decodes");
            assert_eq!(
                (back.party, back.num_samples, back.train_loss),
                (sent.party, sent.num_samples, sent.train_loss)
            );
            update[slot] = frame_fingerprint(&frame, &back.params);
        }
        (global, update)
    }

    /// One row per distinct wire: the broadcast-frame and update-frame
    /// fingerprints at each of [`WIRE_SIZES`]. The first five labels are
    /// [`CodecSpec::parse`] names at block 256 / density 0.1.
    #[rustfmt::skip]
    const WIRE_TABLE: [(&str, [u64; 6], [u64; 6]); 8] = [
        ("dense",
         [0xfb4e_98c7_3bab_ab04, 0x1b4e_e397_d1b2_b889, 0x9749_43b4_1625_4c2b,
          0x0514_7acf_c757_9967, 0xa50b_cbc2_48e9_bdb2, 0x5444_c895_2db1_b701],
         [0xd642_cff4_6f93_ffb7, 0xd72a_ee69_a8c3_60fe, 0x6ed7_f39d_74cf_e214,
          0x4d67_9292_7aa6_d4f4, 0x95bd_bb62_ebd8_c335, 0x85ae_d096_9b14_d58e]),
        ("quant8",
         [0x9273_ced3_22af_3574, 0x4df0_7fd1_996a_6075, 0x7b42_fb87_9d3d_8b0e,
          0x0c49_76b8_43e1_7cf8, 0x9fa8_8637_470c_8c1f, 0x6784_eee9_b130_ccbe],
         [0x3abe_19a8_473a_f9bb, 0x8ca7_2f69_e37d_1c7c, 0x07fa_bcdf_14e8_650b,
          0xa59a_4679_0bb6_15b3, 0x2368_202b_03cc_2346, 0x1cb2_8d49_674b_ce6d]),
        ("delta",
         [0x07fd_7bf1_b8fb_1567, 0xe2d5_f69a_cf74_741d, 0x6090_f5e7_0475_ad5a,
          0xeb93_ca38_827f_a8d0, 0x59a6_ad5a_caf6_c380, 0x4714_1f04_c333_b98f],
         [0xc3bf_a3a0_6935_cfd8, 0x3552_719e_a6ff_fdd2, 0x163d_2aef_c02b_c5cd,
          0x7ba2_4f4c_3783_5fdb, 0x63c3_0311_6deb_3b17, 0x50b2_90f5_c665_b524]),
        ("delta-quant8",
         [0x105c_6f75_97e4_3cb7, 0x7498_aa4e_9653_4e79, 0xc850_544e_a71d_ee94,
          0x5d8a_0ef1_0049_33ce, 0xd86c_6a18_c2de_1682, 0x48b2_8abd_a942_9a59],
         [0xc63d_a73b_2f61_ac34, 0x2f5c_1d34_4d31_eb88, 0xbabb_6d91_b9e6_a539,
          0x0094_9b88_bbea_d655, 0x9aa3_6519_645f_134b, 0x20a1_f553_9450_0612]),
        ("topk",
         [0x15e2_7e2d_38e2_07e9, 0x5b21_ea81_ad3d_87be, 0xd26c_97da_8956_1b52,
          0x83fb_40fb_6b60_7137, 0x0be6_1e4d_b651_0fef, 0xc1ea_229b_b9ca_e917],
         [0x7cd8_7090_b21d_ece2, 0x7786_2374_431e_d7a5, 0x4705_00de_3fc5_eed1,
          0xe767_bf25_ef5d_2800, 0xff44_19a4_df9b_de90, 0x5940_cd7e_cb3f_2520]),
        ("quant8 block 1",
         [0xfb22_9dca_d161_778e, 0x9356_9104_b0be_fad7, 0xe280_fea9_cb4c_9e31,
          0x7483_f3c7_fac7_04b1, 0x3cee_e146_c42a_5bd2, 0x89c6_f9c4_971a_f6bb],
         [0xd20f_4ab0_9888_b7a1, 0xac9f_1ee7_230d_252a, 0x24a5_7ee0_e79d_c158,
          0x8851_9c8a_faf9_239e, 0x6dce_f14b_b363_4c8f, 0xa9c3_be01_3ef8_59e4]),
        ("topk 0.01",
         [0x15e2_7e2d_38e2_07e9, 0x5b21_ea81_ad3d_87be, 0xafdd_22c6_88a3_5b3c,
          0x6a2a_5100_58cd_7c2d, 0x1c02_6968_3fb2_1435, 0x0b17_f883_1120_1ded],
         [0x7cd8_7090_b21d_ece2, 0x7786_2374_431e_d7a5, 0x3f6a_1667_dbbe_41c3,
          0x7c1a_0f72_3b36_ce46, 0x3f8e_157c_8170_af76, 0x747c_09db_5788_146a]),
        ("topk 1.0",
         [0x15e2_7e2d_38e2_07e9, 0x5b21_ea81_ad3d_87be, 0x6ef9_8e47_f18c_86a0,
          0xf98b_80cc_b229_7801, 0x6d6f_e0fd_1380_088f, 0x019b_a550_523b_ea01],
         [0x7cd8_7090_b21d_ece2, 0x7786_2374_431e_d7a5, 0x278d_0f35_4da3_7933,
          0xa894_ecb9_428a_2f3e, 0x4039_ce67_7e57_af54, 0xc571_3347_8820_c04e]),
    ];

    fn wire_spec(label: &str) -> CodecSpec {
        match label {
            "quant8 block 1" => CodecSpec::quant8(1),
            "topk 0.01" => CodecSpec::topk(0.01).with_delta(),
            "topk 1.0" => CodecSpec::topk(1.0).with_delta(),
            name => CodecSpec::parse(name, 256, 0.1).expect("a CLI codec name"),
        }
    }

    #[test]
    fn wire_frames_are_bit_pinned() {
        for (label, global, update) in WIRE_TABLE {
            assert_eq!(
                wire_fingerprints(&wire_spec(label)),
                (global, update),
                "{label}"
            );
        }
        // The remaining CLI names put the same bytes on the wire as `topk`
        // (both are residual-coded; error feedback is party-side state).
        for alias in ["delta-topk", "ef-topk", "ef-delta-topk"] {
            assert_eq!(
                wire_fingerprints(&wire_spec(alias)),
                wire_fingerprints(&wire_spec("topk")),
                "{alias}"
            );
        }
    }

    #[test]
    fn parse_covers_the_cli_names() {
        assert_eq!(
            CodecSpec::parse("dense", 256, 0.1),
            Some(CodecSpec::dense())
        );
        assert_eq!(
            CodecSpec::parse("quant8", 64, 0.1),
            Some(CodecSpec::quant8(64))
        );
        assert_eq!(
            CodecSpec::parse("delta", 256, 0.1),
            Some(CodecSpec::dense().with_delta())
        );
        assert_eq!(
            CodecSpec::parse("delta-quant8", 128, 0.1),
            Some(CodecSpec::quant8(128).with_delta())
        );
        // Raw top-k is never offered: both names carry the delta stage.
        assert_eq!(
            CodecSpec::parse("topk", 256, 0.05),
            Some(CodecSpec::topk(0.05).with_delta())
        );
        assert_eq!(
            CodecSpec::parse("DELTA-TOPK", 256, 0.05),
            Some(CodecSpec::topk(0.05).with_delta())
        );
        assert_eq!(CodecSpec::parse("gzip", 256, 0.1), None);
    }

    #[test]
    fn quant8_compression_ratio_beats_3_5x() {
        let spec = CodecSpec::quant8(256);
        for n in [10_000, 100_000, 1_000_000] {
            let ratio = spec.compression_ratio(n);
            assert!(ratio >= 3.5, "quant8 ratio {ratio:.2} at n={n}");
        }
    }

    #[test]
    fn update_frames_carry_metadata() {
        let update = ModelUpdate {
            party: PartyId(7),
            params: vec![1.0, -1.0, 0.5],
            num_samples: 42,
            train_loss: 0.75,
        };
        let spec = CodecSpec::dense();
        let wire = spec.encode_update(&update, &[]);
        assert_eq!(wire.len(), spec.update_len(3));
        let back = CodecSpec::decode_update(&wire, &[]).expect("decodes");
        assert_eq!(back, update);
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(CodecSpec::dense().to_string(), "dense");
        assert_eq!(CodecSpec::quant8(256).to_string(), "quant8(block=256)");
        assert_eq!(
            CodecSpec::topk(0.05).with_delta().to_string(),
            "delta+topk(density=0.05)"
        );
        assert_eq!(
            CodecSpec::topk(0.05)
                .with_delta()
                .with_error_feedback()
                .to_string(),
            "ef+delta+topk(density=0.05)"
        );
    }

    #[test]
    fn error_feedback_parses_and_stays_off_the_wire() {
        assert_eq!(
            CodecSpec::parse("ef-topk", 256, 0.02),
            Some(CodecSpec::topk(0.02).with_delta().with_error_feedback())
        );
        // The wire format is identical: same sizes, and a decoded header
        // never carries the flag.
        let ef = CodecSpec::topk(0.1).with_delta().with_error_feedback();
        let plain = CodecSpec::topk(0.1).with_delta();
        assert_eq!(ef.update_len(500), plain.update_len(500));
        assert_eq!(ef.broadcast_len(500), plain.broadcast_len(500));
    }

    #[test]
    fn first_contact_spec_is_self_contained() {
        // Sparse and delta stages need state the joiner lacks.
        assert_eq!(
            CodecSpec::topk(0.05).with_delta().first_contact_spec(),
            CodecSpec::dense()
        );
        assert_eq!(
            CodecSpec::dense().with_delta().first_contact_spec(),
            CodecSpec::dense()
        );
        // Absolute quantisation decodes without any reference.
        assert_eq!(
            CodecSpec::quant8(128).with_delta().first_contact_spec(),
            CodecSpec::quant8(128)
        );
        assert_eq!(CodecSpec::dense().first_contact_spec(), CodecSpec::dense());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_dense_roundtrip_exact(params in proptest::collection::vec(-100.0f32..100.0, 0..600)) {
            let spec = CodecSpec::dense();
            prop_assert_eq!(roundtrip(&spec, &params, &[]), params);
        }

        #[test]
        fn prop_quant8_roundtrip_within_half_scale(
            params in proptest::collection::vec(-50.0f32..50.0, 1..600),
            block in 1usize..300,
        ) {
            let spec = CodecSpec::quant8(block);
            let decoded = roundtrip(&spec, &params, &[]);
            for (chunk, dec) in params.chunks(block).zip(decoded.chunks(block)) {
                let lo = chunk.iter().copied().fold(f32::INFINITY, f32::min);
                let hi = chunk.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let bound = (hi - lo) / 255.0 * 0.5 + 1e-4;
                for (&a, &b) in chunk.iter().zip(dec.iter()) {
                    prop_assert!((a - b).abs() <= bound, "error {} > bound {}", (a - b).abs(), bound);
                }
            }
        }

        #[test]
        fn prop_topk_selected_coordinates_are_exact(
            params in proptest::collection::vec(-10.0f32..10.0, 1..400),
            density_pct in 1u32..=100,
        ) {
            let spec = CodecSpec::topk(density_pct as f32 / 100.0);
            let decoded = roundtrip(&spec, &params, &[]);
            let kept = decoded.iter().filter(|v| **v != 0.0).count();
            let k = topk_kept(density_pct as f32 / 100.0, params.len());
            prop_assert!(kept <= k, "kept {} > k {}", kept, k);
            // Every surviving coordinate is bit-identical to its source.
            for (&orig, &dec) in params.iter().zip(decoded.iter()) {
                prop_assert!(dec == 0.0 || dec == orig);
            }
        }

        #[test]
        fn prop_delta_quant8_roundtrip_tracks_reference(
            reference in proptest::collection::vec(-20.0f32..20.0, 64),
            noise in proptest::collection::vec(-0.5f32..0.5, 64),
        ) {
            // Residuals are small, so delta+quant8 reconstructs tightly even
            // though absolute values span a wide range.
            let params: Vec<f32> = reference.iter().zip(noise.iter()).map(|(r, n)| r + n).collect();
            let spec = CodecSpec::quant8(32).with_delta();
            let decoded = roundtrip(&spec, &params, &reference);
            for (&a, &b) in params.iter().zip(decoded.iter()) {
                prop_assert!((a - b).abs() <= 1.0 / 255.0 + 1e-4);
            }
        }

        #[test]
        fn prop_encoded_len_matches_actual_bytes(
            params in proptest::collection::vec(-5.0f32..5.0, 0..500),
            pick in 0usize..6,
        ) {
            let spec = [
                CodecSpec::dense(),
                CodecSpec::quant8(64),
                CodecSpec::topk(0.1),
                CodecSpec::dense().with_delta(),
                CodecSpec::quant8(256).with_delta(),
                CodecSpec::topk(0.25).with_delta(),
            ][pick];
            let wire = spec.encode_global(&params, &[]);
            prop_assert_eq!(wire.len(), spec.broadcast_len(params.len()));
            let update = ModelUpdate {
                party: PartyId(1),
                params: params.clone(),
                num_samples: 5,
                train_loss: 0.5,
            };
            let uw = spec.encode_update(&update, &[]);
            prop_assert_eq!(uw.len(), spec.update_len(params.len()));
        }
    }
}

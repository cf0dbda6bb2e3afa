//! Chunked, resumable first-contact synchronisation.
//!
//! Since the codec refactor a party seeing a stream for the first time has
//! received one monolithic self-contained full-state frame — under churn
//! that frame dominates total downlink bytes (the README's codec sweep
//! splits it out). [`JoinSync`] replaces the monolith with a per
//! `(stream, party)` state machine: the first-contact frame is encoded
//! once under a join codec (typically int8-quantised), snapshotted, and
//! shipped as bounded-size chunks. Delivery is tracked per chunk, so a
//! sync interrupted by mid-round churn *resumes* — only the chunks whose
//! shipment was lost re-ship, and the loss is overlaid on the
//! [`CommLedger`](crate::CommLedger) (`join_lost_*`) in the same spirit as
//! the uplink's lost-upload refund rules.
//!
//! Because every chunk is a slice of the one snapshotted frame, the
//! reassembled bytes are identical to the monolithic frame by
//! construction, independent of loss and re-ship order: lossless join
//! codecs reassemble the dense state bit-identically, and quantised ones
//! stay within their per-coordinate quantisation envelope (both
//! proptest-pinned).

use serde::{Deserialize, Serialize};

use crate::codec::CodecSpec;

/// Per-chunk wire overhead: `[seq: u32][total: u32]` framing prepended to
/// each chunk's payload slice so an out-of-order receiver can place it.
pub const JOIN_CHUNK_HEADER_LEN: usize = 8;

/// Configuration of the chunked join path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JoinConfig {
    /// Codec for the full-state first-contact frame. Reduced through
    /// [`CodecSpec::first_contact_spec`] before encoding, so delta / error
    /// feedback are stripped and sparse kinds fall back to dense — the
    /// frame must be self-contained.
    pub codec: CodecSpec,
    /// Maximum payload bytes per chunk (header excluded). Must be ≥ 1.
    pub chunk_bytes: usize,
}

impl JoinConfig {
    /// Int8-quantised join frames (block = 256) in `chunk_bytes`-sized
    /// chunks — the default configuration of the adaptive comm path.
    pub fn quantized(chunk_bytes: usize) -> Self {
        Self {
            codec: CodecSpec::quant8(256),
            chunk_bytes,
        }
    }

    /// Dense (lossless) join frames in `chunk_bytes`-sized chunks.
    pub fn dense(chunk_bytes: usize) -> Self {
        Self {
            codec: CodecSpec::dense(),
            chunk_bytes,
        }
    }
}

/// Delivery state of one chunk of a join frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChunkState {
    /// Never shipped, or shipped and lost — will ship on the next contact.
    Pending,
    /// Shipped this round; acked or lost when the round's churn resolves.
    InFlight,
    /// Received by the party.
    Delivered,
}

/// One `(stream, party)` first-contact sync in progress.
///
/// Lifecycle: [`JoinSync::begin`] snapshots the encoded frame →
/// [`ship_missing`](JoinSync::ship_missing) puts every undelivered chunk
/// in flight (metered by the caller) → the round's churn verdict resolves
/// the flight via [`ack_in_flight`](JoinSync::ack_in_flight) (party
/// survived: chunks land in the receive buffer) or
/// [`lose_in_flight`](JoinSync::lose_in_flight) (party churned: chunks
/// revert to pending, wire bytes reported lost). When
/// [`is_complete`](JoinSync::is_complete) the receive buffer holds the
/// frame bit-identically and [`decoded`](JoinSync::decoded) yields the
/// state the party trains from.
#[derive(Debug, Clone)]
pub struct JoinSync {
    /// Encoded self-contained frame, snapshotted at sync start. Chunks are
    /// slices of this buffer, so a multi-round sync reassembles the state
    /// of the round it began — the party catches up via regular deltas.
    frame: Vec<u8>,
    /// Receiver-side reassembly buffer, filled as chunks are acked.
    received: Vec<u8>,
    state: Vec<ChunkState>,
    chunk_bytes: usize,
}

impl JoinSync {
    /// Starts a sync for `global` under `config`, snapshotting the encoded
    /// first-contact frame.
    pub fn begin(global: &[f32], config: &JoinConfig) -> Self {
        let spec = config.codec.first_contact_spec();
        let frame = spec.encode_global(global, &[]);
        let chunk_bytes = config.chunk_bytes.max(1);
        let chunks = frame.len().div_ceil(chunk_bytes).max(1);
        Self {
            received: vec![0; frame.len()],
            state: vec![ChunkState::Pending; chunks],
            frame,
            chunk_bytes,
        }
    }

    /// Total number of chunks in the frame.
    pub fn num_chunks(&self) -> usize {
        self.state.len()
    }

    /// Chunks already delivered.
    pub fn delivered_chunks(&self) -> usize {
        self.state
            .iter()
            .filter(|s| **s == ChunkState::Delivered)
            .count()
    }

    /// Has every chunk been delivered?
    pub fn is_complete(&self) -> bool {
        self.state.iter().all(|s| *s == ChunkState::Delivered)
    }

    /// Byte range of chunk `i` within the frame.
    fn chunk_range(&self, i: usize) -> std::ops::Range<usize> {
        let start = i * self.chunk_bytes;
        start..self.frame.len().min(start + self.chunk_bytes)
    }

    /// Exact wire size of chunk `i` (header + payload slice).
    pub fn wire_len(&self, i: usize) -> usize {
        JOIN_CHUNK_HEADER_LEN + self.chunk_range(i).len()
    }

    /// Indices of the chunks currently in flight — shipped by
    /// [`ship_missing`](Self::ship_missing) but not yet resolved by the
    /// round's churn verdict. A networked coordinator writes exactly these
    /// chunks to the joiner's socket after the engine's broadcast metered
    /// them.
    pub fn in_flight_chunks(&self) -> Vec<usize> {
        (0..self.state.len())
            .filter(|&i| self.state[i] == ChunkState::InFlight)
            .collect()
    }

    /// Payload slice of chunk `i` (the [`JOIN_CHUNK_HEADER_LEN`]-byte
    /// header excluded). `i` must be below [`num_chunks`](Self::num_chunks).
    pub fn chunk_payload(&self, i: usize) -> &[u8] {
        &self.frame[self.chunk_range(i)]
    }

    /// Puts every not-yet-delivered chunk in flight, returning the
    /// `(bytes, chunks)` shipped this call — exactly what the caller must
    /// meter. Chunks already in flight are not double-shipped.
    pub fn ship_missing(&mut self) -> (usize, usize) {
        let mut bytes = 0usize;
        let mut chunks = 0usize;
        for i in 0..self.state.len() {
            if self.state[i] == ChunkState::Pending {
                self.state[i] = ChunkState::InFlight;
                bytes += self.wire_len(i);
                chunks += 1;
            }
        }
        (bytes, chunks)
    }

    /// The party survived the round: in-flight chunks land, their payload
    /// slices are written into the receive buffer.
    pub fn ack_in_flight(&mut self) {
        for i in 0..self.state.len() {
            if self.state[i] == ChunkState::InFlight {
                self.state[i] = ChunkState::Delivered;
                let range = self.chunk_range(i);
                self.received[range.clone()].copy_from_slice(&self.frame[range]);
            }
        }
    }

    /// The party churned out mid-round: in-flight chunks are lost and
    /// revert to pending (they re-ship at the next contact). Returns the
    /// `(bytes, chunks)` lost, for the ledger's `join_lost_*` overlay.
    pub fn lose_in_flight(&mut self) -> (usize, usize) {
        let mut bytes = 0usize;
        let mut chunks = 0usize;
        for i in 0..self.state.len() {
            if self.state[i] == ChunkState::InFlight {
                self.state[i] = ChunkState::Pending;
                bytes += self.wire_len(i);
                chunks += 1;
            }
        }
        (bytes, chunks)
    }

    /// The snapshotted encoded frame (what a monolithic first contact
    /// would have shipped in one message).
    pub fn frame(&self) -> &[u8] {
        &self.frame
    }

    /// The receiver's reassembled frame bytes (only meaningful for the
    /// delivered chunk ranges until [`JoinSync::is_complete`]).
    pub fn reassembled(&self) -> &[u8] {
        &self.received
    }

    /// Decodes the frame the party is being synced onto. The engine calls
    /// this optimistically at ship time (the party trains from it; if the
    /// party churns the training was wasted anyway), so it decodes the
    /// snapshot rather than the receive buffer. `None` only if the
    /// snapshot itself is undecodable, which a self-encoded frame never is.
    pub fn decoded(&self) -> Option<Vec<f32>> {
        CodecSpec::decode_global(&self.frame, &[]).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn global(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.37).sin()).collect()
    }

    #[test]
    fn single_round_sync_ships_every_chunk_once() {
        let g = global(100);
        let cfg = JoinConfig::dense(64);
        let mut sync = JoinSync::begin(&g, &cfg);
        let frame_len = sync.frame().len();
        assert_eq!(frame_len, CodecSpec::dense().broadcast_len(100));
        let (bytes, chunks) = sync.ship_missing();
        assert_eq!(chunks, frame_len.div_ceil(64));
        assert_eq!(bytes, frame_len + chunks * JOIN_CHUNK_HEADER_LEN);
        // Nothing further to ship while the flight is unresolved.
        assert_eq!(sync.ship_missing(), (0, 0));
        sync.ack_in_flight();
        assert!(sync.is_complete());
        assert_eq!(sync.reassembled(), sync.frame());
        assert_eq!(sync.decoded().expect("self-encoded"), g);
    }

    #[test]
    fn lost_flight_reships_and_reassembles_bit_identically() {
        let g = global(77);
        let mut sync = JoinSync::begin(&g, &JoinConfig::dense(32));
        let (shipped, chunks) = sync.ship_missing();
        let (lost, lost_chunks) = sync.lose_in_flight();
        assert_eq!((shipped, chunks), (lost, lost_chunks));
        assert!(!sync.is_complete());
        // Resume: everything re-ships, then lands.
        let (reshipped, rechunks) = sync.ship_missing();
        assert_eq!((reshipped, rechunks), (shipped, chunks));
        sync.ack_in_flight();
        assert!(sync.is_complete());
        assert_eq!(sync.reassembled(), sync.frame());
    }

    #[test]
    fn quantized_sync_stays_within_the_quant8_envelope() {
        let g = global(300);
        let mut sync = JoinSync::begin(&g, &JoinConfig::quantized(128));
        sync.ship_missing();
        sync.ack_in_flight();
        let decoded = sync.decoded().expect("self-encoded");
        let lo = g.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = g.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let tol = (hi - lo) / 255.0 * 0.5 + 1e-5;
        for (&a, &b) in g.iter().zip(decoded.iter()) {
            assert!((a - b).abs() <= tol, "{a} vs {b}");
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any loss schedule ends in a bit-identical reassembly, and every
        /// shipped byte is accounted exactly once: lost or delivered.
        #[test]
        fn prop_reassembly_survives_any_loss_schedule(
            params in proptest::collection::vec(-10.0f32..10.0, 1..400),
            chunk_bytes in 1usize..96,
            losses in proptest::collection::vec(any::<bool>(), 0..6),
        ) {
            let cfg = JoinConfig::dense(chunk_bytes);
            let mut sync = JoinSync::begin(&params, &cfg);
            let mut shipped = 0usize;
            let mut lost = 0usize;
            for &lose in &losses {
                if sync.is_complete() {
                    break;
                }
                shipped += sync.ship_missing().0;
                if lose {
                    lost += sync.lose_in_flight().0;
                    prop_assert!(!sync.is_complete());
                } else {
                    sync.ack_in_flight();
                }
            }
            // Final contact always survives.
            shipped += sync.ship_missing().0;
            sync.ack_in_flight();
            prop_assert!(sync.is_complete());
            prop_assert_eq!(sync.reassembled(), sync.frame());
            prop_assert_eq!(sync.decoded().expect("dense frame"), params);
            let frame_wire: usize = (0..sync.num_chunks()).map(|i| sync.wire_len(i)).sum();
            prop_assert_eq!(shipped, lost + frame_wire, "every byte lost or delivered once");
        }

        /// Chunk framing partitions the frame exactly: payload bytes sum to
        /// the frame length and headers to one per chunk.
        #[test]
        fn prop_chunks_partition_the_frame(
            n in 1usize..600,
            chunk_bytes in 1usize..128,
        ) {
            let params: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let sync = JoinSync::begin(&params, &JoinConfig::quantized(chunk_bytes));
            let wire: usize = (0..sync.num_chunks()).map(|i| sync.wire_len(i)).sum();
            prop_assert_eq!(
                wire,
                sync.frame().len() + sync.num_chunks() * JOIN_CHUNK_HEADER_LEN
            );
            prop_assert_eq!(sync.num_chunks(), sync.frame().len().div_ceil(chunk_bytes));
        }
    }

    #[test]
    fn quantized_frame_undercuts_dense_by_3x_plus() {
        let n = 2146; // the smoke-scale Lite model's parameter count
        let g = global(n);
        let dense = CodecSpec::dense().broadcast_len(n);
        let sync = JoinSync::begin(&g, &JoinConfig::quantized(1024));
        let chunked: usize = (0..sync.num_chunks()).map(|i| sync.wire_len(i)).sum();
        assert!(
            chunked * 3 <= dense,
            "chunked quant8 join ({chunked} B) must undercut dense ({dense} B) 3x"
        );
    }
}

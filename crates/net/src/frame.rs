//! Length-prefixed message framing and wire-message payload layouts.
//!
//! Every message on a federation socket is one frame:
//!
//! ```text
//! [kind: u8][len: u32 LE][payload: len bytes]
//! ```
//!
//! Payloads of the data-plane kinds ([`MsgKind::Broadcast`],
//! [`MsgKind::JoinChunk`], [`MsgKind::Upload`]) are a small fixed routing
//! context followed by a `shiftex_fl::codec` frame (or join-sync chunk)
//! **unchanged** — the exact bytes the in-process simulator meters through
//! [`CommLedger`](shiftex_fl::CommLedger). The context and frame-header
//! sizes are public constants so the wire-byte honesty tests can equate
//! raw socket byte counts with ledger totals exactly.
//!
//! All integers are little-endian. Everything here is pure byte shuffling
//! over `Read`/`Write` — no sockets, no clocks — so it unit-tests without
//! the network.

use std::fmt;
use std::io::{self, Read, Write};

use shiftex_fl::{CodecError, PartyId};

/// Bytes of the per-message frame header: `[kind: u8][len: u32]`.
pub const FRAME_HEADER_LEN: usize = 5;

/// Routing context preceding a [`MsgKind::Broadcast`] codec frame:
/// `[key: u32][round: u32][party: u64][seed: u64]`.
pub const BROADCAST_CTX_LEN: usize = 24;

/// Routing context preceding a [`MsgKind::JoinChunk`] chunk:
/// `[key: u32][round: u32][party: u64][seed: u64]`. The chunk itself
/// (`[seq: u32][total: u32][slice]`) is byte-identical to what
/// [`JoinSync::wire_len`](shiftex_fl::JoinSync::wire_len) meters.
pub const JOIN_CHUNK_CTX_LEN: usize = 24;

/// Routing context preceding a [`MsgKind::Upload`] update frame:
/// `[key: u32][round: u32]` (the originating party rides the update
/// frame's own metadata).
pub const UPLOAD_CTX_LEN: usize = 8;

/// Wire protocol version carried in `Hello`/`JoinAck`.
pub const PROTO_VERSION: u32 = 1;

/// Upper bound on a single frame's payload — a garbage length prefix must
/// not become a multi-gigabyte allocation.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Most bytes [`read_msg`] allocates before any payload byte has arrived.
/// A length prefix is unauthenticated, so a longer payload's buffer grows a
/// chunk at a time, each chunk no larger than what has already arrived. A
/// payload of at most this size (`netfed_tcp`'s ~43 KB frames) is one
/// `read_exact` into one allocation of exactly its length.
const FIRST_CHUNK: usize = 64 << 10;

/// Message kinds of the federation wire protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgKind {
    /// Worker → coordinator: protocol version + the party ids this worker
    /// process hosts.
    Hello = 0,
    /// Coordinator → worker: registration accepted (echoes the protocol
    /// version and accepted party count).
    JoinAck = 1,
    /// Coordinator → worker: one party's training assignment — routing
    /// context + the encoded global frame (regular or first-contact,
    /// self-describing).
    Broadcast = 2,
    /// Coordinator → worker: one chunk of a chunked first-contact join
    /// sync — routing context + `[seq][total][payload slice]`.
    JoinChunk = 3,
    /// Worker → coordinator: routing context + the encoded
    /// [`ModelUpdate`](shiftex_fl::ModelUpdate) frame.
    Upload = 4,
    /// Coordinator → worker: the round completed (stragglers whose uploads
    /// missed the deadline learn their work was dropped).
    RoundEnd = 5,
    /// Worker → coordinator: graceful departure of the worker's parties.
    Leave = 6,
}

impl MsgKind {
    /// Parses a wire kind byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(Self::Hello),
            1 => Some(Self::JoinAck),
            2 => Some(Self::Broadcast),
            3 => Some(Self::JoinChunk),
            4 => Some(Self::Upload),
            5 => Some(Self::RoundEnd),
            6 => Some(Self::Leave),
            _ => None,
        }
    }
}

/// Everything that can go wrong on a federation socket.
#[derive(Debug)]
pub enum NetError {
    /// Underlying socket I/O failed (includes read timeouts).
    Io(io::Error),
    /// A frame carried an unknown kind byte.
    BadKind(u8),
    /// A frame's length prefix exceeded [`MAX_FRAME_LEN`].
    Oversize(usize),
    /// A payload was shorter than its fixed layout requires.
    Truncated(&'static str),
    /// An embedded codec frame failed to decode.
    Codec(CodecError),
    /// The peer violated the protocol (bad version, unexpected message).
    Protocol(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "socket i/o: {e}"),
            Self::BadKind(b) => write!(f, "unknown message kind byte {b:#04x}"),
            Self::Oversize(n) => write!(f, "frame length {n} exceeds {MAX_FRAME_LEN}"),
            Self::Truncated(what) => write!(f, "truncated {what} payload"),
            Self::Codec(e) => write!(f, "embedded codec frame: {e}"),
            Self::Protocol(why) => write!(f, "protocol violation: {why}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        Self::Codec(e)
    }
}

impl NetError {
    /// Was this a read that timed out (a stalled socket — the peer may
    /// still be alive) rather than a dead connection?
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            Self::Io(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
        )
    }
}

/// Writes one frame. The header and payload go out in a single
/// `write_all`, and the frame's exact wire size
/// (`FRAME_HEADER_LEN + payload.len()`) is returned for byte accounting.
pub fn write_msg<W: Write>(w: &mut W, kind: MsgKind, payload: &[u8]) -> Result<usize, NetError> {
    let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    buf.push(kind as u8);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()?;
    Ok(buf.len())
}

/// Reads one frame, returning its kind and payload. Fails with a
/// timeout-kinded [`NetError::Io`] when the stream's read timeout expires
/// (see [`NetError::is_timeout`]), and with an `UnexpectedEof` one when the
/// stream ends inside the frame.
///
/// Memory follows the bytes received, not the header's claim: the payload
/// buffer starts at no more than 64 KiB and at most doubles per chunk that
/// arrives whole, so a header announcing [`MAX_FRAME_LEN`] and then closing
/// costs 64 KiB.
pub fn read_msg<R: Read>(r: &mut R) -> Result<(MsgKind, Vec<u8>), NetError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut header)?;
    let kind = MsgKind::from_u8(header[0]).ok_or(NetError::BadKind(header[0]))?;
    let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(NetError::Oversize(len));
    }
    let mut payload = Vec::new();
    while payload.len() < len {
        let start = payload.len();
        let chunk = (len - start).min(start.max(FIRST_CHUNK));
        payload.resize(start + chunk, 0);
        r.read_exact(&mut payload[start..])?;
    }
    Ok((kind, payload))
}

// ---------------------------------------------------------------------------
// Payload layouts.

fn get_u32(b: &[u8], at: usize, what: &'static str) -> Result<u32, NetError> {
    let s: [u8; 4] = b
        .get(at..at + 4)
        .and_then(|s| s.try_into().ok())
        .ok_or(NetError::Truncated(what))?;
    Ok(u32::from_le_bytes(s))
}

fn get_u64(b: &[u8], at: usize, what: &'static str) -> Result<u64, NetError> {
    let s: [u8; 8] = b
        .get(at..at + 8)
        .and_then(|s| s.try_into().ok())
        .ok_or(NetError::Truncated(what))?;
    Ok(u64::from_le_bytes(s))
}

/// `Hello` payload: the party ids a worker hosts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloMsg {
    /// Protocol version the worker speaks.
    pub proto: u32,
    /// Parties hosted by the connecting worker process.
    pub parties: Vec<PartyId>,
}

/// Encodes a [`HelloMsg`].
pub fn encode_hello(parties: &[PartyId]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 8 * parties.len());
    out.extend_from_slice(&PROTO_VERSION.to_le_bytes());
    out.extend_from_slice(&(parties.len() as u32).to_le_bytes());
    for p in parties {
        out.extend_from_slice(&(p.0 as u64).to_le_bytes());
    }
    out
}

/// Decodes a [`HelloMsg`].
pub fn decode_hello(payload: &[u8]) -> Result<HelloMsg, NetError> {
    let proto = get_u32(payload, 0, "hello")?;
    let count = get_u32(payload, 4, "hello")? as usize;
    if payload.len() != 8 + 8 * count {
        return Err(NetError::Truncated("hello"));
    }
    let mut parties = Vec::with_capacity(count);
    for i in 0..count {
        parties.push(PartyId(get_u64(payload, 8 + 8 * i, "hello")? as usize));
    }
    Ok(HelloMsg { proto, parties })
}

/// Encodes a `JoinAck` payload: `[proto: u32][accepted: u32]`.
pub fn encode_join_ack(accepted: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(8);
    out.extend_from_slice(&PROTO_VERSION.to_le_bytes());
    out.extend_from_slice(&(accepted as u32).to_le_bytes());
    out
}

/// Decodes a `JoinAck` payload, returning `(proto, accepted)`.
pub fn decode_join_ack(payload: &[u8]) -> Result<(u32, usize), NetError> {
    Ok((
        get_u32(payload, 0, "join-ack")?,
        get_u32(payload, 4, "join-ack")? as usize,
    ))
}

/// A decoded `Broadcast` payload: routing context + borrowed codec frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastMsg<'a> {
    /// Update-stream key.
    pub key: usize,
    /// 1-based round index.
    pub round: usize,
    /// Recipient party.
    pub party: PartyId,
    /// The party's pre-drawn local-training seed for this round.
    pub seed: u64,
    /// The encoded global frame, byte-identical to what the ledger
    /// metered (`broadcast_len` of the stream's codec).
    pub frame: &'a [u8],
}

/// Encodes a [`BroadcastMsg`].
pub fn encode_broadcast(m: &BroadcastMsg<'_>) -> Vec<u8> {
    let mut out = Vec::with_capacity(BROADCAST_CTX_LEN + m.frame.len());
    out.extend_from_slice(&(m.key as u32).to_le_bytes());
    out.extend_from_slice(&(m.round as u32).to_le_bytes());
    out.extend_from_slice(&(m.party.0 as u64).to_le_bytes());
    out.extend_from_slice(&m.seed.to_le_bytes());
    out.extend_from_slice(m.frame);
    out
}

/// Decodes a [`BroadcastMsg`], borrowing the frame from `payload`.
pub fn decode_broadcast(payload: &[u8]) -> Result<BroadcastMsg<'_>, NetError> {
    if payload.len() < BROADCAST_CTX_LEN {
        return Err(NetError::Truncated("broadcast"));
    }
    Ok(BroadcastMsg {
        key: get_u32(payload, 0, "broadcast")? as usize,
        round: get_u32(payload, 4, "broadcast")? as usize,
        party: PartyId(get_u64(payload, 8, "broadcast")? as usize),
        seed: get_u64(payload, 16, "broadcast")?,
        frame: &payload[BROADCAST_CTX_LEN..],
    })
}

/// A decoded `JoinChunk` payload: routing context + one join-sync chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinChunkMsg<'a> {
    /// Update-stream key.
    pub key: usize,
    /// 1-based round index.
    pub round: usize,
    /// The joining party.
    pub party: PartyId,
    /// The party's pre-drawn local-training seed for this round.
    pub seed: u64,
    /// Chunk sequence number within the snapshotted frame.
    pub seq: usize,
    /// Total chunks in the frame.
    pub total: usize,
    /// The chunk's payload slice of the encoded first-contact frame.
    pub payload: &'a [u8],
}

/// Encodes a [`JoinChunkMsg`]. The encoded chunk portion
/// (`[seq][total][payload]`) is exactly
/// [`JoinSync::wire_len`](shiftex_fl::JoinSync::wire_len) bytes — what
/// the ledger's `join_chunk_*` counters metered.
pub fn encode_join_chunk(m: &JoinChunkMsg<'_>) -> Vec<u8> {
    let mut out = Vec::with_capacity(JOIN_CHUNK_CTX_LEN + 8 + m.payload.len());
    out.extend_from_slice(&(m.key as u32).to_le_bytes());
    out.extend_from_slice(&(m.round as u32).to_le_bytes());
    out.extend_from_slice(&(m.party.0 as u64).to_le_bytes());
    out.extend_from_slice(&m.seed.to_le_bytes());
    out.extend_from_slice(&(m.seq as u32).to_le_bytes());
    out.extend_from_slice(&(m.total as u32).to_le_bytes());
    out.extend_from_slice(m.payload);
    out
}

/// Decodes a [`JoinChunkMsg`], borrowing the chunk payload.
pub fn decode_join_chunk(payload: &[u8]) -> Result<JoinChunkMsg<'_>, NetError> {
    if payload.len() < JOIN_CHUNK_CTX_LEN + 8 {
        return Err(NetError::Truncated("join-chunk"));
    }
    Ok(JoinChunkMsg {
        key: get_u32(payload, 0, "join-chunk")? as usize,
        round: get_u32(payload, 4, "join-chunk")? as usize,
        party: PartyId(get_u64(payload, 8, "join-chunk")? as usize),
        seed: get_u64(payload, 16, "join-chunk")?,
        seq: get_u32(payload, 24, "join-chunk")? as usize,
        total: get_u32(payload, 28, "join-chunk")? as usize,
        payload: &payload[JOIN_CHUNK_CTX_LEN + 8..],
    })
}

/// A decoded `Upload` payload: routing context + borrowed update frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UploadMsg<'a> {
    /// Update-stream key.
    pub key: usize,
    /// 1-based round index the update was trained for.
    pub round: usize,
    /// The encoded update frame, byte-identical to what the ledger meters
    /// (`update_len` of the session codec).
    pub frame: &'a [u8],
}

/// Encodes an [`UploadMsg`].
pub fn encode_upload(m: &UploadMsg<'_>) -> Vec<u8> {
    let mut out = Vec::with_capacity(UPLOAD_CTX_LEN + m.frame.len());
    out.extend_from_slice(&(m.key as u32).to_le_bytes());
    out.extend_from_slice(&(m.round as u32).to_le_bytes());
    out.extend_from_slice(m.frame);
    out
}

/// Decodes an [`UploadMsg`], borrowing the frame.
pub fn decode_upload(payload: &[u8]) -> Result<UploadMsg<'_>, NetError> {
    if payload.len() < UPLOAD_CTX_LEN {
        return Err(NetError::Truncated("upload"));
    }
    Ok(UploadMsg {
        key: get_u32(payload, 0, "upload")? as usize,
        round: get_u32(payload, 4, "upload")? as usize,
        frame: &payload[UPLOAD_CTX_LEN..],
    })
}

/// Encodes a `Leave` payload: `[count: u32][party: u64 × count]` — the
/// parties departing with the sending worker.
pub fn encode_leave(parties: &[PartyId]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 * parties.len());
    out.extend_from_slice(&(parties.len() as u32).to_le_bytes());
    for p in parties {
        out.extend_from_slice(&(p.0 as u64).to_le_bytes());
    }
    out
}

/// Decodes a `Leave` payload.
pub fn decode_leave(payload: &[u8]) -> Result<Vec<PartyId>, NetError> {
    let count = get_u32(payload, 0, "leave")? as usize;
    if payload.len() != 4 + 8 * count {
        return Err(NetError::Truncated("leave"));
    }
    let mut parties = Vec::with_capacity(count);
    for i in 0..count {
        parties.push(PartyId(get_u64(payload, 4 + 8 * i, "leave")? as usize));
    }
    Ok(parties)
}

/// Encodes a `RoundEnd` payload: `[round: u32]`.
pub fn encode_round_end(round: usize) -> Vec<u8> {
    (round as u32).to_le_bytes().to_vec()
}

/// Decodes a `RoundEnd` payload.
pub fn decode_round_end(payload: &[u8]) -> Result<usize, NetError> {
    Ok(get_u32(payload, 0, "round-end")? as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut wire = Vec::new();
        let sent = write_msg(&mut wire, MsgKind::Upload, b"payload").expect("write");
        assert_eq!(sent, FRAME_HEADER_LEN + 7);
        assert_eq!(wire.len(), sent);
        let (kind, payload) = read_msg(&mut wire.as_slice()).expect("read");
        assert_eq!(kind, MsgKind::Upload);
        assert_eq!(payload, b"payload");
        // Past the first 64 KiB the payload arrives in growing chunks.
        let big: Vec<u8> = (0..150_000u32).map(|i| (i % 251) as u8).collect();
        let mut wire = Vec::new();
        write_msg(&mut wire, MsgKind::Broadcast, &big).expect("write");
        assert_eq!(read_msg(&mut wire.as_slice()).expect("read").1, big);
    }

    #[test]
    fn rejects_unknown_kind_and_oversize() {
        let mut wire = vec![0xffu8];
        wire.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_msg(&mut wire.as_slice()),
            Err(NetError::BadKind(0xff))
        ));
        let mut wire = vec![MsgKind::Hello as u8];
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            read_msg(&mut wire.as_slice()),
            Err(NetError::Oversize(_))
        ));
    }

    #[test]
    fn hello_roundtrips() {
        let parties = vec![PartyId(0), PartyId(7), PartyId(123)];
        let enc = encode_hello(&parties);
        let dec = decode_hello(&enc).expect("valid");
        assert_eq!(dec.proto, PROTO_VERSION);
        assert_eq!(dec.parties, parties);
        assert!(decode_hello(&enc[..enc.len() - 1]).is_err());
    }

    #[test]
    fn broadcast_roundtrips_and_ctx_len_is_exact() {
        let m = BroadcastMsg {
            key: 3,
            round: 17,
            party: PartyId(9),
            seed: 0xdead_beef_cafe_f00d,
            frame: &[1, 2, 3, 4, 5],
        };
        let enc = encode_broadcast(&m);
        assert_eq!(enc.len(), BROADCAST_CTX_LEN + m.frame.len());
        assert_eq!(decode_broadcast(&enc).expect("valid"), m);
    }

    #[test]
    fn join_chunk_roundtrips_with_exact_metered_portion() {
        let m = JoinChunkMsg {
            key: 0,
            round: 2,
            party: PartyId(4),
            seed: 42,
            seq: 1,
            total: 3,
            payload: &[9; 13],
        };
        let enc = encode_join_chunk(&m);
        // ctx + the metered chunk (JOIN_CHUNK_HEADER_LEN + slice).
        assert_eq!(
            enc.len(),
            JOIN_CHUNK_CTX_LEN + shiftex_fl::JOIN_CHUNK_HEADER_LEN + 13
        );
        assert_eq!(decode_join_chunk(&enc).expect("valid"), m);
    }

    #[test]
    fn upload_and_round_end_roundtrip() {
        let m = UploadMsg {
            key: 1,
            round: 5,
            frame: &[7; 21],
        };
        let enc = encode_upload(&m);
        assert_eq!(enc.len(), UPLOAD_CTX_LEN + 21);
        assert_eq!(decode_upload(&enc).expect("valid"), m);
        assert_eq!(decode_round_end(&encode_round_end(11)).expect("valid"), 11);
    }

    /// Yields `bytes` at most three at a time, then fails with `then`.
    struct Trickle {
        bytes: Vec<u8>,
        at: usize,
        then: io::ErrorKind,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.bytes.len() - self.at).min(3);
            if n == 0 {
                return Err(io::Error::new(self.then, "trickle ran dry"));
            }
            buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn short_reads_assemble_and_cut_frames_keep_their_error_kind() {
        let mut wire = Vec::new();
        write_msg(&mut wire, MsgKind::Upload, b"ten bytes!").expect("write");
        let trickle = |upto: usize, then| Trickle {
            bytes: wire[..upto].to_vec(),
            at: 0,
            then,
        };
        let whole = read_msg(&mut trickle(wire.len(), io::ErrorKind::UnexpectedEof));
        assert_eq!(whole.expect("reads").1, b"ten bytes!");
        // The stream ends four bytes into the payload.
        let cut = FRAME_HEADER_LEN + 4;
        match read_msg(&mut &wire[..cut]) {
            Err(NetError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("a cut frame must be UnexpectedEof, got {other:?}"),
        }
        // The peer stalls there instead: still a timeout, not a dead peer.
        let stalled = read_msg(&mut trickle(cut, io::ErrorKind::WouldBlock));
        assert!(stalled.expect_err("stalls").is_timeout());
    }

    #[test]
    fn timeout_errors_are_recognised() {
        let e = NetError::Io(io::Error::new(io::ErrorKind::WouldBlock, "t"));
        assert!(e.is_timeout());
        let e = NetError::Io(io::Error::new(io::ErrorKind::UnexpectedEof, "dead"));
        assert!(!e.is_timeout());
    }
}

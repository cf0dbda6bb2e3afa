//! The party-worker end of a networked federation.
//!
//! [`serve`] speaks the worker side of the wire protocol over any
//! `Read + Write` transport: register hosted parties (`Hello`/`JoinAck`),
//! then loop — decode each `Broadcast` (or reassemble a chunked
//! first-contact join), run the caller's training closure, and ship the
//! encoded update back. Training itself is injected as a closure so this
//! crate stays free of model/data dependencies: the experiments binary
//! builds it from the algorithm's architecture, train config, and the
//! hosted parties, each built from its seeded data stream on first use
//! and kept for the session.
//!
//! The worker exits cleanly on EOF (the coordinator closed the session)
//! or, when configured, departs gracefully with a `Leave` frame after a
//! given round. A deterministic fault hook ([`WorkerConfig::stall_after_uploads`])
//! parks the thread forever at a chosen upload count — no wall clock —
//! so CI can SIGKILL a worker that is provably mid-round.

use std::collections::BTreeMap;

use std::io::{Read, Write};

use shiftex_fl::{CodecSpec, ModelUpdate, PartyId};

use crate::frame::{
    decode_broadcast, decode_join_ack, decode_join_chunk, decode_round_end, encode_hello,
    encode_leave, encode_upload, read_msg, write_msg, MsgKind, NetError, UploadMsg, PROTO_VERSION,
};

/// One party's local training step, supplied by the embedding binary:
/// `(stream key, party, decoded global state, seed) → update`.
pub type TrainFn<'a> = dyn FnMut(usize, PartyId, &[f32], u64) -> ModelUpdate + 'a;

/// Static configuration of one worker process.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Parties this process hosts (registered in the `Hello` handshake).
    pub parties: Vec<PartyId>,
    /// Session codec every upload is encoded under — must match the
    /// coordinator's.
    pub codec: CodecSpec,
    /// Deterministic fault injection: park the thread forever once this
    /// many uploads have been sent (the next upload never happens). The
    /// worker is then provably stalled mid-round, ready for a SIGKILL.
    pub stall_after_uploads: Option<u64>,
    /// Graceful departure: after the `RoundEnd` of this round, send a
    /// `Leave` frame for all hosted parties and exit.
    pub leave_after_round: Option<usize>,
}

impl WorkerConfig {
    /// A plain worker hosting `parties` under `codec`, no fault hooks.
    pub fn new(parties: Vec<PartyId>, codec: CodecSpec) -> Self {
        Self {
            parties,
            codec,
            stall_after_uploads: None,
            leave_after_round: None,
        }
    }
}

/// What one worker did over its session, for logs and assertions.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Regular/first-contact broadcasts received.
    pub broadcasts: u64,
    /// Join-sync chunks received.
    pub join_chunks: u64,
    /// Updates trained and uploaded.
    pub uploads: u64,
    /// `RoundEnd` frames observed.
    pub rounds_seen: u64,
    /// `true` when the session ended with a graceful `Leave`.
    pub left: bool,
    /// Hosted parties the embedding built to train on. [`serve`] builds
    /// none and leaves this 0; the embedding that owns the party data
    /// fills it in.
    pub parties_built: u64,
}

/// Reassembly state of one `(stream, party)` chunked join.
struct JoinAssembly {
    total: usize,
    round: usize,
    seed: u64,
    chunks: BTreeMap<usize, Vec<u8>>,
    /// Last round this assembly trained and uploaded for (0 = never) —
    /// re-shipped chunks of the same round must not double-train.
    uploaded_round: usize,
}

/// Runs one worker session over `stream` until the coordinator closes it.
///
/// Returns the session summary on a clean exit (EOF or graceful leave).
///
/// # Errors
///
/// Returns a [`NetError`] on socket failure, an undecodable frame, or a
/// protocol violation (wrong handshake, a broadcast for a party this
/// worker does not host, inconsistent chunk framing).
pub fn serve<S: Read + Write>(
    stream: &mut S,
    config: &WorkerConfig,
    train: &mut TrainFn<'_>,
) -> Result<WorkerSummary, NetError> {
    write_msg(stream, MsgKind::Hello, &encode_hello(&config.parties))?;
    let (kind, payload) = read_msg(stream)?;
    if kind != MsgKind::JoinAck {
        return Err(NetError::Protocol(format!(
            "expected JoinAck, got {kind:?}"
        )));
    }
    let (proto, accepted) = decode_join_ack(&payload)?;
    if proto != PROTO_VERSION || accepted != config.parties.len() {
        return Err(NetError::Protocol(format!(
            "registration rejected (proto v{proto}, {accepted} of {} parties)",
            config.parties.len()
        )));
    }

    let mut summary = WorkerSummary::default();
    let mut assemblies: BTreeMap<(usize, PartyId), JoinAssembly> = BTreeMap::new();
    loop {
        let (kind, payload) = match read_msg(stream) {
            Ok(frame) => frame,
            Err(NetError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                // Session over: the coordinator closed the socket.
                return Ok(summary);
            }
            Err(e) => return Err(e),
        };
        match kind {
            MsgKind::Broadcast => {
                let msg = decode_broadcast(&payload)?;
                if !config.parties.contains(&msg.party) {
                    return Err(NetError::Protocol(format!(
                        "broadcast for party {} which this worker does not host",
                        msg.party.0
                    )));
                }
                summary.broadcasts += 1;
                let state = CodecSpec::decode_global(msg.frame, &[])?;
                let update = train(msg.key, msg.party, &state, msg.seed);
                upload(stream, config, &mut summary, msg.key, msg.round, &update)?;
            }
            MsgKind::JoinChunk => {
                let msg = decode_join_chunk(&payload)?;
                if !config.parties.contains(&msg.party) {
                    return Err(NetError::Protocol(format!(
                        "join chunk for party {} which this worker does not host",
                        msg.party.0
                    )));
                }
                if msg.total == 0 || msg.seq >= msg.total {
                    return Err(NetError::Protocol(format!(
                        "join chunk {}/{} out of range",
                        msg.seq, msg.total
                    )));
                }
                summary.join_chunks += 1;
                let a = assemblies
                    .entry((msg.key, msg.party))
                    .or_insert_with(|| JoinAssembly {
                        total: msg.total,
                        round: msg.round,
                        seed: msg.seed,
                        chunks: BTreeMap::new(),
                        uploaded_round: 0,
                    });
                if a.total != msg.total {
                    return Err(NetError::Protocol(format!(
                        "join chunk total changed {} -> {}",
                        a.total, msg.total
                    )));
                }
                // Chunks are slices of one snapshotted frame, so re-shipped
                // bytes across rounds are identical; only the round context
                // moves forward.
                a.round = msg.round;
                a.seed = msg.seed;
                a.chunks.insert(msg.seq, msg.payload.to_vec());
                if a.chunks.len() == a.total && a.uploaded_round < a.round {
                    let frame: Vec<u8> =
                        a.chunks.values().flat_map(|c| c.iter().copied()).collect();
                    let state = CodecSpec::decode_global(&frame, &[])?;
                    let (key, round, seed) = (msg.key, a.round, a.seed);
                    a.uploaded_round = round;
                    let update = train(key, msg.party, &state, seed);
                    upload(stream, config, &mut summary, key, round, &update)?;
                }
            }
            MsgKind::RoundEnd => {
                let round = decode_round_end(&payload)?;
                summary.rounds_seen += 1;
                if config.leave_after_round.is_some_and(|r| round >= r) {
                    write_msg(stream, MsgKind::Leave, &encode_leave(&config.parties))?;
                    summary.left = true;
                    return Ok(summary);
                }
            }
            other => {
                return Err(NetError::Protocol(format!(
                    "unexpected {other:?} frame on a worker connection"
                )));
            }
        }
    }
}

/// Encodes and ships one update, honouring the stall fault hook.
fn upload<S: Read + Write>(
    stream: &mut S,
    config: &WorkerConfig,
    summary: &mut WorkerSummary,
    key: usize,
    round: usize,
    update: &ModelUpdate,
) -> Result<(), NetError> {
    if config
        .stall_after_uploads
        .is_some_and(|k| summary.uploads >= k)
    {
        // Deterministically stalled mid-round: the trained update is never
        // sent, and no wall clock is involved. The process stays parked
        // until an external signal (the CI smoke's SIGKILL) removes it.
        loop {
            std::thread::park();
        }
    }
    let frame = update.encode(&config.codec, &[]);
    let msg = UploadMsg {
        key,
        round,
        frame: &frame,
    };
    write_msg(stream, MsgKind::Upload, &encode_upload(&msg))?;
    summary.uploads += 1;
    Ok(())
}

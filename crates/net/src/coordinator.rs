//! The federation coordinator: the networked [`CohortTransport`].
//!
//! [`Coordinator`] owns one TCP connection per worker process and runs the
//! broadcast → remote-train → upload leg of each round over them: hand it
//! to [`RoundCtx::with_transport`](shiftex_fl::RoundCtx::with_transport)
//! and [`run_algorithm_round`](shiftex_fl::run_algorithm_round) uses it
//! exactly where [`LocalTransport`](shiftex_fl::LocalTransport) runs the
//! in-process exchange. The [`ScenarioEngine`] stays the single metering,
//! fate and membership authority; the coordinator only moves bytes. It
//! calls [`ScenarioEngine::broadcast`] once per exchange (which meters
//! every downlink payload on the engine's own ledger, read back through
//! [`ScenarioEngine::comm`]), encodes each frame under the spec the
//! returned delivery says was metered, and reports what really came back.
//!
//! Real failures enter the simulated accounting instead of bypassing it:
//!
//! * a worker whose socket **stalls** past the round deadline is a real
//!   straggler — its missing uploads come back as
//!   [`UploadOutcome::Lost`], which the engine's `collect` meters as
//!   aborted uploads and counts as late drops (the connection stays; late
//!   uploads are drained as stale next round);
//! * a worker whose socket **dies** (EOF, reset, desync) is real churn —
//!   its parties are pinned as mid-round dropouts for the current round
//!   (so in-flight join chunks are resolved as lost and their lost
//!   uploads count as churn) and as leavers from the next round on
//!   ([`ChurnSchedule::pin_dropout`] /
//!   [`pin_leave`](shiftex_fl::ChurnSchedule::pin_leave));
//! * a cohort party that **no worker registered** (workers launched for a
//!   different partition) is shipped nothing and lost the same way.
//!
//! Remote scope: the wire carries static, non-delta, non-error-feedback
//! codec frames (`dense` / `quant8` / `topk` without `delta`/`ef`), and
//! the scenario must not configure a wire-attack adversary (corruption is
//! applied party-side in process; a real worker would have to do it
//! itself). Both constraints are asserted.
//!
//! [`ChurnSchedule::pin_dropout`]: shiftex_fl::ChurnSchedule::pin_dropout

use std::collections::{BTreeMap, BTreeSet};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use shiftex_fl::{
    CodecSpec, CohortExchange, CohortTransport, CommLedger, LocalStepFn, ModelUpdate, PartyId,
    PopulationView, ScenarioEngine, UploadOutcome,
};

use crate::deadline::RoundDeadline;
use crate::frame::{
    decode_hello, decode_leave, decode_upload, encode_broadcast, encode_join_ack,
    encode_join_chunk, encode_round_end, read_msg, write_msg, BroadcastMsg, JoinChunkMsg, MsgKind,
    NetError, FRAME_HEADER_LEN, PROTO_VERSION,
};
use crate::stream::CountingStream;

/// Per-kind wire counters of one coordinator, all in raw socket bytes
/// (frame headers and routing contexts included).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    /// Bytes sent as `Broadcast` frames (regular + first-contact).
    pub broadcast_bytes: u64,
    /// `Broadcast` frames sent.
    pub broadcast_msgs: u64,
    /// Bytes sent as `JoinChunk` frames.
    pub join_chunk_bytes: u64,
    /// `JoinChunk` frames sent.
    pub join_chunk_msgs: u64,
    /// Bytes received as in-round `Upload` frames.
    pub upload_bytes: u64,
    /// In-round `Upload` frames received.
    pub upload_msgs: u64,
    /// Bytes received as stale or unexpected `Upload` frames (drained,
    /// not delivered — e.g. a straggler's late upload from a past round).
    pub stale_upload_bytes: u64,
    /// Stale `Upload` frames drained.
    pub stale_upload_msgs: u64,
    /// Control-plane bytes sent (`JoinAck`, `RoundEnd`).
    pub control_out_bytes: u64,
    /// Control-plane frames sent.
    pub control_out_msgs: u64,
    /// Control-plane bytes received (`Hello`, `Leave`).
    pub control_in_bytes: u64,
    /// Control-plane frames received.
    pub control_in_msgs: u64,
    /// Cohort uploads that never arrived (deadline miss, dead socket,
    /// graceful leave) — each one metered by the engine as an aborted
    /// upload.
    pub lost_uploads: u64,
    /// Rounds whose collection hit the wall-clock deadline.
    pub deadline_misses: u64,
    /// Worker connections that died (EOF, reset, protocol violation,
    /// mid-frame desync).
    pub dead_conns: u64,
    /// Worker connections that departed gracefully via `Leave`.
    pub leaves: u64,
    /// Rounds completed (`round_complete` calls).
    pub rounds: u64,
}

struct WorkerConn {
    stream: CountingStream<TcpStream>,
    parties: Vec<PartyId>,
    alive: bool,
}

/// The coordinator's end of a networked federation: worker registry,
/// party-ownership map, and the [`CohortTransport`] implementation that
/// runs rounds over the sockets.
pub struct Coordinator {
    conns: Vec<WorkerConn>,
    owner: BTreeMap<PartyId, usize>,
    codec: CodecSpec,
    deadline: Duration,
    round: usize,
    stats: NetStats,
}

impl Coordinator {
    /// Accepts exactly `workers` worker connections on `listener`, running
    /// the `Hello`/`JoinAck` registration handshake with each.
    ///
    /// `codec` is the session codec every upload frame must be encoded
    /// under (workers are configured with the same spec); `deadline` is
    /// the per-round wall-clock budget for collecting uploads.
    ///
    /// # Panics
    ///
    /// Panics when `codec` uses delta coding or error feedback — both are
    /// stateful party-side stages the remote transport does not carry.
    ///
    /// # Errors
    ///
    /// Returns a [`NetError`] on socket failure, a protocol-version
    /// mismatch, or two workers claiming the same party.
    pub fn accept(
        listener: &TcpListener,
        workers: usize,
        codec: CodecSpec,
        deadline: Duration,
    ) -> Result<Self, NetError> {
        assert!(
            !codec.delta && !codec.error_feedback,
            "remote transport carries static codec frames only (no delta / error feedback)"
        );
        let mut conns: Vec<WorkerConn> = Vec::with_capacity(workers);
        let mut owner = BTreeMap::new();
        let mut stats = NetStats::default();
        for _ in 0..workers {
            let (sock, _addr) = listener.accept()?;
            sock.set_nodelay(true)?;
            let mut stream = CountingStream::new(sock);
            let (kind, payload) = read_msg(&mut stream)?;
            if kind != MsgKind::Hello {
                return Err(NetError::Protocol(format!("expected Hello, got {kind:?}")));
            }
            stats.control_in_bytes += (FRAME_HEADER_LEN + payload.len()) as u64;
            stats.control_in_msgs += 1;
            let hello = decode_hello(&payload)?;
            if hello.proto != PROTO_VERSION {
                return Err(NetError::Protocol(format!(
                    "worker speaks protocol v{}, coordinator v{PROTO_VERSION}",
                    hello.proto
                )));
            }
            for &p in &hello.parties {
                if owner.insert(p, conns.len()).is_some() {
                    return Err(NetError::Protocol(format!(
                        "party {} registered by two workers",
                        p.0
                    )));
                }
            }
            let n = write_msg(
                &mut stream,
                MsgKind::JoinAck,
                &encode_join_ack(hello.parties.len()),
            )?;
            stats.control_out_bytes += n as u64;
            stats.control_out_msgs += 1;
            conns.push(WorkerConn {
                stream,
                parties: hello.parties,
                alive: true,
            });
        }
        Ok(Self {
            conns,
            owner,
            codec,
            deadline,
            round: 0,
            stats,
        })
    }

    /// Snapshot of the per-kind wire counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Raw bytes written across all worker sockets (counted at the
    /// stream, not reconstructed from message sizes).
    pub fn wire_written(&self) -> u64 {
        self.conns.iter().map(|c| c.stream.bytes_written()).sum()
    }

    /// Raw bytes read across all worker sockets.
    pub fn wire_read(&self) -> u64 {
        self.conns.iter().map(|c| c.stream.bytes_read()).sum()
    }

    /// Worker connections still alive.
    pub fn live_workers(&self) -> usize {
        self.conns.iter().filter(|c| c.alive).count()
    }

    /// Parties registered at the handshake, across all workers.
    pub fn registered_parties(&self) -> usize {
        self.owner.len()
    }

    /// Closes every worker socket; workers observe EOF and exit.
    pub fn shutdown(self) -> NetStats {
        self.stats
    }

    /// Marks a connection dead and pins its real churn into the engine's
    /// schedule: every hosted party leaves from the next round on.
    fn bury(&mut self, ci: usize, engine: &mut ScenarioEngine, round: usize) {
        let conn = &mut self.conns[ci];
        if !conn.alive {
            return;
        }
        conn.alive = false;
        self.stats.dead_conns += 1;
        for &p in &conn.parties {
            engine.churn_mut().pin_leave(p, round + 1);
        }
    }
}

impl CohortTransport for Coordinator {
    /// Runs one stream's exchange over the sockets: meters the broadcast
    /// through the engine, ships the identical encoded frames to the
    /// owning workers, then collects uploads under the round deadline.
    /// Outcomes come back in cohort order, as the seam requires.
    fn exchange(
        &mut self,
        x: &CohortExchange<'_>,
        _live: &PopulationView<'_>,
        engine: &mut ScenarioEngine,
        _ledger: Option<&CommLedger>,
        _local_step: &mut LocalStepFn<'_>,
    ) -> Vec<UploadOutcome> {
        assert_eq!(
            *x.codec, self.codec,
            "round codec diverged from the session codec workers encode under \
             (adaptive codec control is not supported remotely)"
        );
        assert!(
            engine.spec().attack.is_none(),
            "wire-attack scenarios corrupt updates party-side in process; \
             the remote transport does not reproduce them"
        );
        let round = engine.round();
        self.round = round;
        // Single metering authority: this call records every downlink
        // payload (regular, first-contact, join chunks) on the engine's
        // ledger and advances the join-sync state machines. What ships
        // below is the byte-identical realisation of what was just metered.
        let bcast = engine.broadcast(x.key, x.globals, x.codec, x.cohort);
        let mut reg_frame: Option<Vec<u8>> = None;
        let mut fc_frame: Option<Vec<u8>> = None;
        let mut newly_dead: BTreeSet<usize> = BTreeSet::new();

        for (i, &p) in x.cohort.iter().enumerate() {
            let seed = x.seeds[i];
            // A party no worker registered is shipped nothing; it is lost
            // below like a party on a dead worker.
            let Some(&ci) = self.owner.get(&p) else {
                continue;
            };
            if !self.conns[ci].alive || newly_dead.contains(&ci) {
                continue;
            }
            let fresh = bcast.fresh.contains(&p);
            let sent: Result<(), NetError> = if fresh && bcast.fresh_spec.is_none() {
                // Ship exactly the chunks `ship_missing` just put in
                // flight (and metered); the worker reassembles the
                // snapshot frame and trains from its decode, same as the
                // engine's optimistic `join_states` entry.
                let sync = engine
                    .join_sync(x.key, p)
                    // lint:allow(panic): with no monolithic first-contact frame `broadcast` just began a sync for every fresh party
                    .expect("fresh party under chunked joins has a sync");
                let total = sync.num_chunks();
                let mut res = Ok(());
                for seq in sync.in_flight_chunks() {
                    let msg = JoinChunkMsg {
                        key: x.key,
                        round,
                        party: p,
                        seed,
                        seq,
                        total,
                        payload: sync.chunk_payload(seq),
                    };
                    match write_msg(
                        &mut self.conns[ci].stream,
                        MsgKind::JoinChunk,
                        &encode_join_chunk(&msg),
                    ) {
                        Ok(n) => {
                            self.stats.join_chunk_bytes += n as u64;
                            self.stats.join_chunk_msgs += 1;
                        }
                        Err(e) => {
                            res = Err(e);
                            break;
                        }
                    }
                }
                res
            } else {
                // Frames are encoded at most once per exchange and reused
                // for every recipient — identical bytes, identical
                // metering.
                let frame: &[u8] = match bcast.fresh_spec {
                    Some(spec) if fresh => {
                        fc_frame.get_or_insert_with(|| spec.encode_global(x.globals, &[]))
                    }
                    _ => reg_frame.get_or_insert_with(|| bcast.spec.encode_global(x.globals, &[])),
                };
                let msg = BroadcastMsg {
                    key: x.key,
                    round,
                    party: p,
                    seed,
                    frame,
                };
                write_msg(
                    &mut self.conns[ci].stream,
                    MsgKind::Broadcast,
                    &encode_broadcast(&msg),
                )
                .map(|n| {
                    self.stats.broadcast_bytes += n as u64;
                    self.stats.broadcast_msgs += 1;
                })
            };
            if sent.is_err() {
                newly_dead.insert(ci);
            }
        }

        // Collect uploads per connection under the shared round deadline.
        let mut expected: BTreeMap<usize, BTreeSet<PartyId>> = BTreeMap::new();
        for &p in x.cohort {
            let Some(&ci) = self.owner.get(&p) else {
                continue;
            };
            if self.conns[ci].alive && !newly_dead.contains(&ci) {
                expected.entry(ci).or_default().insert(p);
            }
        }
        let mut received: BTreeMap<PartyId, ModelUpdate> = BTreeMap::new();
        let deadline = RoundDeadline::start(self.deadline);
        for (ci, mut want) in expected {
            let conn = &mut self.conns[ci];
            while !want.is_empty() {
                let Some(rem) = deadline.remaining() else {
                    // Budget exhausted: every upload still owed on any
                    // connection is a straggler loss.
                    self.stats.deadline_misses += 1;
                    break;
                };
                if conn.stream.get_ref().set_read_timeout(Some(rem)).is_err() {
                    newly_dead.insert(ci);
                    break;
                }
                let before = conn.stream.bytes_read();
                match read_msg(&mut conn.stream) {
                    Ok((MsgKind::Upload, payload)) => {
                        let wire = (FRAME_HEADER_LEN + payload.len()) as u64;
                        let Ok(msg) = decode_upload(&payload) else {
                            newly_dead.insert(ci);
                            break;
                        };
                        if msg.key != x.key || msg.round != round {
                            // A straggler's late upload from a past round:
                            // drained and discarded, never delivered.
                            self.stats.stale_upload_bytes += wire;
                            self.stats.stale_upload_msgs += 1;
                            continue;
                        }
                        let Ok(update) = ModelUpdate::decode(msg.frame, &[]) else {
                            newly_dead.insert(ci);
                            break;
                        };
                        if want.remove(&update.party) {
                            self.stats.upload_bytes += wire;
                            self.stats.upload_msgs += 1;
                            received.insert(update.party, update);
                        } else {
                            self.stats.stale_upload_bytes += wire;
                            self.stats.stale_upload_msgs += 1;
                        }
                    }
                    Ok((MsgKind::Leave, payload)) => {
                        self.stats.control_in_bytes += (FRAME_HEADER_LEN + payload.len()) as u64;
                        self.stats.control_in_msgs += 1;
                        self.stats.leaves += 1;
                        let _ = decode_leave(&payload);
                        newly_dead.insert(ci);
                        break;
                    }
                    Ok((kind, _)) => {
                        // Anything else mid-collection is a protocol
                        // violation; the connection cannot be trusted.
                        let _ = kind;
                        newly_dead.insert(ci);
                        break;
                    }
                    Err(e) if e.is_timeout() => {
                        self.stats.deadline_misses += 1;
                        if conn.stream.bytes_read() != before {
                            // Timed out mid-frame: the stream is desynced
                            // and unrecoverable.
                            newly_dead.insert(ci);
                        }
                        break;
                    }
                    Err(_) => {
                        newly_dead.insert(ci);
                        break;
                    }
                }
            }
        }

        // Real churn enters the simulated schedule before the driver's
        // `collect` resolves the round.
        for &ci in &newly_dead {
            self.bury(ci, engine, round);
        }
        x.cohort
            .iter()
            .map(|&p| match received.remove(&p) {
                Some(update) => UploadOutcome::Delivered(update),
                None => {
                    let owner = self.owner.get(&p).copied();
                    if !owner.is_some_and(|ci| self.conns[ci].alive) {
                        // A really-dead worker also loses the join chunks
                        // in flight to it; a merely-late one physically
                        // received them, so only its upload is charged.
                        engine.churn_mut().pin_dropout(p, round);
                    }
                    if owner.is_none() {
                        // No worker hosts it (mis-launched workers): it
                        // can never upload, so it leaves like a party on
                        // a dead worker.
                        engine.churn_mut().pin_leave(p, round + 1);
                    }
                    self.stats.lost_uploads += 1;
                    UploadOutcome::Lost(p)
                }
            })
            .collect()
    }

    /// Ends the round on the wire: every live worker gets a `RoundEnd`
    /// frame (so it can discard stale per-round state). Connections that
    /// die here are buried like any other dead socket.
    fn round_complete(&mut self, engine: &mut ScenarioEngine) {
        let round = engine.round();
        let mut dead = Vec::new();
        for (ci, conn) in self.conns.iter_mut().enumerate() {
            if !conn.alive {
                continue;
            }
            match write_msg(
                &mut conn.stream,
                MsgKind::RoundEnd,
                &encode_round_end(round),
            ) {
                Ok(n) => {
                    self.stats.control_out_bytes += n as u64;
                    self.stats.control_out_msgs += 1;
                }
                Err(_) => dead.push(ci),
            }
        }
        for ci in dead {
            self.bury(ci, engine, round);
        }
        self.stats.rounds += 1;
    }
}

//! Networked federation over std TCP: real coordinator/worker processes
//! speaking a length-prefixed wire protocol that carries the existing
//! [`shiftex_fl::codec`] frames unchanged.
//!
//! The simulator's round driver already has a transport seam
//! ([`shiftex_fl::CohortTransport`]); this crate provides the networked
//! implementation:
//!
//! * [`frame`] — `[kind][len][payload]` framing and the seven message
//!   kinds (`Hello`, `JoinAck`, `Broadcast`, `JoinChunk`, `Upload`,
//!   `RoundEnd`, `Leave`), with public overhead constants so socket bytes
//!   reconcile exactly against [`CommLedger`](shiftex_fl::CommLedger)
//!   totals;
//! * [`stream`] — a byte-counting stream wrapper, the ground truth for
//!   the wire-byte honesty tests;
//! * [`deadline`] — the per-round wall-clock budget, the crate's only
//!   clock site (everything it decides flows back into deterministic
//!   accounting);
//! * [`coordinator`] — the [`CohortTransport`](shiftex_fl::CohortTransport)
//!   that runs rounds over worker sockets, mapping real socket fates onto
//!   the engine's churn/straggler accounting;
//! * [`worker`] — the party-hosting side: decode broadcasts, train via an
//!   injected closure, upload encoded updates.
//!
//! Dense synchronous rounds over loopback are bit-identical — model
//! parameters and [`CommTotals`](shiftex_fl::CommTotals) — to the
//! in-process driver on the same seed (pinned by the loopback parity
//! test in `shiftex-experiments`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod deadline;
pub mod frame;
pub mod stream;
pub mod worker;

pub use coordinator::{Coordinator, NetStats};
pub use deadline::RoundDeadline;
pub use frame::{
    MsgKind, NetError, BROADCAST_CTX_LEN, FRAME_HEADER_LEN, JOIN_CHUNK_CTX_LEN, MAX_FRAME_LEN,
    PROTO_VERSION, UPLOAD_CTX_LEN,
};
pub use stream::CountingStream;
pub use worker::{serve, TrainFn, WorkerConfig, WorkerSummary};

//! Communication accounting: upload/download byte ledger shared across
//! threads.

use std::sync::{Mutex, MutexGuard, PoisonError};

use serde::{Deserialize, Serialize};

/// Aggregate communication counters for one simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommTotals {
    /// Bytes uploaded party → aggregator.
    pub up_bytes: u64,
    /// Bytes downloaded aggregator → party.
    pub down_bytes: u64,
    /// Message count in either direction.
    pub messages: u64,
    /// Bytes of aborted/late uploads (dropped stragglers, mid-round churn):
    /// traffic a party paid for that never became an aggregated update.
    pub aborted_up_bytes: u64,
    /// Count of aborted/late uploads.
    pub aborted_messages: u64,
    /// Bytes of first-contact downlinks: self-contained full-state frames
    /// sent to parties that hold no broadcast reference yet (new joiners,
    /// round-1 cohorts). Metered separately from `down_bytes` so comm
    /// tables under delta/sparse codecs do not silently undercount joins.
    pub first_contact_down_bytes: u64,
    /// Count of first-contact downlinks.
    pub first_contact_messages: u64,
    /// Bytes of uploads a robust fold quarantined. Unlike aborted traffic
    /// these payloads *completed* — the bytes are already in `up_bytes` —
    /// so this is an overlay counter: wire spend whose update was rejected
    /// at aggregation time.
    pub quarantined_up_bytes: u64,
    /// Count of quarantined uploads.
    pub quarantined_updates: u64,
    /// Bytes of chunked join-sync downlinks: bounded-size slices of a
    /// first-contact full-state frame shipped by a
    /// [`JoinSync`](crate::JoinSync) state machine, re-shipped slices
    /// included. Kept off `first_contact_down_bytes` so the monolithic and
    /// chunked join paths stay separately auditable.
    pub join_chunk_down_bytes: u64,
    /// Count of join-sync chunks shipped.
    pub join_chunk_messages: u64,
    /// Overlay: join-path bytes (monolithic first-contact frames or
    /// individual chunks) whose delivery was lost to mid-round churn. The
    /// spend stays in its primary counter; this records what of it bought
    /// no state, mirroring the lost-upload refund rules on the uplink.
    pub join_lost_down_bytes: u64,
    /// Count of lost join frames/chunks.
    pub join_lost_messages: u64,
}

/// Thread-safe communication ledger.
///
/// Every simulated exchange is metered here, which is how the harness
/// reports ShiftEx's communication overhead next to the baselines'.
#[derive(Debug, Default)]
pub struct CommLedger {
    totals: Mutex<CommTotals>,
}

impl CommLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counters, poison-tolerant: every update is a plain add, so a
    /// holder that panicked cannot have left them inconsistent.
    fn lock(&self) -> MutexGuard<'_, CommTotals> {
        self.totals.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records a party → aggregator payload.
    pub fn record_upload(&self, bytes: usize) {
        let mut t = self.lock();
        t.up_bytes += bytes as u64;
        t.messages += 1;
    }

    /// Records an aggregator → party payload.
    pub fn record_download(&self, bytes: usize) {
        let mut t = self.lock();
        t.down_bytes += bytes as u64;
        t.messages += 1;
    }

    /// Records an aggregator → party full-state payload for a recipient
    /// with no broadcast reference (first contact on a stream). Counted as
    /// a real message but kept on distinct byte/message counters — see
    /// [`CommTotals::first_contact_down_bytes`].
    pub fn record_first_contact_download(&self, bytes: usize) {
        let mut t = self.lock();
        t.first_contact_down_bytes += bytes as u64;
        t.first_contact_messages += 1;
        t.messages += 1;
    }

    /// Records a party → aggregator upload that was aborted or discarded
    /// (mid-round dropout, or a straggler past the deadline under a drop
    /// policy). Kept separate from successful traffic so overhead reports
    /// stay honest under churn: the bytes were spent, the update wasn't.
    pub fn record_aborted_upload(&self, bytes: usize) {
        let mut t = self.lock();
        t.aborted_up_bytes += bytes as u64;
        t.aborted_messages += 1;
    }

    /// Records a delivered party → aggregator upload that a robust fold
    /// then quarantined. The upload already hit `up_bytes` when it shipped;
    /// this overlays the rejection so robustness tables can report what the
    /// federation paid for updates it refused to aggregate.
    pub fn record_quarantined_upload(&self, bytes: usize) {
        let mut t = self.lock();
        t.quarantined_up_bytes += bytes as u64;
        t.quarantined_updates += 1;
    }

    /// Records `chunks` join-sync chunk downlinks totalling `bytes` (each
    /// chunk is a real message). Chunked joins are metered here instead of
    /// [`CommLedger::record_first_contact_download`] so the two join paths
    /// never double-count.
    pub fn record_join_chunks(&self, bytes: usize, chunks: usize) {
        let mut t = self.lock();
        t.join_chunk_down_bytes += bytes as u64;
        t.join_chunk_messages += chunks as u64;
        t.messages += chunks as u64;
    }

    /// Records `frames` join-path downlinks totalling `bytes` that were
    /// lost to mid-round churn before the recipient could use them. Overlay
    /// only: the spend already hit its primary counter when it shipped, so
    /// neither bytes nor messages are re-counted here.
    pub fn record_join_loss(&self, bytes: usize, frames: usize) {
        let mut t = self.lock();
        t.join_lost_down_bytes += bytes as u64;
        t.join_lost_messages += frames as u64;
    }

    /// Snapshot of the counters.
    pub fn totals(&self) -> CommTotals {
        *self.lock()
    }

    /// Resets all counters.
    pub fn reset(&self) {
        *self.lock() = CommTotals::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_both_directions() {
        let ledger = CommLedger::new();
        ledger.record_upload(100);
        ledger.record_download(40);
        ledger.record_upload(60);
        let t = ledger.totals();
        assert_eq!(t.up_bytes, 160);
        assert_eq!(t.down_bytes, 40);
        assert_eq!(t.messages, 3);
    }

    #[test]
    fn aborted_uploads_are_metered_separately() {
        let ledger = CommLedger::new();
        ledger.record_upload(100);
        ledger.record_aborted_upload(70);
        ledger.record_aborted_upload(30);
        let t = ledger.totals();
        assert_eq!(t.up_bytes, 100);
        assert_eq!(t.messages, 1, "aborted uploads are not successful messages");
        assert_eq!(t.aborted_up_bytes, 100);
        assert_eq!(t.aborted_messages, 2);
    }

    #[test]
    fn first_contact_downloads_are_metered_separately() {
        let ledger = CommLedger::new();
        ledger.record_download(100);
        ledger.record_first_contact_download(400);
        let t = ledger.totals();
        assert_eq!(t.down_bytes, 100);
        assert_eq!(t.first_contact_down_bytes, 400);
        assert_eq!(t.first_contact_messages, 1);
        assert_eq!(t.messages, 2, "a first-contact frame is a real message");
    }

    #[test]
    fn quarantined_uploads_overlay_successful_traffic() {
        let ledger = CommLedger::new();
        ledger.record_upload(100);
        ledger.record_upload(100);
        ledger.record_quarantined_upload(100);
        let t = ledger.totals();
        assert_eq!(t.up_bytes, 200, "quarantine never un-counts the upload");
        assert_eq!(t.quarantined_up_bytes, 100);
        assert_eq!(t.quarantined_updates, 1);
        assert_eq!(t.messages, 2, "a quarantined upload is not a new message");
    }

    #[test]
    fn join_chunks_are_messages_but_losses_are_overlay() {
        let ledger = CommLedger::new();
        ledger.record_join_chunks(300, 3);
        ledger.record_join_loss(100, 1);
        let t = ledger.totals();
        assert_eq!(t.join_chunk_down_bytes, 300);
        assert_eq!(t.join_chunk_messages, 3);
        assert_eq!(t.messages, 3, "every shipped chunk is a real message");
        assert_eq!(t.join_lost_down_bytes, 100);
        assert_eq!(t.join_lost_messages, 1);
        assert_eq!(
            t.down_bytes, 0,
            "chunked joins never touch the regular downlink counter"
        );
        assert_eq!(t.first_contact_down_bytes, 0);
    }

    #[test]
    fn reset_clears() {
        let ledger = CommLedger::new();
        ledger.record_upload(10);
        ledger.reset();
        assert_eq!(ledger.totals(), CommTotals::default());
    }

    #[test]
    fn ledger_is_thread_safe() {
        let ledger = std::sync::Arc::new(CommLedger::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let l = ledger.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    l.record_upload(1);
                }
            }));
        }
        for h in handles {
            h.join().expect("no panics");
        }
        assert_eq!(ledger.totals().up_bytes, 4000);
    }
}

//! Windowed ingestion engine with watermark-driven emission.
//!
//! Stands in for the per-party Kafka/Flink pipeline of the paper's
//! architecture (§3.2): records arrive in event-time order (or mildly out of
//! order), are buffered into every window that covers them, and a window is
//! *emitted* once the watermark passes its end. Sliding windows duplicate
//! records across overlapping windows, tumbling windows partition them.

use std::sync::mpsc::channel;

use crate::source::Record;
use crate::window::WindowSpec;

/// A completed window handed to the learning layer.
#[derive(Debug, Clone, PartialEq)]
pub struct EmittedWindow {
    /// Window index under the engine's [`WindowSpec`].
    pub index: u64,
    /// Records whose timestamps fall inside the window, in arrival order.
    pub records: Vec<Record>,
}

/// Buffers records into windows and emits completed windows.
#[derive(Debug)]
pub struct WindowedIngest {
    spec: WindowSpec,
    buffers: std::collections::BTreeMap<u64, Vec<Record>>,
    watermark: u64,
    emitted_through: Option<u64>,
}

impl WindowedIngest {
    /// Creates an engine with the given windowing policy.
    pub fn new(spec: WindowSpec) -> Self {
        Self {
            spec,
            buffers: std::collections::BTreeMap::new(),
            watermark: 0,
            emitted_through: None,
        }
    }

    /// The windowing policy.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// Current watermark (maximum observed timestamp).
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Ingests one record, returning any windows completed by the advancing
    /// watermark (in index order).
    pub fn ingest(&mut self, record: Record) -> Vec<EmittedWindow> {
        self.watermark = self.watermark.max(record.ts);
        for idx in self.spec.windows_covering(record.ts) {
            self.buffers.entry(idx).or_default().push(record.clone());
        }
        self.drain_complete()
    }

    /// Emits every buffered window the watermark has passed.
    fn drain_complete(&mut self) -> Vec<EmittedWindow> {
        let mut out = Vec::new();
        let ready: Vec<u64> = self
            .buffers
            .keys()
            .copied()
            .take_while(|&idx| self.spec.is_complete(idx, self.watermark))
            .collect();
        for idx in ready {
            let records = self.buffers.remove(&idx).unwrap_or_default();
            self.emitted_through = Some(idx);
            out.push(EmittedWindow {
                index: idx,
                records,
            });
        }
        out
    }

    /// Flushes all remaining windows at end-of-stream.
    pub fn flush(&mut self) -> Vec<EmittedWindow> {
        let mut out = Vec::new();
        while let Some((&idx, _)) = self.buffers.iter().next() {
            let records = self.buffers.remove(&idx).unwrap_or_default();
            out.push(EmittedWindow {
                index: idx,
                records,
            });
        }
        out
    }
}

/// Runs a producer/consumer pipeline: records sent on a channel are windowed
/// on a consumer thread; the full set of emitted windows is returned.
///
/// This demonstrates the streaming topology; the experiment harness calls
/// the engine synchronously for determinism.
pub fn run_pipeline(spec: WindowSpec, records: Vec<Record>) -> Vec<EmittedWindow> {
    let (tx, rx) = channel::<Record>();
    let consumer = std::thread::spawn(move || {
        let mut engine = WindowedIngest::new(spec);
        let mut emitted = Vec::new();
        for record in rx.iter() {
            emitted.extend(engine.ingest(record));
        }
        emitted.extend(engine.flush());
        emitted
    });
    for r in records {
        tx.send(r).expect("consumer alive");
    }
    drop(tx);
    consumer.join().expect("consumer thread panicked")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(ts: u64) -> Record {
        Record {
            ts,
            x: vec![ts as f32],
            y: 0,
        }
    }

    #[test]
    fn tumbling_emission_partitions_records() {
        let mut engine = WindowedIngest::new(WindowSpec::tumbling(10));
        let mut emitted = Vec::new();
        for ts in [1u64, 5, 9, 11, 15, 21] {
            emitted.extend(engine.ingest(record(ts)));
        }
        emitted.extend(engine.flush());
        let total: usize = emitted.iter().map(|w| w.records.len()).sum();
        assert_eq!(total, 6, "tumbling windows must partition the stream");
        assert_eq!(emitted[0].index, 0);
        assert_eq!(emitted[0].records.len(), 3);
    }

    #[test]
    fn window_not_emitted_before_watermark() {
        let mut engine = WindowedIngest::new(WindowSpec::tumbling(10));
        assert!(engine.ingest(record(5)).is_empty());
        // ts=10 completes window 0.
        let emitted = engine.ingest(record(10));
        assert_eq!(emitted.len(), 1);
        assert_eq!(emitted[0].index, 0);
    }

    #[test]
    fn sliding_windows_duplicate_records() {
        let mut engine = WindowedIngest::new(WindowSpec::sliding(10, 5));
        let mut emitted = Vec::new();
        for ts in [7u64, 12, 25] {
            emitted.extend(engine.ingest(record(ts)));
        }
        emitted.extend(engine.flush());
        // ts=7 belongs to windows [0,10) and [5,15).
        let w0 = emitted.iter().find(|w| w.index == 0).expect("window 0");
        let w1 = emitted.iter().find(|w| w.index == 1).expect("window 1");
        assert!(w0.records.iter().any(|r| r.ts == 7));
        assert!(w1.records.iter().any(|r| r.ts == 7));
    }

    #[test]
    fn pipeline_matches_synchronous_engine() {
        let records: Vec<Record> = (0..100u64).map(record).collect();
        let spec = WindowSpec::tumbling(16);
        let piped = run_pipeline(spec, records.clone());

        let mut engine = WindowedIngest::new(spec);
        let mut sync = Vec::new();
        for r in records {
            sync.extend(engine.ingest(r));
        }
        sync.extend(engine.flush());
        assert_eq!(piped, sync);
    }

    #[test]
    fn flush_is_idempotent() {
        let mut engine = WindowedIngest::new(WindowSpec::tumbling(10));
        engine.ingest(record(3));
        assert_eq!(engine.flush().len(), 1);
        assert!(engine.flush().is_empty());
    }
}

//! Registry snapshots: serialise / restore the expert pool and assignment
//! map.
//!
//! The conclusion frames expert reuse and consolidation as middleware
//! "service discovery"; a service registry must survive aggregator restarts.
//! Snapshots capture everything needed to resume serving *and detecting*
//! — expert parameters, latent memories, cohort assignments, calibrated
//! thresholds, and the calibrated kernel and frozen encoder those
//! thresholds and memories are only meaningful under — as a single JSON
//! document. [`ShiftEx::snapshot`](crate::ShiftEx::snapshot) takes one,
//! [`ShiftEx::restore`](crate::ShiftEx::restore) resumes from it.

use serde::{Deserialize, Serialize};
use shiftex_detect::{CalibratedThresholds, RbfKernel};
use shiftex_fl::PartyId;

use crate::registry::{ExpertId, ExpertRegistry};

/// A point-in-time snapshot of the aggregator's serving state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// Schema version for forward compatibility.
    pub version: u32,
    /// Window index the snapshot was taken at.
    pub window: usize,
    /// The expert pool (parameters + latent memories).
    pub registry: ExpertRegistry,
    /// Party → expert assignment at snapshot time.
    pub assignment: Vec<(PartyId, ExpertId)>,
    /// Personalised (sub-γ fine-tuned) parameters per party.
    pub personal: Vec<(PartyId, Vec<f32>)>,
    /// Calibrated thresholds, if calibration had run.
    pub thresholds: Option<CalibratedThresholds>,
    /// The kernel fixed at calibration time; every MMD compared against
    /// `thresholds.delta_cov` must be scored under this bandwidth.
    pub kernel: Option<RbfKernel>,
    /// θ0 — the frozen encoder the latent memories were embedded with, and
    /// the template new experts are cloned from.
    pub frozen_params: Vec<f32>,
}

/// Current snapshot schema version (2 added `kernel` and `frozen_params`;
/// version-1 documents are refused).
pub const SNAPSHOT_VERSION: u32 = 2;

impl RegistrySnapshot {
    /// Serialises to JSON.
    ///
    /// # Errors
    ///
    /// Returns any serde error (cannot occur for well-formed snapshots).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Restores from JSON, validating the schema version.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Parse`] for malformed JSON and
    /// [`SnapshotError::Version`] for an unknown schema version.
    pub fn from_json(json: &str) -> Result<Self, SnapshotError> {
        // Probe the version first: an older document lacks fields, so
        // parsing it as the current schema would misreport a parse error.
        #[derive(Deserialize)]
        struct Header {
            version: u32,
        }
        let header: Header = serde_json::from_str(json).map_err(SnapshotError::Parse)?;
        if header.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::Version(header.version));
        }
        serde_json::from_str(json).map_err(SnapshotError::Parse)
    }
}

/// Errors restoring a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// JSON parse failure.
    Parse(serde_json::Error),
    /// Unsupported schema version.
    Version(u32),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Parse(e) => write!(f, "snapshot parse error: {e}"),
            SnapshotError::Version(v) => write!(f, "unsupported snapshot version {v}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ShiftEx, ShiftExConfig};
    use rand::{rngs::StdRng, SeedableRng};
    use shiftex_data::{ImageShape, PrototypeGenerator};
    use shiftex_fl::{
        run_algorithm_round, FederatedAlgorithm, Party, PopulationStore, RoundCtx, ScenarioEngine,
        ScenarioSpec,
    };
    use shiftex_nn::ArchSpec;

    fn booted() -> (ShiftEx, PopulationStore, StdRng) {
        let mut rng = StdRng::seed_from_u64(0);
        let gen = PrototypeGenerator::new(ImageShape::new(1, 8, 8), 4, &mut rng);
        let parties: Vec<Party> = (0..6)
            .map(|i| {
                Party::new(
                    PartyId(i),
                    gen.generate_uniform(30, &mut rng),
                    gen.generate_uniform(15, &mut rng),
                )
            })
            .collect();
        let store = PopulationStore::from_parties(parties);
        let mut engine = ScenarioEngine::new(ScenarioSpec::sync(0), &store.party_ids());
        let spec = ArchSpec::mlp("t", 64, &[16], 4);
        let mut sx = ShiftEx::new(ShiftExConfig::default(), spec, &mut rng);
        sx.init(&store.view(store.party_ids()), &mut rng);
        for _ in 0..3 {
            run_algorithm_round(&mut sx, &mut RoundCtx::new(&store, &mut engine), &mut rng);
        }
        (sx, store, rng)
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let (sx, _store, _rng) = booted();
        let snap = sx.snapshot();
        let json = snap.to_json().expect("serialises");
        let back = RegistrySnapshot::from_json(&json).expect("parses");
        assert_eq!(back, snap);
    }

    /// The round trip above cannot see a byte change in the checkpoint
    /// format (a renamed field, a reordered key, a float printed another
    /// way) as long as both directions change together; this pin can.
    #[test]
    fn snapshot_json_bytes_are_pinned() {
        let (sx, _store, _rng) = booted();
        let json = sx.snapshot().to_json().expect("serialises");
        let hash = json.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(
            (json.len(), hash),
            (69_215, 0x3fe4_79c7_0538_3ad4),
            "snapshot JSON bytes moved: (len, fnv1a) = ({}, {hash:#018x})",
            json.len()
        );
    }

    #[test]
    fn restore_recovers_serving_state() {
        let (sx, store, mut rng) = booted();
        let view = store.view(store.party_ids());
        let before = sx.eval(&view);
        let snap = sx.snapshot();

        // A "fresh aggregator process" restores the snapshot.
        let mut fresh = ShiftEx::new(ShiftExConfig::default(), sx.spec().clone(), &mut rng);
        fresh.restore(snap);
        assert_eq!(fresh.num_experts(), sx.num_experts());
        assert_eq!(fresh.assignments(), sx.assignments());
        assert_eq!(
            before.to_bits(),
            fresh.eval(&view).to_bits(),
            "restored accuracy must match"
        );
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let (sx, _store, _rng) = booted();
        let mut snap = sx.snapshot();
        snap.version = 99;
        let json = snap.to_json().unwrap();
        assert!(matches!(
            RegistrySnapshot::from_json(&json),
            Err(SnapshotError::Version(99))
        ));
    }

    #[test]
    fn version_1_document_is_refused_by_version_not_by_shape() {
        /// The version-1 schema: no kernel, no frozen parameters.
        #[derive(Serialize)]
        struct V1 {
            version: u32,
            window: usize,
            registry: ExpertRegistry,
            assignment: Vec<(PartyId, ExpertId)>,
            personal: Vec<(PartyId, Vec<f32>)>,
            thresholds: Option<CalibratedThresholds>,
        }
        let (sx, _store, _rng) = booted();
        let snap = sx.snapshot();
        let v1 = V1 {
            version: 1,
            window: snap.window,
            registry: snap.registry,
            assignment: snap.assignment,
            personal: snap.personal,
            thresholds: snap.thresholds,
        };
        let json = serde_json::to_string(&v1).unwrap();
        assert!(matches!(
            RegistrySnapshot::from_json(&json),
            Err(SnapshotError::Version(1))
        ));
    }

    #[test]
    fn garbage_json_is_rejected() {
        assert!(matches!(
            RegistrySnapshot::from_json("not json"),
            Err(SnapshotError::Parse(_))
        ));
    }
}

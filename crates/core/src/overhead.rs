//! Space/time overhead accounting — §5.4 of the paper.
//!
//! "On the party side, each device stores a single d-dimensional feature
//! vector, resulting in O(d) storage per party. On the aggregator side,
//! memory is required for storing expert centroids (O(k·d)), party-to-expert
//! mappings (O(n)), and a fixed-size reference dataset used for MMD-based
//! drift detection. The total aggregator-side space overhead is
//! O(k·d + n·d + m·D)."

/// Byte-level space accounting for one deployment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverheadReport {
    /// Party-side bytes: one d-dimensional f32 feature vector.
    pub party_bytes: u64,
    /// Expert latent centroids: `k · d` floats.
    pub centroid_bytes: u64,
    /// Party → expert mapping: `n` u32 entries.
    pub mapping_bytes: u64,
    /// Reference dataset for drift detection: `m · D` floats.
    pub reference_bytes: u64,
    /// Stored expert models: `k · P` floats (the "group of experts" term).
    pub expert_model_bytes: u64,
    /// Grand total on the aggregator.
    pub aggregator_total_bytes: u64,
}

/// Computes the §5.4 space envelope.
///
/// * `k` — number of experts
/// * `d` — embedding dimensionality (2048 for ResNet-50)
/// * `n` — number of parties
/// * `m` — reference-set size
/// * `data_dim` — dimensionality `D` of one raw reference sample
/// * `model_params` — parameter count `P` of one expert model
pub fn space_overhead(
    k: usize,
    d: usize,
    n: usize,
    m: usize,
    data_dim: usize,
    model_params: usize,
) -> OverheadReport {
    let f = 4u64; // f32 bytes
    let party_bytes = d as u64 * f;
    let centroid_bytes = (k * d) as u64 * f;
    let mapping_bytes = n as u64 * 4;
    let reference_bytes = (m * data_dim) as u64 * f;
    let expert_model_bytes = (k * model_params) as u64 * f;
    OverheadReport {
        party_bytes,
        centroid_bytes,
        mapping_bytes,
        reference_bytes,
        expert_model_bytes,
        aggregator_total_bytes: centroid_bytes
            + mapping_bytes
            + reference_bytes
            + expert_model_bytes,
    }
}

/// The paper's concrete configuration (§7 "ShiftEx Overheads"): ResNet-50
/// embeddings (d = 2048), 5 expert centroids, 200 parties, 200 reference
/// RGB images at 224×224×3, and up to 6 experts of ≈100 MB each.
pub fn paper_configuration() -> OverheadReport {
    // ResNet-50 ≈ 25.6 M parameters ≈ 100 MB of f32.
    space_overhead(5, 2048, 200, 200, 224 * 224 * 3, 25_600_000)
}

impl OverheadReport {
    /// Pretty multi-line rendering in the units the paper uses.
    pub fn render(&self) -> String {
        fn fmt(bytes: u64) -> String {
            if bytes >= 1 << 20 {
                format!("{:.1} MB", bytes as f64 / (1 << 20) as f64)
            } else if bytes >= 1 << 10 {
                format!("{:.1} KB", bytes as f64 / (1 << 10) as f64)
            } else {
                format!("{bytes} B")
            }
        }
        format!(
            "party storage:        {}\n\
             expert centroids:     {}\n\
             party->expert map:    {}\n\
             reference dataset:    {}\n\
             expert models:        {}\n\
             aggregator total:     {}",
            fmt(self.party_bytes),
            fmt(self.centroid_bytes),
            fmt(self.mapping_bytes),
            fmt(self.reference_bytes),
            fmt(self.expert_model_bytes),
            fmt(self.aggregator_total_bytes),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration_matches_reported_envelope() {
        let r = paper_configuration();
        // Paper: centroids ≈ 40 KB (5 × 2048 × 4B).
        assert_eq!(r.centroid_bytes, 5 * 2048 * 4);
        // Paper: mappings ≈ 0.8 KB (200 × 4B).
        assert_eq!(r.mapping_bytes, 800);
        // Paper: reference set of 200 × 224×224×3 float32 ≈ 115 MB... the
        // paper reports ≈714 MB *total* including ≈600 MB of experts; our
        // total must land in the same few-hundred-MB envelope.
        let total_mb = r.aggregator_total_bytes as f64 / (1u64 << 20) as f64;
        assert!(
            (300.0..2000.0).contains(&total_mb),
            "total {total_mb} MB outside paper envelope"
        );
    }

    #[test]
    fn party_cost_is_linear_in_d() {
        let a = space_overhead(1, 100, 1, 1, 1, 1);
        let b = space_overhead(1, 200, 1, 1, 1, 1);
        assert_eq!(b.party_bytes, 2 * a.party_bytes);
    }

    #[test]
    fn render_mentions_totals() {
        let r = paper_configuration();
        let s = r.render();
        assert!(s.contains("aggregator total"));
        assert!(s.contains("MB"));
    }
}

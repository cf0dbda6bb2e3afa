//! Expert compression via distillation — the paper's stated future work
//! ("Future work will explore expert compression via online distillation",
//! §9).
//!
//! When the expert pool must shrink below what consolidation alone achieves
//! (e.g. a memory-constrained deployment), several experts can be distilled
//! into one student: the student trains on *unlabeled* reference inputs
//! against the soft predictions of the cohort-weighted teacher mixture. No
//! raw party data is needed — the reference set is the same aggregator-side
//! resource §5.4 already budgets for MMD drift detection.

use rand::rngs::StdRng;
use shiftex_nn::{softmax_cross_entropy, ArchSpec, Sequential, Sgd};
use shiftex_tensor::{vector, Matrix};

use crate::registry::Expert;

/// Distillation hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistillConfig {
    /// Optimisation epochs over the reference set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Softmax temperature for teacher targets (higher = softer).
    pub temperature: f32,
}

impl Default for DistillConfig {
    fn default() -> Self {
        Self {
            epochs: 20,
            batch_size: 32,
            lr: 0.05,
            temperature: 2.0,
        }
    }
}

/// Outcome of a distillation run.
#[derive(Debug, Clone, PartialEq)]
pub struct DistillReport {
    /// The student's flattened parameters.
    pub student_params: Vec<f32>,
    /// Fraction of reference inputs where the student's argmax matches the
    /// teacher mixture's argmax (fidelity, in `[0, 1]`).
    pub teacher_agreement: f32,
}

/// Distils `experts` (weighted by cohort size) into a single student model
/// on an unlabeled `reference` input set.
///
/// The teacher target for input `x` is the cohort-weighted average of each
/// expert's tempered softmax; the student minimises cross-entropy against
/// the teacher's argmax with those soft targets as weights (hard-label
/// distillation with mixture targets, which needs no changes to the loss
/// stack).
///
/// # Panics
///
/// Panics if `experts` is empty or `reference` has no rows.
pub fn distill_experts(
    spec: &ArchSpec,
    experts: &[&Expert],
    reference: &Matrix,
    cfg: &DistillConfig,
    rng: &mut StdRng,
) -> DistillReport {
    assert!(
        !experts.is_empty(),
        "distillation needs at least one teacher"
    );
    assert!(reference.rows() > 0, "distillation needs reference inputs");

    // --- Teacher mixture targets.
    let weights: Vec<f32> = experts
        .iter()
        .map(|e| e.cohort_size.max(1) as f32)
        .collect();
    let total_w: f32 = weights.iter().sum();
    let teachers: Vec<Sequential> = experts
        .iter()
        .map(|e| Sequential::from_params(spec, &e.params))
        .collect();
    let mut mixture = Matrix::zeros(reference.rows(), spec.classes);
    for (teacher, &w) in teachers.iter().zip(weights.iter()) {
        let logits = teacher.forward(reference);
        for r in 0..reference.rows() {
            let probs = vector::softmax(
                &logits
                    .row(r)
                    .iter()
                    .map(|v| v / cfg.temperature)
                    .collect::<Vec<f32>>(),
            );
            let row = mixture.row_mut(r);
            for (m, &p) in row.iter_mut().zip(probs.iter()) {
                *m += (w / total_w) * p;
            }
        }
    }
    let targets: Vec<usize> = mixture.argmax_rows();

    // --- Student training on the teacher targets.
    let mut student = Sequential::build(spec, rng);
    let mut opt = Sgd::new(cfg.lr, 0.9, 1e-4);
    let mut order: Vec<usize> = (0..reference.rows()).collect();
    for _ in 0..cfg.epochs {
        shiftex_tensor::rngx::shuffle(rng, &mut order);
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            let x = reference.select_rows(chunk);
            let y: Vec<usize> = chunk.iter().map(|&i| targets[i]).collect();
            student.train_batch(&x, &y, &mut opt, None);
        }
    }

    // --- Fidelity.
    let student_preds = student.forward(reference).argmax_rows();
    let agree = student_preds
        .iter()
        .zip(targets.iter())
        .filter(|(a, b)| a == b)
        .count() as f32
        / reference.rows() as f32;
    DistillReport {
        student_params: student.params_flat(),
        teacher_agreement: agree,
    }
}

// Re-export used internally for the teacher pass; keeps the public surface
// of this module to the two types above plus the entry point.
#[allow(unused_imports)]
use softmax_cross_entropy as _;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::LatentMemory;
    use crate::registry::{Expert, ExpertId};
    use rand::SeedableRng;
    use shiftex_data::{ImageShape, PrototypeGenerator};
    use shiftex_detect::EmbeddingProfile;
    use shiftex_nn::TrainConfig;

    fn trained_expert(
        id: u32,
        spec: &ArchSpec,
        data: &shiftex_data::Dataset,
        cohort: usize,
        rng: &mut StdRng,
    ) -> Expert {
        let mut model = Sequential::build(spec, rng);
        let cfg = TrainConfig {
            epochs: 20,
            ..TrainConfig::default()
        };
        model.train(data.features(), data.labels(), &cfg, rng);
        let profile = EmbeddingProfile::from_embeddings(&model.embed(data.features()), 32, rng);
        Expert {
            id: ExpertId(id),
            params: model.params_flat(),
            memory: LatentMemory::from_profile(&profile),
            created_window: 0,
            cohort_size: cohort,
        }
    }

    #[test]
    fn student_matches_single_teacher() {
        let mut rng = StdRng::seed_from_u64(0);
        let gen = PrototypeGenerator::new(ImageShape::new(1, 8, 8), 4, &mut rng);
        let spec = ArchSpec::mlp("t", 64, &[24], 4);
        let train = gen.generate_uniform(200, &mut rng);
        let expert = trained_expert(0, &spec, &train, 8, &mut rng);

        let reference = gen.generate_uniform(200, &mut rng);
        let report = distill_experts(
            &spec,
            &[&expert],
            reference.features(),
            &DistillConfig::default(),
            &mut rng,
        );
        assert!(
            report.teacher_agreement > 0.85,
            "student/teacher agreement {}",
            report.teacher_agreement
        );
        assert_eq!(report.student_params.len(), expert.params.len());
    }

    #[test]
    fn mixture_weighting_follows_cohort_sizes() {
        let mut rng = StdRng::seed_from_u64(1);
        let gen = PrototypeGenerator::new(ImageShape::new(1, 8, 8), 4, &mut rng);
        let spec = ArchSpec::mlp("t", 64, &[24], 4);
        // Teacher A is trained, teacher B is fresh noise with zero cohort
        // influence beyond the floor — the student should mostly follow A.
        let train = gen.generate_uniform(200, &mut rng);
        let strong = trained_expert(0, &spec, &train, 20, &mut rng);
        let weak = Expert {
            id: ExpertId(1),
            params: Sequential::build(&spec, &mut rng).params_flat(),
            memory: strong.memory.clone(),
            created_window: 0,
            cohort_size: 1,
        };
        let reference = gen.generate_uniform(150, &mut rng);
        let report = distill_experts(
            &spec,
            &[&strong, &weak],
            reference.features(),
            &DistillConfig::default(),
            &mut rng,
        );
        // The student should agree with the mixture, and the mixture is
        // dominated by the strong teacher: compare against it directly.
        let teacher = Sequential::from_params(&spec, &strong.params);
        let teacher_preds = teacher.forward(reference.features()).argmax_rows();
        let student = Sequential::from_params(&spec, &report.student_params);
        let student_preds = student.forward(reference.features()).argmax_rows();
        let agree = teacher_preds
            .iter()
            .zip(student_preds.iter())
            .filter(|(a, b)| a == b)
            .count() as f32
            / teacher_preds.len() as f32;
        assert!(agree > 0.7, "student vs strong teacher agreement {agree}");
    }

    #[test]
    #[should_panic(expected = "at least one teacher")]
    fn rejects_empty_teacher_set() {
        let mut rng = StdRng::seed_from_u64(2);
        let spec = ArchSpec::mlp("t", 8, &[4], 2);
        let reference = Matrix::zeros(4, 8);
        let _ = distill_experts(&spec, &[], &reference, &DistillConfig::default(), &mut rng);
    }
}

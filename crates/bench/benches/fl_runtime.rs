//! Criterion benches for the federated runtime itself: communication
//! rounds through the one driver and a full ShiftEx window step — the costs
//! a deployment pays per round versus the per-shift adaptation overhead.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::{rngs::StdRng, SeedableRng};
use shiftex_core::{ShiftEx, ShiftExConfig};
use shiftex_data::{Corruption, ImageShape, PrototypeGenerator, Regime};
use shiftex_fl::{
    run_algorithm_round, FederatedAlgorithm, Party, PartyId, PopulationStore, RoundCtx,
    ScenarioEngine, ScenarioSpec,
};
use shiftex_nn::{ArchSpec, Sequential};

fn make_parties(n: usize, samples: usize, seed: u64) -> (PrototypeGenerator, Vec<Party>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let gen = PrototypeGenerator::new(ImageShape::new(3, 8, 8), 10, &mut rng);
    let parties = (0..n)
        .map(|i| {
            Party::new(
                PartyId(i),
                gen.generate_uniform(samples, &mut rng),
                gen.generate_uniform(samples / 2, &mut rng),
            )
        })
        .collect();
    (gen, parties)
}

fn bench_window_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("shiftex_window");
    group.sample_size(10);
    group.bench_function("process_window_8_parties", |b| {
        b.iter_with_setup(
            || {
                let (gen, parties) = make_parties(8, 40, 4);
                let mut store = PopulationStore::from_parties(parties);
                let ids = store.party_ids();
                let spec =
                    ArchSpec::resnet18_lite(shiftex_nn::InputShape { c: 3, h: 8, w: 8 }, 10, 24);
                let mut rng = StdRng::seed_from_u64(5);
                let mut shiftex = ShiftEx::new(
                    ShiftExConfig {
                        participants_per_round: 8,
                        ..Default::default()
                    },
                    spec,
                    &mut rng,
                );
                shiftex.init(&store.view(ids.clone()), &mut rng);
                let mut engine = ScenarioEngine::new(ScenarioSpec::sync(0), &ids);
                for _ in 0..2 {
                    run_algorithm_round(
                        &mut shiftex,
                        &mut RoundCtx::new(&store, &mut engine),
                        &mut rng,
                    );
                }
                let fog = Regime::corrupted(Corruption::Fog, 5);
                for &id in &ids {
                    let (tr, te) = if id.0 < 4 {
                        (
                            gen.generate_with_regime(40, &fog, &mut rng),
                            gen.generate_with_regime(20, &fog, &mut rng),
                        )
                    } else {
                        (
                            gen.generate_uniform(40, &mut rng),
                            gen.generate_uniform(20, &mut rng),
                        )
                    };
                    store.with_party_mut(id, |p| p.advance_window(tr, te));
                }
                (shiftex, store, rng)
            },
            |(mut shiftex, store, mut rng)| {
                shiftex.begin_window(1, &store.view(store.party_ids()), &mut rng)
            },
        )
    });
    group.finish();
}

fn bench_tensor_kernels(c: &mut Criterion) {
    use shiftex_tensor::{naive, Matrix};
    let mut rng = StdRng::seed_from_u64(6);
    // Local-SGD dense-layer shape: (batch x in) · (in x out).
    let a = Matrix::randn(64, 256, 0.0, 1.0, &mut rng);
    let b = Matrix::randn(256, 128, 0.0, 1.0, &mut rng);
    // Gram / MMD shape: 200 embeddings at d = 2048 against each other.
    let x = Matrix::randn(200, 2048, 0.0, 1.0, &mut rng);
    let y = Matrix::randn(200, 2048, 0.5, 1.0, &mut rng);
    let mut group = c.benchmark_group("tensor_kernels");
    group.sample_size(10);
    group.bench_function("matmul_64x256x128_blocked", |bch| bch.iter(|| a.matmul(&b)));
    group.bench_function("matmul_64x256x128_naive", |bch| {
        bch.iter(|| naive::matmul(&a, &b))
    });
    group.bench_function("matmul_t_gram_200x2048_blocked", |bch| {
        bch.iter(|| x.matmul_t(&y))
    });
    group.bench_function("pairwise_sq_dists_200x2048", |bch| {
        bch.iter(|| x.pairwise_sq_dists(&y))
    });
    group.bench_function("transpose_200x2048_tiled", |bch| bch.iter(|| x.transpose()));
    group.finish();
}

fn bench_data_kernels(c: &mut Criterion) {
    use shiftex_tensor::rngx;
    // One CIFAR-10-C party window: 200 samples of 3×8×8 = 38 400 pixels,
    // each one Box–Muller normal, plus one more per pixel under Gaussian
    // noise. The per-call label is the sampler before batching.
    const PIXELS: usize = 200 * 192;
    let mut rng = StdRng::seed_from_u64(34);
    let gen = PrototypeGenerator::new(ImageShape::new(3, 8, 8), 10, &mut rng);
    let clear = Regime::clear();
    let gaussian = Regime::corrupted(Corruption::GaussianNoise, 3);
    let mut out = vec![0.0f32; PIXELS];
    let mut group = c.benchmark_group("data_kernels");
    group.sample_size(10);
    group.bench_function("normal_per_call_38400", |b| {
        b.iter(|| {
            for o in out.iter_mut() {
                *o = rngx::normal(&mut rng, 0.0, 0.4);
            }
        })
    });
    group.bench_function("fill_normal_38400", |b| {
        b.iter(|| rngx::fill_normal(&mut rng, 0.0, 0.4, &mut out))
    });
    group.bench_function("generate_cifar10c_200x192_clear", |b| {
        b.iter(|| gen.generate_with_regime(200, &clear, &mut rng))
    });
    group.bench_function("generate_cifar10c_200x192_gaussian3", |b| {
        b.iter(|| gen.generate_with_regime(200, &gaussian, &mut rng))
    });
    group.finish();
}

fn bench_nn_kernels(c: &mut Criterion) {
    use shiftex_fl::{aggregate_robust, FoldPolicy, ModelUpdate, WeightedUpdate};
    use shiftex_nn::{naive, ConvShape, InputShape, Layer, LayerCache, Sgd};
    use shiftex_tensor::Matrix;

    // The party-side compute path, layer by layer, at the LeNet-lite shapes
    // the benchmark workloads train (1x8x8 inputs): each convolution beside
    // its scalar oracle (`_naive`: the loops production ran before the GEMM
    // lowering, so the pair is the before/after), one whole SGD step per
    // architecture family, and the Krum fold of a 200-update cohort.
    let mut rng = StdRng::seed_from_u64(60);
    let mut group = c.benchmark_group("nn_kernels");
    group.sample_size(20);

    let conv = |in_c: usize, out_c: usize, side: usize, rng: &mut StdRng| {
        let shape = ConvShape {
            in_c,
            out_c,
            k: 3,
            h: side,
            w: side,
        };
        let weight = Matrix::randn(out_c, shape.taps(), 0.0, 0.3, rng);
        let bias = vec![0.01; out_c];
        let layer = Layer::Conv2d {
            shape,
            weight: weight.clone(),
            bias: bias.clone(),
        };
        (shape, weight, bias, layer)
    };
    // Post-ReLU/pool sparsity of a gradient arriving at a conv output.
    let relu_sparse = |m: Matrix| m.map(|v| if v > 0.8 { v } else { 0.0 });

    for (name, in_c, out_c, side) in [("c1", 1, 6, 8), ("c2", 6, 12, 4)] {
        let (shape, weight, bias, layer) = conv(in_c, out_c, side, &mut rng);
        let x = Matrix::randn(16, in_c * side * side, 0.0, 1.0, &mut rng);
        let (mut out, mut cache) = (Matrix::default(), LayerCache::default());
        group.bench_function(format!("conv_fwd_lenet_{name}_b16"), |b| {
            b.iter(|| layer.forward(&x, &mut out, &mut cache))
        });
        group.bench_function(format!("conv_fwd_lenet_{name}_b16_naive"), |b| {
            b.iter(|| naive::conv_forward(shape, &x, &weight, &bias))
        });
    }
    {
        let (shape, weight, _, layer) = conv(6, 12, 4, &mut rng);
        let x = Matrix::randn(8, 6 * 16, 0.0, 1.0, &mut rng);
        let grad_out = relu_sparse(Matrix::randn(8, 12 * 16, 0.0, 1.0, &mut rng));
        let (mut out, mut cache) = (Matrix::default(), LayerCache::default());
        layer.forward(&x, &mut out, &mut cache);
        let mut grad_in = Matrix::default();
        let mut param_grad = vec![0.0; layer.num_params()];
        group.bench_function("conv_bwd_lenet_c2_b8", |b| {
            b.iter(|| {
                layer.backward(
                    &x,
                    &out,
                    &mut cache,
                    &grad_out,
                    Some(&mut grad_in),
                    &mut param_grad,
                )
            })
        });
        group.bench_function("conv_bwd_lenet_c2_b8_naive", |b| {
            b.iter(|| naive::conv_backward(shape, &x, &grad_out, &weight))
        });
    }

    let lenet = ArchSpec::lenet5_lite(InputShape { c: 1, h: 8, w: 8 }, 10, 24);
    let resnet = ArchSpec::resnet18_lite(InputShape { c: 3, h: 8, w: 8 }, 10, 24);

    // The dense products of the paper_shift MLP (192 -> 48 -> 24 -> 10) at
    // its batch of 32 and its 60-row test split, labelled `rows x shared x
    // cols` of the product computed, operands ReLU-sparse where production's
    // are; then the 200-row forward `embed` that `begin_window` runs per
    // party. Own RNG: the labels below keep the inputs they always had.
    {
        let mut rng = StdRng::seed_from_u64(61);
        let mut out = Matrix::default();
        let mut dense = |rows: usize, cols: usize| Matrix::randn(rows, cols, 0.0, 1.0, &mut rng);
        let (x32, x60, w1) = (dense(32, 192), dense(60, 192), dense(192, 48));
        let (w2, w3) = (dense(48, 24), dense(24, 10));
        let (g1, g2, g3) = (
            relu_sparse(dense(32, 48)),
            relu_sparse(dense(32, 24)),
            dense(32, 10),
        );
        group.bench_function("matmul_32x192x48", |b| {
            b.iter(|| x32.matmul_into(&w1, &mut out))
        });
        group.bench_function("matmul_60x192x48", |b| {
            b.iter(|| x60.matmul_into(&w1, &mut out))
        });
        let mut grad_w = vec![0.0; 192 * 48];
        group.bench_function("t_matmul_192x32x48", |b| {
            b.iter(|| x32.t_matmul_into(&g1, &mut grad_w))
        });
        group.bench_function("matmul_t_32x24x48", |b| {
            b.iter(|| g2.matmul_t_into(&w2, &mut out))
        });
        group.bench_function("matmul_t_32x10x24", |b| {
            b.iter(|| g3.matmul_t_into(&w3, &mut out))
        });
        let model = Sequential::build(&resnet, &mut rng);
        let x200 = Matrix::randn(200, 192, 0.0, 1.0, &mut rng);
        group.bench_function("embed_200x192", |b| b.iter(|| model.embed(&x200)));
    }

    for (label, spec, rows) in [
        ("train_step_lenet_b8", &lenet, 8),
        ("train_step_resnet18lite_b32", &resnet, 32),
    ] {
        let model = Sequential::build(spec, &mut rng);
        let x = Matrix::randn(rows, spec.input.dim(), 0.0, 1.0, &mut rng);
        let y: Vec<usize> = (0..rows).map(|i| i % spec.classes).collect();
        group.bench_function(label, |b| {
            b.iter_with_setup(
                || (model.clone(), Sgd::new(0.05, 0.9, 1e-4)),
                |(mut model, mut opt)| model.train_batch(&x, &y, &mut opt, None),
            )
        });
    }

    // LeNet-lite's first pool (6 channels of 8x8) at the 8-row batch,
    // beside the branching loop it replaced. The loop gets its shape
    // through `black_box`, as the layer reads it from its enum at run time:
    // constant dims would let the compiler unroll the scan. Own RNG, so the
    // labels around it keep their inputs.
    {
        let mut rng = StdRng::seed_from_u64(66);
        let x = Matrix::randn(8, 6 * 8 * 8, 0.0, 1.0, &mut rng).map(|v| v.max(0.0));
        let layer = Layer::MaxPool2d { c: 6, h: 8, w: 8 };
        let (mut out, mut cache) = (Matrix::default(), LayerCache::default());
        group.bench_function("max_pool_lenet_c1_b8", |b| {
            b.iter(|| layer.forward(&x, &mut out, &mut cache))
        });
        group.bench_function("max_pool_lenet_c1_b8_naive", |b| {
            let dims = || std::hint::black_box((6, 8, 8));
            b.iter(|| {
                let (c, h, w) = dims();
                naive::max_pool(&x, c, h, w)
            })
        });
    }

    // The input InstanceNorm at the 60-row test split, beside the per-row
    // loop it replaced; then one party's whole local update, model
    // initialisation draws included, at the wide_cohort_byzantine (8 rows
    // of LeNet-lite) and paper_shift (200 rows of ResNet-18-lite) shapes.
    // Own RNG, so the labels around them keep their inputs.
    {
        use shiftex_nn::{naive, train_local_params, TrainConfig};
        let mut rng = StdRng::seed_from_u64(62);
        let x = Matrix::randn(60, 192, 0.5, 2.0, &mut rng);
        let (mut out, mut cache) = (Matrix::default(), LayerCache::default());
        group.bench_function("instance_norm_60x192", |b| {
            b.iter(|| Layer::InstanceNorm.forward(&x, &mut out, &mut cache))
        });
        group.bench_function("instance_norm_60x192_naive", |b| {
            b.iter(|| naive::instance_norm(&x))
        });
        for (label, spec, rows) in [
            ("local_update_lenet_b8", &lenet, 8),
            ("local_update_resnet18lite_200", &resnet, 200),
        ] {
            let global = Sequential::build(spec, &mut rng).params_flat();
            let x = Matrix::randn(rows, spec.input.dim(), 0.0, 1.0, &mut rng);
            let y: Vec<usize> = (0..rows).map(|i| i % spec.classes).collect();
            let cfg = TrainConfig::default();
            group.bench_function(label, |b| {
                b.iter_with_setup(
                    || StdRng::seed_from_u64(63),
                    |mut party_rng| train_local_params(spec, &global, &x, &y, &cfg, &mut party_rng),
                )
            });
        }
    }

    // The wide_cohort_byzantine fold: 200 LeNet-lite updates (2146
    // parameters), 40 tolerated liars.
    let dim = Sequential::build(&lenet, &mut rng).num_params();
    let globals = vec![0.0f32; dim];
    let ready: Vec<WeightedUpdate> = (0..200)
        .map(|i| WeightedUpdate {
            update: ModelUpdate {
                party: PartyId(i),
                params: Matrix::randn(1, dim, 0.0, 0.1, &mut rng).into_vec(),
                num_samples: 8,
                train_loss: 0.5,
            },
            staleness: 0,
            weight: 8.0,
        })
        .collect();
    group.bench_function(format!("krum_200x{dim}"), |b| {
        b.iter(|| aggregate_robust(&globals, &ready, 1.0, &FoldPolicy::Krum { f: 40 }))
    });
    group.finish();
}

fn bench_codecs(c: &mut Criterion) {
    use shiftex_fl::{CodecSpec, ModelUpdate};
    let mut rng = StdRng::seed_from_u64(8);
    // Encode/decode throughput on a production-ish flat model (100k params).
    let n = 100_000usize;
    let params = shiftex_tensor::Matrix::randn(1, n, 0.0, 1.0, &mut rng).into_vec();
    let reference = shiftex_tensor::Matrix::randn(1, n, 0.0, 1.0, &mut rng).into_vec();
    let update = ModelUpdate {
        party: PartyId(0),
        params,
        num_samples: 32,
        train_loss: 0.5,
    };
    let specs = [
        ("dense", CodecSpec::dense()),
        ("quant8", CodecSpec::quant8(256)),
        ("delta_quant8", CodecSpec::quant8(256).with_delta()),
        ("delta_topk", CodecSpec::topk(0.05).with_delta()),
    ];
    let mut group = c.benchmark_group("comm_codecs");
    group.sample_size(10);
    for (name, codec) in specs {
        group.bench_function(format!("encode_{name}_100k"), |b| {
            b.iter(|| update.encode(&codec, &reference))
        });
        let wire = update.encode(&codec, &reference);
        group.bench_function(format!("decode_{name}_100k"), |b| {
            b.iter(|| ModelUpdate::decode(&wire, &reference).expect("decodes"))
        });
    }

    group.finish();
}

fn bench_algorithms(c: &mut Criterion) {
    use shiftex_baselines::{FedAvg, FedDrift, FedDriftConfig};
    use shiftex_fl::{
        run_algorithm_round, ChurnSpec, CodecSpec, FederatedAlgorithm, PopulationStore, RoundCtx,
        ScenarioEngine, ScenarioSpec,
    };
    use shiftex_nn::TrainConfig;

    // One churned quantised round per algorithm through the one generic
    // driver, at 100 parties on a deliberately small model: measures each
    // algorithm's per-round runtime cost (cohorting policy, per-stream
    // fan-out, folding) on top of the shared scenario machinery.
    let mut rng = StdRng::seed_from_u64(9);
    let gen = PrototypeGenerator::new(ImageShape::new(1, 6, 6), 4, &mut rng);
    let parties: Vec<Party> = (0..100)
        .map(|i| {
            Party::new(
                PartyId(i),
                gen.generate_uniform(12, &mut rng),
                gen.generate_uniform(6, &mut rng),
            )
        })
        .collect();
    let ids: Vec<PartyId> = parties.iter().map(|p| p.id()).collect();
    let spec = ArchSpec::mlp("algo", 36, &[16], 4);
    let train = TrainConfig::default();
    let churny = ScenarioSpec::sync(1).with_churn(ChurnSpec::dropout_only(0.15));
    let codec = CodecSpec::quant8(256);

    let mut algorithms: Vec<(&str, Box<dyn FederatedAlgorithm>)> = vec![
        ("fedavg", Box::new(FedAvg::new(spec.clone(), train, 100))),
        (
            "fedprox",
            Box::new(FedAvg::fedprox(spec.clone(), train, 100, 0.01)),
        ),
        (
            "fielding",
            Box::new(FedAvg::fielding(spec.clone(), train, 100)),
        ),
        ("flips", Box::new(FedAvg::flips(spec.clone(), train, 100))),
        (
            "feddrift",
            Box::new(FedDrift::new(
                spec.clone(),
                train,
                100,
                FedDriftConfig::default(),
            )),
        ),
        (
            "shiftex",
            Box::new(ShiftEx::new(
                ShiftExConfig {
                    participants_per_round: 100,
                    ..Default::default()
                },
                spec.clone(),
                &mut rng,
            )),
        ),
    ];

    let store = PopulationStore::from_parties(parties);
    let mut group = c.benchmark_group("fl_algorithms");
    group.sample_size(10);
    for (name, algorithm) in algorithms.iter_mut() {
        let mut init_rng = StdRng::seed_from_u64(10);
        algorithm.init(&store.view(store.party_ids()), &mut init_rng);
        group.bench_function(format!("churned_round_{name}_100_parties"), |b| {
            b.iter_with_setup(
                || {
                    let engine = ScenarioEngine::new(churny.clone(), &ids);
                    (engine, StdRng::seed_from_u64(11))
                },
                |(mut engine, mut rng)| {
                    run_algorithm_round(
                        algorithm.as_mut(),
                        &mut RoundCtx::new(&store, &mut engine).with_codec(&codec),
                        &mut rng,
                    )
                },
            )
        });
    }
    group.finish();
}

fn bench_robust(c: &mut Criterion) {
    use shiftex_baselines::FedAvg;
    use shiftex_fl::{
        run_algorithm_round, AttackKind, AttackSpec, FederatedAlgorithm, FoldPolicy,
        PopulationStore, RoundCtx, ScenarioEngine, ScenarioSpec,
    };
    use shiftex_nn::TrainConfig;

    // One hostile 100-party round per robust fold: 20 % sign-flip
    // adversaries against Krum (O(n²·d) pairwise distances — the costliest
    // rule) and trimmed-mean (per-coordinate sorting). Measures the robust
    // aggregation overhead on top of the same driver the fl_algorithms
    // group times under plain Mean.
    let mut rng = StdRng::seed_from_u64(29);
    let gen = PrototypeGenerator::new(ImageShape::new(1, 6, 6), 4, &mut rng);
    let parties: Vec<Party> = (0..100)
        .map(|i| {
            Party::new(
                PartyId(i),
                gen.generate_uniform(12, &mut rng),
                gen.generate_uniform(6, &mut rng),
            )
        })
        .collect();
    let ids: Vec<PartyId> = parties.iter().map(|p| p.id()).collect();
    let spec = ArchSpec::mlp("robust", 36, &[16], 4);
    let train = TrainConfig::default();
    let hostile = ScenarioSpec::sync(5).with_attack(AttackSpec::new(AttackKind::SignFlip, 0.2));

    let store = PopulationStore::from_parties(parties);
    let mut group = c.benchmark_group("fl_robust");
    group.sample_size(10);
    for (label, fold) in [
        ("krum_f2", FoldPolicy::Krum { f: 2 }),
        ("trimmed_beta02", FoldPolicy::TrimmedMean { beta: 0.2 }),
    ] {
        let mut algorithm = FedAvg::new(spec.clone(), train, 100);
        let mut init_rng = StdRng::seed_from_u64(30);
        algorithm.init(&store.view(store.party_ids()), &mut init_rng);
        group.bench_function(format!("signflip_round_{label}_100_parties"), |b| {
            b.iter_with_setup(
                || {
                    let engine = ScenarioEngine::new(hostile.clone(), &ids);
                    (engine, StdRng::seed_from_u64(31))
                },
                |(mut engine, mut rng)| {
                    run_algorithm_round(
                        &mut algorithm,
                        &mut RoundCtx::new(&store, &mut engine).with_fold(&fold),
                        &mut rng,
                    )
                },
            )
        });
    }
    group.finish();
}

fn bench_population(c: &mut Criterion) {
    use shiftex_baselines::FedAvg;
    use shiftex_data::{DatasetKind, SimScale};
    use shiftex_experiments::{LazyPopulation, Scenario};
    use shiftex_fl::{
        run_algorithm_round, ChurnSpec, CodecSpec, FederatedAlgorithm, RoundCtx, ScenarioEngine,
        ScenarioSpec,
    };
    use shiftex_nn::TrainConfig;

    // A churned, quantised 10_000-party round through the lazy population
    // store: only the ~10-party sampled cohort is ever materialized, so the
    // per-round cost must track the cohort, not the population. This is the
    // scale regime (10k–100k parties) the resident `Vec<Party>` runtime
    // could not enter.
    let scenario = Scenario::build_with_population(
        DatasetKind::FashionMnist,
        SimScale::Smoke,
        23,
        Some(10_000),
        Some(8),
    );
    let store = LazyPopulation::new(scenario.clone(), 23).into_store();
    let ids = store.party_ids();
    let churny = ScenarioSpec::sync(3).with_churn(ChurnSpec::dropout_only(0.15));
    let codec = CodecSpec::quant8(256);
    let mut algorithm = FedAvg::new(
        scenario.spec.clone(),
        TrainConfig::default(),
        scenario.participants_per_round(),
    );
    let mut init_rng = StdRng::seed_from_u64(24);
    algorithm.init(&store.view(ids.clone()), &mut init_rng);

    let mut group = c.benchmark_group("fl_population");
    group.sample_size(10);
    group.bench_function("churned_round_fedavg_10k_parties_lazy", |b| {
        b.iter_with_setup(
            || {
                let engine = ScenarioEngine::new(churny.clone(), &ids);
                (engine, StdRng::seed_from_u64(25))
            },
            |(mut engine, mut rng)| {
                run_algorithm_round(
                    &mut algorithm,
                    &mut RoundCtx::new(&store, &mut engine).with_codec(&codec),
                    &mut rng,
                )
            },
        )
    });
    // The raw materialization path the round driver sits on: rebuild a
    // 10-party cohort from seeded specs (window-0 chains, no training).
    let cohort_ids: Vec<PartyId> = (0..10).map(|i| PartyId(i * 997)).collect();
    group.bench_function("materialize_cohort_10_of_10k", |b| {
        b.iter(|| store.cohort(&cohort_ids))
    });

    // The two per-round costs of the 800-party scale_lazy_churn population
    // beyond training: one eval pass past window 0 (each party's test split
    // alone), and one FLIPS fit over its 800 label histograms of 10
    // classes, as `ShiftEx::cohort` refits it every round.
    {
        use shiftex_fl::{evaluate_on_view, FlipsSelector};
        use shiftex_nn::Sequential;

        let scenario = Scenario::build_with_population(
            DatasetKind::FashionMnist,
            SimScale::Smoke,
            7,
            Some(800),
            Some(8),
        );
        let mut store = LazyPopulation::new(scenario.clone(), 7).into_store();
        let infos = store.view(store.party_ids()).infos();
        group.bench_function("flips_fit_800x10", |b| {
            b.iter_with_setup(
                || StdRng::seed_from_u64(64),
                |mut rng| FlipsSelector::fit(&infos, 4, &mut rng),
            )
        });
        store.set_window(1);
        let params =
            Sequential::build(&scenario.spec, &mut StdRng::seed_from_u64(65)).params_flat();
        let view = store.view(store.party_ids());
        group.bench_function("lazy_eval_800_parties_w1", |b| {
            b.iter(|| evaluate_on_view(&scenario.spec, &params, &view))
        });
    }
    group.finish();
}

fn bench_join(c: &mut Criterion) {
    use shiftex_baselines::FedAvg;
    use shiftex_fl::{
        run_algorithm_round, BudgetSpec, ChurnSpec, CodecController, FederatedAlgorithm,
        JoinConfig, PopulationStore, RoundCtx, ScenarioEngine, ScenarioSpec,
    };
    use shiftex_nn::TrainConfig;

    // First-contact sync cost under churn: a 100-party round where the
    // engine is fresh, so the whole 30-party cohort (30 % of the
    // population) needs expert-state sync, under 20 % dropout. The dense
    // arm ships monolithic full-state frames; the adaptive arm runs the
    // byte-budget controller with chunked, resumable quantized join sync —
    // the regime the codec controller is built for.
    let mut rng = StdRng::seed_from_u64(47);
    let gen = PrototypeGenerator::new(ImageShape::new(1, 6, 6), 4, &mut rng);
    let parties: Vec<Party> = (0..100)
        .map(|i| {
            Party::new(
                PartyId(i),
                gen.generate_uniform(12, &mut rng),
                gen.generate_uniform(6, &mut rng),
            )
        })
        .collect();
    let ids: Vec<PartyId> = parties.iter().map(|p| p.id()).collect();
    let spec = ArchSpec::mlp("join", 36, &[16], 4);
    let churny = ScenarioSpec::sync(48).with_churn(ChurnSpec {
        join_fraction: 0.3,
        join_ramp_rounds: 2,
        ..ChurnSpec::dropout_only(0.2)
    });
    let controller = CodecController::new(48, BudgetSpec::per_round(98_304));

    let store = PopulationStore::from_parties(parties);
    let mut algorithm = FedAvg::new(spec, TrainConfig::default(), 30);
    let mut init_rng = StdRng::seed_from_u64(49);
    algorithm.init(&store.view(store.party_ids()), &mut init_rng);

    let mut group = c.benchmark_group("fl_join");
    group.sample_size(10);
    group.bench_function("churned_join_round_dense_monolithic_100_parties", |b| {
        b.iter_with_setup(
            || {
                let engine = ScenarioEngine::new(churny.clone(), &ids);
                (engine, StdRng::seed_from_u64(50))
            },
            |(mut engine, mut rng)| {
                run_algorithm_round(
                    &mut algorithm,
                    &mut RoundCtx::new(&store, &mut engine),
                    &mut rng,
                )
            },
        )
    });
    group.bench_function("churned_join_round_adaptive_chunked_100_parties", |b| {
        b.iter_with_setup(
            || {
                let mut engine = ScenarioEngine::new(churny.clone(), &ids);
                engine.enable_join_chunking(JoinConfig::quantized(1024));
                (engine, StdRng::seed_from_u64(50))
            },
            |(mut engine, mut rng)| {
                run_algorithm_round(
                    &mut algorithm,
                    &mut RoundCtx::new(&store, &mut engine).with_codec(&controller),
                    &mut rng,
                )
            },
        )
    });
    group.finish();
}

fn bench_net(c: &mut Criterion) {
    use std::net::{TcpListener, TcpStream};
    use std::thread;
    use std::time::Duration;

    use shiftex_data::{DatasetKind, SimScale};
    use shiftex_experiments::{
        build_algorithm, netfed_fed_seed, netfed_stream_seed, run_worker, worker_partition,
        FedSelector, LazyPopulation, NetFedConfig, Scenario,
    };
    use shiftex_fl::{run_algorithm_round, CodecSpec, RoundCtx, ScenarioEngine, ScenarioSpec};
    use shiftex_net::Coordinator;

    // A real 4-worker federation on loopback: each iteration is one full
    // synchronous round over TCP — broadcast frames out, local training in
    // the worker threads, encoded uploads back, RoundEnd — through exactly
    // the coordinator transport the netfed binaries run. The delta over
    // `fl_algorithms`' in-process rounds is the true wire cost (framing,
    // syscalls, cross-thread scheduling).
    const WORKERS: usize = 4;
    let scenario = Scenario::build_with_population(
        DatasetKind::FashionMnist,
        SimScale::Smoke,
        31,
        Some(8),
        Some(16),
    );
    let cfg = NetFedConfig {
        strategy: "fedavg".to_string(),
        codec: CodecSpec::dense(),
        selector: FedSelector::Uniform,
        rounds: 1,
        join_chunk_bytes: None,
    };

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
    let addr = listener.local_addr().expect("listener addr");
    let workers: Vec<_> = (0..WORKERS)
        .map(|i| {
            let scenario = scenario.clone();
            let cfg = cfg.clone();
            let parties = worker_partition(scenario.profile.num_parties, WORKERS, i);
            thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).expect("set_nodelay");
                run_worker(&mut stream, &scenario, &cfg, parties, None, None).expect("worker")
            })
        })
        .collect();
    let mut coordinator =
        Coordinator::accept(&listener, WORKERS, cfg.codec, Duration::from_secs(60))
            .expect("register workers");

    let fed = ScenarioSpec::sync(netfed_fed_seed(scenario.seed));
    let stream_seed = netfed_stream_seed(scenario.seed);
    let store = LazyPopulation::new(scenario.clone(), stream_seed).into_store();
    let ids = store.party_ids();
    let mut engine = ScenarioEngine::new(fed, &ids);
    let mut rng = StdRng::seed_from_u64(stream_seed);
    let mut algorithm =
        build_algorithm("fedavg", &scenario, &ShiftExConfig::default()).expect("fedavg");
    algorithm.init(&store.view(ids.clone()), &mut rng);

    let mut ctx = RoundCtx::new(&store, &mut engine)
        .with_codec(&cfg.codec)
        .with_transport(&mut coordinator);
    let mut group = c.benchmark_group("fl_net");
    group.sample_size(10);
    group.bench_function("loopback_round_trip_dense_4_workers", |b| {
        b.iter(|| run_algorithm_round(algorithm.as_mut(), &mut ctx, &mut rng))
    });
    group.finish();
    coordinator.shutdown();
    for w in workers {
        w.join().expect("worker thread");
    }
}

criterion_group!(
    benches,
    bench_window_step,
    bench_tensor_kernels,
    bench_data_kernels,
    bench_nn_kernels,
    bench_codecs,
    bench_algorithms,
    bench_robust,
    bench_population,
    bench_join,
    bench_net
);
criterion_main!(benches);

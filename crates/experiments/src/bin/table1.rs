//! Regenerates **Table 1** (FMoW and CIFAR-10-C: Accuracy Drop / Recovery
//! Time / Max Accuracy per window) and, with flags, the corresponding
//! figures: `--series` → Fig. 3 convergence curves, `--experts` → Fig. 7
//! expert distributions, `--max` → Fig. 5 per-window maxima.
//!
//! ```text
//! cargo run --release -p shiftex-experiments --bin table1 -- \
//!     [--dataset fmow|cifar10c] [--scale smoke|small|paper] [--runs N] \
//!     [--series] [--experts] [--max] [--csv DIR] [--seed N]
//! ```

use shiftex_data::DatasetKind;
use shiftex_experiments::cli::Args;
use shiftex_experiments::run_tables;

fn main() {
    let args = Args::from_env();
    let datasets: Vec<DatasetKind> = match args.value("dataset") {
        Some(name) => vec![DatasetKind::parse(name).expect("unknown dataset")],
        None => vec![DatasetKind::Fmow, DatasetKind::Cifar10C],
    };
    run_tables(&args, &datasets);
}

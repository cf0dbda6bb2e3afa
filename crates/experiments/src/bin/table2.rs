//! Regenerates **Table 2** (Tiny-ImageNet-C, FEMNIST, Fashion-MNIST:
//! Accuracy Drop / Recovery Time / Max Accuracy across windows W1–W5) and,
//! with flags, Figures 3b/4 (`--series`), 5b/6 (`--max`) and 7b/8
//! (`--experts`).
//!
//! ```text
//! cargo run --release -p shiftex-experiments --bin table2 -- \
//!     [--dataset tinyimagenetc|femnist|fashionmnist] [--scale smoke|small|paper] \
//!     [--runs N] [--series] [--experts] [--max] [--csv DIR] [--seed N]
//! ```

use shiftex_data::DatasetKind;
use shiftex_experiments::cli::Args;
use shiftex_experiments::run_tables;

fn main() {
    let args = Args::from_env();
    let datasets: Vec<DatasetKind> = match args.value("dataset") {
        Some(name) => vec![DatasetKind::parse(name).expect("unknown dataset")],
        None => vec![
            DatasetKind::TinyImagenetC,
            DatasetKind::Femnist,
            DatasetKind::FashionMnist,
        ],
    };
    run_tables(&args, &datasets);
}

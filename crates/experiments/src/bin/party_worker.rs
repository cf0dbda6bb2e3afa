//! Networked-federation party worker: connects to a coordinator, hosts
//! its contiguous slice of the party population, trains on each broadcast
//! and ships encoded updates back. Each hosted party is built from the
//! shared seed on its first broadcast and kept for the session, so the
//! worker holds O(hosted parties) of data; party data never crosses the
//! wire.
//!
//! ```text
//! party-worker --connect 127.0.0.1:7070 --workers 4 --worker-index 0 \
//!     --dataset fashionmnist --scale smoke --seed 42 \
//!     --strategy shiftex --codec dense --rounds 3
//! ```
//!
//! Every flag shared with `coordinator` must match the coordinator's
//! exactly; `--workers`/`--worker-index` pick this process's party range.
//! `--stall-after-uploads N` parks the worker forever before sending its
//! N+1-th upload (a deterministic straggler/SIGKILL target for the churn
//! tests) and `--leave-after-round R` makes it leave gracefully after
//! round R.

use std::net::TcpStream;
use std::time::Duration;

use shiftex_experiments::cli::Args;
use shiftex_experiments::{netfed_config_from_args, run_worker, worker_partition};

fn main() {
    let args = Args::from_env();
    let (scenario, cfg) = netfed_config_from_args(&args);
    let connect = args.value("connect").unwrap_or("127.0.0.1:7070");
    let workers: usize = args.value_or("workers", 4);
    let index: usize = args.value_or("worker-index", 0);
    let stall_after_uploads: Option<u64> = args
        .value("stall-after-uploads")
        .map(|v| v.parse().expect("--stall-after-uploads"));
    let leave_after_round: Option<usize> = args
        .value("leave-after-round")
        .map(|v| v.parse().expect("--leave-after-round"));

    let parties = worker_partition(scenario.profile.num_parties, workers, index);
    eprintln!(
        "party-worker {index}/{workers}: hosting {} parties, connecting to {connect}",
        parties.len()
    );

    // The coordinator may still be binding its listener; retry briefly.
    let mut stream = {
        let mut attempt = 0;
        loop {
            match TcpStream::connect(connect) {
                Ok(s) => break s,
                Err(e) if attempt < 100 => {
                    attempt += 1;
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => panic!("connect to coordinator at {connect}: {e}"),
            }
        }
    };
    stream.set_nodelay(true).expect("set_nodelay");

    let summary = run_worker(
        &mut stream,
        &scenario,
        &cfg,
        parties,
        stall_after_uploads,
        leave_after_round,
    )
    .expect("worker session");
    println!(
        "worker {index} done: broadcasts {} join_chunks {} uploads {} rounds_seen {} left {} parties_built {}",
        summary.broadcasts,
        summary.join_chunks,
        summary.uploads,
        summary.rounds_seen,
        summary.left,
        summary.parties_built
    );
}

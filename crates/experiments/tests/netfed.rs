//! Loopback integration tests for networked federation: the bit-parity
//! claim (a dense synchronous round over real sockets is indistinguishable
//! from the in-process driver) and wire-byte honesty (every byte the
//! ledger claims was communicated actually crossed a socket, and nothing
//! crossed unmetered beyond the public frame overheads).

use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

use shiftex_data::{DatasetKind, SimScale};
use shiftex_experiments::{
    run_netfed_rounds, run_worker, worker_partition, FedSelector, NetFedConfig, NetFedRun, Scenario,
};
use shiftex_fl::{CodecSpec, LocalTransport};
use shiftex_net::{
    Coordinator, NetStats, WorkerSummary, BROADCAST_CTX_LEN, FRAME_HEADER_LEN, JOIN_CHUNK_CTX_LEN,
    UPLOAD_CTX_LEN,
};

const WORKERS: usize = 4;

fn scenario() -> Scenario {
    Scenario::build_with_population(
        DatasetKind::FashionMnist,
        SimScale::Smoke,
        42,
        Some(8),
        Some(16),
    )
}

fn config(strategy: &str, codec: CodecSpec, join_chunk_bytes: Option<usize>) -> NetFedConfig {
    NetFedConfig {
        strategy: strategy.to_string(),
        codec,
        selector: FedSelector::Uniform,
        rounds: 3,
        join_chunk_bytes,
    }
}

/// Runs one full networked session on loopback: `WORKERS` worker threads
/// against a coordinator in this thread. Returns the run result plus the
/// wire-level ground truth captured before shutdown.
fn net_session(
    scenario: &Scenario,
    cfg: &NetFedConfig,
) -> (NetFedRun, NetStats, u64, u64, Vec<WorkerSummary>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
    let addr = listener.local_addr().expect("listener addr");
    let num_parties = scenario.profile.num_parties;
    let handles: Vec<_> = (0..WORKERS)
        .map(|i| {
            let scenario = scenario.clone();
            let cfg = cfg.clone();
            let parties = worker_partition(num_parties, WORKERS, i);
            thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect to coordinator");
                stream.set_nodelay(true).expect("set_nodelay");
                run_worker(&mut stream, &scenario, &cfg, parties, None, None)
                    .expect("worker session")
            })
        })
        .collect();
    let mut coordinator =
        Coordinator::accept(&listener, WORKERS, cfg.codec, Duration::from_secs(60))
            .expect("register workers");
    let run = run_netfed_rounds(scenario, cfg, &mut coordinator);
    let stats = coordinator.stats();
    let wire_out = coordinator.wire_written();
    let wire_in = coordinator.wire_read();
    coordinator.shutdown();
    let summaries = handles
        .into_iter()
        .map(|h| h.join().expect("worker thread"))
        .collect();
    (run, stats, wire_out, wire_in, summaries)
}

/// The honesty reconciliation: socket bytes == ledger bytes + the public
/// per-message frame overheads, with nothing unaccounted in either
/// direction.
fn assert_wire_honesty(run: &NetFedRun, stats: &NetStats, wire_out: u64, wire_in: u64) {
    let msg_overhead = (FRAME_HEADER_LEN + BROADCAST_CTX_LEN) as u64;
    assert_eq!(
        stats.broadcast_bytes,
        run.comm.down_bytes
            + run.comm.first_contact_down_bytes
            + stats.broadcast_msgs * msg_overhead,
        "broadcast socket bytes must be ledger downlink + frame overhead"
    );
    let chunk_overhead = (FRAME_HEADER_LEN + JOIN_CHUNK_CTX_LEN) as u64;
    assert_eq!(
        stats.join_chunk_bytes,
        run.comm.join_chunk_down_bytes + stats.join_chunk_msgs * chunk_overhead,
        "join-chunk socket bytes must be ledger chunk bytes + frame overhead"
    );
    assert_eq!(stats.join_chunk_msgs, run.comm.join_chunk_messages);
    let upload_overhead = (FRAME_HEADER_LEN + UPLOAD_CTX_LEN) as u64;
    assert_eq!(
        stats.upload_bytes,
        run.comm.up_bytes + stats.upload_msgs * upload_overhead,
        "upload socket bytes must be ledger uplink + frame overhead"
    );
    assert_eq!(
        run.comm.messages,
        stats.broadcast_msgs + stats.join_chunk_msgs + stats.upload_msgs,
        "every ledger message must have crossed the wire exactly once"
    );
    assert_eq!(
        wire_out,
        stats.broadcast_bytes + stats.join_chunk_bytes + stats.control_out_bytes,
        "no unaccounted bytes written to any socket"
    );
    assert_eq!(
        wire_in,
        stats.upload_bytes + stats.stale_upload_bytes + stats.control_in_bytes,
        "no unaccounted bytes read from any socket"
    );
}

#[test]
fn loopback_dense_sync_is_bit_identical_to_in_process_driver() {
    let scenario = scenario();
    let cfg = config("shiftex", CodecSpec::dense(), None);
    let reference = run_netfed_rounds(&scenario, &cfg, &mut LocalTransport);
    let (net, stats, _, _, summaries) = net_session(&scenario, &cfg);
    // Bit-identity is the whole claim: parameters AND ledger totals.
    assert_eq!(net, reference);
    assert!(net.lost.is_empty(), "no losses on a healthy loopback run");
    assert_eq!(stats.lost_uploads, 0);
    assert_eq!(stats.dead_conns, 0);
    assert_eq!(stats.rounds as usize, cfg.rounds);
    let uploads: u64 = summaries.iter().map(|s| s.uploads).sum();
    assert_eq!(uploads, stats.upload_msgs);
}

/// FNV-1a over each stream's key and final parameter bits, then the
/// ledger totals' `Debug` text (so a new counter moves the hash).
fn netfed_fingerprint(run: &NetFedRun) -> u64 {
    let mut bytes = Vec::new();
    for (key, params) in &run.params {
        bytes.extend((*key as u64).to_le_bytes());
        params
            .iter()
            .for_each(|p| bytes.extend(p.to_bits().to_le_bytes()));
    }
    bytes.extend(format!("{:?}", run.comm).bytes());
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn loopback_sessions_are_bit_pinned() {
    // FedAvg is the `netfed_tcp` benchmark workload's strategy; Fielding
    // cohorts from its own label clusters instead of the driver's selector.
    let scenario = scenario();
    let computed: Vec<(&str, u64)> = ["fedavg", "fielding"]
        .into_iter()
        .map(|strategy| {
            let (run, stats, _, _, _) =
                net_session(&scenario, &config(strategy, CodecSpec::dense(), None));
            assert!(run.lost.is_empty() && stats.lost_uploads == 0, "{strategy}");
            (strategy, netfed_fingerprint(&run))
        })
        .collect();
    assert_eq!(
        computed,
        [
            ("fedavg", 0x026b_38dd_0631_211f),
            ("fielding", 0x0f96_b91a_1174_ed3c)
        ],
        "loopback sessions moved"
    );
}

#[test]
fn loopback_quant8_sync_is_bit_identical_to_in_process_driver() {
    let scenario = scenario();
    let cfg = config("fedavg", CodecSpec::quant8(64), None);
    let reference = run_netfed_rounds(&scenario, &cfg, &mut LocalTransport);
    let (net, _, _, _, _) = net_session(&scenario, &cfg);
    assert_eq!(net, reference);
}

#[test]
fn loopback_workers_build_each_hosted_party_once_per_session() {
    let scenario = scenario();
    let cfg = NetFedConfig {
        rounds: 8,
        ..config("fedavg", CodecSpec::dense(), None)
    };
    let reference = run_netfed_rounds(&scenario, &cfg, &mut LocalTransport);
    let (net, _, _, _, summaries) = net_session(&scenario, &cfg);
    assert_eq!(net, reference, "resident parties train the same bits");
    for (i, s) in summaries.iter().enumerate() {
        let hosted = worker_partition(scenario.profile.num_parties, WORKERS, i).len() as u64;
        assert!(
            s.parties_built <= hosted,
            "worker {i} built {} parties but hosts {hosted}",
            s.parties_built
        );
    }
    let built: u64 = summaries.iter().map(|s| s.parties_built).sum();
    let broadcasts: u64 = summaries.iter().map(|s| s.broadcasts).sum();
    assert!(
        broadcasts > built,
        "{broadcasts} broadcasts over {built} builds: later rounds must reuse hosted parties"
    );
}

#[test]
fn wire_bytes_reconcile_with_ledger_dense() {
    let scenario = scenario();
    let cfg = config("fedavg", CodecSpec::dense(), None);
    let (run, stats, wire_out, wire_in, _) = net_session(&scenario, &cfg);
    assert!(stats.broadcast_msgs > 0);
    assert!(stats.upload_msgs > 0);
    assert_eq!(stats.join_chunk_msgs, 0, "no chunked joins configured");
    assert_eq!(stats.stale_upload_msgs, 0);
    assert_wire_honesty(&run, &stats, wire_out, wire_in);
}

#[test]
fn wire_bytes_reconcile_with_ledger_quant8() {
    let scenario = scenario();
    let cfg = config("fedavg", CodecSpec::quant8(64), None);
    let (run, stats, wire_out, wire_in, _) = net_session(&scenario, &cfg);
    assert!(stats.broadcast_msgs > 0);
    assert!(stats.upload_msgs > 0);
    assert_wire_honesty(&run, &stats, wire_out, wire_in);
}

#[test]
fn wire_bytes_reconcile_with_ledger_chunked_join() {
    let scenario = scenario();
    // A chunk size far below the first-contact frame forces real
    // multi-chunk join syncs on every first contact.
    let cfg = config("fedavg", CodecSpec::dense(), Some(64));
    let reference = run_netfed_rounds(&scenario, &cfg, &mut LocalTransport);
    let (run, stats, wire_out, wire_in, summaries) = net_session(&scenario, &cfg);
    assert_eq!(run, reference, "chunked-join parity");
    assert!(
        stats.join_chunk_msgs > 0,
        "first contacts must have gone through chunked join sync"
    );
    let chunks: u64 = summaries.iter().map(|s| s.join_chunks).sum();
    assert_eq!(chunks, stats.join_chunk_msgs);
    assert_wire_honesty(&run, &stats, wire_out, wire_in);
}

#[test]
fn cohort_parties_no_worker_hosts_are_lost_once_without_a_panic() {
    // Workers launched for a 2-way split, coordinator told to expect one:
    // half the population is registered by nobody.
    let scenario = scenario();
    let cfg = NetFedConfig {
        rounds: 6,
        ..config("fedavg", CodecSpec::dense(), None)
    };
    let hosted = worker_partition(scenario.profile.num_parties, 2, 0);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
    let addr = listener.local_addr().expect("listener addr");
    let worker = {
        let (scenario, cfg, hosted) = (scenario.clone(), cfg.clone(), hosted.clone());
        thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect to coordinator");
            run_worker(&mut stream, &scenario, &cfg, hosted, None, None).expect("worker session")
        })
    };
    let mut coordinator = Coordinator::accept(&listener, 1, cfg.codec, Duration::from_secs(60))
        .expect("register the worker");
    let run = run_netfed_rounds(&scenario, &cfg, &mut coordinator);
    let stats = coordinator.shutdown();
    worker.join().expect("worker thread");
    assert_eq!(stats.rounds as usize, cfg.rounds, "the session finishes");
    assert!(!run.lost.is_empty(), "some cohort named an unowned party");
    for p in &run.lost {
        assert!(!hosted.contains(p), "hosted party {} was lost", p.0);
    }
    let unique: std::collections::BTreeSet<_> = run.lost.iter().collect();
    assert_eq!(unique.len(), run.lost.len(), "a party was lost twice");
    assert_eq!(stats.dead_conns, 0);
}

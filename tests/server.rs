//! End-to-end tests of `hilpd` over loopback TCP: protocol behavior,
//! quota enforcement, cancel-on-disconnect, and the core service
//! guarantee — concurrent jobs from any interleaving produce results
//! bit-identical to serial submission.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use hilp_server::{Client, JobSpec, Request, Server, ServerConfig, SubmitRequest, TenantQuota};
use hilp_telemetry::Record;
use proptest::prelude::*;

/// Spawns an in-process daemon on an ephemeral loopback port and returns
/// its address (the daemon thread is left to the process; tests that care
/// about clean shutdown drive it over the wire).
fn spawn_daemon(config: &ServerConfig) -> String {
    let (addr, _handle) = Server::spawn("127.0.0.1:0", config).expect("spawn daemon");
    addr
}

fn spec_job(tenant: &str, cpus: u32, gpu_sms: u32) -> SubmitRequest {
    SubmitRequest {
        tenant: tenant.to_string(),
        job: JobSpec::Spec {
            text: format!("cpus = {cpus}\ngpu_sms = {gpu_sms}\n"),
        },
        deadline_seconds: None,
        per_point_nodes: None,
    }
}

/// Result signature of one job: per-point `(label, makespan bits, gap
/// bits)` — bit-level equality, not approximate.
type Signature = HashMap<u64, (String, u64, u64)>;

fn run_to_signature(addr: &str, request: SubmitRequest) -> Signature {
    let mut client = Client::connect(addr).expect("connect");
    let mut signature = Signature::new();
    let outcome = client
        .run_job(request, |record| {
            if let Record::Point {
                index,
                label,
                makespan_seconds,
                gap,
                ..
            } = record
            {
                signature.insert(
                    *index,
                    (label.clone(), makespan_seconds.to_bits(), gap.to_bits()),
                );
            }
        })
        .expect("job stream");
    assert_eq!(outcome.event, "finished", "{outcome:?}");
    assert_eq!(outcome.points as usize, signature.len(), "{outcome:?}");
    signature
}

#[test]
fn ping_stats_and_malformed_lines_answer_on_one_connection() {
    let addr = spawn_daemon(&ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    client.ping().expect("ping");

    // A malformed line is answered with a rejected record, and the
    // connection stays usable.
    client
        .send(&Request::Submit(SubmitRequest {
            tenant: "t".to_string(),
            job: JobSpec::Spec {
                text: "not a spec".to_string(),
            },
            deadline_seconds: None,
            per_point_nodes: None,
        }))
        .expect("send");
    match client.read_record().expect("read") {
        Some(Record::Job { event, detail, .. }) => {
            assert_eq!(event, "rejected");
            assert!(!detail.is_empty(), "rejection must say why");
        }
        other => panic!("expected rejected record, got {other:?}"),
    }

    client.send(&Request::Stats).expect("send");
    match client.read_record().expect("read") {
        Some(Record::Job { event, id, .. }) => {
            assert_eq!(event, "stats");
            assert_eq!(id, 0, "no jobs running");
        }
        other => panic!("expected stats record, got {other:?}"),
    }
}

#[test]
fn quota_rejections_name_the_tenant_and_limit() {
    let addr = spawn_daemon(&ServerConfig {
        quota: TenantQuota {
            max_concurrent_jobs: 0,
            ..TenantQuota::default()
        },
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    let outcome = client
        .run_job(spec_job("starved", 1, 0), |_| {})
        .expect("stream");
    assert_eq!(outcome.event, "rejected");
    assert!(
        outcome.detail.contains("starved") && outcome.detail.contains("limit 0"),
        "{outcome:?}"
    );
}

#[test]
fn disconnect_cancels_the_job_and_frees_the_tenant_slot() {
    let addr = spawn_daemon(&ServerConfig {
        quota: TenantQuota {
            max_concurrent_jobs: 1,
            ..TenantQuota::default()
        },
        ..ServerConfig::default()
    });
    // Submit and vanish after the accepted record: the daemon must trip
    // the job's cancel token and release the tenant's only slot.
    {
        let mut client = Client::connect(&addr).expect("connect");
        client
            .send(&Request::Submit(SubmitRequest {
                tenant: "solo".to_string(),
                job: JobSpec::Sweep {
                    model: hilp_dse::ModelKind::Hilp,
                    step: 37,
                },
                deadline_seconds: None,
                per_point_nodes: None,
            }))
            .expect("send");
        match client.read_record().expect("read") {
            Some(Record::Job { event, .. }) => assert_eq!(event, "accepted"),
            other => panic!("expected accepted record, got {other:?}"),
        }
    }
    // The slot must come back; a cancelled job that leaked its ledger
    // entry would reject this submission forever.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let mut client = Client::connect(&addr).expect("connect");
        let outcome = client
            .run_job(spec_job("solo", 1, 0), |_| {})
            .expect("stream");
        if outcome.event == "finished" {
            break;
        }
        assert_eq!(outcome.event, "rejected", "{outcome:?}");
        assert!(
            Instant::now() < deadline,
            "tenant slot never freed after disconnect: {outcome:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// A serial client may submit again the moment it reads a job's terminal
/// record: the daemon reaps the finished job thread instead of refusing
/// the next submission as if the job were still running.
#[test]
fn back_to_back_jobs_on_one_connection_are_all_accepted() {
    let addr = spawn_daemon(&ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    for job in 0..20 {
        let outcome = client
            .run_job(spec_job("serial", 2, 4), |_| {})
            .expect("stream");
        assert_eq!(outcome.event, "finished", "job {job}: {outcome:?}");
    }
}

/// A spec whose core count would allocate without bound is refused
/// before any work starts, with a reason naming the field, and the same
/// connection keeps serving.
#[test]
fn oversized_spec_is_rejected_and_the_daemon_keeps_serving() {
    let addr = spawn_daemon(&ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    let outcome = client
        .run_job(
            SubmitRequest {
                tenant: "t".to_string(),
                job: JobSpec::Spec {
                    text: "cpus = 4000000000\n".to_string(),
                },
                deadline_seconds: None,
                per_point_nodes: None,
            },
            |_| {},
        )
        .expect("stream");
    assert_eq!(outcome.event, "rejected", "{outcome:?}");
    assert!(outcome.detail.contains("cpus"), "{outcome:?}");
    let outcome = client.run_job(spec_job("t", 2, 4), |_| {}).expect("stream");
    assert_eq!(outcome.event, "finished", "{outcome:?}");
}

#[test]
fn cli_eval_refuses_non_numeric_and_oversized_arguments() {
    // Refused during argument parsing, before any SoC is built: an
    // oversized core count would otherwise size per-core tables.
    for (args, named) in [
        (["abc", "0", "0", "1"], "cpus"),
        (["4000000000", "0", "0", "1"], "cpus"),
        (["1", "70000", "0", "1"], "gpu_sms"),
        (["1", "0", "1", "x"], "pes"),
    ] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_hilp"))
            .arg("eval")
            .args(args)
            .output()
            .expect("run hilp");
        assert_eq!(output.status.code(), Some(2), "hilp eval {args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(named), "hilp eval {args:?}: {stderr}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The service guarantee: any set of jobs submitted concurrently (the
    /// OS schedules the interleaving) produces per-job results
    /// bit-identical to submitting the same jobs serially to a fresh
    /// daemon — sharded threads, fair-share splits, shared memo caches,
    /// and persisted baselines are all result-invariant.
    #[test]
    fn interleaved_submissions_match_serial(
        jobs in prop::collection::vec((1u32..=4, 0u32..=2), 2..5)
    ) {
        // Index 0/1/2 -> no GPU, a small GPU, the paper's default GPU.
        let jobs: Vec<(u32, u32)> = jobs
            .into_iter()
            .map(|(cpus, gpu_idx)| (cpus, [0u32, 4, 16][gpu_idx as usize]))
            .collect();
        let serial_addr = spawn_daemon(&ServerConfig::default());
        let serial: Vec<Signature> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(cpus, gpu))| {
                run_to_signature(&serial_addr, spec_job(&format!("tenant-{i}"), cpus, gpu))
            })
            .collect();

        let concurrent_addr = spawn_daemon(&ServerConfig::default());
        let handles: Vec<_> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(cpus, gpu))| {
                let addr = concurrent_addr.clone();
                std::thread::spawn(move || {
                    run_to_signature(&addr, spec_job(&format!("tenant-{i}"), cpus, gpu))
                })
            })
            .collect();
        let concurrent: Vec<Signature> = handles
            .into_iter()
            .map(|h| h.join().expect("job thread"))
            .collect();

        prop_assert_eq!(serial, concurrent);
    }
}

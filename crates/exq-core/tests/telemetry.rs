//! Registry exactness under concurrency. The telemetry invariants the PR
//! pins down: counters never lose increments, a histogram's bucket counts
//! always sum to its observation count, and the wire/cache counters stay
//! exact when eight client threads hammer the TCP serve loop's `RwLock`'d
//! dispatch concurrently.
//!
//! The two traffic-generating tests live alone in this binary so registry
//! deltas are exactly this file's own doing (integration test binaries run
//! as separate processes).

use exq_core::constraints::SecurityConstraint;
use exq_core::scheme::SchemeKind;
use exq_core::system::{OutsourceConfig, Outsourcer};
use exq_core::telemetry;
use exq_core::transport::{ServeConfig, TcpTransport};
use exq_core::{serve_event, Client, Server, TenantRegistry, DEFAULT_DB};
use exq_xml::Document;
use std::net::TcpListener;
use std::sync::{Arc, RwLock};

#[test]
fn eight_thread_hammer_keeps_totals_exact() {
    const THREADS: usize = 8;
    const PER: u64 = 10_000;
    // Unique names: nothing else in this process touches them, so the
    // post-hammer totals are exact, not deltas.
    let c = telemetry::counter("test_hammer_total");
    let g = telemetry::gauge("test_hammer_gauge");
    let h = telemetry::histogram("test_hammer_ns");

    std::thread::scope(|s| {
        for t in 0..THREADS as u64 {
            s.spawn(move || {
                let c = telemetry::counter("test_hammer_total");
                let g = telemetry::gauge("test_hammer_gauge");
                let h = telemetry::histogram("test_hammer_ns");
                for i in 0..PER {
                    c.inc();
                    g.add(1);
                    g.add(-1);
                    // Spread observations over many octaves.
                    h.observe((t.wrapping_mul(PER) + i) % 1_048_576);
                }
            });
        }
    });

    assert_eq!(c.get(), THREADS as u64 * PER, "lost counter increments");
    assert_eq!(g.get(), 0, "gauge adds/subs must balance");
    assert_eq!(h.count(), THREADS as u64 * PER);
    assert_eq!(
        h.bucket_counts().iter().sum::<u64>(),
        h.count(),
        "bucket counts must sum to the observation count"
    );
    let expected_sum: u64 = (0..THREADS as u64)
        .flat_map(|t| (0..PER).map(move |i| (t.wrapping_mul(PER) + i) % 1_048_576))
        .sum();
    assert_eq!(h.sum_nanos(), expected_sum, "lost histogram sum nanos");
    // Quantiles are monotone and nonzero once observations exist.
    let p50 = h.quantile(0.50);
    let p99 = h.quantile(0.99);
    assert!(p50 <= p99);
    assert!(p99.as_nanos() > 0);

    // The hammered metrics show up in the Prometheus rendering.
    let text = telemetry::render();
    assert!(text.contains("# TYPE test_hammer_total counter"));
    assert!(text.contains("# TYPE test_hammer_ns histogram"));
    assert!(text.contains("test_hammer_ns_count"));
}

fn hosted() -> (Client, Server) {
    let doc = Document::parse(
        r#"<hospital>
            <patient><pname>Betty</pname><SSN>763895</SSN><age>35</age></patient>
            <patient><pname>Matt</pname><SSN>276543</SSN><age>40</age></patient>
           </hospital>"#,
    )
    .unwrap();
    let cs = vec![SecurityConstraint::parse("//patient:(/pname, /SSN)").unwrap()];
    Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &cs, SchemeKind::Opt, 7)
        .unwrap()
        .split()
}

#[test]
fn serve_loop_hammer_keeps_wire_and_cache_counters_exact() {
    const THREADS: usize = 8;
    const PER: usize = 25;
    let (client, mut server) = hosted();
    // Pin the cache on regardless of any ambient EXQ_CACHE setting, so
    // every query probes the response cache exactly once.
    server.set_cache_entries(Some(1024));
    let shared = Arc::new(RwLock::new(server));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let registry = Arc::new(TenantRegistry::single(DEFAULT_DB, shared).unwrap());
    let handle = serve_event(listener, registry, ServeConfig::default()).unwrap();
    let addr = handle.addr();
    let client = Arc::new(client);

    let requests = telemetry::counter("exq_wire_requests_total");
    let sent = telemetry::counter("exq_wire_bytes_sent_total");
    let received = telemetry::counter("exq_wire_bytes_received_total");
    let hits = telemetry::counter("exq_cache_response_hits_total");
    let misses = telemetry::counter("exq_cache_response_misses_total");
    let probe_hist = telemetry::histogram("exq_span_server_cache_probe");
    let (req0, sent0, recv0) = (requests.get(), sent.get(), received.get());
    let (hits0, misses0, probes0) = (hits.get(), misses.get(), probe_hist.count());

    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let client = Arc::clone(&client);
            std::thread::spawn(move || {
                let mut tcp = TcpTransport::connect_default(addr).unwrap();
                for _ in 0..PER {
                    let out = client
                        .query_via(&mut tcp, "//patient[pname = 'Betty']/age")
                        .unwrap();
                    assert_eq!(out.results, ["<age>35</age>"]);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    handle.shutdown();

    let total = (THREADS * PER) as u64;
    assert_eq!(requests.get() - req0, total, "one request frame per query");
    assert!(sent.get() > sent0 && received.get() > recv0);
    assert_eq!(
        (hits.get() - hits0) + (misses.get() - misses0),
        total,
        "every query probes the response cache exactly once"
    );
    assert!(
        hits.get() - hits0 > 0,
        "identical queries must hit the cache"
    );
    assert_eq!(
        probe_hist.count() - probes0,
        total,
        "one cache-probe span observation per query"
    );
    assert_eq!(
        probe_hist.bucket_counts().iter().sum::<u64>(),
        probe_hist.count(),
        "histogram invariant must survive concurrent serve-loop traffic"
    );
}

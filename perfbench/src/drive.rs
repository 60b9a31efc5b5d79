//! One benchmark run: set-up, warm-up, the timed phase, the write probe,
//! the durability check and the metrics.
//!
//! End-to-end metrics come from an untraced run only. A traced run
//! (`--trace 1`) first replays the timed phase untraced on a fresh set-up
//! for the trace-overhead baseline, then replays the whole schedule on
//! another fresh set-up, splitting every operation into its public calls
//! and timing each from here.

use crate::host::{self, Hosted, SetupTimes};
use crate::oracle::Oracle;
use crate::schedule::{self, Op, OpKind, Schedule, Workload, INSERT_PARENT};
use crate::spans::SpanLog;
use crate::stats::{median, percentile, sliced_tail};
use exq_core::cache::CacheStatsSnapshot;
use exq_core::telemetry::{self, Side};
use exq_core::transport::{InProcess, Transport};
use exq_core::wire::ServerResponse;
use exq_core::{Message, DEFAULT_DB};
use exq_store::PoolStats;
use exq_xml::Document;
use exq_xpath::{eval_document, Path as XPath};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Patients in the generated document.
const PATIENTS: usize = 1200;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Answers whose bytes the primitive-rate measurements re-run.
const SAMPLE_ANSWERS: usize = 16;

/// Distinct read queries `Server::explain` is run on.
const EXPLAIN_QUERIES: usize = 8;

/// Operations per slice of a phase; `query_tail_ms` and `insert_tail_ms`
/// are the median of the slices' tails. A slice of 100 puts ten samples
/// beyond its p90.
const TAIL_SLICE: usize = 100;

/// The query whose full answer the durability check compares.
const DURABILITY_QUERY: &str = "//patient/SSN";

#[derive(Debug)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub patients: usize,
    pub setups: usize,
    /// Timed operations; `None` sizes them from `seconds`.
    pub timed_ops: Option<usize>,
    /// Working directory for the run's stores (created, then removed).
    pub work_dir: PathBuf,
    /// Where a traced run dumps the benchmark's spans.
    pub span_file: Option<PathBuf>,
}

impl RunConfig {
    pub fn new(
        workload: Workload,
        seed: u64,
        seconds: u64,
        trace: bool,
        work_dir: PathBuf,
    ) -> Self {
        RunConfig {
            workload,
            seed,
            seconds,
            trace,
            patients: PATIENTS,
            setups: SETUPS,
            timed_ops: None,
            work_dir,
            span_file: None,
        }
    }
}

#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first operation whose answer disagreed with the oracle.
    pub first_bad: Option<String>,
    pub metrics: Vec<Metric>,
    /// The generated schedule (for the determinism self-test).
    pub schedule: Schedule,
    /// Host calibration loop before and after the run, in ms.
    pub calib_ms: (f64, f64),
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.first_bad.is_none()
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// A fixed integer loop in the benchmark's own code, timed in ms. It
/// tracks how fast the host runs right now, for diagnosis only.
fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for i in 0..20_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// SSNs of the document's patients, in document order.
fn patient_ssns(doc: &Document) -> Vec<String> {
    let path = XPath::parse("//patient/SSN").expect("static query");
    eval_document(doc, &path)
        .into_iter()
        .map(|n| doc.text_value(n))
        .collect()
}

/// What one operation returned.
enum Reply {
    Read {
        results: Vec<String>,
        resp_bytes: u64,
        cache_hit: bool,
    },
    Inserted,
    Deleted(usize),
}

/// Latency of one timed operation; `None` = failed or wrong.
struct Sample {
    kind: OpKind,
    ms: Option<f64>,
}

/// What a run accumulates while it executes and checks operations.
struct Verifier<'a> {
    oracle: &'a mut Oracle,
    attempted: u64,
    failed: u64,
    first_bad: Option<String>,
    /// Oracle time inside the timed phase, taken off its wall time.
    paused: Duration,
}

impl Verifier<'_> {
    /// Checks `reply` against the oracle and applies acknowledged writes
    /// to it. Returns whether the operation counts as a success.
    fn verify(&mut self, op: &Op, reply: Result<Reply, String>) -> bool {
        let t = Instant::now();
        self.attempted += 1;
        let verdict = match (op, reply) {
            (_, Err(e)) => Err(format!("{}: failed: {e}", op.describe())),
            (Op::Read(q), Ok(Reply::Read { mut results, .. })) => {
                results.sort();
                match self.oracle.answer(q) {
                    Ok(want) if want == results.as_slice() => Ok(()),
                    Ok(want) => Err(format!(
                        "{}: {} result(s), oracle has {}",
                        op.describe(),
                        results.len(),
                        want.len()
                    )),
                    Err(e) => Err(e),
                }
            }
            (Op::Insert { ssn, record, .. }, Ok(Reply::Inserted)) => {
                self.oracle.insert(ssn, record)
            }
            (Op::Delete { ssn }, Ok(Reply::Deleted(n))) => {
                let want = self.oracle.delete(ssn);
                if n == want {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: removed {n}, oracle removed {want}",
                        op.describe()
                    ))
                }
            }
            _ => Err(format!("{}: reply of the wrong kind", op.describe())),
        };
        self.paused += t.elapsed();
        match verdict {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.first_bad.is_none() {
                    self.first_bad = Some(e);
                }
                false
            }
        }
    }
}

/// Runs one operation with one call per operation, as a user would.
fn exec_plain(h: &mut Hosted, op: &Op) -> Result<Reply, String> {
    match op {
        Op::Read(q) => {
            let before = h.link.stats().bytes_received;
            let (_, resp, post) = h.client.run(&mut h.link, q).map_err(|e| e.to_string())?;
            Ok(Reply::Read {
                results: post.results,
                resp_bytes: h.link.stats().bytes_received - before,
                cache_hit: resp.served_from_cache,
            })
        }
        Op::Insert { record, seed, .. } => h
            .client
            .insert_via(&mut h.link, INSERT_PARENT, record, *seed)
            .map(|_| Reply::Inserted)
            .map_err(|e| e.to_string()),
        Op::Delete { ssn } => h
            .client
            .delete_via(&mut h.link, &Op::delete_query(ssn))
            .map(|o| Reply::Deleted(o.deleted))
            .map_err(|e| e.to_string()),
    }
}

/// Per-call and per-layer totals of a traced pass.
#[derive(Default)]
struct Layers {
    reads: u64,
    results: u64,
    blocks: u64,
    translate_ns: u64,
    roundtrip_ns: u64,
    post_ns: u64,
    decrypt_ns: u64,
    server_ns: u64,
    /// Adopted server spans by name: (count, total ns).
    server_spans: BTreeMap<String, (u64, u64)>,
    inserts: u64,
    locate_ns: u64,
    slot_ns: u64,
    prepare_ns: u64,
    apply_ns: u64,
    deletes: u64,
    delete_ns: u64,
    /// Answers kept for the primitive-rate measurements.
    answers: Vec<ServerResponse>,
    /// Distinct read queries, for `Server::explain`.
    explain: Vec<String>,
}

/// Runs one operation split into its public calls, each timed as a span.
fn exec_traced(
    h: &mut Hosted,
    op: &Op,
    op_id: u32,
    log: &mut SpanLog,
    layers: &mut Layers,
) -> Result<Reply, String> {
    let name = match op.kind() {
        OpKind::Read => "op.read",
        OpKind::Insert => "op.insert",
        OpKind::Delete => "op.delete",
    };
    let root = log.open(name, op_id, None);
    let r = exec_split(h, op, op_id, root, log, layers);
    log.close(root);
    r
}

fn exec_split(
    h: &mut Hosted,
    op: &Op,
    op_id: u32,
    root: usize,
    log: &mut SpanLog,
    layers: &mut Layers,
) -> Result<Reply, String> {
    let e = |e: exq_core::CoreError| e.to_string();
    match op {
        Op::Read(q) => {
            let s = log.open("client.translate", op_id, Some(root));
            let tq = h.client.translate(q).map_err(e)?;
            layers.translate_ns += log.close(s);

            let before = h.link.stats().bytes_received;
            let s = log.open("transport.send_query", op_id, Some(root));
            let scope = telemetry::begin_trace(telemetry::new_trace_id(), Side::Client);
            let resp = match &tq.server_query {
                Some(sq) => h.link.send_query(sq),
                None => h.link.send_naive(),
            };
            let spans = scope.finish();
            layers.roundtrip_ns += log.close(s);
            let resp = resp.map_err(e)?;
            let resp_bytes = h.link.stats().bytes_received - before;

            let s = log.open("client.post_process", op_id, Some(root));
            let post = h.client.post_process(&tq.post_query, &resp).map_err(e)?;
            layers.post_ns += log.close(s);

            layers.reads += 1;
            layers.results += post.results.len() as u64;
            layers.blocks += resp.blocks.len() as u64;
            layers.decrypt_ns += post.decrypt_time.as_nanos() as u64;
            layers.server_ns += (resp.translate_time + resp.process_time).as_nanos() as u64;
            for sp in spans.iter().filter(|sp| sp.side == Side::Server) {
                let slot = layers.server_spans.entry(sp.name.clone()).or_default();
                slot.0 += 1;
                slot.1 += sp.dur_ns;
            }
            if layers.explain.len() < EXPLAIN_QUERIES && !layers.explain.contains(q) {
                layers.explain.push(q.clone());
            }
            let cache_hit = resp.served_from_cache;
            if layers.answers.len() < SAMPLE_ANSWERS {
                layers.answers.push(resp);
            }
            Ok(Reply::Read {
                results: post.results,
                resp_bytes,
                cache_hit,
            })
        }
        Op::Insert { record, seed, .. } => {
            let s = log.open("client.translate", op_id, Some(root));
            let tq = h.client.translate(INSERT_PARENT).map_err(e)?;
            log.close(s);
            let sq = tq
                .server_query
                .ok_or("insert parent is not server-evaluable")?;

            let s = log.open("transport.locate", op_id, Some(root));
            let parents = h.link.locate(&sq).map_err(e)?;
            layers.locate_ns += log.close(s);
            let parent = *parents.first().ok_or("insert parent not found")?;

            let s = log.open("transport.insertion_slot", op_id, Some(root));
            let slot = h.link.insertion_slot(parent).map_err(e)?;
            layers.slot_ns += log.close(s);

            let s = log.open("client.prepare_insert", op_id, Some(root));
            let delta = h.client.prepare_insert(&slot, record, *seed).map_err(e)?;
            layers.prepare_ns += log.close(s);

            let s = log.open("transport.apply_insert", op_id, Some(root));
            h.link.apply_insert(&delta).map_err(e)?;
            layers.apply_ns += log.close(s);
            layers.inserts += 1;
            Ok(Reply::Inserted)
        }
        Op::Delete { ssn } => {
            let s = log.open("client.translate", op_id, Some(root));
            let tq = h.client.translate(&Op::delete_query(ssn)).map_err(e)?;
            log.close(s);
            let sq = tq
                .server_query
                .ok_or("delete query is not server-evaluable")?;

            let s = log.open("transport.delete_where", op_id, Some(root));
            let out = h.link.delete_where(&sq).map_err(e)?;
            layers.delete_ns += log.close(s);
            layers.deletes += 1;
            Ok(Reply::Deleted(out.deleted))
        }
    }
}

/// How one pass executes operations.
enum Mode<'a> {
    Plain,
    Traced {
        log: &'a mut SpanLog,
        layers: &'a mut Layers,
    },
}

/// Executes `ops`, verifying each, and returns one sample per operation
/// plus the frame bytes of the reads and how many were cache hits.
fn pass(h: &mut Hosted, d: &mut Verifier, ops: &[Op], mode: &mut Mode, first_id: u32) -> PassStats {
    let mut stats = PassStats::default();
    let started = Instant::now();
    let paused_before = d.paused;
    for (i, op) in ops.iter().enumerate() {
        let t = Instant::now();
        let reply = match mode {
            Mode::Plain => exec_plain(h, op),
            Mode::Traced { log, layers } => exec_traced(h, op, first_id + i as u32, log, layers),
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let Ok(Reply::Read {
            resp_bytes,
            cache_hit,
            ..
        }) = &reply
        {
            stats.read_bytes += resp_bytes;
            stats.cache_hits += *cache_hit as u64;
        }
        let ok = d.verify(op, reply);
        stats.samples.push(Sample {
            kind: op.kind(),
            ms: ok.then_some(ms),
        });
    }
    stats.wall = started.elapsed().saturating_sub(d.paused - paused_before);
    stats
}

#[derive(Default)]
struct PassStats {
    samples: Vec<Sample>,
    read_bytes: u64,
    cache_hits: u64,
    wall: Duration,
}

impl PassStats {
    fn latencies(&self, kind: OpKind) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.ms.unwrap_or(f64::INFINITY))
            .collect()
    }

    fn ops_per_s(&self) -> f64 {
        self.samples.len() as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Registry and store counters, snapshotted around a phase.
#[derive(Debug, Clone, Copy)]
struct Counters {
    pool: PoolStats,
    cache: CacheStatsSnapshot,
    records_decoded: u64,
    wal_bytes: u64,
    wal_fsync: (u64, u64),
    checkpoint: (u64, u64),
    checkpoints: u64,
    pages_folded: u64,
    queue_wait: (u64, u64),
}

fn db_counter(name: &str) -> u64 {
    telemetry::counter(&telemetry::db_series(name, DEFAULT_DB)).get()
}

fn hist(name: &str) -> (u64, u64) {
    let h = telemetry::histogram(name);
    (h.count(), h.sum_nanos())
}

fn snapshot(h: &Hosted) -> Counters {
    Counters {
        pool: h.db.pool_stats(),
        cache: h.cache_stats(),
        records_decoded: db_counter("exq_db_records_decoded_total"),
        wal_bytes: db_counter("exq_db_wal_bytes_total"),
        wal_fsync: hist("exq_store_wal_fsync_seconds"),
        checkpoint: hist("exq_store_checkpoint_seconds"),
        checkpoints: db_counter("exq_store_checkpoints_total"),
        pages_folded: db_counter("exq_store_checkpoint_pages_folded_total"),
        queue_wait: hist("exq_evloop_queue_wait_seconds"),
    }
}

/// Mean of a histogram's delta, in ns.
fn hist_mean(after: (u64, u64), before: (u64, u64)) -> f64 {
    ratio((after.1 - before.1) as f64, (after.0 - before.0) as f64)
}

/// `num / den`, or 0 when nothing was measured.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the durability check found.
struct Durability {
    reopen: Duration,
    checks: u64,
    misses: u64,
    disk_bytes: u64,
}

/// Stops serving, reopens the store (replaying the WAL) and reads every
/// patient's SSN through the recovered server. Each SSN the oracle or the
/// store holds is one check; a miss is an acknowledged insert that is
/// gone, an acknowledged delete that came back, or any other drift. Then
/// folds the WAL and measures the on-disk bytes.
fn durability(h: Hosted, oracle: &mut Oracle) -> Result<Durability, String> {
    let stopped = h.stop();
    let (server, db, reopen) = stopped.reopen()?;
    let got: BTreeSet<String> = {
        let guard = server.read().map_err(|_| "server lock poisoned")?;
        let mut link = InProcess::shared(&guard);
        let (_, _, post) = stopped
            .client
            .run(&mut link, DURABILITY_QUERY)
            .map_err(|e| format!("durability read: {e}"))?;
        post.results.into_iter().collect()
    };
    let want: BTreeSet<String> = oracle.answer(DURABILITY_QUERY)?.iter().cloned().collect();
    let disk_bytes = host::final_checkpoint(&server, &db)?;
    Ok(Durability {
        reopen,
        checks: want.union(&got).count() as u64,
        misses: want.symmetric_difference(&got).count() as u64,
        disk_bytes,
    })
}

/// Runs the benchmark once.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let calib_before = calibrate();
    let w = cfg.workload;
    let doc = exq_workload::hospital::scaled(cfg.patients, cfg.seed);
    let ssns = patient_ssns(&doc);
    let timed = cfg
        .timed_ops
        .unwrap_or_else(|| schedule::timed_ops(w, cfg.seconds));
    let sched = schedule::build(w, cfg.seed, timed, &ssns);
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("{}: {e}", cfg.work_dir.display()))?;

    // Set up several times; the last set-up serves the run.
    let mut times: Vec<SetupTimes> = Vec::new();
    let mut hosted = None;
    for i in 0..cfg.setups.max(1) {
        retire(hosted.take());
        let dir = cfg.work_dir.join(format!("setup-{i}"));
        let (h, t) = host::setup(&doc, cfg.seed, w.budget(), &dir)?;
        times.push(t);
        hosted = Some(h);
    }
    let mut h = hosted.expect("at least one set-up");
    let mut oracle = Oracle::new(doc.clone());

    let baseline_ops_per_s = if cfg.trace {
        // Untraced replay of warm-up + timed phase for the overhead baseline.
        let mut d = new_verifier(&mut oracle);
        pass(&mut h, &mut d, &sched.warmup, &mut Mode::Plain, 0);
        let p = pass(&mut h, &mut d, &sched.timed, &mut Mode::Plain, 0);
        let failed = d.first_bad.take();
        retire(Some(h));
        if let Some(bad) = failed {
            return Err(format!("baseline pass: {bad}"));
        }
        let dir = cfg.work_dir.join("traced");
        h = host::setup(&doc, cfg.seed, w.budget(), &dir)?.0;
        oracle = Oracle::new(doc.clone());
        Some(p.ops_per_s())
    } else {
        None
    };

    let fp = h.db.footprint();
    let blocks = h
        .server
        .read()
        .map_err(|_| "server lock poisoned")?
        .block_count();
    let mut log = SpanLog::new();
    let mut layers = Layers::default();
    let mut d = new_verifier(&mut oracle);
    // Warm-up is never traced: per-layer numbers cover the timed phase
    // and the probe only.
    pass(&mut h, &mut d, &sched.warmup, &mut Mode::Plain, 0);
    let mut mode = if cfg.trace {
        Mode::Traced {
            log: &mut log,
            layers: &mut layers,
        }
    } else {
        Mode::Plain
    };
    let c0 = snapshot(&h);
    let timed_id = sched.warmup.len() as u32;
    let main = pass(&mut h, &mut d, &sched.timed, &mut mode, timed_id);
    let c1 = snapshot(&h);
    let probe_id = timed_id + sched.timed.len() as u32;
    let probe = pass(&mut h, &mut d, &sched.probe, &mut mode, probe_id);
    let c2 = snapshot(&h);
    let explain = if cfg.trace {
        explain_ratio(&h, &layers.explain)?
    } else {
        0.0
    };
    let block_key = h.client.state().keys.block_key();

    let (mut attempted, mut failed, first_bad) = (d.attempted, d.failed, d.first_bad.take());
    let dur = durability(h, &mut oracle)?;
    let c3 = (
        hist("exq_store_checkpoint_seconds"),
        db_counter("exq_store_checkpoints_total"),
        db_counter("exq_store_checkpoint_pages_folded_total"),
    );
    attempted += dur.checks;
    failed += dur.misses;
    let first_bad = first_bad.or_else(|| {
        (dur.misses > 0).then(|| {
            format!(
                "durability: {} SSN(s) differ from the oracle after reopen",
                dur.misses
            )
        })
    });
    let plain_bytes = oracle.doc().to_xml().len() as f64;

    // Writes: the timed phase of write-mix, the probe of the others.
    let writes = if w.read_only() { &probe } else { &main };
    let reads = main.latencies(OpKind::Read);
    let inserts = writes.latencies(OpKind::Insert);
    let deletes = writes.latencies(OpKind::Delete);
    let calib_after = calibrate();

    let mut m = Vec::new();
    let mut put = |name: &'static str, value: f64, unit: &'static str| {
        m.push(Metric {
            name,
            value: if value.is_finite() { value } else { f64::MAX },
            unit,
        })
    };
    if !cfg.trace {
        let setup_s: Vec<f64> = times.iter().map(|t| t.total().as_secs_f64()).collect();
        let n_reads = reads.len() as f64;
        put("setup_s", median(&setup_s).unwrap_or(0.0), "s");
        put(
            "query_p50_ms",
            percentile(&reads, 50.0).unwrap_or(0.0),
            "ms",
        );
        let (query_tail, tail_p) = sliced_tail(&reads, TAIL_SLICE).unwrap_or((0.0, 0.0));
        put("query_tail_ms", query_tail, "ms");
        let (insert_tail, insert_p) = sliced_tail(&inserts, TAIL_SLICE).unwrap_or((0.0, 0.0));
        put(
            "insert_p50_ms",
            percentile(&inserts, 50.0).unwrap_or(0.0),
            "ms",
        );
        put("insert_tail_ms", insert_tail, "ms");
        put(
            "delete_p50_ms",
            percentile(&deletes, 50.0).unwrap_or(0.0),
            "ms",
        );
        put("ops_per_s", main.ops_per_s(), "1/s");
        put(
            "success_ratio",
            ratio((attempted - failed) as f64, attempted as f64),
            "ratio",
        );
        put(
            "resp_kib_per_query",
            ratio(main.read_bytes as f64 / 1024.0, n_reads),
            "KiB",
        );
        put("space_amp", dur.disk_bytes as f64 / plain_bytes, "ratio");
        put("peak_rss_mib", peak_rss_mib(), "MiB");
        eprintln!(
            "perfbench: {} reads, {} inserts (tails: p{tail_p} and p{insert_p} of slices of \
             {TAIL_SLICE}), {} deletes; {:.1}% cache hits",
            reads.len(),
            inserts.len(),
            deletes.len(),
            100.0 * ratio(main.cache_hits as f64, n_reads),
        );
    } else {
        let l = &layers;
        let reads_n = l.reads as f64;
        let timed_n = sched.timed.len() as f64;
        let mutations = (l.inserts + l.deletes) as f64;
        let span = |name: &str| l.server_spans.get(name).copied().unwrap_or((0, 0));
        let span_ms_per_read = |name: &str| ratio(span(name).1 as f64 / 1e6, reads_n);
        put(
            "server.process_ms",
            ratio(l.server_ns as f64 / 1e6, reads_n),
            "ms",
        );
        put(
            "server.dsi_lookup_ms",
            span_ms_per_read("server.dsi_lookup"),
            "ms",
        );
        put(
            "server.value_resolve_ms",
            span_ms_per_read("server.value_resolve"),
            "ms",
        );
        put("server.sjoin_ms", span_ms_per_read("server.sjoin"), "ms");
        put(
            "server.assemble_ms",
            span_ms_per_read("server.assemble"),
            "ms",
        );
        put("server.candidates_per_result", explain, "ratio");
        put(
            "server.blocks_per_result",
            ratio(l.blocks as f64, l.results as f64),
            "ratio",
        );

        let pool_hits = (c1.pool.hits - c0.pool.hits) as f64;
        let pool_misses = (c1.pool.misses - c0.pool.misses) as f64;
        put(
            "pool.hit_ratio",
            ratio(pool_hits, pool_hits + pool_misses),
            "ratio",
        );
        put("pool.misses_per_op", pool_misses / timed_n, "count/op");
        put(
            "pool.evictions_per_op",
            (c1.pool.evictions - c0.pool.evictions) as f64 / timed_n,
            "count/op",
        );
        let rb = span("store.read_block");
        put(
            "store.read_block_us",
            ratio(rb.1 as f64 / 1e3, rb.0 as f64),
            "us",
        );
        put(
            "store.records_decoded_per_op",
            (c1.records_decoded - c0.records_decoded) as f64 / timed_n,
            "count/op",
        );

        let (rh, rm) = (
            (c1.cache.response_hits - c0.cache.response_hits) as f64,
            (c1.cache.response_misses - c0.cache.response_misses) as f64,
        );
        let (gh, gm) = (
            (c1.cache.range_hits - c0.cache.range_hits) as f64,
            (c1.cache.range_misses - c0.cache.range_misses) as f64,
        );
        put("cache.response_hit_ratio", ratio(rh, rh + rm), "ratio");
        put("cache.range_hit_ratio", ratio(gh, gh + gm), "ratio");

        put(
            "client.translate_us",
            ratio(l.translate_ns as f64 / 1e3, reads_n),
            "us",
        );
        put(
            "client.post_process_ms",
            ratio(l.post_ns as f64 / 1e6, reads_n),
            "ms",
        );
        put(
            "client.decrypt_ms",
            ratio(l.decrypt_ns as f64 / 1e6, reads_n),
            "ms",
        );
        put(
            "client.blocks_per_query",
            ratio(l.blocks as f64, reads_n),
            "count",
        );
        let rates = primitive_rates(&l.answers, &block_key)?;
        put("crypto.open_block_mib_s", rates.open_mib_s, "MiB/s");
        put("xml.parse_mib_s", rates.parse_mib_s, "MiB/s");
        put("codec.answer_encode_us", rates.encode_us, "us");
        put("codec.answer_decode_us", rates.decode_us, "us");
        put("codec.answer_kib", rates.answer_kib, "KiB");
        let roundtrip_ms = ratio(l.roundtrip_ns as f64 / 1e6, reads_n);
        put("wire.roundtrip_ms", roundtrip_ms, "ms");
        put(
            "wire.overhead_ms",
            roundtrip_ms - ratio(l.server_ns as f64 / 1e6, reads_n),
            "ms",
        );
        put(
            "evloop.queue_wait_us",
            hist_mean(c1.queue_wait, c0.queue_wait) / 1e3,
            "us",
        );

        put(
            "update.locate_ms",
            ratio(l.locate_ns as f64 / 1e6, l.inserts as f64),
            "ms",
        );
        put(
            "update.slot_ms",
            ratio(l.slot_ns as f64 / 1e6, l.inserts as f64),
            "ms",
        );
        put(
            "update.prepare_insert_ms",
            ratio(l.prepare_ns as f64 / 1e6, l.inserts as f64),
            "ms",
        );
        put(
            "update.apply_insert_ms",
            ratio(l.apply_ns as f64 / 1e6, l.inserts as f64),
            "ms",
        );
        put(
            "update.delete_ms",
            ratio(l.delete_ns as f64 / 1e6, l.deletes as f64),
            "ms",
        );

        put(
            "wal.bytes_per_mutation",
            ratio((c2.wal_bytes - c0.wal_bytes) as f64, mutations),
            "B",
        );
        put(
            "wal.fsync_us",
            hist_mean(c2.wal_fsync, c0.wal_fsync) / 1e3,
            "us",
        );
        put("wal.replay_ms", dur.reopen.as_secs_f64() * 1e3, "ms");
        put("checkpoint.count", (c3.1 - c0.checkpoints) as f64, "count");
        put("checkpoint.ms", hist_mean(c3.0, c0.checkpoint) / 1e6, "ms");
        put(
            "checkpoint.pages_folded",
            (c3.2 - c0.pages_folded) as f64,
            "count",
        );

        put(
            "store.pages_per_block",
            ratio(fp.page_count as f64, blocks as f64),
            "ratio",
        );
        put(
            "store.disk_mib",
            fp.disk_bytes as f64 / (1024.0 * 1024.0),
            "MiB",
        );
        let med = |f: fn(&SetupTimes) -> Duration| {
            median(&times.iter().map(|t| f(t).as_secs_f64()).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        put("setup.outsource_s", med(|t| t.outsource), "s");
        put("setup.persist_s", med(|t| t.persist), "s");
        put("setup.open_s", med(|t| t.open), "s");

        put("unattributed_pct", log.unattributed_pct(), "%");
        let traced_ops_per_s = main.ops_per_s();
        put(
            "trace.overhead_pct",
            100.0 * (ratio(baseline_ops_per_s.unwrap_or(0.0), traced_ops_per_s) - 1.0),
            "%",
        );
        put("host.calib_ms", (calib_before + calib_after) / 2.0, "ms");
        if let Some(path) = &cfg.span_file {
            log.dump(path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    Ok(Outcome {
        attempted,
        failed,
        first_bad,
        metrics: m,
        schedule: sched,
        calib_ms: (calib_before, calib_after),
    })
}

fn new_verifier(oracle: &mut Oracle) -> Verifier<'_> {
    Verifier {
        oracle,
        attempted: 0,
        failed: 0,
        first_bad: None,
        paused: Duration::ZERO,
    }
}

/// Stops a set-up that no longer serves and removes its files.
fn retire(h: Option<Hosted>) {
    if let Some(h) = h {
        let dir = h.dir().to_owned();
        drop(h.stop());
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Candidate intervals per result over `queries`, from `Server::explain`
/// (run here, off the timed path).
fn explain_ratio(h: &Hosted, queries: &[String]) -> Result<f64, String> {
    let server = h.server.read().map_err(|_| "server lock poisoned")?;
    let (mut candidates, mut results) = (0usize, 0usize);
    for q in queries {
        let tq = h.client.translate(q).map_err(|e| e.to_string())?;
        if let Some(sq) = tq.server_query {
            let report = server.explain(&sq);
            candidates += report.steps.iter().map(|s| s.candidates).sum::<usize>();
            results += report.anchors;
        }
    }
    Ok(ratio(candidates as f64, results as f64))
}

/// Throughput of the primitives a read's answer passes through, re-run on
/// the bytes the workload shipped.
struct Rates {
    open_mib_s: f64,
    parse_mib_s: f64,
    encode_us: f64,
    decode_us: f64,
    answer_kib: f64,
}

/// Repeats `f` for at least 30 ms; returns the mean time of one call.
fn time_per_call(mut f: impl FnMut()) -> Duration {
    let started = Instant::now();
    let mut calls = 0u32;
    while calls == 0 || started.elapsed() < Duration::from_millis(30) {
        f();
        calls += 1;
    }
    started.elapsed() / calls
}

fn primitive_rates(answers: &[ServerResponse], key: &[u8; 32]) -> Result<Rates, String> {
    const MIB: f64 = 1024.0 * 1024.0;
    let messages: Vec<Message> = answers.iter().cloned().map(Message::Answer).collect();
    let frames: Vec<Vec<u8>> = messages.iter().map(Message::encode_frame).collect();
    for f in &frames {
        Message::decode_frame(f).map_err(|e| format!("answer frame: {e}"))?;
    }
    let per_answer = |d: Duration| ratio(d.as_secs_f64() * 1e6, messages.len() as f64);
    let encode = time_per_call(|| {
        for m in &messages {
            std::hint::black_box(m.encode_frame());
        }
    });
    let decode = time_per_call(|| {
        for f in &frames {
            std::hint::black_box(Message::decode_frame(f).ok());
        }
    });
    let frame_bytes: usize = frames.iter().map(Vec::len).sum();

    let blocks: Vec<&exq_crypto::SealedBlock> = answers
        .iter()
        .flat_map(|r| r.blocks.iter().map(|b| b.as_ref()))
        .collect();
    let mut plaintexts = Vec::with_capacity(blocks.len());
    for b in &blocks {
        let bytes = exq_crypto::open_block(key, b).map_err(|e| format!("open_block: {e}"))?;
        plaintexts.push(String::from_utf8(bytes).map_err(|e| format!("block: {e}"))?);
    }
    let sealed_bytes: usize = blocks.iter().map(|b| b.ciphertext.len()).sum();
    let open = time_per_call(|| {
        for b in &blocks {
            std::hint::black_box(exq_crypto::open_block(key, b).ok());
        }
    });
    let plain_bytes: usize = plaintexts.iter().map(String::len).sum();
    let parse = time_per_call(|| {
        for p in &plaintexts {
            std::hint::black_box(Document::parse(p).ok());
        }
    });
    Ok(Rates {
        open_mib_s: ratio(sealed_bytes as f64 / MIB, open.as_secs_f64()),
        parse_mib_s: ratio(plain_bytes as f64 / MIB, parse.as_secs_f64()),
        encode_us: per_answer(encode),
        decode_us: per_answer(decode),
        answer_kib: ratio(frame_bytes as f64 / 1024.0, frames.len() as f64),
    })
}

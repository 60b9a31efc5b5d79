//! The transport layer: how encoded frames move between client and server.
//!
//! [`Transport`] abstracts the link. Two implementations:
//!
//! * [`InProcess`] — wraps a direct `Server` reference but still pushes
//!   every request and response through the frame codec, so byte accounting
//!   and decode hardening are identical to the networked path;
//! * [`TcpTransport`] — a real socket (std only, no async runtime), with
//!   connect retry + exponential backoff and per-request I/O timeouts.
//!
//! The server side is [`crate::evloop::serve_event`], an epoll event loop
//! over a [`TenantRegistry`] — one process hosting many named,
//! independently-keyed sealed databases. This module holds the part of
//! serving that does not depend on sockets: [`ServeConfig`], the
//! [`ServeHandle`] a running server is owned through, and the per-request
//! dispatch (`serve_one`) the event loop's workers run. Each frame names
//! the db it addresses (empty = the default db); read-style requests share
//! that tenant's read lock and run concurrently, mutations take its write
//! lock.
//!
//! Both sides treat the peer as untrusted at the framing layer: decode
//! errors never panic, and a connection that sends garbage framing is
//! answered with an error frame and closed.
//!
//! Fault tolerance: the serve loop enforces an optional max-in-flight
//! limit and per-request deadline, answering [`Message::Busy`] instead of
//! queueing unboundedly (cache-hit queries are admitted ahead of misses),
//! and keeps a per-tenant [`ReplayTable`] so a mutation replayed by the
//! client-side retry layer ([`crate::retry::Retry`]) is applied at most
//! once. Admission is *fair-share*: on top of the global in-flight limit,
//! each tenant is capped (its own quota, or `max_inflight` split evenly
//! across tenants), so one hot tenant's Busy storm cannot starve another
//! tenant's share of the server.

use crate::codec::{frame_len_for, DecodedFrame, Message, WireError, FRAME_HEADER_LEN};
use crate::error::CoreError;
use crate::server::Server;
use crate::telemetry::{self, Counter, Gauge};
use crate::tenant::{Tenant, TenantRegistry};
use crate::update::{DeleteOutcome, InsertDelta, InsertionSlot};
use crate::wire::{ServerQuery, ServerResponse};
use exq_crypto::SealedBlock;
use exq_index::dsi::Interval;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Registry handles for wire-traffic counters, resolved once — the
/// steady-state cost per frame is three relaxed atomic adds.
struct WireMetrics {
    requests: Arc<Counter>,
    bytes_sent: Arc<Counter>,
    bytes_received: Arc<Counter>,
}

fn wire_metrics() -> &'static WireMetrics {
    static METRICS: OnceLock<WireMetrics> = OnceLock::new();
    METRICS.get_or_init(|| WireMetrics {
        requests: telemetry::counter("exq_wire_requests_total"),
        bytes_sent: telemetry::counter("exq_wire_bytes_sent_total"),
        bytes_received: telemetry::counter("exq_wire_bytes_received_total"),
    })
}

/// Registry handles for the fault-tolerance counters on the serving side.
struct FtMetrics {
    /// Requests refused at admission because the server was saturated.
    shed: Arc<Counter>,
    /// Requests admitted but refused because the server could not be
    /// acquired within the deadline.
    deadline_shed: Arc<Counter>,
    /// Mutations answered from the replay table instead of re-applied.
    replay_hits: Arc<Counter>,
    /// Currently admitted requests.
    inflight: Arc<Gauge>,
}

fn ft_metrics() -> &'static FtMetrics {
    static METRICS: OnceLock<FtMetrics> = OnceLock::new();
    METRICS.get_or_init(|| FtMetrics {
        shed: telemetry::counter("exq_server_shed_total"),
        deadline_shed: telemetry::counter("exq_server_deadline_shed_total"),
        replay_hits: telemetry::counter("exq_replay_hits_total"),
        inflight: telemetry::gauge("exq_server_inflight"),
    })
}

/// Registry handles for the event loop's accept-path counters.
pub(crate) struct AcceptMetrics {
    /// `accept(2)` failures (fd exhaustion, aborted handshakes, …).
    pub(crate) accept_errors: Arc<Counter>,
    /// Requests refused with `Busy` because the dispatch queue was full.
    pub(crate) accept_rejected: Arc<Counter>,
}

pub(crate) fn accept_metrics() -> &'static AcceptMetrics {
    static METRICS: OnceLock<AcceptMetrics> = OnceLock::new();
    METRICS.get_or_init(|| AcceptMetrics {
        accept_errors: telemetry::counter("exq_accept_errors_total"),
        accept_rejected: telemetry::counter("exq_accept_rejected_total"),
    })
}

/// Exact byte accounting for one transport: every frame that crossed the
/// link (or would have, for [`InProcess`]), measured in encoded bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    pub requests: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
}

impl LinkStats {
    /// Traffic since an earlier snapshot.
    pub fn since(&self, earlier: &LinkStats) -> LinkStats {
        LinkStats {
            requests: self.requests - earlier.requests,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            bytes_received: self.bytes_received - earlier.bytes_received,
        }
    }
}

/// A client-side link to a server.
///
/// `roundtrip` moves one request frame out and one response frame back; the
/// typed helpers wrap it with request construction and response matching.
/// Implementations must keep [`LinkStats`] exact: encoded frame lengths,
/// nothing estimated.
pub trait Transport {
    /// Sends one request and returns the raw response message (which may be
    /// an error frame — the typed helpers convert those to `Err`).
    fn roundtrip(&mut self, req: &Message) -> Result<Message, CoreError>;

    /// Cumulative traffic over this transport.
    fn stats(&self) -> LinkStats;

    /// Sets the request id stamped on the *next* outbound frame
    /// (0 = unassigned). The retry layer keeps the id stable across
    /// attempts of one logical request so the server's [`ReplayTable`] can
    /// deduplicate replayed mutations. Transports without frame-level ids
    /// ignore it.
    fn set_next_request_id(&mut self, _id: u64) {}

    /// Liveness probe: one `Ping`/`Pong` roundtrip, returning its duration.
    /// The retry layer uses this after a reconnect to tell a dead server
    /// (ping fails) from a slow one (ping answers while a big query would
    /// not have).
    fn ping(&mut self) -> Result<Duration, CoreError> {
        let started = Instant::now();
        match self.roundtrip(&Message::Ping)? {
            Message::Pong => Ok(started.elapsed()),
            other => Err(unexpected("Pong", other)),
        }
    }

    /// Evaluate a translated query. Under an active trace, the roundtrip is
    /// a span and the server's returned spans are stitched in beneath it.
    fn send_query(&mut self, q: &ServerQuery) -> Result<ServerResponse, CoreError> {
        let guard = telemetry::span("wire.roundtrip");
        match self.roundtrip(&Message::Query(q.clone()))? {
            Message::Answer(mut r) => {
                let spans = std::mem::take(&mut r.spans);
                telemetry::adopt_spans(&spans, guard.id());
                Ok(r)
            }
            other => Err(unexpected("Answer", other)),
        }
    }

    /// Ship the whole hosted database (naive baseline).
    fn send_naive(&mut self) -> Result<ServerResponse, CoreError> {
        let guard = telemetry::span("wire.roundtrip");
        match self.roundtrip(&Message::NaiveQuery)? {
            Message::Answer(mut r) => {
                let spans = std::mem::take(&mut r.spans);
                telemetry::adopt_spans(&spans, guard.id());
                Ok(r)
            }
            other => Err(unexpected("Answer", other)),
        }
    }

    /// Fetch one sealed block.
    fn fetch_block(&mut self, id: u32) -> Result<Option<SealedBlock>, CoreError> {
        match self.roundtrip(&Message::FetchBlock(id))? {
            Message::Block(b) => Ok(b),
            other => Err(unexpected("Block", other)),
        }
    }

    /// Minimum or maximum ciphertext under an encrypted attribute.
    fn value_extreme(
        &mut self,
        attr_key: &str,
        max: bool,
    ) -> Result<Option<(u128, u32)>, CoreError> {
        let req = Message::ValueExtreme {
            attr_key: attr_key.to_owned(),
            max,
        };
        match self.roundtrip(&req)? {
            Message::Extreme(e) => Ok(e),
            other => Err(unexpected("Extreme", other)),
        }
    }

    /// Intervals matching a translated query (update path).
    fn locate(&mut self, q: &ServerQuery) -> Result<Vec<Interval>, CoreError> {
        match self.roundtrip(&Message::Locate(q.clone()))? {
            Message::Intervals(ivs) => Ok(ivs),
            other => Err(unexpected("Intervals", other)),
        }
    }

    /// Request an insertion slot under a parent interval.
    fn insertion_slot(&mut self, parent: Interval) -> Result<InsertionSlot, CoreError> {
        match self.roundtrip(&Message::InsertionSlotReq(parent))? {
            Message::Slot(s) => Ok(s),
            other => Err(unexpected("Slot", other)),
        }
    }

    /// Apply a prepared insertion.
    fn apply_insert(&mut self, delta: &InsertDelta) -> Result<(), CoreError> {
        match self.roundtrip(&Message::ApplyInsert(delta.clone()))? {
            Message::InsertOk => Ok(()),
            other => Err(unexpected("InsertOk", other)),
        }
    }

    /// Delete all subtrees matching a translated query.
    fn delete_where(&mut self, q: &ServerQuery) -> Result<DeleteOutcome, CoreError> {
        match self.roundtrip(&Message::DeleteWhere(q.clone()))? {
            Message::Deleted(outcome) => Ok(outcome),
            other => Err(unexpected("Deleted", other)),
        }
    }

    /// The server's cache counters (hits/misses/evictions, generation).
    fn cache_stats(&mut self) -> Result<crate::cache::CacheStatsSnapshot, CoreError> {
        match self.roundtrip(&Message::CacheStatsReq)? {
            Message::CacheStats(stats) => Ok(stats),
            other => Err(unexpected("CacheStats", other)),
        }
    }

    /// The server's metrics registry as Prometheus-style text.
    fn metrics_text(&mut self) -> Result<String, CoreError> {
        match self.roundtrip(&Message::MetricsReq)? {
            Message::MetricsText(text) => Ok(text),
            other => Err(unexpected("MetricsText", other)),
        }
    }

    /// The server's flight-recorder dump as JSON lines (oldest event
    /// first).
    fn flight_dump(&mut self) -> Result<String, CoreError> {
        match self.roundtrip(&Message::FlightReq)? {
            Message::FlightDump(text) => Ok(text),
            other => Err(unexpected("FlightDump", other)),
        }
    }
}

/// A transport that can re-establish its link after a failure. The
/// client-side retry layer ([`crate::retry::Retry`]) calls
/// [`Reconnect::reconnect`] between attempts when a roundtrip failed with
/// a transport or codec error, since the underlying connection may be dead.
pub trait Reconnect: Transport {
    /// Drops the current link (if any) and establishes a fresh one.
    /// Cumulative [`LinkStats`] survive the reconnect.
    fn reconnect(&mut self) -> Result<(), CoreError>;
}

/// Error frames become their carried error; everything else is a protocol
/// violation.
fn unexpected(want: &str, got: Message) -> CoreError {
    match got {
        Message::Error(e) => e.into_core(),
        other => CoreError::Transport(format!(
            "expected {want} response, got message type {:#04x}",
            other.msg_type()
        )),
    }
}

// --------------------------------------------------------------- dispatch --

/// Answers a read-style request against a shared server. Mutating requests
/// are rejected (the caller must hold exclusive access for those).
pub fn answer_request(server: &Server, req: &Message) -> Result<Message, CoreError> {
    match req {
        Message::Query(q) => server.answer(q).map(Message::Answer),
        Message::NaiveQuery => server.answer_naive().map(Message::Answer),
        Message::FetchBlock(id) => server.fetch_block(*id).map(Message::Block),
        Message::ValueExtreme { attr_key, max } => {
            Ok(Message::Extreme(server.value_extreme(attr_key, *max)))
        }
        Message::Locate(q) => Ok(Message::Intervals(server.locate(q))),
        Message::InsertionSlotReq(iv) => server.insertion_slot(*iv).map(Message::Slot),
        Message::CacheStatsReq => Ok(Message::CacheStats(server.cache_stats())),
        Message::MetricsReq => {
            // A scrape must read *current* occupancy, not the gauges as of
            // the last mutation: republish this server's storage gauges
            // before rendering. (The serve loop additionally refreshes
            // every registered tenant.)
            if let Some(db) = server.paged_store() {
                db.publish_metrics();
            }
            Ok(Message::MetricsText(telemetry::render()))
        }
        Message::FlightReq => Ok(Message::FlightDump(crate::flight::dump_json())),
        Message::Ping => Ok(Message::Pong),
        Message::ApplyInsert(_) | Message::DeleteWhere(_) => Err(CoreError::Transport(
            "mutating request on a read-only server handle".into(),
        )),
        other => Err(CoreError::Transport(format!(
            "not a request: message type {:#04x}",
            other.msg_type()
        ))),
    }
}

/// Answers any request, including mutations.
pub fn apply_request(server: &mut Server, req: &Message) -> Result<Message, CoreError> {
    match req {
        Message::ApplyInsert(delta) => server.apply_insert(delta).map(|()| Message::InsertOk),
        Message::DeleteWhere(q) => server.delete_where(q).map(Message::Deleted),
        other => answer_request(server, other),
    }
}

/// Recorded replies retained for mutation deduplication. Generously larger
/// than any plausible number of concurrently retrying mutations.
pub const REPLAY_CAPACITY: usize = 1024;

/// The server-side at-most-once ledger: request id → the reply produced
/// when that mutation was first applied. A retried mutation (same id, sent
/// again because the client never saw the reply) is answered from the
/// ledger instead of being applied twice.
///
/// Bounded FIFO: old entries are evicted once [`REPLAY_CAPACITY`] newer
/// mutations have completed, by which point the original client has long
/// exhausted its retry budget.
pub struct ReplayTable {
    inner: Mutex<ReplayInner>,
    capacity: usize,
}

#[derive(Default)]
struct ReplayInner {
    replies: HashMap<u64, Message>,
    order: VecDeque<u64>,
}

impl ReplayTable {
    pub fn new(capacity: usize) -> ReplayTable {
        ReplayTable {
            inner: Mutex::new(ReplayInner::default()),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ReplayInner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The recorded reply for `req_id`, if that mutation already ran.
    pub fn get(&self, req_id: u64) -> Option<Message> {
        self.lock().replies.get(&req_id).cloned()
    }

    /// Records the reply for a completed mutation, evicting the oldest
    /// entry when full.
    pub fn record(&self, req_id: u64, reply: Message) {
        let mut inner = self.lock();
        if inner.replies.insert(req_id, reply).is_none() {
            inner.order.push_back(req_id);
            while inner.order.len() > self.capacity {
                if let Some(old) = inner.order.pop_front() {
                    inner.replies.remove(&old);
                }
            }
        }
    }

    pub fn len(&self) -> usize {
        self.lock().replies.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for ReplayTable {
    fn default() -> ReplayTable {
        ReplayTable::new(REPLAY_CAPACITY)
    }
}

/// [`apply_request`] with at-most-once replay protection: a mutation
/// carrying a nonzero request id that the table has already seen returns
/// its recorded reply instead of being re-applied. Must be called with the
/// same exclusive access as `apply_request` — the check-then-record is only
/// race-free because mutations serialize on the server's write lock.
pub fn apply_request_keyed(
    server: &mut Server,
    replay: &ReplayTable,
    req_id: u64,
    req: &Message,
) -> Result<Message, CoreError> {
    if req.is_mutation() && req_id != 0 {
        if let Some(reply) = replay.get(req_id) {
            ft_metrics().replay_hits.inc();
            return Ok(reply);
        }
        let reply = apply_request(server, req)?;
        // Errors are not recorded: applying a mutation is atomic, so a
        // deterministic failure simply fails again on replay.
        replay.record(req_id, reply.clone());
        return Ok(reply);
    }
    apply_request(server, req)
}

/// Runs a dispatch closure under a server-side trace scope for `trace`
/// (0 = untraced, inert scope); spans collected during dispatch ride back
/// on `Answer` responses so the client can stitch them into its tree.
/// Errors become error frames here so span collection can't be skipped.
/// When trace-all is on, untraced frames get a server-local trace id —
/// mutations and raw pipeline clients never stamp their frames, and a
/// server operator who asked for everything should still see them.
fn dispatch_traced(trace: u64, dispatch: impl FnOnce() -> Result<Message, CoreError>) -> Message {
    let trace = if trace == 0 && telemetry::tracing_wanted() {
        telemetry::new_trace_id()
    } else {
        trace
    };
    let scope = telemetry::begin_trace(trace, telemetry::Side::Server);
    let result = dispatch();
    let spans = scope.finish();
    let mut reply = match result {
        Ok(msg) => msg,
        Err(e) => Message::Error(WireError::from_core(&e)),
    };
    if let Message::Answer(resp) = &mut reply {
        resp.spans = spans;
    }
    reply
}

// -------------------------------------------------------------- in-process --

enum ServerHandle<'a> {
    Shared(&'a Server),
    Exclusive(&'a mut Server),
}

/// The in-process transport: a direct server reference behind the full
/// frame codec. Every request is encoded, decoded, dispatched, and its
/// response encoded and decoded again — so hardening and byte accounting
/// match the TCP path bit for bit.
pub struct InProcess<'a> {
    server: ServerHandle<'a>,
    stats: LinkStats,
    /// At-most-once ledger for mutations, honored exactly like the serve
    /// loop's so retry semantics are testable without sockets.
    replay: ReplayTable,
    next_req_id: u64,
}

impl<'a> InProcess<'a> {
    /// Read-only link: queries, block fetches, aggregates. Mutating
    /// requests are answered with an error frame.
    pub fn shared(server: &'a Server) -> InProcess<'a> {
        InProcess {
            server: ServerHandle::Shared(server),
            stats: LinkStats::default(),
            replay: ReplayTable::default(),
            next_req_id: 0,
        }
    }

    /// Full link including insert/delete.
    pub fn exclusive(server: &'a mut Server) -> InProcess<'a> {
        InProcess {
            server: ServerHandle::Exclusive(server),
            stats: LinkStats::default(),
            replay: ReplayTable::default(),
            next_req_id: 0,
        }
    }
}

impl Transport for InProcess<'_> {
    fn roundtrip(&mut self, req: &Message) -> Result<Message, CoreError> {
        let req_id = std::mem::take(&mut self.next_req_id);
        let frame = req.encode_frame_req(telemetry::current_trace(), req_id);
        self.stats.requests += 1;
        self.stats.bytes_sent += frame.len() as u64;
        // Decode our own frame: the server must only ever see what survives
        // the codec, exactly as over a socket.
        let d = Message::decode_frame_ext(&frame)?;
        // `dispatch_traced` pushes a *fresh* collector: the server runs on
        // the client's thread here, and the shield keeps server spans out
        // of the client's collector (they arrive via the response instead,
        // exactly as over TCP).
        let replay = &self.replay;
        let resp = dispatch_traced(d.trace, || match &mut self.server {
            ServerHandle::Shared(s) => answer_request(s, &d.msg),
            ServerHandle::Exclusive(s) => apply_request_keyed(s, replay, d.req_id, &d.msg),
        });
        // Replies echo the request's trace and request ids so a pipelining
        // client can correlate them; the in-process link keeps the exact
        // same bytes-on-the-wire semantics as the serve loop.
        let resp_frame = resp.encode_frame_req(d.trace, d.req_id);
        self.stats.bytes_received += resp_frame.len() as u64;
        let m = wire_metrics();
        m.requests.inc();
        m.bytes_sent.add(frame.len() as u64);
        m.bytes_received.add(resp_frame.len() as u64);
        Ok(Message::decode_frame(&resp_frame)?)
    }

    fn stats(&self) -> LinkStats {
        self.stats
    }

    fn set_next_request_id(&mut self, id: u64) {
        self.next_req_id = id;
    }
}

impl Reconnect for InProcess<'_> {
    /// An in-process link has no connection to lose.
    fn reconnect(&mut self) -> Result<(), CoreError> {
        Ok(())
    }
}

// --------------------------------------------------------------------- tcp --

/// Connection/retry/timeout knobs for [`TcpTransport`].
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Timeout for each connect attempt.
    pub connect_timeout: Duration,
    /// Total connect attempts before giving up.
    pub connect_attempts: u32,
    /// Sleep before the second attempt; doubles each further attempt.
    pub retry_backoff: Duration,
    /// Per-request read/write timeout.
    pub io_timeout: Duration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            connect_timeout: Duration::from_secs(2),
            connect_attempts: 5,
            retry_backoff: Duration::from_millis(50),
            io_timeout: Duration::from_secs(30),
        }
    }
}

/// A blocking TCP client link speaking the frame protocol. The resolved
/// peer addresses and config are retained so the link can be re-dialed
/// mid-session ([`Reconnect::reconnect`]) after a failure.
pub struct TcpTransport {
    stream: TcpStream,
    peer: SocketAddr,
    addrs: Vec<SocketAddr>,
    config: TcpConfig,
    stats: LinkStats,
    next_req_id: u64,
    /// Database the frames address on a multi-tenant server (empty = the
    /// server's default db).
    db: String,
}

/// Reads one whole frame (header, framing fields and payload) off a
/// blocking stream.
fn read_frame(stream: &mut TcpStream, peer: SocketAddr) -> Result<Vec<u8>, CoreError> {
    let failed =
        |e: std::io::Error| CoreError::Transport(format!("receive from {peer} failed: {e}"));
    let mut header = [0u8; FRAME_HEADER_LEN];
    stream.read_exact(&mut header).map_err(failed)?;
    let (_, payload_len) = Message::parse_header(&header)?;
    let mut frame = vec![0u8; frame_len_for(payload_len)];
    frame[..FRAME_HEADER_LEN].copy_from_slice(&header);
    stream
        .read_exact(&mut frame[FRAME_HEADER_LEN..])
        .map_err(failed)?;
    Ok(frame)
}

/// One dial pass over the resolved addresses, with retry + backoff.
fn dial(addrs: &[SocketAddr], config: &TcpConfig) -> Result<(TcpStream, SocketAddr), CoreError> {
    let mut backoff = config.retry_backoff;
    let mut last_err = String::new();
    for attempt in 0..config.connect_attempts.max(1) {
        if attempt > 0 {
            thread::sleep(backoff);
            backoff = backoff.saturating_mul(2);
        }
        for peer in addrs {
            match TcpStream::connect_timeout(peer, config.connect_timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    stream
                        .set_read_timeout(Some(config.io_timeout))
                        .map_err(|e| CoreError::Transport(e.to_string()))?;
                    stream
                        .set_write_timeout(Some(config.io_timeout))
                        .map_err(|e| CoreError::Transport(e.to_string()))?;
                    return Ok((stream, *peer));
                }
                Err(e) => last_err = e.to_string(),
            }
        }
    }
    Err(CoreError::Transport(format!(
        "connect to {addrs:?} failed after {} attempts: {last_err}",
        config.connect_attempts.max(1)
    )))
}

impl TcpTransport {
    /// Connects with retry and exponential backoff.
    pub fn connect(addr: impl ToSocketAddrs, config: TcpConfig) -> Result<TcpTransport, CoreError> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| CoreError::Transport(format!("address resolution failed: {e}")))?
            .collect();
        if addrs.is_empty() {
            return Err(CoreError::Transport("address resolved to nothing".into()));
        }
        let (stream, peer) = dial(&addrs, &config)?;
        Ok(TcpTransport {
            stream,
            peer,
            addrs,
            config,
            stats: LinkStats::default(),
            next_req_id: 0,
            db: String::new(),
        })
    }

    /// Connects with default [`TcpConfig`].
    pub fn connect_default(addr: impl ToSocketAddrs) -> Result<TcpTransport, CoreError> {
        TcpTransport::connect(addr, TcpConfig::default())
    }

    /// Addresses every subsequent frame to the named database on a
    /// multi-tenant server (builder form). Rejects invalid db ids up
    /// front, before anything hits the wire.
    pub fn with_db(mut self, db: &str) -> Result<TcpTransport, CoreError> {
        crate::tenant::validate_db_id(db)?;
        self.db = db.to_owned();
        Ok(self)
    }

    /// The database this transport addresses (empty = server default).
    pub fn db(&self) -> &str {
        &self.db
    }

    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }
}

impl Transport for TcpTransport {
    fn roundtrip(&mut self, req: &Message) -> Result<Message, CoreError> {
        let req_id = std::mem::take(&mut self.next_req_id);
        let frame = req.encode_frame_db(telemetry::current_trace(), req_id, &self.db)?;
        self.stream
            .write_all(&frame)
            .and_then(|_| self.stream.flush())
            .map_err(|e| CoreError::Transport(format!("send to {} failed: {e}", self.peer)))?;
        self.stats.requests += 1;
        self.stats.bytes_sent += frame.len() as u64;

        let resp_frame = read_frame(&mut self.stream, self.peer)?;
        self.stats.bytes_received += resp_frame.len() as u64;
        let m = wire_metrics();
        m.requests.inc();
        m.bytes_sent.add(frame.len() as u64);
        m.bytes_received.add(resp_frame.len() as u64);
        let d = Message::decode_frame_ext(&resp_frame)?;
        // Servers echo the request id; a nonzero mismatch means this reply
        // answers some *other* request (a stale frame from a previous
        // exchange, say) and must not be attributed to this one. Zero is
        // tolerated for pre-echo servers.
        if req_id != 0 && d.req_id != 0 && d.req_id != req_id {
            return Err(CoreError::Transport(format!(
                "reply correlation mismatch: sent request id {req_id}, reply carries {}",
                d.req_id
            )));
        }
        Ok(d.msg)
    }

    fn stats(&self) -> LinkStats {
        self.stats
    }

    fn set_next_request_id(&mut self, id: u64) {
        self.next_req_id = id;
    }
}

impl Reconnect for TcpTransport {
    /// Re-dials the stored peer addresses with the original config,
    /// replacing the (possibly dead) stream. Traffic stats carry over; any
    /// half-read response on the old stream is abandoned with it.
    fn reconnect(&mut self) -> Result<(), CoreError> {
        let (stream, peer) = dial(&self.addrs, &self.config)?;
        self.stream = stream;
        self.peer = peer;
        Ok(())
    }
}

// ---------------------------------------------------------------- pipeline --

/// A pipelining TCP client link: many requests in flight on one
/// connection, correlated by the request-id field that server replies
/// echo. Where [`TcpTransport`] is strictly request→reply, a `Pipeline`
/// decouples [`Pipeline::submit`] from [`Pipeline::recv`], so a client can
/// keep the wire full instead of paying a full round trip per request.
pub struct Pipeline {
    stream: TcpStream,
    peer: SocketAddr,
    addrs: Vec<SocketAddr>,
    config: TcpConfig,
    db: String,
    next_id: u64,
    /// Requests submitted but not yet matched to a reply.
    outstanding: usize,
    stats: LinkStats,
}

impl Pipeline {
    /// Connects with retry and exponential backoff.
    pub fn connect(addr: impl ToSocketAddrs, config: TcpConfig) -> Result<Pipeline, CoreError> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| CoreError::Transport(format!("address resolution failed: {e}")))?
            .collect();
        if addrs.is_empty() {
            return Err(CoreError::Transport("address resolved to nothing".into()));
        }
        let (stream, peer) = dial(&addrs, &config)?;
        Ok(Pipeline {
            stream,
            peer,
            addrs,
            config,
            db: String::new(),
            next_id: 1,
            outstanding: 0,
            stats: LinkStats::default(),
        })
    }

    /// Connects with default [`TcpConfig`].
    pub fn connect_default(addr: impl ToSocketAddrs) -> Result<Pipeline, CoreError> {
        Pipeline::connect(addr, TcpConfig::default())
    }

    /// Addresses every subsequent frame to the named database.
    pub fn with_db(mut self, db: &str) -> Result<Pipeline, CoreError> {
        crate::tenant::validate_db_id(db)?;
        self.db = db.to_owned();
        Ok(self)
    }

    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }

    /// Cumulative traffic over this pipeline.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Requests submitted but not yet answered.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Submits one request without waiting for its reply, returning the
    /// request id its reply will carry.
    pub fn submit(&mut self, req: &Message) -> Result<u64, CoreError> {
        let id = self.next_id;
        self.next_id += 1;
        self.submit_as(req, id)?;
        Ok(id)
    }

    /// Submits one request under a caller-chosen (nonzero) request id —
    /// the retry layer keeps ids stable across resubmissions of the same
    /// logical request.
    pub fn submit_as(&mut self, req: &Message, req_id: u64) -> Result<(), CoreError> {
        if req_id == 0 {
            return Err(CoreError::Transport(
                "pipelined requests need a nonzero request id".into(),
            ));
        }
        let frame = req.encode_frame_db(telemetry::current_trace(), req_id, &self.db)?;
        self.stream
            .write_all(&frame)
            .and_then(|_| self.stream.flush())
            .map_err(|e| CoreError::Transport(format!("send to {} failed: {e}", self.peer)))?;
        self.next_id = self.next_id.max(req_id + 1);
        self.outstanding += 1;
        self.stats.requests += 1;
        self.stats.bytes_sent += frame.len() as u64;
        let m = wire_metrics();
        m.requests.inc();
        m.bytes_sent.add(frame.len() as u64);
        Ok(())
    }

    /// Receives the next reply frame, whatever request it answers,
    /// returning the echoed request id alongside the message.
    pub fn recv(&mut self) -> Result<(u64, Message), CoreError> {
        let frame = read_frame(&mut self.stream, self.peer)?;
        self.stats.bytes_received += frame.len() as u64;
        wire_metrics().bytes_received.add(frame.len() as u64);
        let d = Message::decode_frame_ext(&frame)?;
        self.outstanding = self.outstanding.saturating_sub(1);
        Ok((d.req_id, d.msg))
    }

    /// Submits every request back-to-back, then drains replies, matching
    /// them to requests by id. Returns the replies in submission order —
    /// byte-identical to what serial roundtrips would have produced, just
    /// without the per-request round-trip wait.
    pub fn roundtrip_many(&mut self, reqs: &[Message]) -> Result<Vec<Message>, CoreError> {
        let ids: Vec<u64> = reqs
            .iter()
            .map(|req| self.submit(req))
            .collect::<Result<_, _>>()?;
        let mut by_id: HashMap<u64, Message> = HashMap::with_capacity(ids.len());
        while by_id.len() < ids.len() {
            let (id, msg) = self.recv()?;
            if !ids.contains(&id) || by_id.insert(id, msg).is_some() {
                return Err(CoreError::Transport(format!(
                    "reply carries unknown or duplicate request id {id}"
                )));
            }
        }
        Ok(ids
            .into_iter()
            .map(|id| by_id.remove(&id).expect("collected above"))
            .collect())
    }

    /// Submits the group as one [`Message::Batch`] frame and unpacks
    /// the [`Message::BatchAnswer`], returning per-item replies in order.
    /// A whole-batch `Busy` or `Error` reply surfaces as the error for the
    /// call.
    pub fn batch(&mut self, reqs: &[Message]) -> Result<Vec<Message>, CoreError> {
        let id = self.submit(&Message::Batch(reqs.to_vec()))?;
        let (got, msg) = self.recv()?;
        if got != id && got != 0 {
            return Err(CoreError::Transport(format!(
                "batch reply carries request id {got}, expected {id}"
            )));
        }
        match msg {
            Message::BatchAnswer(items) => {
                if items.len() == reqs.len() {
                    Ok(items)
                } else {
                    Err(CoreError::Transport(format!(
                        "batch answer has {} items for {} requests",
                        items.len(),
                        reqs.len()
                    )))
                }
            }
            other => Err(unexpected("BatchAnswer", other)),
        }
    }

    /// Drops the connection and dials afresh. Outstanding requests are
    /// abandoned (their replies died with the old stream); the caller
    /// resubmits what it still needs, reusing the original ids so the
    /// server-side replay table can deduplicate.
    pub fn reconnect(&mut self) -> Result<(), CoreError> {
        let (stream, peer) = dial(&self.addrs, &self.config)?;
        self.stream = stream;
        self.peer = peer;
        self.outstanding = 0;
        Ok(())
    }
}

// ------------------------------------------------------------------- serve --

/// Server-side knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads running dispatched requests.
    pub workers: usize,
    /// Event-loop tick (clamped to 10–200 ms): how often stall deadlines
    /// are swept and the stop flag is checked when no socket is ready. It
    /// bounds how long shutdown can take; an idle connection is never
    /// dropped for slowness.
    pub poll_interval: Duration,
    /// Stall budget: how long a peer may go without sending a byte once a
    /// frame has started arriving, or without draining a byte of a reply
    /// it is owed. Progress restarts the budget, so a slow-but-live client
    /// dribbling bytes keeps the connection; one stalled past it is
    /// dropped.
    pub io_timeout: Duration,
    /// Intra-query worker threads (`0` = auto via `EXQ_THREADS` /
    /// available parallelism); applied to the served [`Server`].
    pub threads: usize,
    /// Cache entries per layer: `Some(0)` disables caching, `None` resolves
    /// from `EXQ_CACHE` / the default; applied to the served [`Server`].
    pub cache_entries: Option<usize>,
    /// Maximum concurrently admitted requests across all connections
    /// (`0` = unlimited). At the limit, new work is shed with
    /// [`Message::Busy`] — except cache-hit queries and cheap stats
    /// requests, which are still admitted.
    pub max_inflight: usize,
    /// Maximum concurrently admitted requests *per database* (`0` = auto:
    /// each tenant gets a fair share of `max_inflight`, split evenly).
    /// Keeps one hot tenant's burst from occupying every admission slot
    /// and starving quiet tenants.
    pub max_inflight_per_db: usize,
    /// Per-request deadline on acquiring the server (`ZERO` = none). A
    /// request that cannot take its lock within the deadline is answered
    /// [`Message::Busy`] instead of queueing behind a long writer.
    pub deadline: Duration,
    /// The `retry_after_ms` hint carried in `Busy` replies.
    pub retry_after: Duration,
    /// Dispatched requests allowed to wait for a worker before new
    /// arrivals are refused with `Busy` instead of queueing unboundedly
    /// (`0` = auto: 8× `workers`, at least 32).
    pub accept_backlog: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            poll_interval: Duration::from_millis(200),
            io_timeout: Duration::from_secs(30),
            threads: 0,
            cache_entries: None,
            max_inflight: 0,
            max_inflight_per_db: 0,
            deadline: Duration::ZERO,
            retry_after: Duration::from_millis(25),
            accept_backlog: 0,
        }
    }
}

impl ServeConfig {
    /// The effective bound on the dispatch queue.
    pub(crate) fn backlog(&self) -> usize {
        if self.accept_backlog > 0 {
            self.accept_backlog
        } else {
            (self.workers.max(1) * 8).max(32)
        }
    }
}

/// Admission state shared by every connection of one
/// [`crate::evloop::serve_event`] instance. Per-tenant state (replay
/// tables, per-db in-flight counters) lives inside the registry's
/// [`Tenant`]s.
pub(crate) struct ServeShared {
    /// The databases this instance hosts.
    pub(crate) registry: Arc<TenantRegistry>,
    /// Requests currently being dispatched across all tenants
    /// (admission-controlled).
    pub(crate) inflight: AtomicUsize,
}

/// Panic-safe in-flight accounting: decrements the global and per-tenant
/// counters (and mirrors the gauge) even if dispatch panics.
struct InflightGuard<'a> {
    shared: &'a ServeShared,
    tenant: &'a Tenant,
}

impl<'a> InflightGuard<'a> {
    fn enter(shared: &'a ServeShared, tenant: &'a Tenant) -> InflightGuard<'a> {
        shared.inflight.fetch_add(1, Ordering::SeqCst);
        tenant.enter_inflight();
        ft_metrics().inflight.add(1);
        InflightGuard { shared, tenant }
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.shared.inflight.fetch_sub(1, Ordering::SeqCst);
        self.tenant.leave_inflight();
        ft_metrics().inflight.add(-1);
    }
}

/// The per-db admission cap in effect: an explicit `max_inflight_per_db`
/// wins; otherwise `max_inflight` is split evenly across tenants (at
/// least 1 each). `0` = no per-db cap.
fn fair_share(config: &ServeConfig, tenants: usize) -> usize {
    if config.max_inflight_per_db > 0 {
        config.max_inflight_per_db
    } else if config.max_inflight > 0 && tenants > 0 {
        (config.max_inflight / tenants).max(1)
    } else {
        0
    }
}

/// A running server; dropping it (or calling [`ServeHandle::shutdown`])
/// stops the accept loop and joins every thread.
pub struct ServeHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<thread::JoinHandle<()>>,
    registry: Arc<TenantRegistry>,
}

impl ServeHandle {
    /// Assembles a handle around the event loop's spawned threads.
    pub(crate) fn assemble(
        addr: SocketAddr,
        stop: Arc<AtomicBool>,
        threads: Vec<thread::JoinHandle<()>>,
        registry: Arc<TenantRegistry>,
    ) -> ServeHandle {
        ServeHandle {
            addr,
            stop,
            threads,
            registry,
        }
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hosted databases.
    pub fn registry(&self) -> &Arc<TenantRegistry> {
        &self.registry
    }

    /// Cache counters of the default database (for `exq serve` logging).
    pub fn cache_stats(&self) -> crate::cache::CacheStatsSnapshot {
        match self.registry.resolve("") {
            Ok(tenant) => tenant.cache_stats(),
            Err(_) => crate::cache::CacheStatsSnapshot::default(),
        }
    }

    /// Cache counters broken out per database, sorted by name.
    pub fn cache_stats_per_db(&self) -> Vec<(String, crate::cache::CacheStatsSnapshot)> {
        self.registry
            .tenants()
            .into_iter()
            .map(|t| (t.name().to_owned(), t.cache_stats()))
            .collect()
    }

    /// Stops accepting, drains workers, joins threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // The event loop sees the flag on its next tick at the latest; a
        // throwaway connection wakes it sooner.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Applies the intra-query parallelism and cache knobs to every hosted
/// instance.
pub(crate) fn apply_tenant_knobs(registry: &TenantRegistry, config: &ServeConfig) {
    for tenant in registry.tenants() {
        match tenant.server.write() {
            Ok(mut guard) => {
                guard.set_threads(config.threads);
                guard.set_cache_entries(config.cache_entries);
            }
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.set_threads(config.threads);
                guard.set_cache_entries(config.cache_entries);
            }
        }
    }
}

/// How long a deadline-bounded lock acquisition sleeps between attempts.
const LOCK_POLL: Duration = Duration::from_micros(500);

/// The `Busy` reply carrying the retry hint, noted in the flight recorder.
pub(crate) fn busy_reply(retry_after: Duration) -> Message {
    let retry_after_ms = retry_after.as_millis().min(u32::MAX as u128) as u32;
    crate::flight::event(crate::flight::Kind::Busy, "", retry_after_ms as u64, 0, 0);
    Message::Busy { retry_after_ms }
}

/// Request-class half of the admission policy: given that *some* in-flight
/// limit has been hit, is this request sheddable? Cheap stats requests are
/// always admitted (they answer from atomics); queries are admitted only
/// if the response cache already holds their answer — shedding expensive
/// misses while still serving hits keeps goodput up under overload.
fn shed_class(req: &Message, cache_hit: impl FnOnce() -> bool) -> bool {
    match req {
        Message::CacheStatsReq | Message::MetricsReq | Message::FlightReq => false,
        Message::Query(_) => !cache_hit(),
        _ => true,
    }
}

/// Admission policy at a single in-flight limit (the single-tenant view;
/// [`serve_one`] combines the global and per-db limits via [`shed_class`]).
#[cfg(test)]
fn should_shed(
    req: &Message,
    inflight: usize,
    max_inflight: usize,
    cache_hit: impl FnOnce() -> bool,
) -> bool {
    if max_inflight == 0 || inflight < max_inflight {
        return false;
    }
    shed_class(req, cache_hit)
}

/// Probes whether the response cache holds `q` without blocking: a held
/// write lock means the answer may be invalidated anyway, so treat it as a
/// miss.
fn probe_cache_hit(server: &RwLock<Server>, req: &Message) -> bool {
    let Message::Query(q) = req else { return false };
    match server.try_read() {
        Ok(guard) => guard.has_cached_response(q),
        Err(_) => false,
    }
}

/// Acquires the read lock, giving up after `deadline` (ZERO = wait
/// forever). Poisoning is recovered as elsewhere in the serve loop.
fn read_lock_within(
    server: &RwLock<Server>,
    deadline: Duration,
) -> Option<RwLockReadGuard<'_, Server>> {
    if deadline.is_zero() {
        return Some(match server.read() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        });
    }
    let until = Instant::now() + deadline;
    loop {
        match server.try_read() {
            Ok(guard) => return Some(guard),
            Err(std::sync::TryLockError::Poisoned(poisoned)) => return Some(poisoned.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => {
                if Instant::now() >= until {
                    return None;
                }
                thread::sleep(LOCK_POLL);
            }
        }
    }
}

/// Write-lock counterpart of [`read_lock_within`].
fn write_lock_within(
    server: &RwLock<Server>,
    deadline: Duration,
) -> Option<RwLockWriteGuard<'_, Server>> {
    if deadline.is_zero() {
        return Some(match server.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        });
    }
    let until = Instant::now() + deadline;
    loop {
        match server.try_write() {
            Ok(guard) => return Some(guard),
            Err(std::sync::TryLockError::Poisoned(poisoned)) => return Some(poisoned.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => {
                if Instant::now() >= until {
                    return None;
                }
                thread::sleep(LOCK_POLL);
            }
        }
    }
}

/// Dispatches one decoded request under admission control: resolves the
/// frame's db to a tenant (typed error for unknown dbs), sheds at the
/// global *or* per-db in-flight limit, bounds lock acquisition by the
/// deadline, and answers mutations through the tenant's own replay table
/// for at-most-once semantics.
pub(crate) fn serve_one(shared: &ServeShared, config: &ServeConfig, d: &DecodedFrame) -> Message {
    // Liveness probes answer instantly, without the server lock or an
    // admission slot: a saturated server is alive, not dead.
    if matches!(d.msg, Message::Ping) {
        return Message::Pong;
    }
    if let Message::Batch(items) = &d.msg {
        return serve_batch(shared, config, d, items);
    }
    let tenant = match shared.registry.resolve(&d.db) {
        Ok(t) => t,
        Err(e) => return Message::Error(WireError::from_core(&e)),
    };
    tenant.note_request();
    // Health gate: a degraded db refuses mutations (reads keep serving
    // from pool + page file), a faulted db refuses data traffic entirely.
    // Diagnostics always pass so operators can see what is wrong.
    if !matches!(
        d.msg,
        Message::MetricsReq | Message::FlightReq | Message::CacheStatsReq
    ) {
        if let Err(e) = tenant.admit_health(d.msg.is_mutation()) {
            return Message::Error(WireError::from_core(&e));
        }
    }
    let server = &tenant.server;
    let inflight = shared.inflight.load(Ordering::SeqCst);
    let over_global = config.max_inflight != 0 && inflight >= config.max_inflight;
    let db_cap = tenant.effective_cap(fair_share(config, shared.registry.len()));
    let over_db = db_cap != 0 && tenant.inflight() >= db_cap;
    if (over_global || over_db) && shed_class(&d.msg, || probe_cache_hit(server, &d.msg)) {
        ft_metrics().shed.inc();
        tenant.note_shed();
        crate::flight::event(
            crate::flight::Kind::Shed,
            tenant.name(),
            inflight as u64,
            db_cap as u64,
            0,
        );
        return busy_reply(config.retry_after);
    }
    if matches!(d.msg, Message::MetricsReq) {
        // Scrape-time freshness for every hosted db, not just this one.
        shared.registry.refresh_store_gauges();
    }
    let _guard = InflightGuard::enter(shared, &tenant);
    crate::flight::event(
        crate::flight::Kind::Admit,
        tenant.name(),
        shared.inflight.load(Ordering::SeqCst) as u64,
        0,
        0,
    );
    let deadline = config.deadline;
    let started = Instant::now();
    let mut profile = None;
    let reply = dispatch_traced(d.trace, || {
        telemetry::profile_begin();
        let result = if d.msg.is_mutation() {
            match write_lock_within(server, deadline) {
                Some(mut guard) => {
                    let r = apply_request_keyed(&mut guard, &tenant.replay, d.req_id, &d.msg);
                    // A persistence failure on the mutation path means the
                    // WAL (or store) is not accepting writes: flip this db
                    // to read-only now rather than waiting for the
                    // checkpointer to find out.
                    if let Err(CoreError::Persist(m)) = &r {
                        tenant.set_degraded(m);
                    }
                    r
                }
                None => {
                    ft_metrics().deadline_shed.inc();
                    Ok(busy_reply(config.retry_after))
                }
            }
        } else {
            match read_lock_within(server, deadline) {
                Some(guard) => answer_request(&guard, &d.msg),
                None => {
                    ft_metrics().deadline_shed.inc();
                    Ok(busy_reply(config.retry_after))
                }
            }
        };
        profile = finish_profile(&tenant, &result);
        result
    });
    let total = started.elapsed();
    telemetry::record_span(&format!("db.{}", tenant.name()), total);
    note_slow(tenant.name(), total, profile.as_ref());
    reply
}

/// Closes out one dispatched request's resource profile. Must run inside
/// the dispatch closure (the trace scope is still open there, so the
/// `profile.*` spans ride back on the `Answer`): stamps the reply's
/// shipped blocks and cache outcome into the profile, folds it into the
/// tenant's per-db totals — exactly once per request, which is what makes
/// `sum(profiles) == registry counters` hold — and records each field as
/// a `profile.*` span whose nanosecond value carries the raw count.
fn finish_profile(
    tenant: &Tenant,
    result: &Result<Message, CoreError>,
) -> Option<telemetry::QueryProfile> {
    match result {
        Ok(Message::Answer(resp)) => telemetry::with_profile(|p| {
            p.blocks_shipped += resp.blocks.len() as u64;
            p.cache_hit = resp.served_from_cache;
        }),
        Ok(Message::BatchAnswer(items)) => telemetry::with_profile(|p| {
            let mut answers = 0u64;
            let mut cached = 0u64;
            for item in items {
                if let Message::Answer(r) = item {
                    answers += 1;
                    p.blocks_shipped += r.blocks.len() as u64;
                    cached += r.served_from_cache as u64;
                }
            }
            p.cache_hit = answers > 0 && cached == answers;
        }),
        _ => {}
    }
    let profile = telemetry::profile_take()?;
    tenant.note_profile(&profile);
    if telemetry::current_trace() != 0 {
        for (name, value) in profile.span_fields() {
            if value > 0 {
                telemetry::record_span(name, Duration::from_nanos(value));
            }
        }
    }
    Some(profile)
}

/// Slow-request accounting shared by single requests and batches: the
/// annotated slow-query log line plus a flight-recorder event.
fn note_slow(db: &str, total: Duration, profile: Option<&telemetry::QueryProfile>) {
    telemetry::note_server_query(db, total, profile);
    let threshold = telemetry::slow_threshold_ns();
    let total_ns = total.as_nanos().min(u64::MAX as u128) as u64;
    if threshold > 0 && total_ns >= threshold {
        crate::flight::event(
            crate::flight::Kind::SlowQuery,
            db,
            total_ns / 1000,
            profile.map_or(0, |p| p.pages_faulted),
            profile.map_or(0, |p| p.blocks_shipped),
        );
    }
}

/// Dispatches a [`Message::Batch`]: the whole group shares one tenant
/// resolution, one admission decision (a single in-flight slot), one
/// cache-probe pass, and one read-lock acquisition. Items are answered in
/// submission order inside a [`Message::BatchAnswer`]; a failing item
/// becomes an `Error` entry without sinking its siblings. Mutations and
/// nested batches never reach here — the codec rejects them at decode.
fn serve_batch(
    shared: &ServeShared,
    config: &ServeConfig,
    d: &DecodedFrame,
    items: &[Message],
) -> Message {
    let tenant = match shared.registry.resolve(&d.db) {
        Ok(t) => t,
        Err(e) => return Message::Error(WireError::from_core(&e)),
    };
    tenant.note_request();
    // Batches are read-only by construction (the codec rejects nested
    // mutations), so they pass on degraded dbs — but not on faulted ones,
    // unless every item is a diagnostic.
    let all_diagnostic = items.iter().all(|m| {
        matches!(
            m,
            Message::MetricsReq | Message::FlightReq | Message::CacheStatsReq | Message::Ping
        )
    });
    if !all_diagnostic {
        if let Err(e) = tenant.admit_health(false) {
            return Message::Error(WireError::from_core(&e));
        }
    }
    let server = &tenant.server;
    let inflight = shared.inflight.load(Ordering::SeqCst);
    let over_global = config.max_inflight != 0 && inflight >= config.max_inflight;
    let db_cap = tenant.effective_cap(fair_share(config, shared.registry.len()));
    let over_db = db_cap != 0 && tenant.inflight() >= db_cap;
    if (over_global || over_db) && !batch_all_cheap(server, items) {
        ft_metrics().shed.inc();
        tenant.note_shed();
        crate::flight::event(
            crate::flight::Kind::Shed,
            tenant.name(),
            inflight as u64,
            db_cap as u64,
            0,
        );
        return busy_reply(config.retry_after);
    }
    if items.iter().any(|m| matches!(m, Message::MetricsReq)) {
        shared.registry.refresh_store_gauges();
    }
    let _guard = InflightGuard::enter(shared, &tenant);
    crate::flight::event(
        crate::flight::Kind::Admit,
        tenant.name(),
        shared.inflight.load(Ordering::SeqCst) as u64,
        0,
        0,
    );
    let started = Instant::now();
    let mut profile = None;
    let reply = dispatch_traced(d.trace, || {
        telemetry::profile_begin();
        let result = match read_lock_within(server, config.deadline) {
            Some(guard) => Ok(Message::BatchAnswer(
                items
                    .iter()
                    .map(|item| {
                        answer_request(&guard, item)
                            .unwrap_or_else(|e| Message::Error(WireError::from_core(&e)))
                    })
                    .collect(),
            )),
            None => {
                ft_metrics().deadline_shed.inc();
                Ok(busy_reply(config.retry_after))
            }
        };
        profile = finish_profile(&tenant, &result);
        result
    });
    let total = started.elapsed();
    telemetry::record_span(&format!("db.{}", tenant.name()), total);
    note_slow(tenant.name(), total, profile.as_ref());
    reply
}

/// One cache-probe pass over a batch: under load the batch is still
/// admitted only if *every* item is cheap — a stats request, or a query
/// the response cache already answers. A single `try_read` guard probes
/// all items, so the pass costs one lock attempt regardless of batch size.
fn batch_all_cheap(server: &RwLock<Server>, items: &[Message]) -> bool {
    let Ok(guard) = server.try_read() else {
        return false;
    };
    items.iter().all(|item| match item {
        Message::CacheStatsReq | Message::MetricsReq | Message::FlightReq | Message::Ping => true,
        Message::Query(q) => guard.has_cached_response(q),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::WireCodec;

    #[test]
    fn link_stats_deltas() {
        let a = LinkStats {
            requests: 2,
            bytes_sent: 100,
            bytes_received: 900,
        };
        let b = LinkStats {
            requests: 5,
            bytes_sent: 180,
            bytes_received: 1400,
        };
        assert_eq!(
            b.since(&a),
            LinkStats {
                requests: 3,
                bytes_sent: 80,
                bytes_received: 500,
            }
        );
    }

    #[test]
    fn unexpected_error_frame_surfaces_core_error() {
        let err = unexpected(
            "Answer",
            Message::Error(WireError::from_core(&CoreError::Query("bad".into()))),
        );
        assert_eq!(err, CoreError::Query("bad".into()));
        let err = unexpected("Answer", Message::InsertOk);
        assert!(matches!(err, CoreError::Transport(_)));
    }

    #[test]
    fn in_process_counts_exact_frame_bytes() {
        // A server over the tiniest possible database.
        let doc = exq_xml::Document::parse("<r><a/></r>").unwrap();
        let hosted = crate::system::Outsourcer::new(crate::system::OutsourceConfig::default())
            .outsource(&doc, &[], crate::scheme::SchemeKind::Opt, 3)
            .unwrap();
        let (_, server) = hosted.split();
        let mut t = InProcess::shared(&server);
        let before = t.stats();
        assert_eq!(before, LinkStats::default());
        let resp = t.send_naive().unwrap();
        let stats = t.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(
            stats.bytes_sent as usize,
            Message::NaiveQuery.encode_frame().len()
        );
        assert_eq!(
            stats.bytes_received as usize,
            frame_len_for(resp.encoded_len())
        );
        assert_eq!(stats.bytes_received as usize, resp.payload_bytes());
    }

    #[test]
    fn replay_table_dedupes_and_evicts() {
        let table = ReplayTable::new(2);
        assert!(table.is_empty());
        table.record(1, Message::InsertOk);
        table.record(2, Message::InsertOk);
        assert_eq!(table.get(1), Some(Message::InsertOk));
        // Re-recording the same id must not consume a second slot.
        table.record(1, Message::InsertOk);
        assert_eq!(table.len(), 2);
        // A third distinct id evicts the oldest.
        table.record(3, Message::InsertOk);
        assert_eq!(table.len(), 2);
        assert!(table.get(1).is_none());
        assert!(table.get(2).is_some());
        assert!(table.get(3).is_some());
    }

    #[test]
    fn shed_policy_prefers_cache_hits_and_stats() {
        let q = Message::Query(ServerQuery {
            steps: vec![],
            anchor: 0,
        });
        // No limit, or below the limit: never shed.
        assert!(!should_shed(&q, 100, 0, || false));
        assert!(!should_shed(&q, 3, 4, || false));
        // At the limit: cache misses shed, hits admitted.
        assert!(should_shed(&q, 4, 4, || false));
        assert!(!should_shed(&q, 4, 4, || true));
        // Stats requests always admitted; other work sheds.
        assert!(!should_shed(&Message::CacheStatsReq, 4, 4, || false));
        assert!(!should_shed(&Message::MetricsReq, 4, 4, || false));
        assert!(should_shed(&Message::NaiveQuery, 4, 4, || false));
    }

    #[test]
    fn shared_handle_rejects_mutations() {
        let doc = exq_xml::Document::parse("<r><a/></r>").unwrap();
        let hosted = crate::system::Outsourcer::new(crate::system::OutsourceConfig::default())
            .outsource(&doc, &[], crate::scheme::SchemeKind::Opt, 3)
            .unwrap();
        let (_, server) = hosted.split();
        let mut t = InProcess::shared(&server);
        let q = ServerQuery {
            steps: vec![crate::wire::SStep {
                axis: crate::wire::SAxis::Descendant,
                tags: vec!["a".into()],
                preds: vec![],
            }],
            anchor: 0,
        };
        let err = t.delete_where(&q).unwrap_err();
        assert!(matches!(err, CoreError::Transport(_)), "got {err:?}");
    }
}

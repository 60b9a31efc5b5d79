//! Seeded workload schedules. The benchmark generates every query and
//! record here; the program under test only ever receives the generated
//! strings.

/// SplitMix64: a tiny, portable, seedable generator. The schedule must be
/// reproducible from the seed alone, independent of any crate's RNG.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Uniform point lookups by SSN on a store paged at a quarter budget.
    PointPaged,
    /// Broad reads answered from a warm response cache, whole store in the pool.
    ScanHot,
    /// Broad reads, inserts and deletes on a store paged at a quarter budget.
    WriteMix,
}

/// How big the buffer pool is relative to the store's on-disk bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    Quarter,
    Full,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::PointPaged, Workload::ScanHot, Workload::WriteMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointPaged => "point-paged",
            Workload::ScanHot => "scan-hot",
            Workload::WriteMix => "write-mix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn budget(self) -> Budget {
        match self {
            Workload::ScanHot => Budget::Full,
            Workload::PointPaged | Workload::WriteMix => Budget::Quarter,
        }
    }

    /// Nominal operations per second on the reference host (2 vCPU). It
    /// only sizes the fixed operation count of a run of `--seconds`, so
    /// that every run with the same arguments does identical work.
    fn nominal_rate(self) -> f64 {
        match self {
            Workload::PointPaged => 20.0,
            Workload::ScanHot => 130.0,
            Workload::WriteMix => 43.0,
        }
    }

    /// Whether the timed phase is read-only. Read-only workloads measure
    /// the write path in a separate probe after their reads.
    pub fn read_only(self) -> bool {
        !matches!(self, Workload::WriteMix)
    }
}

/// Projections of a point lookup: `//patient[SSN = '…']/<projection>`.
pub const POINT_PROJECTIONS: [&str; 4] = ["pname", "age", "treat/disease", "insurance/policy"];

/// The broad reads of `scan-hot` and `write-mix`. Each answer ships one
/// sealed block per patient, 140–160 KiB at 1,200 patients, so their
/// latencies form one mode.
pub const SCAN_QUERIES: [&str; 6] = [
    "//patient/pname",
    "//hospital/patient/pname",
    "//insurance/policy",
    "//patient/insurance",
    "//patient/insurance/policy",
    "//policy/@coverage",
];

/// Reads, inserts and deletes in one `write-mix` round (60/25/15), in a
/// seeded order.
const MIX_ROUND: (usize, usize, usize) = (12, 5, 3);

/// The write probe that follows the reads of a read-only workload:
/// rounds of five inserts, then deletes of the three newest live records.
/// Its 400 inserts and 240 deletes span about fifteen seconds and several
/// background checkpoints, so a short stall of the host moves its medians
/// little.
pub const PROBE_ROUNDS: usize = 80;
const PROBE_ROUND: (usize, usize) = (5, 3);

/// Interval labels under `/hospital` have room for about 240 records
/// inserted and still live at once (a delete of the newest one frees its
/// room). Deletes therefore take the newest live record, and a run keeps
/// at most this many alive.
pub const MAX_LIVE_INSERTS: usize = 170;

/// The parent every insert goes under.
pub const INSERT_PARENT: &str = "/hospital";

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// A read query.
    Read(String),
    /// Insert `record` (a `<patient>` subtree) with SSN `ssn` under
    /// [`INSERT_PARENT`]; `seed` drives the client's encryption.
    Insert {
        ssn: String,
        record: String,
        seed: u64,
    },
    /// Delete the patient with SSN `ssn` (one this run inserted).
    Delete { ssn: String },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Read,
    Insert,
    Delete,
}

impl Op {
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Read(_) => OpKind::Read,
            Op::Insert { .. } => OpKind::Insert,
            Op::Delete { .. } => OpKind::Delete,
        }
    }

    /// The query a delete sends.
    pub fn delete_query(ssn: &str) -> String {
        format!("//patient[SSN = '{ssn}']")
    }

    /// A short description for error messages.
    pub fn describe(&self) -> String {
        match self {
            Op::Read(q) => format!("read {q}"),
            Op::Insert { ssn, .. } => format!("insert of SSN {ssn} under {INSERT_PARENT}"),
            Op::Delete { ssn } => format!("delete {}", Op::delete_query(ssn)),
        }
    }
}

/// One run's operations: an untimed warm-up prefix, the timed phase, and
/// (read-only workloads) the write probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    pub warmup: Vec<Op>,
    pub timed: Vec<Op>,
    pub probe: Vec<Op>,
}

/// Timed operations of a run of `seconds`: the nominal rate times the
/// run length, rounded up to whole rounds of the workload's mix.
/// `write-mix` grows the live inserted set by two records a round, so its
/// timed phase is capped to stay within [`MAX_LIVE_INSERTS`].
pub fn timed_ops(w: Workload, seconds: u64) -> usize {
    let round = round_len(w);
    let want = (w.nominal_rate() * seconds as f64).ceil() as usize;
    let rounds = want.div_ceil(round).max(1);
    let rounds = match w {
        Workload::WriteMix => {
            let growth = MIX_ROUND.1 - MIX_ROUND.2;
            rounds.min((MAX_LIVE_INSERTS - MIX_ROUND.1) / growth - warmup_rounds(w))
        }
        Workload::PointPaged | Workload::ScanHot => rounds,
    };
    rounds * round
}

fn round_len(w: Workload) -> usize {
    match w {
        Workload::PointPaged => POINT_PROJECTIONS.len(),
        Workload::ScanHot => SCAN_QUERIES.len(),
        Workload::WriteMix => MIX_ROUND.0 + MIX_ROUND.1 + MIX_ROUND.2,
    }
}

/// Warm-up rounds before the timed phase.
fn warmup_rounds(w: Workload) -> usize {
    match w {
        Workload::PointPaged => 2,
        Workload::ScanHot => 4,
        Workload::WriteMix => 1,
    }
}

/// Builds the schedule for workload `w`, `timed` timed operations and
/// `seed`. `ssns` are the SSNs of the generated document's patients.
pub fn build(w: Workload, seed: u64, timed: usize, ssns: &[String]) -> Schedule {
    let mut gen = Generator {
        rng: SplitMix64::new(seed),
        ssns,
        next_insert: 0,
        live: Vec::new(),
        read_since_write: Vec::new(),
    };
    let warmup_len = warmup_rounds(w) * round_len(w);
    let mut all = Vec::with_capacity(warmup_len + timed);
    while all.len() < warmup_len + timed {
        gen.round(w, &mut all);
    }
    let mut timed_ops = all.split_off(warmup_len);
    timed_ops.truncate(timed);
    let probe = if w.read_only() {
        gen.probe()
    } else {
        Vec::new()
    };
    Schedule {
        warmup: all,
        timed: timed_ops,
        probe,
    }
}

struct Generator<'a> {
    rng: SplitMix64,
    ssns: &'a [String],
    /// Inserts generated so far (numbers the new SSNs).
    next_insert: u64,
    /// SSNs inserted by this schedule and not yet deleted.
    live: Vec<String>,
    /// Queries read since the last write.
    read_since_write: Vec<&'static str>,
}

impl Generator<'_> {
    /// Appends one round of the workload's mix: every kind of operation
    /// in its exact share, in a seeded order.
    fn round(&mut self, w: Workload, out: &mut Vec<Op>) {
        match w {
            Workload::PointPaged => {
                let mut projections = POINT_PROJECTIONS;
                self.rng.shuffle(&mut projections);
                for p in projections {
                    let ssn = &self.ssns[self.rng.below(self.ssns.len())];
                    out.push(Op::Read(format!("//patient[SSN = '{ssn}']/{p}")));
                }
            }
            Workload::ScanHot => {
                let mut queries = SCAN_QUERIES;
                self.rng.shuffle(&mut queries);
                out.extend(queries.iter().map(|q| Op::Read(q.to_string())));
            }
            Workload::WriteMix => {
                let (reads, inserts, deletes) = MIX_ROUND;
                let mut kinds: Vec<OpKind> = std::iter::repeat_n(OpKind::Read, reads)
                    .chain(std::iter::repeat_n(OpKind::Insert, inserts))
                    .chain(std::iter::repeat_n(OpKind::Delete, deletes))
                    .collect();
                self.rng.shuffle(&mut kinds);
                for i in 0..kinds.len() {
                    // A delete needs a live record of this run: move it
                    // after the round's next insert when there is none.
                    if kinds[i] == OpKind::Delete && self.live.is_empty() {
                        let j = (i + 1..kinds.len())
                            .find(|&j| kinds[j] == OpKind::Insert)
                            .expect("a round has more inserts than deletes");
                        kinds.swap(i, j);
                    }
                    match kinds[i] {
                        OpKind::Read => out.push(self.mix_read()),
                        OpKind::Insert => out.push(self.insert()),
                        OpKind::Delete => out.push(self.delete()),
                    }
                }
            }
        }
    }

    /// A broad read that the response cache cannot answer: every write
    /// bumps the cache generation, so a query misses when it has not been
    /// read since the last write. Falls back to any query when all have.
    fn mix_read(&mut self) -> Op {
        let fresh: Vec<&str> = SCAN_QUERIES
            .into_iter()
            .filter(|q| !self.read_since_write.contains(q))
            .collect();
        let q = if fresh.is_empty() {
            SCAN_QUERIES[self.rng.below(SCAN_QUERIES.len())]
        } else {
            fresh[self.rng.below(fresh.len())]
        };
        self.read_since_write.push(q);
        Op::Read(q.to_owned())
    }

    fn insert(&mut self) -> Op {
        const NAMES: [&str; 6] = ["Ada", "Bram", "Chen", "Dara", "Emeka", "Freya"];
        const DISEASES: [&str; 5] = ["diarrhea", "leukemia", "flu", "measles", "asthma"];
        const DOCTORS: [&str; 5] = ["Smith", "Brown", "Walker", "Lee", "Garcia"];
        // Seven digits: distinct from every generated six-digit SSN.
        let ssn = format!("{}", 2_000_000 + self.next_insert);
        self.next_insert += 1;
        let r = &mut self.rng;
        let record = format!(
            "<patient><pname>{}</pname><SSN>{ssn}</SSN><age>{}</age>\
             <treat><disease>{}</disease><doctor>{}</doctor></treat>\
             <insurance><policy coverage=\"{}\">{}</policy></insurance></patient>",
            NAMES[r.below(NAMES.len())],
            20 + r.below(60),
            DISEASES[r.below(DISEASES.len())],
            DOCTORS[r.below(DOCTORS.len())],
            1000 * (1 + r.below(999)),
            10000 + r.below(89999),
        );
        self.live.push(ssn.clone());
        self.read_since_write.clear();
        Op::Insert {
            ssn,
            record,
            seed: self.rng.next_u64(),
        }
    }

    /// Deletes the newest live record this run inserted.
    fn delete(&mut self) -> Op {
        self.read_since_write.clear();
        Op::Delete {
            ssn: self.live.pop().expect("a delete follows an insert"),
        }
    }

    /// The write probe of a read-only workload.
    fn probe(&mut self) -> Vec<Op> {
        let mut ops = Vec::new();
        for _ in 0..PROBE_ROUNDS {
            ops.extend((0..PROBE_ROUND.0).map(|_| self.insert()));
            ops.extend((0..PROBE_ROUND.1).map(|_| self.delete()));
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ssns() -> Vec<String> {
        (0..50).map(|i| format!("{:06}", 100000 + i)).collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        for w in Workload::ALL {
            let a = build(w, 7, timed_ops(w, 2), &ssns());
            let b = build(w, 7, timed_ops(w, 2), &ssns());
            assert_eq!(a, b, "{}", w.name());
            let c = build(w, 8, timed_ops(w, 2), &ssns());
            assert_ne!(a, c, "{}", w.name());
        }
    }

    #[test]
    fn write_mix_shares_and_delete_targets() {
        let s = build(Workload::WriteMix, 3, 200, &ssns());
        assert_eq!(s.timed.len(), 200);
        let count = |k| s.timed.iter().filter(|o| o.kind() == k).count();
        assert_eq!(count(OpKind::Read), 120);
        assert_eq!(count(OpKind::Insert), 50);
        assert_eq!(count(OpKind::Delete), 30);
        // A read repeats a query since the last write (a cache hit) only
        // when every scan query has been read since then.
        let mut since_write = std::collections::HashSet::new();
        for op in &s.timed {
            match op {
                Op::Read(q) => {
                    let full = since_write.len() == SCAN_QUERIES.len();
                    assert!(since_write.insert(q.clone()) || full, "repeat of {q}");
                }
                _ => since_write.clear(),
            }
        }
        // Every delete targets a record inserted earlier and not yet deleted.
        let mut live = std::collections::HashSet::new();
        for op in s.warmup.iter().chain(&s.timed) {
            match op {
                Op::Insert { ssn, .. } => assert!(live.insert(ssn.clone())),
                Op::Delete { ssn } => assert!(live.remove(ssn), "delete of {ssn}"),
                Op::Read(_) => {}
            }
        }
        assert!(s.probe.is_empty());
    }

    #[test]
    fn live_inserts_stay_bounded() {
        for w in Workload::ALL {
            let s = build(w, 5, timed_ops(w, 600), &ssns());
            let mut live = 0i64;
            let mut peak = 0;
            for op in s.warmup.iter().chain(&s.timed).chain(&s.probe) {
                live += match op.kind() {
                    OpKind::Insert => 1,
                    OpKind::Delete => -1,
                    OpKind::Read => 0,
                };
                peak = peak.max(live);
            }
            assert!(peak <= MAX_LIVE_INSERTS as i64, "{}: {peak}", w.name());
        }
    }

    #[test]
    fn read_only_workloads_have_no_writes_until_the_probe() {
        for w in [Workload::PointPaged, Workload::ScanHot] {
            let s = build(w, 1, timed_ops(w, 1), &ssns());
            assert!(s
                .warmup
                .iter()
                .chain(&s.timed)
                .all(|o| o.kind() == OpKind::Read));
            assert_eq!(s.probe.len(), PROBE_ROUNDS * 8);
        }
    }
}

//! `serve_read` and `serve_ingest`: `bindex-server` (two workers,
//! loopback) over one stored v4 index (C = 1000, Zipf, knee base,
//! range-encoded), loaded by two closed-loop client connections that each
//! send their next request as soon as the previous reply arrives.
//!
//! * `serve_read`: 8M rows; the index fits the pool, and nothing is
//!   written. Each client round is 33 requests: four groups of six fresh
//!   selections and two repeats of the group's selections, which the
//!   result cache answers, then one fresh threshold of twelve
//!   predicates. The first selection of a round asks for the full bitmap.
//! * `serve_ingest`: 1.5M rows. Client A only reads (the same rounds,
//!   counts only); client B alternates one 1024-row append batch with
//!   120 such rounds of reads.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bindex::compress::CodecKind;
use bindex::core::design::knee::knee;
use bindex::engine::{ConjunctiveQuery, IndexChoice, Table};
use bindex::relation::query::{SelectionQuery, ThresholdQuery};
use bindex::relation::{gen, Column, Rng};
use bindex::{persist_index_v4, BitmapIndex, Encoding, IndexSpec};
use bindex_server::protocol::{read_frame, write_frame};
use bindex_server::{IndexTuning, Registry, Request, Response, ServedIndex, Server, ServerConfig};

use crate::probes;
use crate::store::{CountingStore, IoCounters};
use crate::trace;
use crate::util::{
    each_op, median, median_rate, ms_since, p99, quantile, scan, stratified, threshold, Oracle,
    Report, ScratchDir,
};
use crate::Args;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Ingest,
}

const CARDINALITY: u32 = 1000;
const ZIPF_THETA: f64 = 1.0;
/// Full-bitmap selections cycle through this many queries, more than the
/// result cache holds, so each one is computed, not served from cache.
const FULL_BITMAP_POOL: usize = 48;
const CACHE_CAPACITY: usize = 32;
const POOL_CAPACITY: usize = 512;
const INGEST_ROWS: usize = 1024;
/// Read rounds client B makes between two appends. Each served append
/// rewrites the whole index (about 12 MB and 190 fsyncs at 1.5M rows),
/// stalls the reads that arrive meanwhile, and flushes the pool and the
/// result cache, so the next few dozen reads find the pool cold. With
/// about 4000 reads per append, compaction takes about a tenth of the
/// time and stalled plus cold reads are well under 1 %.
const READ_ROUNDS_PER_APPEND: usize = 120;
/// Upper bound on append batches in one run (generated ahead).
const MAX_BATCHES: usize = 400;
const WARMUP_S: f64 = 3.0;
/// `read_per_s` is the median of the reads completed per window of
/// about this many seconds.
const RATE_WINDOW_S: f64 = 1.0;
/// Reads the timed phase completes at least, so `read_p99_ms` has ten
/// samples beyond it.
const MIN_READS: u64 = 1000;
/// Per-request deadline: long enough that no read is shed while it waits
/// behind a compaction.
const DEADLINE_MS: u64 = 30_000;
const INDEX: &str = "bench";

fn rows(kind: Kind) -> usize {
    match kind {
        Kind::Read => 8_000_000,
        Kind::Ingest => 1_500_000,
    }
}

/// Inputs and oracles.
struct Data {
    column: Column,
    spec: IndexSpec,
    /// `after[j]`: oracle over the base rows plus the first `j` batches.
    after: Vec<Oracle>,
    batches: Vec<Vec<Option<u32>>>,
    /// `serve_read` only: full-bitmap queries and their per-row scans.
    full_bitmap: Vec<(SelectionQuery, Vec<u64>)>,
}

impl Data {
    fn generate(kind: Kind, seed: u64) -> Self {
        let column = gen::zipf(rows(kind), CARDINALITY, ZIPF_THETA, seed ^ 0x5e7e);
        let spec = IndexSpec::new(knee(CARDINALITY).expect("knee base"), Encoding::Range);
        let n_batches = match kind {
            Kind::Read => 0,
            Kind::Ingest => MAX_BATCHES,
        };
        let mut rng = Rng::seed_from_u64(seed ^ 0xba7c);
        let appended = gen::zipf(
            n_batches * INGEST_ROWS,
            CARDINALITY,
            ZIPF_THETA,
            seed ^ 0xadd,
        );
        let batches: Vec<Vec<Option<u32>>> = appended
            .values()
            .chunks(INGEST_ROWS)
            .map(|b| b.iter().map(|&v| Some(v)).collect())
            .collect();
        let mut hist = vec![0u64; CARDINALITY as usize];
        column.values().iter().for_each(|&v| hist[v as usize] += 1);
        let mut after = vec![Oracle::from_hist(&hist)];
        for b in &batches {
            b.iter().flatten().for_each(|&v| hist[v as usize] += 1);
            after.push(Oracle::from_hist(&hist));
        }
        let full_bitmap = match kind {
            Kind::Read => stratified(&mut rng, CARDINALITY, FULL_BITMAP_POOL)
                .into_iter()
                .map(|q| (q, scan(&column, |v| q.matches(v))))
                .collect(),
            Kind::Ingest => Vec::new(),
        };
        Self {
            column,
            spec,
            after,
            batches,
            full_bitmap,
        }
    }
}

/// The server set-up builds: a v4 index in a temp-dir store, served.
struct Served {
    server: Server,
    index: Arc<ServedIndex>,
    stored_bytes: u64,
    dir: PathBuf,
    scratch: ScratchDir,
}

fn serve(data: &Data, kind: Kind) -> Served {
    let scratch = ScratchDir::new(match kind {
        Kind::Read => "serve_read",
        Kind::Ingest => "serve_ingest",
    })
    .expect("scratch directory");
    let dir = scratch.sub("index");
    let index = BitmapIndex::build(&data.column, data.spec.clone()).expect("index builds");
    let store = CountingStore::open(&dir, Arc::new(IoCounters::default())).expect("store");
    let stored = persist_index_v4(&index, store, CodecKind::None).expect("index persists");
    drop(index);
    let stored_bytes = stored.total_stored_bytes();
    let tuning = IndexTuning {
        cache_capacity: CACHE_CAPACITY,
        pool_capacity: POOL_CAPACITY,
        ..IndexTuning::default()
    };
    let served = ServedIndex::new(
        INDEX,
        data.spec.clone(),
        Box::new(stored.into_store()),
        None,
        None,
        tuning,
    )
    .expect("index serves");
    let mut registry = Registry::new();
    registry.insert(served);
    let index = registry.get(INDEX).expect("registered");
    let config = ServerConfig {
        workers: 2,
        queue_depth: 64,
        default_deadline: Duration::from_millis(DEADLINE_MS),
    };
    let server = Server::start(registry, config, "127.0.0.1:0").expect("server binds");
    Served {
        server,
        index,
        stored_bytes,
        dir,
        scratch,
    }
}

/// One client connection; requests are traced as protocol (encode,
/// decode) and wire (send until the reply frame is in) spans.
struct Conn {
    tx: BufWriter<TcpStream>,
    rx: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connects to the server");
        stream.set_nodelay(true).expect("nodelay");
        Self {
            tx: BufWriter::new(stream.try_clone().expect("clone stream")),
            rx: BufReader::new(stream),
        }
    }

    fn call(&mut self, req: &Request) -> io::Result<Response> {
        let payload = {
            let _s = trace::span("server.protocol");
            req.encode()?
        };
        let frame = {
            let wire = trace::span("server.wire");
            let _a = trace::ambient(wire.id());
            write_frame(&mut self.tx, &payload)?;
            self.tx.flush()?;
            read_frame(&mut self.rx)?
                .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?
        };
        let _s = trace::span("server.protocol");
        Response::decode(&frame)
    }
}

#[derive(Debug, Clone)]
enum Req {
    /// A selection; `Some(i)` asks for the full bitmap of pool entry `i`.
    Select(SelectionQuery, Option<usize>),
    Threshold(ThresholdQuery),
    Ingest,
}

/// Selection groups in one read round.
const GROUPS: usize = 4;

/// 33 reads: `GROUPS` groups of six fresh selections and two repeats,
/// then one fresh "at least k of twelve" threshold (two predicates per
/// operator); the first selection is a full-bitmap request when
/// `full_bitmap` is given.
///
/// A threshold takes about twelve times as long as a selection and is one
/// read in 33, so `read_p99_ms` falls inside the thresholds' latency body,
/// above the rare reads that wait behind another client's request. With
/// shorter thresholds, or more of them, it sat on the edge between the
/// two and moved between runs of the same code.
fn read_round(rng: &mut Rng, full_bitmap: Option<(usize, SelectionQuery)>) -> Vec<Req> {
    let mut out = Vec::with_capacity(8 * GROUPS + 1);
    for g in 0..GROUPS {
        let s = each_op(rng, CARDINALITY);
        let first = match full_bitmap {
            Some((i, q)) if g == 0 => Req::Select(q, Some(i)),
            _ => Req::Select(s[0], None),
        };
        out.extend([
            first,
            Req::Select(s[1], None),
            Req::Select(s[2], None),
            Req::Select(s[3], None),
            Req::Select(s[1], None),
            Req::Select(s[4], None),
            Req::Select(s[5], None),
            Req::Select(s[2], None),
        ]);
    }
    let mut predicates = each_op(rng, CARDINALITY);
    predicates.extend(each_op(rng, CARDINALITY));
    let k = 4 + rng.below_u32(5);
    out.push(Req::Threshold(ThresholdQuery::new(k, predicates)));
    out
}

/// Round `round` of client `client`: a pure function of the seed.
fn round_ops(data: &Data, kind: Kind, seed: u64, client: u64, round: u64) -> Vec<Req> {
    let mut rng = Rng::seed_from_u64(seed ^ (client << 40) ^ round.wrapping_mul(0x9e37_79b9));
    match (kind, client) {
        (Kind::Read, _) => {
            let i = ((2 * round + client) as usize) % FULL_BITMAP_POOL;
            read_round(&mut rng, Some((i, data.full_bitmap[i].0)))
        }
        (Kind::Ingest, 0) => read_round(&mut rng, None),
        (Kind::Ingest, _) => {
            let mut ops = vec![Req::Ingest];
            for _ in 0..READ_ROUNDS_PER_APPEND {
                ops.extend(read_round(&mut rng, None));
            }
            ops
        }
    }
}

/// Append progress shared by the clients: batch `j` is *sent* once its
/// request is on the way and *acked* once its reply arrived.
#[derive(Default)]
struct Progress {
    sent: AtomicUsize,
    acked: AtomicUsize,
}

#[derive(Clone, Copy, PartialEq)]
enum Sample {
    Select,
    Threshold,
    Ingest,
}

/// Runs one op and checks its answer. Reads are checked against the
/// oracle over the rows acknowledged before the request was sent (lower
/// bound) and the rows sent before its reply arrived (upper bound):
/// appends can only raise a count. Returns the latency, or `None` when
/// the request failed.
fn run_op(
    conn: &mut Conn,
    data: &Data,
    p: &Progress,
    op: &Req,
    checks: &mut Report,
) -> Option<(Sample, f64, bool)> {
    checks.attempted += 1;
    let (req, sample) = match op {
        Req::Select(q, full) => (
            Request::Query {
                index: INDEX.into(),
                query: *q,
                want_bitmap: full.is_some(),
                deadline_ms: DEADLINE_MS,
            },
            Sample::Select,
        ),
        Req::Threshold(q) => (
            Request::Threshold {
                index: INDEX.into(),
                k: q.k,
                predicates: q.predicates.clone(),
                want_bitmap: false,
                deadline_ms: DEADLINE_MS,
            },
            Sample::Threshold,
        ),
        Req::Ingest => {
            let j = p.sent.fetch_add(1, Ordering::SeqCst);
            assert!(j < data.batches.len(), "more append batches than generated");
            (
                Request::Ingest {
                    index: INDEX.into(),
                    appends: data.batches[j].clone(),
                    deletes: Vec::new(),
                },
                Sample::Ingest,
            )
        }
    };
    let lo = p.acked.load(Ordering::SeqCst);
    let t = Instant::now();
    let reply = {
        let _op = trace::span("bench.op");
        conn.call(&req)
    };
    let ms = ms_since(t);
    let hi = p.sent.load(Ordering::SeqCst);
    let (count, cached) = match reply {
        Ok(Response::Count {
            cardinality,
            cached,
            ..
        }) => (cardinality, cached),
        Ok(Response::Bitmap {
            cardinality,
            cached,
            words,
            ..
        }) => {
            if let Req::Select(_, Some(i)) = op {
                if words != data.full_bitmap[*i].1 {
                    checks.mismatch(format!("full bitmap of {op:?} differs from the row scan"));
                }
            }
            (cardinality, cached)
        }
        Ok(Response::Ingested { n_rows, .. }) => {
            let j = p.acked.fetch_add(1, Ordering::SeqCst) + 1;
            let want = (data.column.len() + j * INGEST_ROWS) as u64;
            if n_rows != want {
                checks.mismatch(format!(
                    "ingest {j} acknowledged {n_rows} rows, want {want}"
                ));
            }
            return Some((sample, ms, false));
        }
        other => {
            eprintln!("request {op:?} failed: {other:?}");
            checks.failed += 1;
            return None;
        }
    };
    let oracle = |j: usize| match op {
        Req::Select(q, _) => data.after[j].selection(*q),
        Req::Threshold(q) => data.after[j].threshold(q),
        Req::Ingest => unreachable!(),
    };
    let (min, max) = (oracle(lo), oracle(hi));
    if count < min || count > max {
        checks.mismatch(format!(
            "{op:?}: {count} rows, oracle between {min} and {max}"
        ));
    }
    Some((sample, ms, cached))
}

#[derive(Default)]
struct ClientResult {
    samples: Vec<(Sample, f64, bool)>,
    /// This client's timed phase, in seconds from the start.
    timed_from: f64,
    timed_to: f64,
    /// When each timed read completed, in seconds from the start.
    read_ends: Vec<f64>,
    /// When each timed append was acknowledged, in seconds from the start.
    acks: Vec<f64>,
    checks: Report,
}

/// One closed-loop client: whole rounds, warm-up first, then timed rounds
/// until `seconds` have passed and the clients together completed
/// `MIN_READS` timed reads.
#[allow(clippy::too_many_arguments)]
fn client(
    addr: SocketAddr,
    data: &Data,
    kind: Kind,
    seed: u64,
    id: u64,
    p: &Progress,
    timed_reads: &AtomicU64,
    start: Instant,
    seconds: f64,
) -> ClientResult {
    let mut conn = Conn::connect(addr);
    let mut out = ClientResult {
        checks: Report::new(),
        ..ClientResult::default()
    };
    let warm_until = Duration::from_secs_f64(WARMUP_S);
    let stop_at = Duration::from_secs_f64(WARMUP_S + seconds);
    let mut first_timed = None;
    let mut round = 0;
    loop {
        let now = start.elapsed();
        if now >= stop_at && timed_reads.load(Ordering::SeqCst) >= MIN_READS {
            break;
        }
        let timed = now >= warm_until;
        if timed && first_timed.is_none() {
            first_timed = Some(now);
        }
        for op in round_ops(data, kind, seed, id, round) {
            let result = run_op(&mut conn, data, p, &op, &mut out.checks);
            if let (true, Some(s)) = (timed, result) {
                if s.0 == Sample::Ingest {
                    out.acks.push(start.elapsed().as_secs_f64());
                } else {
                    out.read_ends.push(start.elapsed().as_secs_f64());
                    timed_reads.fetch_add(1, Ordering::SeqCst);
                }
                out.samples.push(s);
            }
        }
        round += 1;
    }
    if let Some(t0) = first_timed {
        out.timed_from = t0.as_secs_f64();
        out.timed_to = start.elapsed().as_secs_f64();
    }
    if !out.checks.correct || out.checks.failed > 0 {
        eprintln!("client {id}: {} failed requests", out.checks.failed);
    }
    out
}

/// Exact checks from a fresh connection once no client runs.
fn final_checks(addr: SocketAddr, data: &Data, p: &Progress, seed: u64, report: &mut Report) {
    let mut conn = Conn::connect(addr);
    let mut rng = Rng::seed_from_u64(seed ^ 0xf1a1);
    let mut ops: Vec<Req> = each_op(&mut rng, CARDINALITY)
        .into_iter()
        .map(|q| Req::Select(q, None))
        .collect();
    ops.extend((2..5).map(|k| Req::Threshold(threshold(&mut rng, CARDINALITY, k))));
    for op in &ops {
        run_op(&mut conn, data, p, op, report);
    }
}

pub fn run(args: &Args, kind: Kind) -> Report {
    let data = Data::generate(kind, args.seed);
    let mut report = Report::new();
    let mut setup_s = Vec::new();
    let mut served: Option<Served> = None;
    // Set-up of the small serve_ingest index is short, so it takes more
    // repetitions for a steady median.
    let reps = if kind == Kind::Read { 5 } else { 7 };
    for _ in 0..reps {
        if let Some(old) = served.take() {
            old.server.shutdown();
        }
        let t = Instant::now();
        served = Some(serve(&data, kind));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let served = served.expect("set up at least once");
    let addr = served.server.addr();
    let progress = Progress::default();
    let timed_reads = AtomicU64::new(0);
    let start = Instant::now();
    let results: Vec<ClientResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|id| {
                let (data, p, timed_reads) = (&data, &progress, &timed_reads);
                scope.spawn(move || {
                    client(
                        addr,
                        data,
                        kind,
                        args.seed,
                        id,
                        p,
                        timed_reads,
                        start,
                        args.seconds,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    final_checks(addr, &data, &progress, args.seed, &mut report);

    let mut reads = Vec::new();
    let (mut select, mut threshold, mut ingest) = (Vec::new(), Vec::new(), Vec::new());
    let mut ingest_rate = 0.0;
    // Reads per second of both clients, over the time both were timed.
    let from = results.iter().map(|r| r.timed_from).fold(0.0, f64::max);
    let to = results.iter().map(|r| r.timed_to).fold(f64::MAX, f64::min);
    let ends: Vec<f64> = results.iter().flat_map(|r| r.read_ends.clone()).collect();
    let read_rate = median_rate(&ends, from, to, RATE_WINDOW_S);
    let mut cached = 0usize;
    for r in results {
        // Appends come one per cycle of client B, a few seconds apart, so
        // the rate is taken over whole cycles, from the first timed
        // acknowledgement to the last: how many cycles fit the window
        // would otherwise move it by a whole batch.
        if let [first, .., last] = r.acks[..] {
            ingest_rate += ((r.acks.len() - 1) * INGEST_ROWS) as f64 / (last - first);
        }
        for (kind, ms, hit) in r.samples {
            cached += usize::from(hit);
            match kind {
                Sample::Select => select.push(ms),
                Sample::Threshold => threshold.push(ms),
                Sample::Ingest => ingest.push(ms),
            }
            if kind != Sample::Ingest {
                reads.push(ms);
            }
        }
        report.merge(r.checks);
    }
    eprintln!(
        "{kind:?}: {} reads ({cached} from cache), {} ingests",
        reads.len(),
        ingest.len()
    );
    // The tail around the 99th percentile: a steep slope here means
    // `read_p99_ms` sits on the edge of a mode and flips between runs.
    let tail: Vec<String> = [0.98, 0.99, 0.995, 0.999, 1.0]
        .iter()
        .map(|&q| format!("{:.3}", quantile(&reads, q)))
        .collect();
    eprintln!("read ms at p98/p99/p99.5/p99.9/max: {}", tail.join(" "));
    let rows = data.column.len() as f64;
    report.metric("setup_s", median(&setup_s), "s");
    report.metric(
        "index_bytes_per_row",
        served.stored_bytes as f64 / rows,
        "bytes",
    );
    report.metric("read_per_s", read_rate, "1/s");
    report.metric("read_p99_ms", p99(&reads), "ms");
    report.metric("select_p50_ms", median(&select), "ms");
    report.metric("threshold_p50_ms", median(&threshold), "ms");
    if kind == Kind::Ingest {
        report.metric("ingest_rows_per_s", ingest_rate, "rows/s");
        report.metric("ingest_p50_ms", median(&ingest), "ms");
    }
    drop(served.index);
    served.server.shutdown();
    report
}

pub fn run_traced(args: &Args, kind: Kind) -> Report {
    let data = Data::generate(kind, args.seed);
    let mut report = Report::new();
    let served = serve(&data, kind);
    let addr = served.server.addr();
    let progress = Progress::default();
    let mut conn = Conn::connect(addr);
    let mut checks = Report::new();
    // One caller, so every span of a request belongs to it. On
    // serve_ingest it plays client B (appends and reads).
    let client = match kind {
        Kind::Read => 0,
        Kind::Ingest => 1,
    };
    let round_len = round_ops(&data, kind, args.seed, client, 0).len() as u64;
    let mut op = |i: u64| {
        let ops = round_ops(&data, kind, args.seed, client, i / round_len);
        run_op(
            &mut conn,
            &data,
            &progress,
            &ops[(i % round_len) as usize],
            &mut checks,
        )
        .map_or(0.0, |s| s.1)
    };
    let warm = Instant::now();
    let mut i = 0;
    while warm.elapsed().as_secs_f64() < 0.5 {
        op(i);
        i += 1;
    }
    // Continue where warm-up stopped, at a round boundary.
    let base = i.div_ceil(round_len) * round_len;
    for j in i..base {
        op(j);
    }
    // A serve_ingest round is one append and about 4000 reads.
    let rounds = if kind == Kind::Read { 30 } else { 2 };
    let spans = trace::reconcile(&mut report, round_len, rounds, false, |j| op(base + j));
    drop(conn);
    final_checks(addr, &data, &progress, args.seed, &mut checks);
    report.merge(checks);
    let stats = served.server.stats();
    let invalidations = served.index.cache_stats().2;
    let path = PathBuf::from(".perfbench/traces")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(e) = trace::write(&path, &spans) {
        eprintln!("warning: writing {}: {e}", path.display());
    }
    drop(served.index);
    served.server.shutdown();

    let mut rng = Rng::seed_from_u64(args.seed ^ 0x9b0b);
    let selections = stratified(&mut rng, CARDINALITY, 64);
    let thresholds: Vec<ThresholdQuery> = (0..8)
        .map(|j| threshold(&mut rng, CARDINALITY, 2 + j % 3))
        .collect();
    let conj: Vec<ConjunctiveQuery> = selections[..16]
        .iter()
        .map(|&q| ConjunctiveQuery::new().and("a", q))
        .collect();
    let table = Table::builder()
        .column("a", data.column.clone(), IndexChoice::Knee)
        .build()
        .expect("table builds");
    probes::run(
        &probes::Subject {
            dir: Path::new(&served.dir),
            spec: data.spec.clone(),
            cardinality: CARDINALITY,
            pool_capacity: POOL_CAPACITY,
            selections: &selections,
            thresholds: &thresholds,
            table: &table,
            conj: &conj,
            seed: args.seed,
        },
        &mut report,
    );
    // The workload's own cache behaviour, not the probe's.
    report.metric(
        "server.cache_hit_ratio",
        stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64,
        "ratio",
    );
    report.metric("server.cache_invalidations", invalidations as f64, "count");
    drop(served.scratch);
    report
}

//! Per-layer replays for the traced run. Each probe calls one layer's
//! public functions on the workload's own index and queries, and reports
//! what that layer did (counts) and how long it took.

use std::hint::black_box;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bindex::bitvec::kernels;
use bindex::compress::wah::WahBitmap;
use bindex::core::{IndexSpec, DEFAULT_SEGMENT_BITS};
use bindex::engine::batch::{evaluate_selection_workload, BatchOptions, QueryOutcome};
use bindex::engine::{plan, ConjunctiveQuery, Table};
use bindex::relation::query::{SelectionQuery, ThresholdQuery};
use bindex::relation::Rng;
use bindex::storage::{ShardedPool, SharedIndexReader, StoredIndex};
use bindex::{Algorithm, BitVec, EvalStats, IngestIndex, IngestOptions, SharedSource};
use bindex_server::protocol::{read_frame, write_frame};
use bindex_server::{
    IndexTuning, Registry, Request, Response, ServedIndex, ServedQuery, Server, ServerConfig,
};

use crate::store::{CountingStore, IoCounters};
use crate::util::{median, Report};

/// The workload's index and queries the probes replay.
pub struct Subject<'a> {
    /// Directory of the index's `DiskStore`.
    pub dir: &'a Path,
    pub spec: IndexSpec,
    pub cardinality: u32,
    /// Buffer-pool capacity (bitmaps) the workload reads with.
    pub pool_capacity: usize,
    /// At least 64 selections and 8 thresholds on the indexed attribute.
    pub selections: &'a [SelectionQuery],
    pub thresholds: &'a [ThresholdQuery],
    pub table: &'a Table,
    pub conj: &'a [ConjunctiveQuery],
    pub seed: u64,
}

const BATCH: usize = 8;
const INGEST_ROWS: usize = 1024;
const INGEST_REPS: usize = 3;

pub fn run(s: &Subject, report: &mut Report) {
    engine(s, report);
    storage(s, report);
    kernels_and_decode(s, report);
    planner(s, report);
    server(s, report);
    ingest(s, report);
}

fn open(dir: &Path, pool: Option<usize>) -> (SharedIndexReader<CountingStore>, Arc<IoCounters>) {
    let counters = Arc::new(IoCounters::default());
    let store = CountingStore::open(dir, Arc::clone(&counters)).expect("store directory");
    let stored = StoredIndex::open(store).expect("stored index opens");
    let reader = match pool {
        Some(cap) => SharedIndexReader::with_pool(stored, ShardedPool::new(cap, 1)),
        None => SharedIndexReader::new(stored),
    };
    (reader, counters)
}

fn segmented(threads: usize) -> BatchOptions {
    BatchOptions::with_threads(threads).with_segment_bits(DEFAULT_SEGMENT_BITS)
}

fn batch_call(
    reader: &SharedIndexReader<CountingStore>,
    spec: &IndexSpec,
    queries: &[SelectionQuery],
    threads: usize,
) -> (f64, usize, EvalStats) {
    let t = Instant::now();
    let r = evaluate_selection_workload(
        || SharedSource::try_new(reader, spec.clone()).expect("layout checked"),
        queries,
        Algorithm::Auto,
        &segmented(threads),
    );
    let us = t.elapsed().as_secs_f64() * 1e6;
    let mut stats = EvalStats::default();
    for o in &r.outcomes {
        match o {
            QueryOutcome::Ok((_, st)) => stats.add(st),
            other => panic!("probe query did not answer: {:?}", other.error()),
        }
    }
    (us, r.steals, stats)
}

/// engine.* and core.*: one batch, segment-at-a-time, at one and at two
/// workers, on readers without a pool so every fetch is a store read.
fn engine(s: &Subject, report: &mut Report) {
    let queries = &s.selections[..BATCH];
    let mut us2 = Vec::new();
    let (mut reads, mut steals) = ([0u64; 2], 0usize);
    let mut stats = EvalStats::default();
    const REPS: usize = 5;
    for rep in 0..REPS {
        let order = if rep % 2 == 0 { [1, 2] } else { [2, 1] };
        for threads in order {
            let (reader, counters) = open(s.dir, None);
            let before = counters.snapshot();
            let (us, st, ev) = batch_call(&reader, &s.spec, queries, threads);
            reads[threads - 1] += counters.snapshot().since(&before).reads;
            if threads == 2 {
                us2.push(us);
                steals += st;
            } else {
                stats.add(&ev);
            }
        }
    }
    let n = (REPS * BATCH) as f64;
    report.metric(
        "engine.batch_call_us_per_query",
        median(&us2) / BATCH as f64,
        "us",
    );
    report.metric(
        "engine.steals_per_call",
        steals as f64 / REPS as f64,
        "count",
    );
    report.metric(
        "engine.fetch_amplification",
        reads[1] as f64 / reads[0].max(1) as f64,
        "ratio",
    );
    let per_segment = |x: usize| x as f64 / stats.segments_evaluated.max(1) as f64;
    report.metric("core.scans_per_query", stats.scans as f64 / n, "count");
    report.metric("core.ops_per_query", stats.total_ops() as f64 / n, "count");
    report.metric(
        "core.compressed_ops_per_query",
        stats.compressed_ops as f64 / n,
        "count",
    );
    report.metric(
        "core.materializations_per_query",
        stats.materializations as f64 / n,
        "count",
    );
    report.metric(
        "core.segments_skipped_ratio",
        per_segment(stats.segments_skipped),
        "ratio",
    );
    report.metric(
        "core.segments_pruned_ratio",
        per_segment(stats.segments_pruned),
        "ratio",
    );
}

/// storage.*: the workload's batches through a reader pooled as in the
/// workload, then every slot's `read_repr` replayed on an unpooled one.
fn storage(s: &Subject, report: &mut Report) {
    let (reader, counters) = open(s.dir, Some(s.pool_capacity));
    let before = counters.snapshot();
    let batches: Vec<&[SelectionQuery]> = s.selections.chunks(BATCH).take(8).collect();
    for b in &batches {
        batch_call(&reader, &s.spec, b, 2);
    }
    let io = counters.snapshot().since(&before);
    let n = (batches.len() * BATCH) as f64;
    let pool = reader.pool_stats().expect("pool attached");
    report.metric("storage.reads_per_query", io.reads as f64 / n, "count");
    report.metric(
        "storage.bytes_read_per_query",
        io.bytes_read as f64 / n,
        "bytes",
    );
    report.metric(
        "storage.bytes_decompressed_per_query",
        reader.stats().bytes_decompressed as f64 / n,
        "bytes",
    );
    report.metric(
        "storage.pool_hit_ratio",
        pool.hits as f64 / (pool.hits + pool.misses).max(1) as f64,
        "ratio",
    );
    report.metric(
        "storage.pool_evictions_per_query",
        pool.evictions as f64 / n,
        "count",
    );

    let (reader, _) = open(s.dir, None);
    let mut total = 0.0;
    let mut calls = 0;
    for _ in 0..3 {
        for (comp, slot) in slots(&reader) {
            let t = Instant::now();
            black_box(reader.read_repr(comp, slot).expect("slot reads"));
            total += t.elapsed().as_secs_f64() * 1e6;
            calls += 1;
        }
    }
    report.metric("storage.read_repr_us", total / calls as f64, "us");
}

fn slots(reader: &SharedIndexReader<CountingStore>) -> Vec<(usize, usize)> {
    reader
        .meta()
        .bitmaps_per_component
        .iter()
        .enumerate()
        .flat_map(|(c, &n)| (0..n as usize).map(move |slot| (c + 1, slot)))
        .collect()
}

fn gbps(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / seconds / 1e9
}

/// Median time of `reps` runs of `f`, in seconds.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut t = Vec::with_capacity(reps);
    for _ in 0..reps {
        let a = Instant::now();
        f();
        t.push(a.elapsed().as_secs_f64());
    }
    median(&t)
}

/// compress.* and bitvec.*: WAH decode of every stored slot, and the
/// word kernels on operands of the index's own size.
fn kernels_and_decode(s: &Subject, report: &mut Report) {
    let (reader, _) = open(s.dir, None);
    let literals: Vec<Arc<BitVec>> = slots(&reader)
        .into_iter()
        .map(|(c, slot)| reader.read_repr(c, slot).expect("slot reads").to_bitvec())
        .collect();
    let bytes = reader.meta().n_rows.div_ceil(8);
    let stored = reader.index().total_stored_bytes();
    report.metric(
        "compress.stored_to_literal_ratio",
        stored as f64 / (bytes * literals.len()) as f64,
        "ratio",
    );
    let wahs: Vec<WahBitmap> = literals.iter().map(|b| WahBitmap::from_bitvec(b)).collect();
    let decode = time_median(3, || {
        for w in &wahs {
            black_box(w.to_bitvec());
        }
    });
    report.metric(
        "compress.wah_decode_gbps",
        gbps(bytes * wahs.len(), decode),
        "GB/s",
    );

    let ops: Vec<&BitVec> = (0..6).map(|i| &*literals[i % literals.len()]).collect();
    const REPS: usize = 9;
    let t = time_median(REPS, || {
        black_box(kernels::and_all(&ops[..2]));
    });
    report.metric("bitvec.and_all_gbps", gbps(2 * bytes, t), "GB/s");
    let t = time_median(REPS, || {
        black_box(kernels::or_all(&ops[..2]));
    });
    report.metric("bitvec.or_all_gbps", gbps(2 * bytes, t), "GB/s");
    let t = time_median(REPS, || {
        black_box(ops[0].count_ones());
    });
    report.metric("bitvec.count_gbps", gbps(bytes, t), "GB/s");
    let t = time_median(REPS, || {
        black_box(kernels::threshold_k(&ops, 3));
    });
    report.metric("bitvec.threshold_k_gbps", gbps(6 * bytes, t), "GB/s");
    let mut dst = vec![0u64; ops[0].words().len()];
    let t = time_median(REPS, || {
        dst.copy_from_slice(black_box(ops[0].words()));
        black_box(&dst);
    });
    report.metric("bitvec.memcpy_gbps", gbps(bytes, t), "GB/s");
}

/// engine.plan_*: `plan::choose` and `plan::execute` on the table.
fn planner(s: &Subject, report: &mut Report) {
    let (mut choose, mut execute) = (Vec::new(), Vec::new());
    for q in s.conj {
        let t = Instant::now();
        let best = plan::choose(s.table, q).expect("a plan applies");
        choose.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        black_box(plan::execute(s.table, q, &best.plan).expect("plan executes"));
        execute.push(t.elapsed().as_secs_f64() * 1e6);
    }
    report.metric("engine.plan_choose_us", median(&choose), "us");
    report.metric("engine.plan_execute_us", median(&execute), "us");
}

fn ingest_batches(s: &Subject, salt: u64) -> Vec<Vec<Option<u32>>> {
    let mut rng = Rng::seed_from_u64(s.seed ^ salt);
    (0..INGEST_REPS)
        .map(|_| {
            (0..INGEST_ROWS)
                .map(|_| Some(rng.below_u32(s.cardinality)))
                .collect()
        })
        .collect()
}

/// server.*: the same request sequence through an in-process
/// `ServedIndex` and over loopback to a server holding a twin of it, so
/// registry time, codec time and the remainder (wire and admission) can
/// be told apart; then served ingests on the in-process twin.
fn server(s: &Subject, report: &mut Report) {
    let tuning = IndexTuning {
        cache_capacity: 32,
        pool_capacity: s.pool_capacity,
        ..IndexTuning::default()
    };
    let served = |counters: &Arc<IoCounters>| {
        let store = CountingStore::open(s.dir, Arc::clone(counters)).expect("store directory");
        ServedIndex::new(
            "probe",
            s.spec.clone(),
            Box::new(store),
            None,
            None,
            tuning.clone(),
        )
        .expect("index serves")
    };
    let counters = Arc::new(IoCounters::default());
    let local = served(&counters);
    let mut registry = Registry::new();
    registry.insert(served(&Arc::new(IoCounters::default())));
    let remote = registry.get("probe").expect("registered");
    let config = ServerConfig {
        workers: 2,
        queue_depth: 64,
        default_deadline: Duration::from_secs(30),
    };
    let server = Server::start(registry, config, "127.0.0.1:0").expect("server binds");
    let stream = TcpStream::connect(server.addr()).expect("connects");
    stream.set_nodelay(true).expect("nodelay");
    let mut tx = BufWriter::new(stream.try_clone().expect("clone stream"));
    let mut rx = BufReader::new(stream);

    let mut requests = Vec::new();
    for (i, chunk) in s.selections.chunks(6).take(20).enumerate() {
        for (j, &q) in chunk.iter().enumerate() {
            requests.push((ServedQuery::Selection(q), j == 0));
        }
        for t in s.thresholds.iter().skip(2 * i % s.thresholds.len()).take(2) {
            requests.push((ServedQuery::Threshold(t.clone()), false));
        }
        // Repeats: served from the result cache.
        for &q in chunk.iter().skip(1).take(2) {
            requests.push((ServedQuery::Selection(q), false));
        }
    }
    let (mut registry_us, mut protocol_us, mut round_trip_us) = (0.0, 0.0, 0.0);
    let mut reply_bytes = 0usize;
    for (query, want_bitmap) in &requests {
        let t = Instant::now();
        local
            .execute_any(query.clone(), None)
            .expect("probe query answers");
        registry_us += t.elapsed().as_secs_f64() * 1e6;
        let req = match query {
            ServedQuery::Selection(q) => Request::Query {
                index: "probe".into(),
                query: *q,
                want_bitmap: *want_bitmap,
                deadline_ms: 0,
            },
            ServedQuery::Threshold(q) => Request::Threshold {
                index: "probe".into(),
                k: q.k,
                predicates: q.predicates.clone(),
                want_bitmap: *want_bitmap,
                deadline_ms: 0,
            },
        };
        let t = Instant::now();
        let payload = req.encode().expect("request encodes");
        let encode = t.elapsed();
        write_frame(&mut tx, &payload).expect("request sent");
        tx.flush().expect("request sent");
        let frame = read_frame(&mut rx).expect("reply").expect("reply frame");
        let t_dec = Instant::now();
        let resp = Response::decode(&frame).expect("reply decodes");
        let decode = t_dec.elapsed();
        round_trip_us += (t.elapsed()).as_secs_f64() * 1e6;
        if matches!(resp, Response::Error { .. }) {
            panic!("probe request failed: {resp:?}");
        }
        // The server's half of the codec, replayed on the same messages.
        let t = Instant::now();
        black_box(Request::decode(&payload).expect("request decodes"));
        black_box(resp.encode().expect("reply encodes"));
        let server_side = t.elapsed();
        protocol_us += (encode + decode + server_side).as_secs_f64() * 1e6;
        reply_bytes += frame.len();
    }
    let n = requests.len() as f64;
    let stats = server.stats();
    let invalidations = remote.cache_stats().2;
    drop(tx);
    drop(rx);
    drop(remote);
    server.shutdown();
    report.metric("server.protocol_us", protocol_us / n, "us");
    report.metric("server.registry_execute_us", registry_us / n, "us");
    report.metric(
        "server.wire_admission_us",
        (round_trip_us - registry_us - protocol_us) / n,
        "us",
    );
    report.metric(
        "server.reply_bytes_per_query",
        reply_bytes as f64 / n,
        "bytes",
    );
    report.metric(
        "server.cache_hit_ratio",
        stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64,
        "ratio",
    );
    report.metric("server.cache_invalidations", invalidations as f64, "count");

    let before = counters.snapshot();
    let mut ms = Vec::new();
    for batch in ingest_batches(s, 0x5e57) {
        let t = Instant::now();
        local.ingest(&batch, &[]).expect("served ingest applies");
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let io = counters.snapshot().since(&before);
    report.metric("server.ingest_ms", median(&ms), "ms");
    report.metric(
        "storage.bytes_written_per_ingested_row",
        io.bytes_written as f64 / (INGEST_REPS * INGEST_ROWS) as f64,
        "bytes",
    );
    report.metric(
        "storage.syncs_per_batch",
        io.syncs as f64 / INGEST_REPS as f64,
        "count",
    );
}

/// bindex.ingest_*: `IngestIndex::append` (WAL + fsync + delta) and
/// `compact`, batch by batch.
fn ingest(s: &Subject, report: &mut Report) {
    let store = CountingStore::open(s.dir, Arc::new(IoCounters::default())).expect("store");
    let mut stored = StoredIndex::open(store).expect("stored index opens");
    let mut session = IngestIndex::open(
        &mut stored,
        s.spec.clone(),
        s.cardinality,
        IngestOptions::new(),
    )
    .expect("ingest session opens");
    let (mut append, mut compact) = (Vec::new(), Vec::new());
    for batch in ingest_batches(s, 0xb1e5) {
        let t = Instant::now();
        session.append(&batch).expect("append applies");
        append.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        session.compact().expect("compaction applies");
        compact.push(t.elapsed().as_secs_f64() * 1e3);
    }
    report.metric("bindex.ingest_append_us", median(&append), "us");
    report.metric("bindex.ingest_compact_ms", median(&compact), "ms");
}

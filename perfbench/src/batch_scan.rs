//! `batch_scan`: the paper's decision-support setting. A TPC-D-like fact
//! table of 6,001,215 rows (`lineitem` at SF 1) with three attributes,
//! each stored as a v4 index in a temp-dir `DiskStore` and read through a
//! `SharedIndexReader` whose buffer pool holds half the index's bitmaps.
//! One caller issues `engine::batch` calls, segment-at-a-time; each call
//! carries a small fixed batch of one query kind.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use bindex::compress::CodecKind;
use bindex::core::{BitmapSource, IndexSpec, DEFAULT_SEGMENT_BITS};
use bindex::engine::batch::{
    evaluate_selection_workload, evaluate_threshold_workload, execute_workload, BatchOptions,
    QueryOutcome,
};
use bindex::engine::{ConjunctiveQuery, IndexChoice, Table};
use bindex::relation::query::{Op, SelectionQuery, ThresholdQuery};
use bindex::relation::{gen, tpcd, Column, Rng};
use bindex::storage::{ShardedPool, SharedIndexReader};
use bindex::{persist_index_v4, Algorithm, BitVec};
use bindex::{Error, SharedSource};

use crate::probes;
use crate::store::{CountingStore, IoCounters};
use crate::trace;
use crate::util::{
    median, ms_since, p99, quantile, stratified, threshold, Oracle, Report, ScratchDir,
};
use crate::Args;

const ROWS: usize = tpcd::LINEITEM_SF1_ROWS;
/// (name, cardinality) of the fact table's attributes.
const ATTRS: [(&str, u32); 3] = [
    ("l_quantity", tpcd::QUANTITY_CARDINALITY),
    ("o_orderdate", tpcd::ORDERDATE_CARDINALITY),
    ("o_orderpriority", 5),
];
const SEL_BATCH: usize = 2;
const THR_BATCH: usize = 1;
const CONJ_BATCH: usize = 1;
/// Distinct query batches per attribute and kind, cycled in order.
const POOL: usize = 32;
const CONJ_POOL: usize = 48;
const SETUP_REPS: usize = 5;
const WARMUP_S: f64 = 2.0;
/// Engine workers per call. The timed calls run on one worker: on a
/// two-core shared host, the median latency of two-worker calls rose by
/// 57 % (selections) and 87 % (thresholds) while one other busy thread
/// ran beside them, that of one-worker calls by 1-3 %, so a gate on two
/// workers would follow the neighbours. The traced run's engine probe
/// still measures the scheduler at two workers (`engine.steals_per_call`,
/// `engine.fetch_amplification`).
const WORKERS: usize = 1;

/// The generated inputs and everything the answers are checked against.
struct Data {
    columns: Vec<Column>,
    oracles: Vec<Oracle>,
    /// `[attr][batch]`.
    selections: Vec<Vec<Vec<SelectionQuery>>>,
    thresholds: Vec<Vec<Vec<ThresholdQuery>>>,
    conj: Vec<ConjunctiveQuery>,
    /// Per-row-scan foundsets of `conj`, as words.
    conj_expected: Vec<Vec<u64>>,
}

impl Data {
    fn generate(seed: u64) -> Self {
        let columns = vec![
            gen::uniform(ROWS, ATTRS[0].1, seed ^ 0x5145),
            // Orders arrive in date order: the date is clustered in
            // insertion order.
            gen::sorted_uniform(ROWS, ATTRS[1].1, seed ^ 0x4f44),
            gen::zipf(ROWS, ATTRS[2].1, 1.0, seed ^ 0x5052),
        ];
        let oracles = columns
            .iter()
            .map(|c| Oracle::from_values(c.values(), c.cardinality()))
            .collect();
        let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let selections = ATTRS
            .iter()
            .map(|&(_, c)| {
                stratified(&mut rng, c, POOL * SEL_BATCH)
                    .chunks(SEL_BATCH)
                    .map(<[_]>::to_vec)
                    .collect()
            })
            .collect();
        let thresholds = ATTRS
            .iter()
            .map(|&(_, c)| {
                (0..POOL * THR_BATCH)
                    .map(|j| threshold(&mut rng, c, 2 + (j % 3) as u32))
                    .collect::<Vec<_>>()
                    .chunks(THR_BATCH)
                    .map(<[_]>::to_vec)
                    .collect()
            })
            .collect();
        // Operators rotate over the attributes; constants are random.
        let conj_preds: Vec<[SelectionQuery; 3]> = (0..CONJ_POOL)
            .map(|j| {
                std::array::from_fn(|a| {
                    let op = Op::ALL[(j + 2 * a) % Op::ALL.len()];
                    SelectionQuery::new(op, rng.below_u32(ATTRS[a].1))
                })
            })
            .collect();
        let conj = conj_preds
            .iter()
            .map(|preds| {
                ATTRS
                    .iter()
                    .zip(preds)
                    .fold(ConjunctiveQuery::new(), |q, (&(name, _), &p)| {
                        q.and(name, p)
                    })
            })
            .collect();
        let conj_expected = conj_preds
            .iter()
            .map(|preds| {
                let mut words = vec![0u64; ROWS.div_ceil(64)];
                for row in 0..ROWS {
                    if (0..3).all(|a| preds[a].matches(columns[a].get(row))) {
                        words[row / 64] |= 1 << (row % 64);
                    }
                }
                words
            })
            .collect();
        Self {
            columns,
            oracles,
            selections,
            thresholds,
            conj,
            conj_expected,
        }
    }
}

struct Attr {
    spec: IndexSpec,
    dir: PathBuf,
    reader: SharedIndexReader<CountingStore>,
    stored_bytes: u64,
    pool_capacity: usize,
}

/// What set-up builds: the in-memory table (the planner's input) and one
/// stored, pooled index per attribute.
struct Setup {
    table: Table,
    attrs: Vec<Attr>,
    _dir: ScratchDir,
}

impl Setup {
    fn build(columns: Vec<Column>) -> Self {
        let dir = ScratchDir::new("batch_scan").expect("scratch directory");
        let table = ATTRS
            .iter()
            .zip(columns)
            .fold(Table::builder(), |b, (&(name, _), col)| {
                b.column(name, col, IndexChoice::Knee)
            })
            .build()
            .expect("fact table builds");
        let attrs = ATTRS
            .iter()
            .map(|&(name, _)| {
                let index = table.index(name).expect("attribute").expect("indexed");
                let store = CountingStore::open(&dir.sub(name), Arc::new(IoCounters::default()))
                    .expect("store directory");
                let stored =
                    persist_index_v4(index, store, CodecKind::None).expect("index persists");
                let stored_bytes = stored.total_stored_bytes();
                // Fewer bitmaps than the workload touches: fetches miss.
                let pool_capacity = (index.stored_bitmaps() as usize / 2).max(1);
                Attr {
                    spec: index.spec().clone(),
                    dir: dir.sub(name),
                    reader: SharedIndexReader::with_pool(
                        stored,
                        ShardedPool::new(pool_capacity, 1),
                    ),
                    stored_bytes,
                    pool_capacity,
                }
            })
            .collect();
        Self {
            table,
            attrs,
            _dir: dir,
        }
    }
}

/// A `SharedSource` whose fetches are traced as `storage.fetch` spans.
struct TracedSource<'a>(SharedSource<'a, CountingStore>);

impl BitmapSource for TracedSource<'_> {
    fn spec(&self) -> &IndexSpec {
        self.0.spec()
    }

    fn n_rows(&self) -> usize {
        self.0.n_rows()
    }

    fn try_fetch(&mut self, comp: usize, slot: usize) -> Result<BitVec, Error> {
        let _span = trace::span("storage.fetch");
        self.0.try_fetch(comp, slot)
    }

    fn try_fetch_nn(&mut self) -> Result<Option<BitVec>, Error> {
        self.0.try_fetch_nn()
    }

    fn try_fetch_repr(&mut self, comp: usize, slot: usize) -> Result<bindex::core::Repr, Error> {
        let _span = trace::span("storage.fetch");
        self.0.try_fetch_repr(comp, slot)
    }

    fn try_fetch_summary(&mut self) -> Option<Arc<bindex::IndexSummaries>> {
        self.0.try_fetch_summary()
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Select,
    Threshold,
    Conjunctive,
}

/// The calls of one round; a run is whole rounds.
const ROUND: [Kind; 10] = [
    Kind::Select,
    Kind::Select,
    Kind::Select,
    Kind::Select,
    Kind::Threshold,
    Kind::Select,
    Kind::Select,
    Kind::Select,
    Kind::Select,
    Kind::Conjunctive,
];
/// Calls the timed phase completes at least, so `read_p99_ms` has ten
/// samples beyond it.
const MIN_CALLS: usize = 1000;

struct Sample {
    kind: Kind,
    ms: f64,
    queries: u64,
}

fn options() -> BatchOptions {
    BatchOptions::with_threads(WORKERS).with_segment_bits(DEFAULT_SEGMENT_BITS)
}

/// Runs engine call `i` and checks every answer, outside the timed
/// region. Selections and thresholds of round `r` go to attribute
/// `r mod 3`.
fn call(s: &Setup, d: &Data, i: u64, checks: &mut Report) -> Sample {
    let round = (i / ROUND.len() as u64) as usize;
    let a = round % ATTRS.len();
    let batch = i as usize % POOL;
    let attr = &s.attrs[a];
    let source = || {
        TracedSource(
            SharedSource::try_new(&attr.reader, attr.spec.clone()).expect("layout checked"),
        )
    };
    let kind = ROUND[(i % ROUND.len() as u64) as usize];
    let conj = (round * CONJ_BATCH) % CONJ_POOL..(round * CONJ_BATCH) % CONJ_POOL + CONJ_BATCH;
    let t = Instant::now();
    let op = trace::span("bench.op");
    let engine = trace::span("engine.batch");
    let ambient = trace::ambient(engine.id());
    let outcomes: Vec<QueryOutcome<BitVec>> = match kind {
        Kind::Select => {
            let qs = &d.selections[a][batch];
            let r = evaluate_selection_workload(source, qs, Algorithm::Auto, &options());
            r.outcomes.into_iter().map(strip).collect()
        }
        Kind::Threshold => {
            let qs = &d.thresholds[a][batch];
            let r = evaluate_threshold_workload(source, qs, Algorithm::Auto, &options());
            r.outcomes.into_iter().map(strip).collect()
        }
        Kind::Conjunctive => {
            let r = execute_workload(
                &s.table,
                &d.conj[conj.clone()],
                &BatchOptions::with_threads(WORKERS),
            );
            r.outcomes.into_iter().map(strip).collect()
        }
    };
    drop(ambient);
    drop(engine);
    drop(op);
    let ms = ms_since(t);
    for (j, got) in outcomes.iter().enumerate() {
        checks.attempted += 1;
        let QueryOutcome::Ok(bits) = got else {
            eprintln!("call {i} query {j} did not answer: {:?}", got.error());
            checks.failed += 1;
            continue;
        };
        let (got, want) = match kind {
            Kind::Select => (
                bits.count_ones() as u64,
                d.oracles[a].selection(d.selections[a][batch][j]),
            ),
            Kind::Threshold => (
                bits.count_ones() as u64,
                d.oracles[a].threshold(&d.thresholds[a][batch][j]),
            ),
            Kind::Conjunctive => {
                if bits.words() != d.conj_expected[conj.start + j].as_slice() {
                    checks.mismatch(format!("call {i}: conjunctive query differs from the scan"));
                }
                continue;
            }
        };
        if got != want {
            checks.mismatch(format!(
                "call {i} query {j} on attribute {a}: {got} rows, oracle {want}"
            ));
        }
    }
    Sample {
        kind,
        ms,
        queries: outcomes.len() as u64,
    }
}

fn strip<S>(o: QueryOutcome<(BitVec, S)>) -> QueryOutcome<BitVec> {
    match o {
        QueryOutcome::Ok((b, _)) => QueryOutcome::Ok(b),
        QueryOutcome::Degraded((b, _)) => QueryOutcome::Degraded(b),
        QueryOutcome::Failed(e) => QueryOutcome::Failed(e),
        QueryOutcome::TimedOut => QueryOutcome::TimedOut,
        QueryOutcome::DeadlineExceeded => QueryOutcome::DeadlineExceeded,
        QueryOutcome::Skipped => QueryOutcome::Skipped,
    }
}

/// Runs whole rounds for `seconds`, and on until `min_calls` calls.
fn rounds(
    s: &Setup,
    d: &Data,
    first: &mut u64,
    seconds: f64,
    min_calls: usize,
    checks: &mut Report,
) -> Vec<Sample> {
    let t = Instant::now();
    let mut out = Vec::new();
    while t.elapsed().as_secs_f64() < seconds || out.len() < min_calls {
        for _ in 0..ROUND.len() {
            out.push(call(s, d, *first, checks));
            *first += 1;
        }
    }
    out
}

pub fn run(args: &Args) -> Report {
    let data = Data::generate(args.seed);
    let mut report = Report::new();
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        drop(setup.take());
        let columns = data.columns.clone();
        let t = Instant::now();
        setup = Some(Setup::build(columns));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let s = setup.expect("set up at least once");
    let stored: u64 = s.attrs.iter().map(|a| a.stored_bytes).sum();

    let mut next = 0;
    let mut warm = Report::new();
    rounds(&s, &data, &mut next, WARMUP_S, 0, &mut warm);
    let mut checks = Report::new();
    let t = Instant::now();
    let samples = rounds(&s, &data, &mut next, args.seconds, MIN_CALLS, &mut checks);
    let elapsed = t.elapsed().as_secs_f64();
    report.merge(warm);
    let timed_queries: u64 = samples.iter().map(|x| x.queries).sum();
    let lat = |k: Option<Kind>| -> Vec<f64> {
        samples
            .iter()
            .filter(|x| k.is_none_or(|k| x.kind == k))
            .map(|x| x.ms)
            .collect()
    };
    let conj_ms = lat(Some(Kind::Conjunctive));
    let conj_q: Vec<String> = [0.1, 0.5, 0.75, 0.9, 1.0]
        .iter()
        .map(|&q| format!("{:.1}", quantile(&conj_ms, q)))
        .collect();
    eprintln!(
        "batch_scan: {} calls, {timed_queries} queries in {elapsed:.2} s; \
         conjunctive call ms at p10/p50/p75/p90/max: {}",
        samples.len(),
        conj_q.join(" ")
    );
    report.metric("setup_s", median(&setup_s), "s");
    report.metric("index_bytes_per_row", stored as f64 / ROWS as f64, "bytes");
    // Queries per second of engine time, per cycle of three rounds (one
    // round on each attribute), and the median over the cycles.
    let rates: Vec<f64> = samples
        .chunks_exact(ATTRS.len() * ROUND.len())
        .map(|c| {
            let queries: u64 = c.iter().map(|x| x.queries).sum();
            queries as f64 * 1e3 / c.iter().map(|x| x.ms).sum::<f64>()
        })
        .collect();
    report.metric("read_per_s", median(&rates), "1/s");
    report.metric("read_p99_ms", p99(&lat(None)), "ms");
    report.metric("select_p50_ms", median(&lat(Some(Kind::Select))), "ms");
    report.metric(
        "threshold_p50_ms",
        median(&lat(Some(Kind::Threshold))),
        "ms",
    );
    report.merge(checks);
    report
}

pub fn run_traced(args: &Args) -> Report {
    let data = Data::generate(args.seed);
    let mut report = Report::new();
    let s = Setup::build(data.columns.clone());
    let mut next = 0;
    let mut checks = Report::new();
    rounds(&s, &data, &mut next, 0.5, 0, &mut checks);
    let spans = trace::reconcile(&mut report, ROUND.len() as u64, 40, true, |i| {
        call(&s, &data, next + i, &mut checks).ms
    });
    report.merge(checks);
    let path =
        PathBuf::from(".perfbench/traces").join(format!("batch_scan-seed{}.jsonl", args.seed));
    if let Err(e) = trace::write(&path, &spans) {
        eprintln!("warning: writing {}: {e}", path.display());
    }
    let attr = &s.attrs[0];
    let selections: Vec<SelectionQuery> = data.selections[0].iter().flatten().copied().collect();
    let thresholds: Vec<ThresholdQuery> = data.thresholds[0].iter().flatten().cloned().collect();
    probes::run(
        &probes::Subject {
            dir: &attr.dir,
            spec: attr.spec.clone(),
            cardinality: ATTRS[0].1,
            pool_capacity: attr.pool_capacity,
            selections: &selections,
            thresholds: &thresholds,
            table: &s.table,
            conj: &data.conj,
            seed: args.seed,
        },
        &mut report,
    );
    report
}

//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into each layer's public functions: (name, start, end, parent). A span
//! opened on a thread with no open span of its own takes the *ambient*
//! parent — how fetches on engine worker threads and store I/O on server
//! threads attach to the caller's span. Nothing is recorded unless
//! [`set_enabled`] turned recording on, so the untraced paths pay one
//! atomic load per span site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// 0 = no parent.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    ambient: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        epoch: Instant::now(),
        enabled: AtomicBool::new(false),
        next_id: AtomicU64::new(1),
        ambient: AtomicU64::new(0),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

pub fn set_enabled(on: bool) {
    tracer().enabled.store(on, Ordering::SeqCst);
}

/// An open span; closes (and is recorded) on drop.
pub struct Guard {
    open: Option<(u64, u64, &'static str, u64)>,
}

fn now_ns(t: &Tracer) -> u64 {
    t.epoch.elapsed().as_nanos() as u64
}

/// Opens a span named `name` under the innermost open span of this
/// thread, or under the ambient parent.
pub fn span(name: &'static str) -> Guard {
    let t = tracer();
    if !t.enabled.load(Ordering::Relaxed) {
        return Guard { open: None };
    }
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s
            .last()
            .copied()
            .unwrap_or_else(|| t.ambient.load(Ordering::SeqCst));
        s.push(id);
        parent
    });
    Guard {
        open: Some((id, parent, name, now_ns(t))),
    }
}

impl Guard {
    pub fn id(&self) -> u64 {
        self.open.map_or(0, |o| o.0)
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((id, parent, name, start_ns)) = self.open.take() {
            let t = tracer();
            let end_ns = now_ns(t);
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
            t.spans.lock().expect("span log poisoned").push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        }
    }
}

/// Makes `id` the parent of spans opened on threads with no open span,
/// until the returned guard drops.
pub struct Ambient(u64);

pub fn ambient(id: u64) -> Ambient {
    let prev = tracer().ambient.swap(id, Ordering::SeqCst);
    Ambient(prev)
}

impl Drop for Ambient {
    fn drop(&mut self) {
        tracer().ambient.store(self.0, Ordering::SeqCst);
    }
}

/// Every span recorded so far, drained.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *tracer().spans.lock().expect("span log poisoned"))
}

/// Self time per layer, in nanoseconds, over the trees rooted at spans
/// named `root`. Each instant of a root's interval is given to the deepest
/// span open at that instant (the earliest-opened one on a tie), so the
/// layers of one root add up to its duration exactly, also when children
/// run in parallel on several threads. Returns (per-layer self time, sum
/// of root durations).
pub fn self_times(spans: &[Span], root: &str) -> (BTreeMap<&'static str, f64>, f64) {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    // Root id and depth of every span, following parent links.
    let mut trees: BTreeMap<u64, Vec<(usize, &Span)>> = BTreeMap::new();
    for s in spans {
        let mut depth = 0;
        let mut cur = s;
        while let Some(p) = by_id.get(&cur.parent) {
            cur = p;
            depth += 1;
        }
        if cur.name == root {
            trees.entry(cur.id).or_default().push((depth, s));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut total = 0.0;
    for (root_id, members) in &trees {
        let r = by_id[root_id];
        total += (r.end_ns - r.start_ns) as f64;
        let mut cuts: Vec<u64> = members
            .iter()
            .flat_map(|(_, s)| [s.start_ns, s.end_ns])
            .map(|t| t.clamp(r.start_ns, r.end_ns))
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        for w in cuts.windows(2) {
            let (a, b) = (w[0], w[1]);
            let owner = members
                .iter()
                .filter(|(_, s)| s.start_ns <= a && s.end_ns >= b)
                .max_by(|x, y| x.0.cmp(&y.0).then(y.1.id.cmp(&x.1.id)))
                .map(|(_, s)| s.name)
                .unwrap_or(r.name);
            *out.entry(owner).or_default() += (b - a) as f64;
        }
    }
    (out, total)
}

/// Writes spans as JSON lines (one span per line).
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            f,
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    f.flush()
}

/// Layers whose self time the traced run reports, as span names.
pub const LAYERS: [&str; 6] = [
    "bench.op",
    "server.protocol",
    "server.wire",
    "engine.batch",
    "storage.fetch",
    "storage.io",
];

/// How far the traced layers' sum may stray from the untraced
/// end-to-end time of the same operations.
pub const RECONCILE_TOLERANCE: f64 = 0.10;

/// The largest share of the traced time that no layer span may cover.
/// Self times give every instant to the deepest open span, so the layers
/// always add up to the root's time; an instant no layer covers stays
/// with the root `bench.op`, and this limit is what catches a layer left
/// unmeasured.
pub const UNATTRIBUTED_LIMIT: f64 = 0.05;

/// Runs `rounds` whole rounds of `round_len` operations in each mode,
/// untraced and traced, then reports the layer self times, how well they
/// reconcile with the untraced end-to-end time, and the tracing overhead.
/// Rounds come in pairs, in alternating order (U T, T U, ...), so drift
/// cancels. With `replay`, both rounds of a pair run the same operations
/// (for workloads that cycle through fixed query pools); otherwise they
/// run consecutive rounds, which must be alike in mix (fresh random
/// queries, which a result cache would answer on a replay). `op(i)` runs
/// operation `i` inside a `bench.op` span and returns its latency in
/// milliseconds. Returns the spans.
pub fn reconcile(
    report: &mut crate::util::Report,
    round_len: u64,
    rounds: u64,
    replay: bool,
    mut op: impl FnMut(u64) -> f64,
) -> Vec<Span> {
    let (mut wall, mut lat) = ([0.0f64; 2], [0.0f64; 2]);
    for r in 0..2 * rounds {
        let traced = (r % 2 == 1) != (r % 4 >= 2);
        let round = if replay { r / 2 } else { r };
        set_enabled(traced);
        let t = Instant::now();
        for k in 0..round_len {
            lat[traced as usize] += op(round * round_len + k);
        }
        wall[traced as usize] += t.elapsed().as_secs_f64() * 1e3;
    }
    set_enabled(false);
    let spans = take();
    let (layers, total_ns) = self_times(&spans, "bench.op");
    let ops = (rounds * round_len) as f64;
    let error = (total_ns / 1e6 - lat[0]).abs() / lat[0];
    let unattributed = layers.get("bench.op").copied().unwrap_or(0.0) / total_ns;
    eprintln!(
        "trace: {} spans; traced layers {:.1} ms vs untraced {:.1} ms (error {:.3}, tolerance {RECONCILE_TOLERANCE}); \
         unattributed {:.4} (limit {UNATTRIBUTED_LIMIT})",
        spans.len(),
        total_ns / 1e6,
        lat[0],
        error,
        unattributed
    );
    if error > RECONCILE_TOLERANCE {
        report.mismatch(format!(
            "traced layers sum to {:.1} ms, untraced end-to-end is {:.1} ms",
            total_ns / 1e6,
            lat[0]
        ));
    }
    if unattributed > UNATTRIBUTED_LIMIT {
        report.mismatch(format!(
            "{unattributed:.3} of the traced time lies in no layer span"
        ));
    }
    report.metric("trace.reconcile_error", error, "ratio");
    report.metric("trace.overhead_ms_per_op", (wall[1] - wall[0]) / ops, "ms");
    report.metric(
        "trace.overhead_share",
        (wall[1] - wall[0]) / wall[0],
        "ratio",
    );
    for layer in LAYERS {
        let ns = layers.get(layer).copied().unwrap_or(0.0);
        report.metric(
            &format!("trace.self_share.{}", layer.replace('.', "_")),
            ns / total_ns,
            "ratio",
        );
    }
    spans
}

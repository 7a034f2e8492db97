//! Small shared pieces: the run report, latency summaries, the scratch
//! directory, and the histogram oracle every answer is checked against.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use bindex::relation::query::{Op, SelectionQuery, ThresholdQuery};
use bindex::relation::{Column, Rng};

/// What one run prints as its last line.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Sets metric `name`, replacing an earlier value of the same name.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Folds the checks of a sub-run into this report.
    pub fn merge(&mut self, checks: Report) {
        self.correct &= checks.correct;
        self.attempted += checks.attempted;
        self.failed += checks.failed;
    }

    /// Records a failed answer check; the run reports `correct: false`.
    pub fn mismatch(&mut self, what: impl std::fmt::Display) {
        eprintln!("MISMATCH: {what}");
        self.correct = false;
    }

    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        )
        .unwrap();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // JSON has no NaN or infinity; a metric that cannot be
            // computed is a bug in the benchmark, reported as such.
            let value = if value.is_finite() { *value } else { -1.0 };
            write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .unwrap();
        }
        out.push_str("}}");
        out
    }
}

/// Linear-interpolated quantile of an unsorted sample (`q` in 0..=1).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The 99th percentile, only when at least ten samples lie beyond it.
pub fn p99(samples: &[f64]) -> f64 {
    if samples.len() < 1000 {
        eprintln!(
            "warning: {} reads leave fewer than ten beyond the 99th percentile",
            samples.len()
        );
    }
    quantile(samples, 0.99)
}

/// Median over the equal windows of about `window` seconds that fit in
/// `[from, to)` of the events completed per second, from the events'
/// completion times. A stall of a second or two moves the median window
/// less than it moves the mean rate.
pub fn median_rate(ends: &[f64], from: f64, to: f64, window: f64) -> f64 {
    let n = ((to - from) / window).floor().max(1.0) as usize;
    let width = (to - from) / n as f64;
    let mut counts = vec![0u64; n];
    for &t in ends {
        if t >= from {
            if let Some(c) = counts.get_mut(((t - from) / width) as usize) {
                *c += 1;
            }
        }
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / width).collect();
    median(&rates)
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A directory inside the checkout, removed when dropped. The library's
/// `storage::TempDir` does the same under the system temp directory; the
/// benchmark keeps every file it writes inside the tree it runs from.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let path = Path::new(".perfbench")
            .join("data")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    pub fn sub(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Answer oracle from the benchmark's own value histogram: a selection's
/// cardinality is a prefix-sum difference, a threshold's is the sum of
/// `hist[v]` over the values that satisfy at least `k` predicates.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// `prefix[v]` = rows with value `< v`; length `C + 1`.
    prefix: Vec<u64>,
}

impl Oracle {
    pub fn from_values(values: &[u32], cardinality: u32) -> Self {
        let mut hist = vec![0u64; cardinality as usize];
        for &v in values {
            hist[v as usize] += 1;
        }
        Self::from_hist(&hist)
    }

    pub fn from_hist(hist: &[u64]) -> Self {
        let mut prefix = Vec::with_capacity(hist.len() + 1);
        let mut acc = 0;
        prefix.push(0);
        for &h in hist {
            acc += h;
            prefix.push(acc);
        }
        Self { prefix }
    }

    pub fn hist(&self, v: u32) -> u64 {
        self.prefix[v as usize + 1] - self.prefix[v as usize]
    }

    fn below(&self, v: u64) -> u64 {
        self.prefix[(v as usize).min(self.prefix.len() - 1)]
    }

    pub fn selection(&self, q: SelectionQuery) -> u64 {
        let total = *self.prefix.last().unwrap();
        let c = u64::from(q.constant);
        match q.op {
            Op::Lt => self.below(c),
            Op::Le => self.below(c + 1),
            Op::Gt => total - self.below(c + 1),
            Op::Ge => total - self.below(c),
            Op::Eq => self.below(c + 1) - self.below(c),
            Op::Ne => total - (self.below(c + 1) - self.below(c)),
        }
    }

    pub fn threshold(&self, q: &ThresholdQuery) -> u64 {
        (0..self.prefix.len() as u32 - 1)
            .filter(|&v| q.matches(v))
            .map(|v| self.hist(v))
            .sum()
    }
}

/// Per-row reference foundset of `pred` over `column` (outside any timed
/// phase: it touches every row).
pub fn scan(column: &Column, pred: impl Fn(u32) -> bool) -> Vec<u64> {
    let values = column.values();
    let mut words = vec![0u64; values.len().div_ceil(64)];
    for (row, &v) in values.iter().enumerate() {
        if pred(v) {
            words[row / 64] |= 1 << (row % 64);
        }
    }
    words
}

pub fn shuffle<T>(rng: &mut Rng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.below_usize(i + 1));
    }
}

/// Six selections from the paper's query space Q, one per operator in a
/// random order, with uniform random constants.
pub fn each_op(rng: &mut Rng, cardinality: u32) -> Vec<SelectionQuery> {
    let mut ops = Op::ALL;
    shuffle(rng, &mut ops);
    ops.iter()
        .map(|&op| SelectionQuery::new(op, rng.below_u32(cardinality)))
        .collect()
}

/// `n` selections from Q stratified over operators and constants, in a
/// random order: the mix, and so its cost, hardly depends on the seed.
pub fn stratified(rng: &mut Rng, cardinality: u32, n: usize) -> Vec<SelectionQuery> {
    let strata = n.div_ceil(Op::ALL.len()) as f64;
    let mut out: Vec<SelectionQuery> = (0..n)
        .map(|j| {
            let stratum = (j / Op::ALL.len()) as f64;
            let v = (stratum + rng.next_f64()) / strata * f64::from(cardinality);
            SelectionQuery::new(Op::ALL[j % Op::ALL.len()], (v as u32).min(cardinality - 1))
        })
        .collect();
    shuffle(rng, &mut out);
    out
}

/// "At least `k` of six": one predicate per operator.
pub fn threshold(rng: &mut Rng, cardinality: u32, k: u32) -> ThresholdQuery {
    ThresholdQuery::new(k, each_op(rng, cardinality))
}

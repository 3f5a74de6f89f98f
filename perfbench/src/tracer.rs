//! In-memory spans recorded from the benchmark's own code around each
//! call into a layer. Nothing inside the program is instrumented.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span and counter recorder. A disabled tracer runs the same closures
/// without taking any timestamps, which is the untraced baseline.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Counters per root span (`None`: recorded outside any span).
    counters: BTreeMap<(Option<usize>, String), f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.open.last().copied(),
            start_ns: start,
            end_ns: start,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Adds `v` to counter `name` of the enclosing root span.
    pub fn add(&mut self, name: &str, v: f64) {
        if !self.enabled {
            return;
        }
        let root = self.open.first().copied();
        *self.counters.entry((root, name.to_owned())).or_default() += v;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Indices of the root spans named `name`.
    pub fn roots(&self, name: &str) -> Vec<usize> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none() && s.name == name)
            .map(|(i, _)| i)
            .collect()
    }

    fn root_of(&self, mut index: usize) -> usize {
        while let Some(parent) = self.spans[index].parent {
            index = parent;
        }
        index
    }

    /// Every span named `name` under root `root`.
    pub fn under<'a>(&'a self, root: usize, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(i, s)| s.name == name && self.root_of(*i) == root)
            .map(|(_, s)| s)
    }

    /// Summed duration of the spans named `name` under `root`, if any.
    pub fn sum_under(&self, root: usize, name: &str) -> Option<f64> {
        let mut any = false;
        let total = self
            .under(root, name)
            .inspect(|_| any = true)
            .map(Span::secs)
            .sum();
        any.then_some(total)
    }

    /// Summed duration of the direct children of `root`.
    pub fn children_secs(&self, root: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(Span::secs)
            .sum()
    }

    pub fn counter(&self, root: usize, name: &str) -> Option<f64> {
        self.counters.get(&(Some(root), name.to_owned())).copied()
    }

    /// Spans as JSON lines: name, parent index, start and end in ns.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Median of a sample (mean of the middle pair for even counts).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around every public call it makes into
//! the simulator crates (design search, `System::build`, each step
//! chunk, snapshot and restore, each load point, each simulation).
//! Spans are kept in memory with a parent link and written out once,
//! at the end, with their self time: the span's duration minus the
//! part of its interval that its children cover.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use equinox_config::Json;

/// One closed span. `parent == 0` marks a root.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub lane: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when armed; an unarmed tracer only runs the closure.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

static NEXT_LANE: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    static LANE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// A small per-thread index, so spans from pool workers can be told apart.
pub fn lane() -> usize {
    LANE.with(|l| {
        if l.get() == usize::MAX {
            l.set(NEXT_LANE.fetch_add(1, Ordering::Relaxed));
        }
        l.get()
    })
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id for its own children (0 when unarmed).
    pub fn span<R>(&self, name: &'static str, parent: u32, f: impl FnOnce(u32) -> R) -> R {
        if !self.on {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let r = f(id);
        let end_ns = self.now_ns();
        let span = Span {
            id,
            parent,
            name,
            lane: lane(),
            start_ns,
            end_ns,
        };
        self.spans
            .lock()
            .expect("span list poisoned by a panicking worker")
            .push(span);
        r
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking worker")
            .clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (children on parallel lanes may overlap).
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut iv = children.remove(&s.id).unwrap_or_default();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    _ => {
                        if let Some((ca, cb)) = cur {
                            covered += cb - ca;
                        }
                        cur = Some((a, b));
                    }
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Share of the lanes' working time under a root span that the self
/// times of the spans below it account for. A lane works from the
/// root's start to the end of its last span below the root; a lane idle
/// after that is the pool's time, reported as `exec.pool_busy_frac`.
pub fn layer_sum_frac(spans: &[Span], selfs: &BTreeMap<u32, u64>, root: &Span) -> f64 {
    let parent_of: BTreeMap<u32, u32> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let below_root = |mut id: u32| {
        while let Some(&p) = parent_of.get(&id) {
            if p == root.id {
                return true;
            }
            id = p;
        }
        false
    };
    let mut accounted = 0u64;
    let mut lane_end: BTreeMap<usize, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| below_root(s.id)) {
        accounted += selfs[&s.id];
        let end = lane_end.entry(s.lane).or_default();
        *end = (*end).max(s.end_ns);
    }
    let working: u64 = lane_end.values().map(|e| e - root.start_ns).sum();
    accounted as f64 / working as f64
}

/// Self time in milliseconds summed per span name, for the report.
pub fn self_ms_by_name(spans: &[Span], selfs: &BTreeMap<u32, u64>) -> Json {
    let mut by: BTreeMap<&str, u64> = BTreeMap::new();
    for s in spans {
        *by.entry(s.name).or_default() += selfs[&s.id];
    }
    by.into_iter()
        .fold(Json::obj(), |j, (k, v)| j.with(k, v as f64 / 1e6))
}

/// The span list as JSON, for the trace file.
pub fn spans_json(spans: &[Span], selfs: &BTreeMap<u32, u64>) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj()
                    .with("id", s.id)
                    .with("parent", s.parent)
                    .with("name", s.name)
                    .with("lane", s.lane)
                    .with("start_ns", s.start_ns)
                    .with("dur_ns", s.dur_ns())
                    .with("self_ns", selfs[&s.id])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: u32, lane: usize, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            lane,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root 0..100 with two overlapping children on two lanes
        // covering 10..60 and one disjoint child 70..80.
        let spans = vec![
            sp(1, 0, 0, 0, 100),
            sp(2, 1, 0, 10, 50),
            sp(3, 1, 1, 20, 60),
            sp(4, 1, 0, 70, 80),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 50 - 10);
        assert_eq!(selfs[&2], 40);
        // Lane 0 works until 80, lane 1 until 60.
        let frac = layer_sum_frac(&spans, &selfs, &spans[0]);
        assert!((frac - (40.0 + 40.0 + 10.0) / (80.0 + 60.0)).abs() < 1e-12);
    }
}

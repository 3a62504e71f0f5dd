//! Drives one full-system simulation from outside through the public
//! `System` API (`build`, `step`, `snapshot`, `restore`, `run`) in
//! fixed step chunks, and derives the `core`, `noc` and `snap` layer
//! metrics from what the runs return.

use std::collections::BTreeMap;
use std::time::Instant;

use equinox_core::{RunMetrics, System, SystemConfig};
use equinox_snap::Enc;

use crate::stats::median;
use crate::trace::Tracer;
use crate::Metric;

/// Simulated core cycles per timed step chunk (one `unit` of
/// `kmeans_long`).
pub const CHUNK: u64 = 1_000;

/// A snapshot taken during a run.
pub struct SnapSample {
    pub at_mid: bool,
    pub bytes: usize,
    pub ms: f64,
}

/// What one simulation returned, plus the host time it took.
pub struct SimRun {
    pub metrics: RunMetrics,
    /// Digest of the simulated outputs: `RunMetrics` plus every
    /// network's `NetStats` counters.
    pub digest: u64,
    /// `(host seconds, step calls)` per chunk.
    pub chunks: Vec<(f64, u64)>,
    pub xbar_traversals: u64,
    pub injected_flits: u64,
    /// Live `PacketTracker` records at the end of the run.
    pub tracker_records: usize,
    /// `System::step` phase totals from the obs span profiler (ms);
    /// empty unless the config armed `obs`.
    pub phases_ms: BTreeMap<String, f64>,
    pub build_ms: f64,
    pub snaps: Vec<SnapSample>,
    /// Host ms of each build-and-restore of a snapshot.
    pub restore_ms: Vec<f64>,
    /// `snapshot → restore → snapshot` reproduced the bytes (vacuously
    /// true when no mid-run snapshot was taken).
    pub roundtrip_ok: bool,
    /// Finished before `max_cycles`.
    pub completed: bool,
}

/// Runs `cfg` to completion in [`CHUNK`]-cycle `step` chunks. At the
/// first chunk boundary at or past `mid_cycle` the machine is
/// snapshotted, restored into a fresh build and snapshotted again; the
/// run continues on the restored machine. With `end_snapshot` the
/// finished machine is snapshotted once more, for its size.
pub fn simulate(
    cfg: SystemConfig,
    mid_cycle: Option<u64>,
    end_snapshot: bool,
    tr: &Tracer,
    parent: u32,
) -> SimRun {
    let max_cycles = cfg.max_cycles;
    let t0 = Instant::now();
    let mut sys = tr.span("build", parent, |_| System::build(cfg.clone()));
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut chunks = Vec::new();
    let mut snaps = Vec::new();
    let mut restore_ms = Vec::new();
    let mut roundtrip_ok = true;
    let mut mid = mid_cycle;
    while !sys.done() && sys.cycle() < max_cycles {
        let target = (sys.cycle() + CHUNK).min(max_cycles);
        let t0 = Instant::now();
        let n = tr.span("step_chunk", parent, |_| {
            let mut n = 0u64;
            while !sys.done() && sys.cycle() < target {
                sys.step();
                n += 1;
            }
            n
        });
        chunks.push((t0.elapsed().as_secs_f64(), n));
        if mid.is_some_and(|m| sys.cycle() >= m) {
            mid = None;
            let a = snapshot(&sys, true, &mut snaps, tr, parent);
            let t0 = Instant::now();
            let restored = tr.span("restore", parent, |_| {
                let mut fresh = System::build(cfg.clone());
                fresh.restore(&a).map(|()| fresh)
            });
            restore_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            match restored {
                Ok(fresh) => {
                    let b = tr.span("snapshot", parent, |_| fresh.snapshot());
                    roundtrip_ok = a == b;
                    sys = fresh;
                }
                Err(_) => roundtrip_ok = false,
            }
        }
    }
    // Nothing is left to step, so `run` only closes the obs series and
    // assembles the metrics.
    let metrics = tr.span("finish", parent, |_| sys.run());
    if end_snapshot {
        snapshot(&sys, false, &mut snaps, tr, parent);
    }
    let mut e = Enc::new();
    put_metrics(&mut e, &metrics);
    let (mut xbar_traversals, mut injected_flits) = (0, 0);
    for net in sys.networks() {
        let s = net.stats();
        for v in [
            s.cycles,
            s.buffer_writes,
            s.buffer_reads,
            s.xbar_traversals,
            s.vc_allocs,
            s.link_flits_mesh,
            s.link_flits_interposer,
            s.link_flits_ni,
            s.ejected_flits,
            s.injected_flits,
        ] {
            e.put_u64(v);
        }
        xbar_traversals += s.xbar_traversals;
        injected_flits += s.injected_flits;
    }
    SimRun {
        completed: metrics.completed && metrics.cycles < max_cycles,
        digest: equinox_snap::fnv1a(&e.into_bytes()),
        metrics,
        chunks,
        xbar_traversals,
        injected_flits,
        tracker_records: sys.tracker.len(),
        phases_ms: parse_phases(&sys.obs_summary()),
        build_ms,
        snaps,
        restore_ms,
        roundtrip_ok,
    }
}

fn snapshot(
    sys: &System,
    at_mid: bool,
    snaps: &mut Vec<SnapSample>,
    tr: &Tracer,
    parent: u32,
) -> Vec<u8> {
    let t0 = Instant::now();
    let bytes = tr.span("snapshot", parent, |_| sys.snapshot());
    snaps.push(SnapSample {
        at_mid,
        bytes: bytes.len(),
        ms: t0.elapsed().as_secs_f64() * 1e3,
    });
    bytes
}

/// The simulated outputs of a `RunMetrics` that every repeat must
/// reproduce bit for bit: cycles, IPC, energy and EDP.
fn put_metrics(e: &mut Enc, m: &RunMetrics) {
    e.put_u64(m.cycles);
    e.put_bool(m.completed);
    for v in [m.ipc, m.dynamic_j, m.leakage_j, m.edp] {
        e.put_u64(v.to_bits());
    }
}

/// Digest of a `RunMetrics` alone (for runs whose networks are not
/// visible, such as `run_matrix_spec` cells).
pub fn metrics_digest(m: &RunMetrics) -> u64 {
    let mut e = Enc::new();
    put_metrics(&mut e, m);
    equinox_snap::fnv1a(&e.into_bytes())
}

/// Span totals from `System::obs_summary` lines of the form
/// `span NAME calls=N total=X.Yms`.
fn parse_phases(summary: &str) -> BTreeMap<String, f64> {
    summary
        .lines()
        .filter_map(|l| {
            let mut it = l.trim().strip_prefix("span ")?.split_whitespace();
            let name = it.next()?;
            let ms = it
                .find_map(|f| f.strip_prefix("total="))?
                .strip_suffix("ms")?
                .parse()
                .ok()?;
            Some((name.to_string(), ms))
        })
        .collect()
}

/// `core`, `noc` and `snap` layer metrics of the traced runs of
/// `passes` passes (`obs` armed, so the phase totals are present).
/// Work counts are per pass.
pub fn system_layers(runs: &[&SimRun], passes: usize) -> Vec<Metric> {
    let mut phase: BTreeMap<&str, f64> = BTreeMap::new();
    for r in runs {
        for (k, v) in &r.phases_ms {
            let key = if k.starts_with("noc_step_net") {
                "noc"
            } else {
                k.as_str()
            };
            *phase.entry(key).or_default() += v;
        }
    }
    let total: f64 = phase.values().sum();
    let share = |k: &str| phase.get(k).copied().unwrap_or(0.0) / total;
    let per_pass = |total: u64| total as f64 / passes as f64;
    let xbar: u64 = runs.iter().map(|r| r.xbar_traversals).sum();
    let steps: u64 = runs.iter().flat_map(|r| &r.chunks).map(|c| c.1).sum();
    let cycles: u64 = runs.iter().map(|r| r.metrics.cycles).sum();
    let step_us: Vec<f64> = runs
        .iter()
        .flat_map(|r| {
            r.chunks
                .iter()
                .filter(|c| c.1 > 0)
                .map(|&(s, n)| s * 1e6 / n as f64)
        })
        .collect();
    let builds: Vec<f64> = runs.iter().map(|r| r.build_ms).collect();
    let mut out = vec![
        Metric::new("noc.step_share", share("noc"), "frac"),
        Metric::new(
            "noc.ns_per_xbar",
            share("noc") * total * 1e6 / xbar as f64,
            "ns",
        ),
        Metric::new("noc.xbar_traversals", per_pass(xbar), "count"),
        Metric::new(
            "noc.injected_flits",
            per_pass(runs.iter().map(|r| r.injected_flits).sum()),
            "count",
        ),
        Metric::new("core.step_us_p50", median(&step_us), "us"),
        Metric::new("core.cb_tick_share", share("cb_tick"), "frac"),
        Metric::new("core.pe_tick_share", share("pe_tick"), "frac"),
        Metric::new("core.ni_tick_share", share("ni_tick"), "frac"),
        Metric::new("core.sink_drain_share", share("sink_drain"), "frac"),
        Metric::new("core.quiescence_share", share("quiescence_scan"), "frac"),
        Metric::new("core.ff_share", 1.0 - steps as f64 / cycles as f64, "frac"),
        Metric::new("core.build_ms", median(&builds), "ms"),
        Metric::new(
            "core.tracker_records",
            runs.iter().map(|r| r.tracker_records).max().unwrap_or(0) as f64,
            "count",
        ),
    ];
    let snaps: Vec<&SnapSample> = runs.iter().flat_map(|r| &r.snaps).collect();
    let max_mb = |mid: bool| {
        snaps
            .iter()
            .filter(|s| s.at_mid == mid)
            .map(|s| s.bytes as f64 / 1e6)
            .fold(None, |a: Option<f64>, b| Some(a.map_or(b, |a| a.max(b))))
    };
    let restores: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.restore_ms.iter().copied())
        .collect();
    if let (Some(mid), Some(end)) = (max_mb(true), max_mb(false)) {
        out.push(Metric::new("snap.mid_snapshot_mb", mid, "MB"));
        out.push(Metric::new("snap.end_snapshot_mb", end, "MB"));
        out.push(Metric::new(
            "snap.snapshot_ms",
            median(&snaps.iter().map(|s| s.ms).collect::<Vec<_>>()),
            "ms",
        ));
        out.push(Metric::new("snap.restore_ms", median(&restores), "ms"));
    }
    out
}

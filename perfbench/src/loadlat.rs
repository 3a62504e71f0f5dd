//! `reply_loadlat`: the reply network alone, through
//! `load_latency_curve_cfg`, on the Local and the EquiNox side at
//! offered rates from deep sub-saturation to past Local's saturation,
//! one rate per call, on one worker.

use std::time::Instant;

use equinox_config::Json;
use equinox_core::loadlat::{load_latency_curve_cfg, LoadPoint, ReplySide};
use equinox_core::EquiNoxDesign;

use crate::stats::median;
use crate::trace::Tracer;
use crate::{setup, timed_passes, Ctx, Metric, Outcome, Passes};

/// Offered reply packets per CB per cycle: 0.02, 0.04, …, 0.50.
fn rates() -> Vec<f64> {
    (1..=25).map(|i| f64::from(i) * 0.02).collect()
}
const LOW: usize = 0;
const SAT: usize = 24;
/// Measured cycles per load point; each point also warms up for a fifth
/// of that first.
const CYCLES: u64 = 3_000;
const SIM_CYCLES: u64 = CYCLES + CYCLES / 5;

fn point(design: &EquiNoxDesign, side: &ReplySide, rate: f64, cycles: u64, seed: u64) -> LoadPoint {
    load_latency_curve_cfg(&design.placement, side, &[rate], cycles, seed, None, true)[0]
}

/// Each rate draws its traffic from its own seed (the same on both
/// sides), so a run averages many independent streams rather than
/// following one seed's luck through every point.
fn point_seed(seed: u64, rate_index: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(rate_index as u64)
}

fn sides(design: &EquiNoxDesign) -> [ReplySide; 2] {
    [ReplySide::Local, ReplySide::Equinox(design.clone())]
}

/// Host ns per simulated cycle of one timed point.
fn ns_per_cycle(secs: f64) -> f64 {
    secs * 1e9 / SIM_CYCLES as f64
}

pub fn run(ctx: &Ctx) -> (Outcome, EquiNoxDesign) {
    let mut out = Outcome {
        workers: 1,
        scale: format!("{CYCLES} measured cycles per point"),
        ..Default::default()
    };
    let seed = ctx.seed;
    let setup = setup(ctx, &mut out, |d, tr, p| {
        for side in sides(d) {
            tr.span("warm_up", p, |_| point(d, &side, 0.5, 500, seed));
        }
    });
    // One worker, as on `kmeans_long`.
    equinox_exec::set_threads(1);
    let design = &setup.design;
    let sides = sides(design);
    let rates = rates();
    let tr = &ctx.tracer;
    let off = Tracer::new(false);

    let mut reference: Option<Vec<LoadPoint>> = None;
    let mut passes = Passes::default();
    let (mut low, mut sat) = (Vec::new(), Vec::new());
    timed_passes(ctx, 2, |traced| {
        let t = if traced { tr } else { &off };
        let t0 = Instant::now();
        let timed: Vec<(LoadPoint, f64)> = t.span("pass", 0, |p| {
            sides
                .iter()
                .flat_map(|side| rates.iter().enumerate().map(move |(i, &r)| (side, i, r)))
                .map(|(side, i, rate)| {
                    let t1 = Instant::now();
                    let pt = t.span("load_point", p, |_| {
                        point(design, side, rate, CYCLES, point_seed(seed, i))
                    });
                    (pt, t1.elapsed().as_secs_f64())
                })
                .collect()
        });
        let wall = t0.elapsed().as_secs_f64();
        let (pts, secs): (Vec<LoadPoint>, Vec<f64>) = timed.into_iter().unzip();
        let reference = reference.get_or_insert_with(|| pts.clone());
        for (pt, r) in pts.iter().zip(reference.iter()) {
            let same = pt.throughput.to_bits() == r.throughput.to_bits()
                && pt.latency.to_bits() == r.latency.to_bits();
            out.count(same && pt.throughput > 0.0 && pt.latency.is_finite());
        }
        if traced {
            passes.traced(wall, &secs, 1);
            for side in 0..sides.len() {
                low.push(ns_per_cycle(secs[side * rates.len() + LOW]));
                sat.push(ns_per_cycle(secs[side * rates.len() + SAT]));
            }
        } else {
            passes.untraced(wall, pts.len() as u64 * SIM_CYCLES, &secs);
        }
    });

    let pts = reference.expect("at least one pass ran");
    let (local, eq) = pts.split_at(rates.len());
    let max_thr = |v: &[LoadPoint]| v.iter().map(|p| p.throughput).fold(0.0, f64::max);
    let gain = max_thr(eq) / max_thr(local);
    out.notes.push((
        "equinox_gain",
        Json::obj()
            .with(
                "what",
                "saturation throughput (max accepted flits/cycle over 0.02..0.50), EquiNox / Local",
            )
            .with("paper", "not validated against the paper")
            .with("local_sat_flits_per_cycle", max_thr(local))
            .with("equinox_sat_flits_per_cycle", max_thr(eq)),
    ));
    eprintln!("reply_loadlat: equinox_gain {gain:.4}x (not validated against the paper)");
    if tr.is_on() {
        out.layers = vec![
            Metric::new("noc.lowload_ns_per_cycle", median(&low), "ns"),
            Metric::new("noc.sat_ns_per_cycle", median(&sat), "ns"),
        ];
    }
    passes.finish(
        &mut out,
        &setup,
        gain,
        "one load point (one load_latency_curve_cfg call)",
    );
    (out, setup.design)
}

/// `noc.lowload_ns_per_cycle` and `noc.sat_ns_per_cycle` measured on
/// the Local side alone, for traced runs of the other workloads.
pub fn probe(design: &EquiNoxDesign, tr: &Tracer) -> Vec<Metric> {
    let rates = rates();
    let timed = |rate: f64| {
        let t0 = Instant::now();
        tr.span("probe_load_point", 0, |_| {
            point(design, &ReplySide::Local, rate, CYCLES, 1)
        });
        ns_per_cycle(t0.elapsed().as_secs_f64())
    };
    vec![
        Metric::new("noc.lowload_ns_per_cycle", timed(rates[LOW]), "ns"),
        Metric::new("noc.sat_ns_per_cycle", timed(rates[SAT]), "ns"),
    ]
}

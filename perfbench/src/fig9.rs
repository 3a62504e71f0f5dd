//! `fig9_quick`: the figure users regenerate most — 7 schemes × the 6
//! `QUICK_BENCHES` × two workload seeds, every cell a `run_matrix_spec`
//! call on an `exec` pool of [`max_workers`] workers, with no
//! checkpoint dir (cache replay is never timed).

use std::time::Instant;

use equinox_bench::{run_matrix_spec, QUICK_BENCHES};
use equinox_config::{ExperimentSpec, Json};
use equinox_core::{EquiNoxDesign, RunMetrics, SchemeKind};
use equinox_exec::par_map_with;

use crate::sim::{self, metrics_digest, SimRun};
use crate::stats::geomean;
use crate::trace::Tracer;
use crate::{max_workers, setup, system_cfg, timed_passes, Ctx, Outcome, Passes};

/// Workload scale of every cell.
pub const SCALE: f64 = 0.25;

fn spec(scale: f64, seed: u64) -> ExperimentSpec {
    let mut s = ExperimentSpec::default();
    s.scale = scale;
    s.seeds = vec![seed];
    s
}

/// One simulation through the public sweep runner.
fn cell(scheme: SchemeKind, bench: &str, spec: &ExperimentSpec) -> RunMetrics {
    run_matrix_spec(&[scheme], 8, &[bench], spec)
        .pop()
        .and_then(|mut row| row.pop())
        .expect("a 1x1 matrix has one cell")
}

/// `run_seeds_spec` rescales IPC, execution time and EDP by the seed
/// geomean, which with one seed can move their last bit. Cycles and
/// energy pass through untouched, so traced cells (which build the
/// system directly) are checked against the sweep runner's on those.
fn same_cycles_and_energy(a: &RunMetrics, b: &RunMetrics) -> bool {
    a.cycles == b.cycles
        && a.dynamic_j.to_bits() == b.dynamic_j.to_bits()
        && a.leakage_j.to_bits() == b.leakage_j.to_bits()
}

pub fn run(ctx: &Ctx) -> (Outcome, EquiNoxDesign) {
    let workers = max_workers();
    let mut out = Outcome {
        workers,
        scale: format!("{SCALE}"),
        ..Default::default()
    };
    let setup = setup(ctx, &mut out, |_, tr, p| {
        tr.span("warm_up", p, |_| {
            cell(SchemeKind::SingleBase, "gaussian", &spec(0.02, 1))
        });
    });
    equinox_exec::set_threads(workers);
    let design = &setup.design;
    let seeds = [ctx.seed, ctx.seed.wrapping_add(1)];
    // Bench-major, like `run_matrix_spec`'s own fan-out.
    let jobs: Vec<(&str, SchemeKind, u64)> = QUICK_BENCHES
        .iter()
        .flat_map(|&b| {
            SchemeKind::ALL
                .into_iter()
                .flat_map(move |s| seeds.map(|sd| (b, s, sd)))
        })
        .collect();
    let tr = &ctx.tracer;
    let off = Tracer::new(false);

    let mut reference: Option<Vec<RunMetrics>> = None;
    let mut passes = Passes::default();
    let mut traced_runs: Vec<SimRun> = Vec::new();
    timed_passes(ctx, 1, |traced| {
        let t = if traced { tr } else { &off };
        let t0 = Instant::now();
        let cells: Vec<(RunMetrics, Option<SimRun>, f64)> = t.span("pass", 0, |p| {
            par_map_with(workers, jobs.clone(), |_, (b, s, sd)| {
                let t1 = Instant::now();
                let (m, run) = t.span("simulation", p, |sp| {
                    if traced {
                        // Traced cells build and step the system
                        // themselves, to read its obs phase totals and
                        // network counters.
                        let run = sim::simulate(
                            system_cfg(s, b, SCALE, sd, design, true),
                            None,
                            false,
                            t,
                            sp,
                        );
                        (run.metrics.clone(), Some(run))
                    } else {
                        (cell(s, b, &spec(SCALE, sd)), None)
                    }
                });
                (m, run, t1.elapsed().as_secs_f64())
            })
        });
        let wall = t0.elapsed().as_secs_f64();
        let reference =
            reference.get_or_insert_with(|| cells.iter().map(|c| c.0.clone()).collect());
        for ((m, _, _), r) in cells.iter().zip(reference.iter()) {
            let same = if traced {
                same_cycles_and_energy(m, r)
            } else {
                metrics_digest(m) == metrics_digest(r)
            };
            out.count(m.completed && same);
        }
        let secs: Vec<f64> = cells.iter().map(|c| c.2).collect();
        if traced {
            passes.traced(wall, &secs, workers);
            traced_runs.extend(cells.into_iter().filter_map(|c| c.1));
        } else {
            passes.untraced(wall, cells.iter().map(|c| c.0.cycles).sum(), &secs);
        }
    });

    let reference = reference.expect("at least one pass ran");
    let cycles = |scheme: SchemeKind| -> Vec<f64> {
        jobs.iter()
            .zip(&reference)
            .filter(|(j, _)| j.1 == scheme)
            .map(|(_, m)| m.cycles as f64)
            .collect()
    };
    let ratios: Vec<f64> = cycles(SchemeKind::SeparateBase)
        .iter()
        .zip(cycles(SchemeKind::EquiNox))
        .map(|(sb, eq)| sb / eq)
        .collect();
    let gain = geomean(&ratios);
    out.notes.push((
        "equinox_gain",
        Json::obj()
            .with(
                "what",
                "geomean over benchmarks and seeds of SeparateBase cycles / EquiNox cycles",
            )
            .with("paper", "not validated against the paper")
            .with(
                "seeds",
                seeds.iter().map(|&s| Json::from(s)).collect::<Vec<_>>(),
            ),
    ));
    eprintln!("fig9_quick: equinox_gain {gain:.4}x (not validated against the paper)");
    if tr.is_on() {
        out.layers = sim::system_layers(
            &traced_runs.iter().collect::<Vec<_>>(),
            passes.traced_count(),
        );
    }
    passes.finish(
        &mut out,
        &setup,
        gain,
        "one simulation (one run_matrix_spec cell)",
    );
    (out, setup.design)
}

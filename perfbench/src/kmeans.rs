//! `kmeans_long`: the Fig. 12 8×8 pair — full-system kmeans on
//! SeparateBase and on EquiNox — for two workload seeds, run one after
//! another on one worker, each stepped from outside in 1000-cycle
//! `System::step` chunks.

use std::time::Instant;

use equinox_config::Json;
use equinox_core::{EquiNoxDesign, SchemeKind, System};

use crate::sim::{self, SimRun};
use crate::stats::geomean;
use crate::trace::Tracer;
use crate::{setup, system_cfg, timed_passes, Ctx, Outcome, Passes};

/// Workload scale: long enough that memory grows with run length.
pub const SCALE: f64 = 1.5;
const SCHEMES: [SchemeKind; 2] = [SchemeKind::SeparateBase, SchemeKind::EquiNox];
/// Cycles each system is stepped during set-up's warm-up.
const WARM_CYCLES: u64 = 2_000;
/// Fig. 12 8×8 EquiNox IPC ÷ SeparateBase IPC: the paper's value and
/// the one `EXPERIMENTS.md` records for this repository.
const PAPER_GAIN: f64 = 1.23;
const REPO_GAIN: f64 = 1.42;

/// What the first pass fixes for every later one.
struct Reference {
    digests: Vec<u64>,
    /// Half of each run's cycles: where later passes snapshot.
    mids: Vec<u64>,
    ipc: Vec<f64>,
}

pub fn run(ctx: &Ctx) -> (Outcome, EquiNoxDesign) {
    let mut out = Outcome {
        workers: 1,
        scale: format!("{SCALE}"),
        ..Default::default()
    };
    // Two workload seeds per pass, so one unlucky seed moves the
    // figures less.
    let seeds = [ctx.seed, ctx.seed.wrapping_add(1)];
    let sims: Vec<(u64, SchemeKind)> = SCHEMES
        .iter()
        .flat_map(|&s| seeds.map(|sd| (sd, s)))
        .collect();
    let setup = setup(ctx, &mut out, |d, tr, p| {
        for s in SCHEMES {
            let mut sys = tr.span("build", p, |_| {
                System::build(system_cfg(s, "kmeans", SCALE, seeds[0], d, false))
            });
            tr.span("warm_up", p, |_| {
                while sys.cycle() < WARM_CYCLES && !sys.done() {
                    sys.step();
                }
            });
        }
    });
    // One worker: on a shared 2-core host two workers slow each other
    // and their pass times spread more than one worker's.
    equinox_exec::set_threads(1);
    let design = &setup.design;
    let tr = &ctx.tracer;
    let off = Tracer::new(false);

    let mut reference: Option<Reference> = None;
    let mut passes = Passes::default();
    let mut traced_runs: Vec<SimRun> = Vec::new();
    timed_passes(ctx, 3, |traced| {
        let t = if traced { tr } else { &off };
        let mids = reference.as_ref().map(|r| r.mids.clone());
        let first = mids.is_none();
        let t0 = Instant::now();
        let runs: Vec<(SimRun, f64)> = t.span("pass", 0, |p| {
            sims.iter()
                .enumerate()
                .map(|(i, &(sd, s))| {
                    let cfg = system_cfg(s, "kmeans", SCALE, sd, design, traced);
                    let mid = mids.as_ref().map(|m| m[i]);
                    let t1 = Instant::now();
                    let r = t.span("simulation", p, |sp| sim::simulate(cfg, mid, true, t, sp));
                    (r, t1.elapsed().as_secs_f64())
                })
                .collect()
        });
        let wall = t0.elapsed().as_secs_f64();
        let (runs, sim_s): (Vec<SimRun>, Vec<f64>) = runs.into_iter().unzip();
        // The first pass is the reference: it fixes the digests every
        // repeat must reproduce and the midpoints later passes
        // snapshot at. It takes no mid-run snapshot itself, so its
        // timings are left out.
        let r = reference.get_or_insert_with(|| Reference {
            digests: runs.iter().map(|r| r.digest).collect(),
            mids: runs.iter().map(|r| r.metrics.cycles / 2).collect(),
            ipc: runs.iter().map(|r| r.metrics.ipc).collect(),
        });
        for (i, run) in runs.iter().enumerate() {
            let beats_base = sims[i].1 != SchemeKind::EquiNox || r.ipc[i] > r.ipc[i - seeds.len()];
            out.count(
                run.completed && run.roundtrip_ok && run.digest == r.digests[i] && beats_base,
            );
        }
        if traced {
            passes.traced(wall, &sim_s, 1);
            traced_runs.extend(runs);
        } else if !first {
            let cycles = runs.iter().map(|r| r.metrics.cycles).sum();
            let units: Vec<f64> = runs
                .iter()
                .flat_map(|r| r.chunks.iter().map(|c| c.0))
                .collect();
            passes.untraced(wall, cycles, &units);
        }
    });

    let r = reference.expect("at least one pass ran");
    let (base, eq) = r.ipc.split_at(seeds.len());
    let gains: Vec<f64> = eq.iter().zip(base).map(|(e, b)| e / b).collect();
    let gain = geomean(&gains);
    out.checks.push((
        "equinox_beats_separate_base_on_kmeans",
        gains.iter().all(|&g| g > 1.0),
    ));
    out.notes.push((
        "equinox_gain",
        Json::obj()
            .with(
                "what",
                "geomean over the seeds of EquiNox IPC / SeparateBase IPC, kmeans 8x8 (Fig. 12)",
            )
            .with("paper", PAPER_GAIN)
            .with("error_vs_paper", gain / PAPER_GAIN - 1.0)
            .with("repo_experiments_md", REPO_GAIN)
            .with(
                "seeds",
                seeds.iter().map(|&s| Json::from(s)).collect::<Vec<_>>(),
            )
            .with(
                "per_seed",
                gains.iter().map(|&g| Json::from(g)).collect::<Vec<_>>(),
            ),
    ));
    eprintln!(
        "kmeans_long: equinox_gain {gain:.4}x (paper Fig. 12 8x8: {PAPER_GAIN}x, error {:+.1}%; EXPERIMENTS.md: {REPO_GAIN}x)",
        (gain / PAPER_GAIN - 1.0) * 100.0
    );
    if tr.is_on() {
        out.layers = sim::system_layers(
            &traced_runs.iter().collect::<Vec<_>>(),
            passes.traced_count(),
        );
    }
    passes.finish(&mut out, &setup, gain, "one 1000-cycle System::step chunk");
    (out, setup.design)
}

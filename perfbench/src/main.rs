//! Host-performance benchmark of the EquiNox simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kmeans_long|reply_loadlat|fig9_quick> \
//!     [--seed 42] [--seconds 30] [--trace 0|1]
//! ```
//!
//! Drives the simulator crates only through their public functions,
//! checks every simulated output, and prints one JSON object as the
//! last line of stdout: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics of an untraced run;
//! `--trace 1` reports the per-layer metrics of a traced run. The line
//! before it is the full report (host block, every metric with its
//! unit, checks, notes). See `perfbench/README.md`.

mod fig9;
mod kmeans;
mod loadlat;
mod sim;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

use equinox_bench::{strong_design_8x8, STRONG_ITERS, STRONG_SEED};
use equinox_config::Json;
use equinox_core::{EquiNoxDesign, SchemeKind, SystemConfig};
use equinox_traffic::{profile::benchmark, Workload};

use trace::Tracer;

/// Seed held out from benchmark development: a claim made on the
/// default seed must also hold with `--seed 7`.
pub const HELD_OUT_SEED: u64 = 7;
const DEFAULT_SEED: u64 = 42;
/// Set-up (design search + warm-up) is repeated this often per run and
/// reported as the median.
const SETUP_REPS: usize = 5;
/// Host threads available to the benchmark's one process.
pub fn max_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}
/// Placements searched by `EquiNoxDesign::search` (its `top_k`).
const SEARCH_PLACEMENTS: usize = 8;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Per-layer metrics every traced run reports, in report order.
const PER_LAYER: [&str; 24] = [
    "noc.step_share",
    "noc.ns_per_xbar",
    "noc.lowload_ns_per_cycle",
    "noc.sat_ns_per_cycle",
    "noc.xbar_traversals",
    "noc.injected_flits",
    "core.step_us_p50",
    "core.cb_tick_share",
    "core.pe_tick_share",
    "core.ni_tick_share",
    "core.sink_drain_share",
    "core.quiescence_share",
    "core.ff_share",
    "core.build_ms",
    "core.tracker_records",
    "snap.mid_snapshot_mb",
    "snap.end_snapshot_mb",
    "snap.snapshot_ms",
    "snap.restore_ms",
    "mcts.search_s",
    "mcts.iters_per_s",
    "exec.pool_busy_frac",
    "obs.trace_overhead",
    "obs.layer_sum_frac",
];

/// What the benchmark was asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
}

/// Result of one workload run.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics from untraced passes.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics from traced passes (trace mode only).
    pub layers: Vec<Metric>,
    /// Simulations (or load points) attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Named self-checks beyond per-simulation failures.
    pub checks: Vec<(&'static str, bool)>,
    pub notes: Vec<(&'static str, Json)>,
    pub workers: usize,
    pub scale: String,
}

impl Outcome {
    /// Counts one simulation; `ok` false counts it failed.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// The design search plus a workload-specific warm-up, repeated
/// [`SETUP_REPS`] times.
pub struct Setup {
    pub design: EquiNoxDesign,
    pub setup_s: Vec<f64>,
    pub search_s: Vec<f64>,
}

/// Runs set-up: the 8×8 EquiNox design search the paper's experiments
/// use (the first repeat fills `equinox_bench`'s shared design cache,
/// later repeats search afresh) and then `warm`. Searches fan out on
/// [`max_workers`] pool workers.
pub fn setup(ctx: &Ctx, out: &mut Outcome, warm: impl Fn(&EquiNoxDesign, &Tracer, u32)) -> Setup {
    equinox_exec::set_threads(max_workers());
    let tr = &ctx.tracer;
    let (mut setup_s, mut search_s, mut designs) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        tr.span("setup", 0, |p| {
            let t1 = Instant::now();
            let d = tr.span("design_search", p, |_| {
                if rep == 0 {
                    strong_design_8x8().clone()
                } else {
                    EquiNoxDesign::search(8, 8, STRONG_ITERS, STRONG_SEED)
                }
            });
            search_s.push(t1.elapsed().as_secs_f64());
            warm(&d, tr, p);
            designs.push(d);
        });
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    out.checks.push((
        "design_search_deterministic",
        designs.windows(2).all(|w| w[0] == w[1]),
    ));
    Setup {
        design: designs.swap_remove(0),
        setup_s,
        search_s,
    }
}

impl Setup {
    pub fn e2e(&self) -> Metric {
        Metric::new("setup_s", stats::median(&self.setup_s), "s")
    }

    pub fn layers(&self) -> Vec<Metric> {
        let s = stats::median(&self.search_s);
        vec![
            Metric::new("mcts.search_s", s, "s"),
            Metric::new(
                "mcts.iters_per_s",
                (STRONG_ITERS * SEARCH_PLACEMENTS) as f64 / s,
                "1/s",
            ),
        ]
    }
}

/// A full-system configuration as the paper's experiments build it
/// (`SystemConfig::from_spec` on the default spec at `scale`, the shared
/// design for EquiNox), with the obs span profiler armed when `traced`.
pub fn system_cfg(
    scheme: SchemeKind,
    bench: &str,
    scale: f64,
    seed: u64,
    design: &EquiNoxDesign,
    traced: bool,
) -> SystemConfig {
    let mut spec = equinox_config::ExperimentSpec::default();
    spec.scale = scale;
    let profile = benchmark(bench).expect("benchmark names come from the suite");
    let mut cfg = SystemConfig::from_spec(scheme, 8, Workload::new(profile, scale, seed), &spec);
    if scheme == SchemeKind::EquiNox {
        cfg.design = Some(design.clone());
    }
    if traced {
        cfg.obs = Some(equinox_core::ObsConfig::default());
    }
    cfg
}

/// Host timings of a run's passes, common to every workload.
#[derive(Default)]
pub struct Passes {
    walls: Vec<f64>,
    rates: Vec<f64>,
    p50s: Vec<f64>,
    tails: Vec<stats::Tail>,
    traced_walls: Vec<f64>,
    busy: Vec<f64>,
}

impl Passes {
    /// Records an untraced pass: its wall, the simulated cycles it ran
    /// and the host seconds of each unit in it.
    pub fn untraced(&mut self, wall: f64, cycles: u64, unit_s: &[f64]) {
        let ms: Vec<f64> = unit_s.iter().map(|s| s * 1e3).collect();
        self.walls.push(wall);
        self.rates.push(cycles as f64 / wall);
        self.p50s.push(stats::median(&ms));
        self.tails.push(stats::tail(&ms));
    }

    /// Records a traced pass: its wall and the host seconds of each
    /// simulation in it, spread over `workers` pool workers.
    pub fn traced(&mut self, wall: f64, sim_s: &[f64], workers: usize) {
        self.traced_walls.push(wall);
        self.busy
            .push(sim_s.iter().sum::<f64>() / (workers as f64 * wall));
    }

    pub fn traced_count(&self) -> usize {
        self.traced_walls.len()
    }

    /// Fills the end-to-end metrics and, in trace mode, the per-layer
    /// metrics every workload shares (`mcts`, `exec`, `obs.trace_overhead`).
    pub fn finish(&self, out: &mut Outcome, setup: &Setup, gain: f64, unit: &str) {
        let t = self.tails[0];
        let tails: Vec<f64> = self.tails.iter().map(|t| t.value).collect();
        out.e2e = vec![
            Metric::new("wall_s", stats::median(&self.walls), "s"),
            Metric::new("sim_cycles_per_s", stats::median(&self.rates), "1/s"),
            Metric::new("unit_ms_p50", stats::median(&self.p50s), "ms"),
            Metric::new("unit_ms_tail", stats::median(&tails), "ms"),
            setup.e2e(),
            Metric::new("equinox_gain", gain, "x"),
        ];
        let walls: Vec<Json> = self.walls.iter().map(|&w| Json::from(w)).collect();
        out.notes.push((
            "unit",
            Json::obj()
                .with("what", unit)
                .with("tail_percentile", t.pct)
                .with("samples_per_pass", t.samples)
                .with("median_only", t.median_only)
                .with("pass_walls_s", walls),
        ));
        if !self.traced_walls.is_empty() {
            out.layers.extend(setup.layers());
            out.layers.push(Metric::new(
                "exec.pool_busy_frac",
                stats::median(&self.busy),
                "frac",
            ));
            let overhead = stats::median(&self.traced_walls) / stats::median(&self.walls);
            out.layers
                .push(Metric::new("obs.trace_overhead", overhead, "x"));
        }
    }
}

/// `obs.layer_sum_frac` of every traced pass root named `pass` (see
/// [`trace::layer_sum_frac`]; checked within 10% of 1 by the caller),
/// and the span list for the trace file.
fn layer_sum(tr: &Tracer) -> (Vec<f64>, Json) {
    let spans = tr.spans();
    let selfs = trace::self_times(&spans);
    let fracs = spans
        .iter()
        .filter(|s| s.name == "pass")
        .map(|root| trace::layer_sum_frac(&spans, &selfs, root))
        .collect();
    let doc = Json::obj()
        .with("self_ms_by_span", trace::self_ms_by_name(&spans, &selfs))
        .with("spans", trace::spans_json(&spans, &selfs));
    (fracs, doc)
}

/// Runs `pass(traced)` until `seconds` have elapsed and at least
/// `min_each` passes of each kind ran. In trace mode untraced and
/// traced passes alternate; otherwise every pass is untraced.
pub fn timed_passes(ctx: &Ctx, min_each: usize, mut pass: impl FnMut(bool)) {
    let t0 = Instant::now();
    let kinds: &[bool] = if ctx.tracer.is_on() {
        &[false, true]
    } else {
        &[false]
    };
    let mut done = 0;
    while done < min_each * kinds.len() || t0.elapsed().as_secs_f64() < ctx.seconds {
        pass(kinds[done % kinds.len()]);
        done += 1;
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

fn command_line(program: &str, args: &[&str], git_dir: bool) -> String {
    let mut c = Command::new(program);
    c.args(args);
    if git_dir {
        c.env("GIT_DIR", ".git");
    }
    c.output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn host_block(ctx: &Ctx, workload: &str, out: &Outcome) -> Json {
    let rev = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"], true)
    } else {
        "none (not a git checkout)".into()
    };
    Json::obj()
        .with(
            "cores",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .with("rustc", command_line("rustc", &["-V"], false))
        .with("git_rev", rev)
        .with("os", std::env::consts::OS)
        .with("arch", std::env::consts::ARCH)
        .with("setup_pool_workers", max_workers())
        .with("pool_workers", out.workers)
        .with("workload", workload)
        .with("seed", ctx.seed)
        .with("held_out_seed", HELD_OUT_SEED)
        .with("scale", out.scale.as_str())
        .with("seconds", ctx.seconds)
        .with("traced", ctx.tracer.is_on())
}

/// Layer metrics the traced workload did not exercise, measured on
/// small fixed probes in the same process: a full-system kmeans run
/// (`core`, `noc` system-side, `snap`) and two reply-network load points
/// (`noc.lowload_*`, `noc.sat_*`).
fn probe_layers(missing: &[&str], design: &EquiNoxDesign, tr: &Tracer) -> Vec<Metric> {
    let mut out = Vec::new();
    if missing
        .iter()
        .any(|m| !m.starts_with("noc.lowload") && !m.starts_with("noc.sat"))
    {
        let cfg = system_cfg(SchemeKind::SeparateBase, "kmeans", 0.25, 1, design, true);
        let run = tr.span("probe_system", 0, |p| {
            sim::simulate(cfg, Some(sim::CHUNK), true, tr, p)
        });
        out.extend(sim::system_layers(&[&run], 1));
    }
    if missing
        .iter()
        .any(|m| m.starts_with("noc.lowload") || m.starts_with("noc.sat"))
    {
        out.extend(loadlat::probe(design, tr));
    }
    out.retain(|m| missing.contains(&m.name));
    out
}

fn metrics_json(ms: &[Metric]) -> Json {
    ms.iter().fold(Json::obj(), |j, m| {
        j.with(
            m.name,
            Json::obj().with("value", m.value).with("unit", m.unit),
        )
    })
}

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 30.0, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected (0, 600]"));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        ctx: Ctx {
            seed,
            seconds,
            tracer: Tracer::new(trace),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <kmeans_long|reply_loadlat|fig9_quick> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let ctx = &args.ctx;
    let traced = ctx.tracer.is_on();
    let (mut out, design) = match args.workload.as_str() {
        "kmeans_long" => kmeans::run(ctx),
        "reply_loadlat" => loadlat::run(ctx),
        "fig9_quick" => fig9::run(ctx),
        w => {
            eprintln!("perfbench: unknown workload {w}");
            return ExitCode::from(2);
        }
    };
    out.e2e
        .push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB"));
    let fail_frac = out.failed as f64 / out.attempted.max(1) as f64;

    let mut sources: BTreeMap<&str, &str> =
        out.layers.iter().map(|m| (m.name, "workload")).collect();
    let mut trace_doc = None;
    if traced {
        let missing: Vec<&str> = PER_LAYER
            .into_iter()
            .filter(|n| !sources.contains_key(n) && *n != "obs.layer_sum_frac")
            .collect();
        for m in probe_layers(&missing, &design, &ctx.tracer) {
            sources.insert(m.name, "probe");
            out.layers.push(m);
        }
        let (fracs, doc) = layer_sum(&ctx.tracer);
        let within = !fracs.is_empty() && fracs.iter().all(|f| (f - 1.0).abs() <= 0.10);
        out.checks.push(("layer_sum_within_10pct", within));
        out.layers.push(Metric::new(
            "obs.layer_sum_frac",
            stats::median(&fracs),
            "frac",
        ));
        sources.insert("obs.layer_sum_frac", "workload");
        let order = |m: &Metric| {
            PER_LAYER
                .iter()
                .position(|n| *n == m.name)
                .unwrap_or(usize::MAX)
        };
        out.layers.sort_by_key(order);
        out.layers.retain(|m| PER_LAYER.contains(&m.name));
        out.checks.push((
            "every_per_layer_metric_measured",
            out.layers.len() == PER_LAYER.len(),
        ));
        trace_doc = Some(doc);
    }
    let correct = out.failed == 0 && out.checks.iter().all(|c| c.1);

    let reported = if traced { &out.layers } else { &out.e2e };
    for m in reported {
        eprintln!("  {:28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  {:28} {:>16.6} frac  ({} of {} failed)",
        "fail_frac", fail_frac, out.failed, out.attempted
    );
    for (name, ok) in &out.checks {
        eprintln!("  check {name:32} {}", if *ok { "ok" } else { "FAILED" });
    }

    let host = host_block(ctx, &args.workload, &out);
    let mut report = Json::obj()
        .with("schema", "equinox.perfbench/v1")
        .with("host", host.clone())
        .with(
            "end_to_end",
            metrics_json(&out.e2e).with(
                "fail_frac",
                Json::obj().with("value", fail_frac).with("unit", "frac"),
            ),
        )
        .with(
            "checks",
            out.checks
                .iter()
                .fold(Json::obj(), |j, (k, v)| j.with(k, *v)),
        )
        .with(
            "notes",
            out.notes
                .iter()
                .fold(Json::obj(), |j, (k, v)| j.with(k, v.clone())),
        );
    if traced {
        report = report.with("per_layer", metrics_json(&out.layers)).with(
            "per_layer_source",
            sources.iter().fold(Json::obj(), |j, (k, v)| j.with(k, *v)),
        );
        let spans = trace_doc.expect("traced runs keep their spans");
        let path = format!(".bench_out/trace-{}-{}.json", args.workload, ctx.seed);
        let doc = Json::obj().with("host", host).with("trace", spans);
        match std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::write(&path, doc.to_compact()))
        {
            Ok(()) => report = report.with("trace_file", path.as_str()),
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
    }
    println!("{}", report.to_compact());
    let last = Json::obj()
        .with("correct", correct)
        .with("attempted", out.attempted)
        .with("failed", out.failed)
        .with("metrics", metrics_json(reported));
    println!("{}", last.to_compact());
    ExitCode::SUCCESS
}

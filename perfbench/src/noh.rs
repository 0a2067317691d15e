//! `noh-serial`: serial, Lagrangian Noh runs, one per operation.
//!
//! 128² elements × 25 steps: the solver state (6.2 MB computed) is far larger
//! than the 2 MB L2, and almost all of the time goes to the hydro/EOS
//! kernels. Typhon, partition, ALE, serve and per-segment re-setup do
//! no work at all, so this is the target workload for kernel changes,
//! the control for comm and set-up changes, and the plain
//! single-threaded baseline.
//!
//! The runs go one after another on one thread.
//!
//! The seed sets the inflow speed (0.9–1.1): the problem stays Noh's
//! self-similar implosion, the work per run stays fixed.

use std::time::{Duration, Instant};

use bookleaf::serve::state_crc;
use bookleaf::{RunReport, Simulation};

use crate::layers::{self, median_of, timed, Layers, TimerSum};
use crate::{seed_unit, Args, Check, Detail, Outcome};

const N: usize = 128;
/// Steps per run: short enough for about a hundred runs in a 30 s
/// pass, so that the fast end of their times is well sampled; a run
/// still outlasts its `build()` by about 30 times.
const STEPS: usize = 25;
/// `build()` calls timed for `setup_s` after each operation.
const SETUP_PER_ROUND: usize = 1;
/// Energy drift a compatible Lagrangian Noh run may show: round-off.
const DRIFT_TOL: f64 = 1e-10;

fn deck(seed: u64, steps: usize) -> String {
    let speed = 0.9 + 0.2 * seed_unit(seed, 0x40);
    format!(
        "name = noh\n\n[mesh]\nnx = {N}\nny = {N}\n\n\
         [material.gas]\neos = ideal_gas\ngamma = 1.6666666666666667\n\n\
         [region.all]\nshape = rect\nx0 = 0\ny0 = 0\nx1 = 1\ny1 = 1\nmaterial = gas\n\
         rho = 1\nein = 0.000000000001\nu_radial = {}\n\n\
         [control]\nfinal_time = 10\nmax_steps = {steps}\n\n[executor]\nmodel = serial\n",
        -speed
    )
}

/// One operation: `build()` then `run()`.
struct Op {
    build_s: f64,
    run_s: f64,
    crc: u32,
    report: RunReport,
}

fn build(text: &str) -> Result<Simulation, String> {
    Simulation::builder()
        .deck_str(text)
        .build()
        .map_err(|e| format!("build: {e}"))
}

/// One operation: `build()` then `run()`, each timed.
fn one_op(text: &str) -> Result<(Op, Simulation), String> {
    let (sim, build_s) = timed(|| build(text));
    let mut sim = sim?;
    let (report, run_s) = timed(|| sim.run());
    let report = report.map_err(|e| format!("run: {e}"))?;
    let op = Op {
        build_s,
        run_s,
        crc: state_crc(&sim),
        report,
    };
    Ok((op, sim))
}

/// What a pass hands back: its operations, the `setup_s` samples and
/// the last simulation.
struct Pass {
    ops: Vec<Op>,
    setup_s: Vec<f64>,
    sim: Simulation,
}

/// Build-and-run operations until `seconds` have passed (at least one).
/// The `setup_s` samples are each operation's own build and
/// [`SETUP_PER_ROUND`] further builds after it, spread over the whole
/// pass.
fn pass(text: &str, seconds: f64) -> Result<Pass, String> {
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut ops = Vec::new();
    let mut setup_s = Vec::new();
    loop {
        let (op, sim) = one_op(text)?;
        setup_s.push(op.build_s);
        ops.push(op);
        for _ in 0..SETUP_PER_ROUND {
            let (built, s) = timed(|| build(text));
            built?;
            setup_s.push(s);
        }
        if Instant::now() >= end {
            return Ok(Pass { ops, setup_s, sim });
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    // Warm-up: page in the allocator and code paths on a short run.
    pass(&deck(args.seed, 10), 0.0)?;
    let text = deck(args.seed, STEPS);
    let Pass { ops, setup_s, sim } = pass(&text, args.seconds)?;

    let mut out = Outcome::default();
    let cells = sim.mesh().n_elements() as f64;
    let first_crc = ops[0].crc;
    let mut max_drift: f64 = 0.0;
    for op in &ops {
        let drift = op.report.energy_drift();
        max_drift = max_drift.max(drift);
        out.attempted += 1;
        if op.crc != first_crc || drift > DRIFT_TOL || op.report.steps != STEPS {
            out.failed += 1;
        }
    }
    out.checks.push(Check::new(
        "state_crc_repeats",
        ops.iter().all(|o| o.crc == first_crc),
        format!("{} runs, first crc {first_crc:#010x}", ops.len()),
    ));
    out.checks.push(Check::new(
        "energy_drift_round_off",
        max_drift <= DRIFT_TOL,
        format!("max drift {max_drift:.3e} (limit {DRIFT_TOL:.0e})"),
    ));
    out.checks.push(Check::new(
        "steps_reached",
        ops.iter().all(|o| o.report.steps == STEPS),
        format!("{STEPS} steps per run"),
    ));

    let run_ms: Vec<f64> = ops.iter().map(|o| o.run_s * 1e3).collect();
    let work: Vec<(f64, f64)> = ops
        .iter()
        .map(|o| (cells * o.report.steps as f64, o.run_s))
        .collect();
    out.details = vec![
        Detail::rate("cell_steps_per_s", &work).note("one run() per sample"),
        Detail::fast("setup_s", "s", &setup_s)
            .note("each operation's build() and one warm build() after it"),
        Detail::fast("latency_ms_p1", "ms", &run_ms).note("one whole run(): time to solution"),
        Detail::median("latency_ms_p50", "ms", &run_ms),
        Detail::percentile("latency_ms_p90", "ms", &run_ms, 90.0),
    ];
    out.working_set_bytes = layers::working_set_bytes(sim.mesh(), sim.state());

    if args.trace {
        let (l, s) = timed(|| traced(&ops, &sim));
        out.layers = l?;
        out.traced_s = s;
    }
    Ok(out)
}

/// The traced run's extra work: spans of the operations already run,
/// then the layer probes on the workload's own state.
fn traced(ops: &[Op], sim: &Simulation) -> Result<Layers, String> {
    let mut l = Layers::new();
    l.insert(
        "core.build_ms",
        median_of(ops.iter().map(|o| o.build_s * 1e3)),
    );
    let spec = layers::rect_of(&sim.deck().mesh, N, N);
    let generate_ms = layers::probe_generate(&spec).map_err(|e| e.to_string())?;
    l.insert("mesh.generate_ms", generate_ms);

    let mut timers = TimerSum::default();
    for op in ops {
        timers.add(&op.report.timers);
    }
    timers.record_shares(&mut l);
    layers::record_computed_counts(&mut l);
    layers::probe_kernels(
        sim.mesh(),
        &sim.deck().materials,
        sim.state(),
        &sim.config().lag,
        &mut l,
    )
    .map_err(|e| format!("kernel probe: {e}"))?;

    // Wall time the layers account for: mesh generation inside every
    // build(), the rest of build() (core), and the kernel, comm and
    // ALE timers of every run(); the remainder is core's own loop
    // overhead outside those timers.
    let wall: f64 = ops.iter().map(|o| o.build_s + o.run_s).sum();
    let builds: f64 = ops.iter().map(|o| o.build_s).sum();
    let attributed = builds + timers.total();
    l.insert("core.unattributed_share", 1.0 - attributed / wall);
    Ok(l)
}

//! `sedov-ale-mpi2-ckpt`: Sedov with an Eulerian ALE remap on flat-MPI
//! with 2 ranks, advanced by `run_segment(10)` with a checkpoint
//! (`Simulation::checkpoint()` + `Checkpoint::to_bytes()`) after every
//! segment — the shape of `run_resilient` and of
//! `bookleaf run --checkpoint-every 10`.
//!
//! It exercises Typhon (4 messages per link per step with ALE), the
//! remap, the partitioner, the halo-plan build and the per-segment
//! re-setup a distributed segment pays today.
//!
//! An operation is one segmented run of 200 steps (20 segments). Its
//! final state must match a serial run of the same deck to the repo's
//! cross-shape tolerance; a run that does not is a failed operation.
//! The seed scales the blast energy (0.9–1.1); the work stays fixed.

use std::time::{Duration, Instant};

use bookleaf::core::Checkpoint;
use bookleaf::serve::state_crc;
use bookleaf::typhon::CommStats;
use bookleaf::util::TimerReport;
use bookleaf::{ExecutorKind, Simulation};

use crate::layers::{self, median, median_of, timed, Layers, TimerSum};
use crate::{rel_err, seed_unit, Args, Check, Detail, Outcome, CROSS_SHAPE_TOL};

const N: usize = 128;
const STEPS: usize = 200;
/// Steps per segment.
const K: usize = 10;
const RANKS: usize = 2;
/// `build()` calls timed for `setup_s` after each operation.
const SETUP_PER_OP: usize = 2;
/// Segmented-then-unsegmented pairs the traced run adds for the
/// re-setup and attribution metrics.
const PAIRS: usize = 3;

fn deck(seed: u64) -> String {
    let energy = 52.0 * (0.9 + 0.2 * seed_unit(seed, 0x5e));
    format!(
        "name = sedov\n\n[mesh]\nnx = {N}\nny = {N}\nx1 = 1.1\ny1 = 1.1\n\n\
         [material.gas]\neos = ideal_gas\ngamma = 1.4\n\n\
         [region.source]\nshape = circle\ncx = 0\ncy = 0\nr = 0.06875\nmaterial = gas\n\
         rho = 1\nein = {energy}\n\n\
         [region.rest]\nshape = rect\nx0 = 0\ny0 = 0\nx1 = 1.1\ny1 = 1.1\nmaterial = gas\n\
         rho = 1\nein = 0.000000000001\n\n\
         [control]\nfinal_time = 10\nmax_steps = {STEPS}\n\n\
         [ale]\nmode = eulerian\nfrequency = 1\n\n\
         [executor]\nmodel = flat_mpi\nranks = {RANKS}\n"
    )
}

/// One segment: `run_segment(K)`, then the checkpoint and its bytes.
struct Segment {
    segment_s: f64,
    checkpoint_s: f64,
    bytes: usize,
    steps: usize,
    timers: TimerReport,
    comm: CommStats,
}

/// One operation: `build()` and a whole segmented run.
struct Op {
    build_s: f64,
    segments: Vec<Segment>,
    crc: u32,
    err_vs_serial: f64,
    steps: usize,
    /// The last checkpoint's bytes survive a decode/encode round trip.
    checkpoint_round_trips: bool,
}

impl Op {
    fn stepping_s(&self) -> f64 {
        self.segments
            .iter()
            .map(|s| s.segment_s + s.checkpoint_s)
            .sum()
    }
}

fn build(text: &str) -> Result<Simulation, String> {
    Simulation::builder()
        .deck_str(text)
        .build()
        .map_err(|e| format!("build: {e}"))
}

fn segmented_op(text: &str, serial: &Simulation) -> Result<(Op, Simulation), String> {
    let (sim, build_s) = timed(|| build(text));
    let mut sim = sim?;
    let mut segments = Vec::new();
    let mut last_bytes = Vec::new();
    let mut done_steps = 0;
    while !sim.complete() {
        let start = Instant::now();
        let report = sim.run_segment(K).map_err(|e| format!("segment: {e}"))?;
        let mid = Instant::now();
        let ckpt = sim.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
        let bytes = ckpt.to_bytes();
        let end = Instant::now();
        segments.push(Segment {
            segment_s: (mid - start).as_secs_f64(),
            checkpoint_s: (end - mid).as_secs_f64(),
            bytes: bytes.len(),
            // The report's `steps` is cumulative; its timers and comm
            // cover this call only (a distributed run_segment re-runs
            // the team from its resume snapshot).
            steps: report.steps - done_steps,
            timers: report.timers,
            comm: report.comm,
        });
        done_steps = report.steps;
        last_bytes = bytes;
    }
    let checkpoint_round_trips =
        Checkpoint::from_bytes(&last_bytes).is_ok_and(|c| c.to_bytes() == last_bytes);
    let op = Op {
        build_s,
        segments,
        crc: state_crc(&sim),
        err_vs_serial: rel_err((sim.mesh(), sim.state()), (serial.mesh(), serial.state())),
        steps: done_steps,
        checkpoint_round_trips,
    };
    Ok((op, sim))
}

/// Segmented operations until `seconds` have passed (at least one).
/// Returns them with the `setup_s` samples: the operations' own builds
/// and [`SETUP_PER_OP`] further warm builds after each operation, so
/// the samples spread over the whole pass and a slow moment of the host
/// moves a few of them, not their median.
fn pass(
    text: &str,
    serial: &Simulation,
    seconds: f64,
) -> Result<(Vec<Op>, Vec<f64>, Simulation), String> {
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut ops = Vec::new();
    let mut setup_s = Vec::new();
    loop {
        let (op, sim) = segmented_op(text, serial)?;
        setup_s.push(op.build_s);
        ops.push(op);
        for _ in 0..SETUP_PER_OP {
            let (built, s) = timed(|| build(text));
            built?;
            setup_s.push(s);
        }
        if Instant::now() >= end {
            return Ok((ops, setup_s, sim));
        }
    }
}

/// The same deck run unsegmented on the workload's executor.
fn unsegmented(text: &str) -> Result<(Simulation, f64, CommStats), String> {
    let mut sim = build(text)?;
    let (report, wall) = timed(|| sim.run());
    let report = report.map_err(|e| format!("unsegmented run: {e}"))?;
    Ok((sim, wall, report.comm))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let text = deck(args.seed);
    let mut serial = Simulation::builder()
        .deck_str(&text)
        .executor(ExecutorKind::Serial)
        .build()
        .map_err(|e| format!("serial build: {e}"))?;
    serial.run().map_err(|e| format!("serial run: {e}"))?;
    let (whole, _, _) = unsegmented(&text)?;
    let whole_err = rel_err(
        (whole.mesh(), whole.state()),
        (serial.mesh(), serial.state()),
    );

    let (ops, build_s, sim) = pass(&text, &serial, args.seconds)?;

    let mut out = Outcome::default();
    let cells = sim.mesh().n_elements() as f64;
    let first_crc = ops[0].crc;
    let mut max_err: f64 = 0.0;
    for op in &ops {
        out.attempted += 1;
        max_err = max_err.max(op.err_vs_serial);
        if op.err_vs_serial > CROSS_SHAPE_TOL || op.steps != STEPS {
            out.failed += 1;
        }
    }
    out.checks.push(Check::new(
        "unsegmented_distributed_matches_serial",
        whole_err <= CROSS_SHAPE_TOL,
        format!("max rel err {whole_err:.3e} (limit {CROSS_SHAPE_TOL:.0e})"),
    ));
    out.checks.push(Check::new(
        "state_crc_repeats",
        ops.iter().all(|o| o.crc == first_crc),
        format!("{} segmented runs, first crc {first_crc:#010x}", ops.len()),
    ));
    out.checks.push(Check::new(
        "checkpoint_bytes_round_trip",
        ops.iter().all(|o| o.checkpoint_round_trips),
        "Checkpoint::from_bytes(to_bytes()) re-encodes identically",
    ));
    out.checks.push(Check::new(
        "steps_reached",
        ops.iter().all(|o| o.steps == STEPS),
        format!("{STEPS} steps in segments of {K}"),
    ));

    let segs = ops.iter().flat_map(|o| &o.segments);
    let seg_ms: Vec<f64> = segs
        .clone()
        .map(|s| (s.segment_s + s.checkpoint_s) * 1e3)
        .collect();
    let work: Vec<(f64, f64)> = segs
        .map(|s| (cells * s.steps as f64, s.segment_s + s.checkpoint_s))
        .collect();
    out.details = vec![
        Detail::rate("cell_steps_per_s", &work)
            .note("one run_segment(10) and its checkpoint per sample"),
        Detail::fast("setup_s", "s", &build_s).note("warm build() calls, spread over the pass"),
        Detail::fast("latency_ms_p1", "ms", &seg_ms)
            .note("one run_segment(10) plus its checkpoint"),
        Detail::median("segment_ms_p50", "ms", &seg_ms),
        Detail::percentile("segment_ms_p90", "ms", &seg_ms, 90.0),
        Detail::value("max_rel_err_vs_serial", "1", max_err)
            .note("largest over the segmented runs; rho, ein, u and node positions"),
    ];
    out.working_set_bytes = layers::working_set_bytes(sim.mesh(), sim.state());

    if args.trace {
        let (l, s) = timed(|| traced(&text, &serial, &ops, &sim));
        out.layers = l?;
        out.traced_s = s;
    }
    Ok(out)
}

/// The traced run's extra work: spans and reports of the segments
/// already run, a window of paired segmented and unsegmented runs with
/// the re-setup probes, then the other layer probes.
fn traced(text: &str, serial: &Simulation, ops: &[Op], sim: &Simulation) -> Result<Layers, String> {
    let mut l = Layers::new();

    let segs: Vec<&Segment> = ops.iter().flat_map(|o| &o.segments).collect();
    let seg_ms: Vec<f64> = segs.iter().map(|s| s.segment_s * 1e3).collect();
    l.insert(
        "core.build_ms",
        median_of(ops.iter().map(|o| o.build_s * 1e3)),
    );
    l.insert("core.segment_ms", median(&seg_ms));
    l.insert(
        "core.checkpoint_ms",
        median_of(segs.iter().map(|s| s.checkpoint_s * 1e3)),
    );
    l.insert(
        "core.checkpoint_bytes",
        median_of(segs.iter().map(|s| s.bytes as f64)),
    );

    // A window of segmented runs, each followed by the same deck run
    // unsegmented on the same executor, then the re-setup probes: the
    // re-setup and attribution metrics compare times taken seconds
    // apart, so a change of host speed since the pass cannot bias them.
    // The rest of a segment's wall over K unsegmented steps is what
    // re-entering the team costs.
    let mut window = Vec::new();
    let mut walls = Vec::new();
    let mut whole_comm = CommStats::default();
    for _ in 0..PAIRS {
        window.push(segmented_op(text, serial)?.0);
        let (_, wall, comm) = unsegmented(text)?;
        walls.push(wall);
        whole_comm = comm;
    }
    let initial = &sim.deck().mesh;
    let subs = layers::probe_resetup(initial, RANKS, &mut l)
        .map_err(|e| format!("re-setup probe: {e}"))?;
    let window_segs: Vec<&Segment> = window.iter().flat_map(|o| &o.segments).collect();
    let step_ms = median(&walls) * 1e3 / STEPS as f64;
    l.insert(
        "core.resetup_ms_per_segment",
        median_of(window_segs.iter().map(|s| s.segment_s * 1e3)) - K as f64 * step_ms,
    );

    // Comm counters are per run_segment call and summed over ranks.
    let steps: f64 = segs.iter().map(|s| s.steps as f64).sum();
    let mut comm = CommStats::default();
    for s in &segs {
        comm = comm.merged(&s.comm);
    }
    l.insert("typhon.doubles_per_step", comm.doubles_sent as f64 / steps);
    l.insert(
        "typhon.collectives_per_step",
        comm.collectives as f64 / steps,
    );
    l.insert(
        "typhon.recv_wait_ms_per_step",
        comm.recv_wait_seconds * 1e3 / steps,
    );
    l.insert(
        "typhon.overlap_window_ms_per_step",
        comm.overlap_window_seconds * 1e3 / steps,
    );

    let mut timers = TimerSum::default();
    for s in &segs {
        timers.add(&s.timers);
    }
    timers.record_shares(&mut l);
    layers::record_computed_counts(&mut l);

    let mesh = sim.mesh();
    let generate_ms =
        layers::probe_generate(&layers::rect_of(initial, N, N)).map_err(|e| e.to_string())?;
    l.insert("mesh.generate_ms", generate_ms);
    // The protocol's count per directed link and step, from the
    // unsegmented run (a resumed segment adds one restore message per
    // link on top).
    let links = layers::directed_links(&subs) as f64;
    l.insert(
        "typhon.msgs_per_link_per_step",
        whole_comm.messages_sent as f64 / (links * STEPS as f64),
    );
    layers::probe_kernels(
        mesh,
        &sim.deck().materials,
        sim.state(),
        &sim.config().lag,
        &mut l,
    )
    .map_err(|e| format!("kernel probe: {e}"))?;
    let ale = sim.config().ale.unwrap_or_default();
    layers::probe_remap(initial, mesh, sim.state(), ale, &mut l)
        .map_err(|e| format!("remap probe: {e}"))?;

    // Wall of the window's segmented runs the layers account for:
    // build() and checkpoint spans (core), per segment the partition,
    // submesh and plan re-build (probed in the same window) and the
    // kernel, comm and ALE timers. The remainder is the segment's
    // unmeasured re-setup (team spawn, scatter, gather, assembly).
    let mut window_timers = TimerSum::default();
    for s in &window_segs {
        window_timers.add(&s.timers);
    }
    let wall: f64 = window.iter().map(|o| o.build_s + o.stepping_s()).sum();
    let per_segment_setup =
        (l["partition.ms"] + l["mesh.submesh_ms"] + l["typhon.plan_build_ms"]) / 1e3;
    let attributed: f64 = window.iter().map(|o| o.build_s).sum::<f64>()
        + window_segs.iter().map(|s| s.checkpoint_s).sum::<f64>()
        + window_segs.len() as f64 * per_segment_setup
        + window_timers.total();
    l.insert("core.unattributed_share", 1.0 - attributed / wall);
    Ok(l)
}

//! The rank team behind every executor.
//!
//! A simulation is advanced by a team of `RankState` pieces that
//! lives between calls:
//!
//! * **Serial** — a team of one: the whole mesh as a single piece,
//!   advanced inline on the caller's thread with
//!   [`SerialHooks`](crate::halo::SerialHooks).
//! * **Flat MPI** — one rank (thread) per simulated core; kernels run
//!   serially inside each rank; all parallelism comes from the domain
//!   decomposition. This is the reference code's default and the paper's
//!   best single-node configuration.
//! * **Hybrid MPI+OpenMP** — one rank per simulated NUMA region with a
//!   rayon pool (the OpenMP analogue) inside. The acceleration kernel's
//!   scatter dependency keeps it serial within each rank unless the
//!   conflict-free gather rewrite is selected (`AccMode`), mirroring
//!   §IV-B.
//!
//! Like BookLeaf, a distributed team decomposes the mesh once: the first
//! call partitions it, builds the submeshes and scatters the
//! simulation's global view onto the pieces. Every later call only
//! spawns the Typhon rank threads over the kept pieces (scoped threads:
//! none outlives the call), rebuilds the cheap halo plan, runs the
//! shared loop from the pieces' cursor with the two halo-exchange phases
//! and the single global dt reduction per step, and gathers the owned
//! entities back into the global view, so validation code can compare
//! executors directly. Segmented runs are therefore bitwise identical to
//! unsegmented ones. A failed call drops the team, and so does a call
//! that finishes the run; a further call scatters the global view — the
//! last successful call's state, or a restored checkpoint — into a
//! fresh team.
//!
//! Observer hooks fire on every rank with the rank's partition view, and
//! the run's energy accounting counts each owned element and owned node
//! exactly once across the team.

use std::collections::HashMap;
use std::sync::Mutex;

use bookleaf_ale::Remapper;
use bookleaf_eos::MaterialTable;
use bookleaf_hydro::{HaloOps, HydroState, LocalRange, Threading};
use bookleaf_mesh::{Mesh, OverlapSets, SubMesh, SubMeshPlan};
use bookleaf_partition::{partition, Strategy};
use bookleaf_typhon::{CommStats, RankCtx, Typhon, TyphonOptions};
use bookleaf_util::{BookLeafError, Result, TimerRegistry, TimerReport};

use crate::config::{ExecutorKind, RunConfig};
use crate::decks::Deck;
use crate::driver::{run_loop, LoopState, SentinelOps};
use crate::halo::{LocalPiston, TyphonHalo};
use crate::observer::{LoopWatch, ObserverSet};
use crate::output::Snapshot;
use crate::report::RunReport;

/// One rank's piece of the problem, kept between calls.
#[derive(Debug)]
pub(crate) struct RankState {
    /// Local↔global maps, ownership and exchange lists; its `mesh` is
    /// the live local mesh. A team of one's piece is
    /// [`SubMesh::whole`].
    pub sub: SubMesh,
    /// The live local state (owned elements first, then ghosts).
    pub state: HydroState,
    /// The remapper, holding the piece's deck-initial node positions
    /// (the Eulerian target).
    remapper: Option<Remapper>,
    /// The piston with local node ids, if any land on this piece.
    piston: Option<LocalPiston>,
    /// Interior/boundary classification for the overlapped schedule.
    overlap: Option<OverlapSets>,
    /// Where the next call continues from.
    pub cursor: LoopState,
}

impl RankState {
    /// The whole deck as one piece at its initial state: the global view
    /// every simulation starts from, and the piece the serial executor
    /// advances. Its remapper is attached by the first serial call.
    pub(crate) fn whole(deck: &Deck) -> Result<RankState> {
        let mesh = deck.mesh.clone();
        let state = deck.initial_state(&mesh)?;
        Ok(RankState {
            sub: SubMesh::whole(mesh),
            state,
            remapper: None,
            piston: deck.piston.as_ref().map(|p| LocalPiston {
                nodes: p.nodes.clone(),
                velocity: p.velocity,
            }),
            overlap: None,
            cursor: LoopState::default(),
        })
    }

    /// Load a whole-problem snapshot into this whole-mesh piece: the
    /// checkpointed fields and cursor, then the fields derived from them.
    pub(crate) fn install(&mut self, snap: &Snapshot, materials: &MaterialTable) -> Result<()> {
        snap.restore(&mut self.sub.mesh, &mut self.state)?;
        self.cursor = LoopState {
            t: snap.time,
            steps: snap.steps as usize,
            dt_prev: snap.dt_prev,
        };
        rederive(&self.sub.mesh, materials, &mut self.state)
    }

    /// Attach the remapper a serial call needs (built from the deck's
    /// initial mesh, so a restored piece remaps to the same target).
    pub(crate) fn attach_remapper(&mut self, deck: &Deck, config: &RunConfig) {
        if self.remapper.is_none() {
            self.remapper = config.ale.map(|opts| Remapper::new(&deck.mesh, opts));
        }
    }

    /// The piston hook of this piece.
    pub(crate) fn piston(&self) -> Option<LocalPiston> {
        self.piston.clone()
    }

    /// Advance this piece to `config`'s stop point through the shared
    /// loop. `ctx` supplies the team's collectives and fault schedule;
    /// `None` is a team of one, whose reductions are the identity.
    /// `energy_ref` is the sentinel's drift reference; `None` reduces
    /// this call's start energy instead. Returns the call's global
    /// (start, end) energies.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn advance<H: HaloOps>(
        &mut self,
        ctx: Option<&RankCtx>,
        halo: &mut H,
        materials: &MaterialTable,
        config: &RunConfig,
        observers: &ObserverSet,
        timers: &TimerRegistry,
        energy_ref: Option<f64>,
    ) -> Result<(f64, f64)> {
        let range = LocalRange {
            n_owned_el: self.sub.n_owned_el,
            n_active_nd: self.sub.n_active_nd,
        };
        let RankState {
            sub,
            state,
            remapper,
            overlap,
            cursor,
            ..
        } = self;
        let (rank, nd_owner) = (sub.rank, &sub.nd_owner);
        let mesh = &mut sub.mesh;
        // This piece's energy contribution: owned elements and owned
        // nodes, so partition-boundary nodes count once across the team.
        let local_energy = |mesh: &Mesh, state: &HydroState| {
            state.internal_energy(range)
                + state.kinetic_energy_where(mesh, range, |n| nd_owner[n] as usize == rank)
        };
        // Every collective below (start/end energy, dt per step, any
        // sentinel or observer-driven reduction inside the loop) runs in
        // the same order on every rank.
        let reduce_sum = |v: f64| -> Result<f64> {
            Ok(match ctx {
                Some(c) => c.allreduce_sum(v)?,
                None => v,
            })
        };
        let reduce_min = |v: f64| -> Result<f64> {
            Ok(match ctx {
                Some(c) => c.allreduce_min(v)?,
                None => v,
            })
        };
        let comm_stats = || ctx.map(RankCtx::stats).unwrap_or_default();
        let energy_start = match energy_ref {
            Some(e) => e,
            None => reduce_sum(local_energy(mesh, state))?,
        };
        let n_ranks = ctx.map_or(1, RankCtx::n_ranks);
        let watch = LoopWatch {
            observers,
            rank,
            n_ranks,
            reduce_sum: &reduce_sum,
            comm_stats: &comm_stats,
            local_energy: &local_energy,
        };
        let sentinel = SentinelOps {
            rank,
            reduce_min: &reduce_min,
            reduce_sum: &reduce_sum,
            local_energy: &local_energy,
            energy_ref: energy_start,
        };
        run_loop(
            mesh,
            materials,
            state,
            range,
            config,
            remapper.as_ref(),
            halo,
            // The one per-step progress announcement: arms scheduled
            // point faults for this step and fires a scheduled rank
            // death, then the single global dt reduction.
            |step, dt| match ctx {
                Some(c) => {
                    c.begin_step(step)?;
                    Ok(c.allreduce_min(dt)?)
                }
                None => Ok(dt),
            },
            timers,
            cursor,
            overlap.as_ref(),
            Some(&watch),
            Some(&sentinel),
        )?;
        let energy_end = reduce_sum(local_energy(mesh, state))?;
        Ok((energy_start, energy_end))
    }
}

/// Re-derive what a checkpoint omits over every local element, owned
/// and ghost: geometry, then pressure and sound speed. Both are pure
/// per-element functions of the checkpointed fields, so every rank
/// reproduces the owner's values bitwise.
fn rederive(mesh: &Mesh, materials: &MaterialTable, state: &mut HydroState) -> Result<()> {
    let whole = LocalRange::whole(mesh);
    bookleaf_hydro::getgeom::getgeom(mesh, state, whole, Threading::Serial)?;
    bookleaf_hydro::getpc::getpc(mesh, materials, state, whole, Threading::Serial);
    Ok(())
}

/// Decompose the deck into `ranks` pieces and scatter `global` onto
/// them: the team a distributed call builds when it has none.
pub(crate) fn build_team(
    deck: &Deck,
    config: &RunConfig,
    global: &RankState,
    ranks: usize,
) -> Result<Vec<RankState>> {
    let owner = partition(&deck.mesh, ranks, Strategy::Rcb)?;
    SubMeshPlan::build(&deck.mesh, &owner, ranks)?
        .into_iter()
        .map(|sub| scatter(sub, deck, config, global))
        .collect()
}

/// One piece of a fresh team. Every local entity, owned or ghost, takes
/// the global view's checkpointed fields, then the derived fields are
/// re-derived: exactly what resuming from a checkpoint of the global
/// view does.
fn scatter(
    mut sub: SubMesh,
    deck: &Deck,
    config: &RunConfig,
    global: &RankState,
) -> Result<RankState> {
    // Captured before the scatter moves the nodes: the remap target is
    // the deck-initial mesh.
    let remapper = config.ale.map(|opts| Remapper::new(&sub.mesh, opts));
    let piston = deck.piston.as_ref().map(|p| {
        let g2l: HashMap<u32, u32> = sub
            .nd_l2g
            .iter()
            .enumerate()
            .map(|(l, &g)| (g, l as u32))
            .collect();
        LocalPiston {
            nodes: p.nodes.iter().filter_map(|g| g2l.get(g).copied()).collect(),
            velocity: p.velocity,
        }
    });
    let overlap = config.overlap.then(|| sub.overlap_sets());

    let (g_nodes, g) = (&global.sub.mesh.nodes, &global.state);
    let (el, nd) = (&sub.el_l2g, &sub.nd_l2g);
    let mut state = HydroState::new(
        &sub.mesh,
        &deck.materials,
        |e| g.rho[el[e] as usize],
        |e| g.ein[el[e] as usize],
        |n| g.u[nd[n] as usize],
    )?;
    for (l, &n) in sub.nd_l2g.iter().enumerate() {
        sub.mesh.nodes[l] = g_nodes[n as usize];
        state.nd_mass[l] = g.nd_mass[n as usize];
    }
    for (l, &e) in sub.el_l2g.iter().enumerate() {
        let e = e as usize;
        state.mass[l] = g.mass[e];
        state.q[l] = g.q[e];
        state.cnmass[l] = g.cnmass[e];
    }
    rederive(&sub.mesh, &deck.materials, &mut state)?;
    Ok(RankState {
        sub,
        state,
        remapper,
        piston,
        overlap,
        cursor: global.cursor,
    })
}

/// Copy every piece's owned entities into the whole-mesh `global`
/// view, with the team's cursor.
fn gather(team: &[RankState], global: &mut RankState) {
    let (g_nodes, g) = (&mut global.sub.mesh.nodes, &mut global.state);
    for piece in team {
        let (sub, s) = (&piece.sub, &piece.state);
        for (l, &e) in sub.el_l2g[..sub.n_owned_el].iter().enumerate() {
            let e = e as usize;
            g.rho[e] = s.rho[l];
            g.ein[e] = s.ein[l];
            g.pressure[e] = s.pressure[l];
            g.cs2[e] = s.cs2[l];
            g.volume[e] = s.volume[l];
            g.mass[e] = s.mass[l];
            g.q[e] = s.q[l];
            g.cnmass[e] = s.cnmass[l];
        }
        for (l, &n) in sub.nd_l2g[..sub.n_active_nd].iter().enumerate() {
            if sub.owns_node(l) {
                let n = n as usize;
                g_nodes[n] = sub.mesh.nodes[l];
                g.u[n] = s.u[l];
                g.nd_mass[n] = s.nd_mass[l];
            }
        }
    }
    if let Some(piece) = team.first() {
        global.cursor = piece.cursor;
    }
}

/// One distributed call: spawn the Typhon rank threads over the kept
/// pieces, advance each through the shared loop (observers firing per
/// rank), gather the owned entities into `global` and report. The
/// report's timers, comm counters, wall clock and energies cover this
/// call only. On an error the pieces are mid-step; the caller drops
/// them.
pub(crate) fn run_team(
    team: &mut [RankState],
    global: &mut RankState,
    deck: &Deck,
    config: &RunConfig,
    observers: &ObserverSet,
    typhon: &TyphonOptions,
) -> Result<RunReport> {
    let threads_per_rank = match config.executor {
        ExecutorKind::Hybrid {
            threads_per_rank, ..
        } => threads_per_rank,
        ExecutorKind::FlatMpi { .. } | ExecutorKind::Serial => 0,
    };
    let mut rank_config = *config;
    rank_config.lag.threading = if threads_per_rank > 1 {
        Threading::Rayon
    } else {
        Threading::Serial
    };

    // Each rank thread locks only its own piece.
    let pieces: Vec<Mutex<&mut RankState>> = team.iter_mut().map(Mutex::new).collect();
    let start = std::time::Instant::now();
    let results = Typhon::run_with(pieces.len(), typhon.clone(), |ctx| -> Result<_> {
        let mut guard = pieces[ctx.rank()]
            .lock()
            .map_err(|_| BookLeafError::Comm("rank piece poisoned".into()))?;
        let piece: &mut RankState = &mut guard;
        let mut body = || -> Result<(TimerReport, CommStats, f64, f64)> {
            // The halo plan is rebuilt per call (it is cheap); every
            // hook then moves its whole phase as one message per
            // neighbour.
            let mut halo = TyphonHalo::new(ctx, &piece.sub, piece.piston());
            let timers = TimerRegistry::new();
            let (e0, e1) = piece.advance(
                Some(ctx),
                &mut halo,
                &deck.materials,
                &rank_config,
                observers,
                &timers,
                None,
            )?;
            Ok((timers.report(), ctx.stats(), e0, e1))
        };
        if threads_per_rank > 1 {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads_per_rank)
                .build()
                .map_err(|e| BookLeafError::Comm(format!("rayon pool: {e}")))?;
            pool.install(body)
        } else {
            body()
        }
    })?;
    let wall = start.elapsed().as_secs_f64();

    let mut report = RunReport {
        name: deck.name.to_string(),
        executor: config.executor,
        ranks: team.len(),
        steps: 0,
        time: 0.0,
        wall_seconds: wall,
        timers: TimerReport::zero(),
        comm: CommStats::default(),
        energy_start: 0.0,
        energy_end: 0.0,
        recovery: crate::resilience::RecoveryLog::default(),
    };
    // Rank order: the first failing rank's error wins, deterministically.
    for r in results {
        let (timers, comm, e0, e1) = r?;
        report.timers = report.timers.max(&timers);
        report.comm = report.comm.merged(&comm);
        // Already globally reduced — identical on every rank.
        report.energy_start = e0;
        report.energy_end = e1;
    }
    gather(team, global);
    report.steps = global.cursor.steps;
    report.time = global.cursor.t;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decks;
    use crate::sim::Simulation;
    use bookleaf_util::approx_eq;

    /// Serial vs distributed equivalence on the Sod problem, all
    /// through the one `Simulation` code path.
    fn compare_with_serial(executor: ExecutorKind, tol: f64) {
        let deck = decks::sod(32, 4);
        let config = RunConfig {
            final_time: 0.03,
            ..RunConfig::default()
        };

        let mut serial = Simulation::builder()
            .deck(deck.clone())
            .config(config)
            .build()
            .unwrap();
        serial.run().unwrap();

        let mut dist = Simulation::builder()
            .deck(deck.clone())
            .config(config)
            .executor(executor)
            .build()
            .unwrap();
        dist.run().unwrap();

        for e in 0..deck.mesh.n_elements() {
            assert!(
                approx_eq(serial.state().rho[e], dist.state().rho[e], tol),
                "rho mismatch at {e}: {} vs {}",
                serial.state().rho[e],
                dist.state().rho[e]
            );
            assert!(
                approx_eq(serial.state().ein[e], dist.state().ein[e], tol),
                "ein mismatch at {e}"
            );
        }
        for n in 0..deck.mesh.n_nodes() {
            assert!(
                (serial.state().u[n] - dist.state().u[n]).norm() < tol,
                "velocity mismatch at node {n}"
            );
            assert!(
                serial.mesh().nodes[n].distance(dist.mesh().nodes[n]) < tol,
                "position mismatch at node {n}"
            );
        }
    }

    #[test]
    fn flat_mpi_matches_serial() {
        compare_with_serial(ExecutorKind::FlatMpi { ranks: 4 }, 1e-9);
    }

    #[test]
    fn hybrid_matches_serial() {
        compare_with_serial(
            ExecutorKind::Hybrid {
                ranks: 2,
                threads_per_rank: 2,
            },
            1e-9,
        );
    }

    #[test]
    fn rank_counts_agree_on_steps_and_energy_is_global() {
        let deck = decks::noh(12);
        let mut sim = Simulation::builder()
            .deck(deck.clone())
            .final_time(0.02)
            .executor(ExecutorKind::FlatMpi { ranks: 3 })
            .build()
            .unwrap();
        let report = sim.run().unwrap();
        assert!(report.steps > 0);
        assert!((report.time - 0.02).abs() < 1e-12);
        assert_eq!(report.ranks, 3);
        // Communication actually happened.
        assert!(report.comm.messages_sent > 0);
        assert!(report.comm.doubles_sent > 0);
        // The energy accounting is global (counts every partition once):
        // it matches the serial run's to tight tolerance.
        let mut serial = Simulation::builder()
            .deck(deck)
            .final_time(0.02)
            .build()
            .unwrap();
        let serial_report = serial.run().unwrap();
        assert!(
            approx_eq(report.energy_start, serial_report.energy_start, 1e-9),
            "start energy {} vs serial {}",
            report.energy_start,
            serial_report.energy_start
        );
        assert!(
            approx_eq(report.energy_end, serial_report.energy_end, 1e-6),
            "end energy {} vs serial {}",
            report.energy_end,
            serial_report.energy_end
        );
    }

    /// The pieces persist between calls: a second segment neither
    /// re-partitions nor re-scatters (the team is the same allocation)
    /// and sends only per-step halo traffic. The call that finishes the
    /// run releases the team.
    #[test]
    fn the_team_persists_between_segments() {
        let mut sim = Simulation::builder()
            .deck(decks::noh(12))
            .final_time(1.0)
            .max_steps(12)
            .executor(ExecutorKind::FlatMpi { ranks: 2 })
            .build()
            .unwrap();
        assert!(sim.team.is_empty(), "build() must not build the team");
        let first = sim.run_segment(4).unwrap();
        let piece = std::ptr::from_ref(&sim.team[0].state.rho[0]);
        let second = sim.run_segment(4).unwrap();
        assert_eq!(second.steps, 8);
        assert_eq!(std::ptr::from_ref(&sim.team[0].state.rho[0]), piece);
        assert_eq!(first.comm.messages_sent, second.comm.messages_sent);
        assert_eq!(sim.run_segment(4).unwrap().steps, 12);
        assert!(sim.complete() && sim.team.is_empty());
    }

    #[test]
    fn distributed_piston_works() {
        let mut sim = Simulation::builder()
            .deck(decks::saltzmann(32, 4))
            .final_time(0.05)
            .executor(ExecutorKind::FlatMpi { ranks: 3 })
            .build()
            .unwrap();
        sim.run().unwrap();
        let min_x = sim
            .mesh()
            .nodes
            .iter()
            .map(|p| p.x)
            .fold(f64::INFINITY, f64::min);
        assert!((min_x - 0.05).abs() < 0.02, "piston wall at {min_x}");
    }

    #[test]
    fn distributed_eulerian_ale_matches_serial_loosely() {
        use bookleaf_ale::{AleMode, AleOptions};
        let deck = decks::sod(24, 3);
        let base = RunConfig {
            final_time: 0.02,
            ale: Some(AleOptions {
                mode: AleMode::Eulerian,
                frequency: 1,
            }),
            ..RunConfig::default()
        };
        let mut serial = Simulation::builder()
            .deck(deck.clone())
            .config(base)
            .build()
            .unwrap();
        serial.run().unwrap();
        let mut dist = Simulation::builder()
            .deck(deck.clone())
            .config(base)
            .executor(ExecutorKind::FlatMpi { ranks: 2 })
            .build()
            .unwrap();
        dist.run().unwrap();
        // ALE at partition boundaries falls back to first order for the
        // limiter stencil (see DESIGN.md), so agreement is looser.
        for e in 0..deck.mesh.n_elements() {
            assert!(
                approx_eq(serial.state().rho[e], dist.state().rho[e], 5e-2),
                "rho far off at {e}: {} vs {}",
                serial.state().rho[e],
                dist.state().rho[e]
            );
        }
    }
}

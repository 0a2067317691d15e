//! Layer probes: each times a call into one layer's public functions
//! from outside, on the workload's own inputs. Nothing here reaches
//! inside the program; the program's own counters are read only from
//! the public `RunReport` (`timers`, `comm`).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use bookleaf::ale::{AleOptions, Remapper};
use bookleaf::device::{KernelCost, RawCost};
use bookleaf::eos::MaterialTable;
use bookleaf::hydro::getacc::{getacc, move_nodes};
use bookleaf::hydro::getdt::getdt;
use bookleaf::hydro::getein::WorkVelocity;
use bookleaf::hydro::getforce::getforce;
use bookleaf::hydro::getgeom::getgeom;
use bookleaf::hydro::getpc::getpc;
use bookleaf::hydro::getq::getq;
use bookleaf::hydro::{
    eos_fused, EosStages, FusedEos, HydroState, LagOptions, LocalRange, Threading,
};
use bookleaf::mesh::generation::{generate_rect, RectSpec};
use bookleaf::mesh::{Mesh, SubMesh, SubMeshPlan};
use bookleaf::partition::metrics::assess_partition;
use bookleaf::partition::{partition, Strategy};
use bookleaf::typhon::{Entity, HaloPlanBuilder, SlotKind};
use bookleaf::util::{KernelId, TimerReport};
use bookleaf::RunConfig;

use crate::json::Json;
use crate::stats::Summary;

/// Per-layer metrics, by name: the traced run fills what its workload
/// exercises; everything else reads 0 (that layer does no work there).
pub type Layers = BTreeMap<&'static str, f64>;

/// Step size the kernel probes integrate over: small enough that
/// repeated calls leave the state physically unchanged.
const PROBE_DT: f64 = 1e-9;

/// Wall-clock budget for one probe's repeats.
const PROBE_BUDGET_S: f64 = 0.15;

/// Seconds `f` takes.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median seconds per call of `f`, repeated for about
/// [`PROBE_BUDGET_S`] (at least 5, at most 200 calls). The output goes
/// through `black_box`, so the call cannot be optimised away.
pub fn probe<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5
        || (samples.len() < 200 && start.elapsed().as_secs_f64() < PROBE_BUDGET_S)
    {
        let (out, s) = timed(&mut f);
        black_box(out);
        samples.push(s);
    }
    median(&samples)
}

/// Median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

/// [`median`] of an iterator's values.
pub fn median_of(values: impl IntoIterator<Item = f64>) -> f64 {
    median(&values.into_iter().collect::<Vec<_>>())
}

/// The kernels the per-kernel metrics cover, with their timer buckets.
pub const KERNELS: [(&str, KernelId); 5] = [
    ("getq", KernelId::GetQ),
    ("getforce", KernelId::GetForce),
    ("getacc", KernelId::GetAcc),
    ("getdt", KernelId::GetDt),
    ("eos_fused", KernelId::EosFused),
];

/// Per-element (flops, bytes, table) of a kernel from the
/// `bookleaf-device` cost tables: the raw code audit where one exists,
/// the calibrated effective counts otherwise. Computed, not measured:
/// cache misses are ignored.
#[must_use]
pub fn computed_counts(kernel: KernelId) -> (f64, f64, &'static str) {
    match RawCost::of(kernel) {
        Some(raw) => (raw.flops, raw.bytes, "raw audit"),
        None => {
            let c = KernelCost::of(kernel);
            (c.flops, c.bytes, "calibrated effective")
        }
    }
}

/// Record the computed bytes and flops per cell of every kernel.
pub fn record_computed_counts(layers: &mut Layers) {
    for (name, id) in KERNELS {
        let (flops, bytes, _) = computed_counts(id);
        layers.insert(kernel_key(name, "bytes_per_cell"), bytes);
        layers.insert(kernel_key(name, "flops_per_cell"), flops);
    }
}

/// Which cost table fed each kernel's computed counts.
#[must_use]
pub fn computed_counts_record() -> Json {
    let mut j = Json::obj();
    for (name, id) in KERNELS {
        let (flops, bytes, table) = computed_counts(id);
        j.push(
            name,
            Json::obj()
                .with("flops_per_cell", flops)
                .with("bytes_per_cell", bytes)
                .with("table", table),
        );
    }
    j.with(
        "note",
        "computed from the bookleaf-device cost tables, not measured",
    )
}

/// `hydro.<kernel>.<what>` as a static metric name.
#[must_use]
pub fn kernel_key(kernel: &str, what: &str) -> &'static str {
    crate::PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| *n == format!("hydro.{kernel}.{what}"))
        .expect("per-kernel metric is declared in PER_LAYER")
}

/// Sum of several runs' timer reports, per kernel bucket.
#[derive(Debug, Default)]
pub struct TimerSum {
    seconds: BTreeMap<KernelId, f64>,
}

impl TimerSum {
    pub fn add(&mut self, t: &TimerReport) {
        for id in KernelId::ALL {
            *self.seconds.entry(id).or_default() += t.seconds(id);
        }
    }

    #[must_use]
    pub fn total(&self) -> f64 {
        self.seconds.values().sum()
    }

    #[must_use]
    pub fn share(&self, id: KernelId) -> f64 {
        let total = self.total();
        if total > 0.0 {
            self.seconds.get(&id).copied().unwrap_or(0.0) / total
        } else {
            0.0
        }
    }

    /// Record `hydro.<k>.share` and `ale.share`.
    pub fn record_shares(&self, layers: &mut Layers) {
        for (name, id) in KERNELS {
            layers.insert(kernel_key(name, "share"), self.share(id));
        }
        layers.insert("ale.share", self.share(KernelId::Ale));
    }
}

/// `hydro.<k>.ns_per_cell`: each public kernel called serially on a
/// copy of the workload's own state, median over repeats.
///
/// # Errors
///
/// A kernel's typed error (the state must be a valid mid-run state).
pub fn probe_kernels(
    mesh: &Mesh,
    materials: &MaterialTable,
    state: &HydroState,
    lag: &LagOptions,
    layers: &mut Layers,
) -> bookleaf::util::Result<()> {
    let mut st = state.clone();
    let range = LocalRange::whole(mesh);
    let th = Threading::Serial;
    // The copy's derived fields (geometry, pressure) are refreshed from
    // its primary ones, which is what the step loop does first too.
    getgeom(mesh, &mut st, range, th)?;
    getpc(mesh, materials, &mut st, range, th);
    let controls = RunConfig::default().dt;
    let cells = mesh.n_elements() as f64;
    let mut record = |name: &str, seconds: f64| {
        layers.insert(kernel_key(name, "ns_per_cell"), seconds * 1e9 / cells);
    };
    record("getq", probe(|| getq(mesh, &mut st, range, lag.q, th)));
    record(
        "getforce",
        probe(|| getforce(mesh, &mut st, range, lag.hourglass, PROBE_DT, th)),
    );
    record(
        "getacc",
        probe(|| getacc(mesh, &mut st, range, PROBE_DT, lag.acc_mode)),
    );
    // A kernel that fails on this state fails on its first call; the
    // repeats then time the same successful call.
    getdt(mesh, &mut st, range, &controls, Some(PROBE_DT), th)?;
    record(
        "getdt",
        probe(|| getdt(mesh, &mut st, range, &controls, Some(PROBE_DT), th)),
    );
    let sweep = FusedEos {
        dt: PROBE_DT,
        which: WorkVelocity::Current,
        ein_from: None,
        stages: EosStages::all(),
    };
    eos_fused(mesh, materials, &mut st, range, sweep, th)?;
    record(
        "eos_fused",
        probe(|| eos_fused(mesh, materials, &mut st, range, sweep, th)),
    );
    Ok(())
}

/// `ale.remap_ms_per_step`: `Remapper::step` on the workload's own
/// state after the nodes moved through one small Lagrangian step,
/// scaled by how often the remap is due.
///
/// # Errors
///
/// The remap's typed error.
pub fn probe_remap(
    initial: &Mesh,
    mesh: &Mesh,
    state: &HydroState,
    opts: AleOptions,
    layers: &mut Layers,
) -> bookleaf::util::Result<()> {
    let remapper = Remapper::new(initial, opts);
    let range = LocalRange::whole(mesh);
    let mut moved = mesh.clone();
    move_nodes(&mut moved, state, range, 1e-4);
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5
        || (samples.len() < 200 && start.elapsed().as_secs_f64() < PROBE_BUDGET_S)
    {
        let (mut m, mut st) = (moved.clone(), state.clone());
        let (result, s) = timed(|| remapper.step(&mut m, &mut st, range));
        result?;
        samples.push(s);
    }
    layers.insert(
        "ale.remap_ms_per_step",
        median(&samples) * 1e3 / opts.frequency.max(1) as f64,
    );
    Ok(())
}

/// `mesh.generate_ms`: `generate_rect` for a mesh of these dimensions.
///
/// # Errors
///
/// The generator's typed error.
pub fn probe_generate(spec: &RectSpec) -> bookleaf::util::Result<f64> {
    generate_rect(spec, |_| 0)?;
    Ok(probe(|| generate_rect(spec, |_| 0)) * 1e3)
}

/// The rectangle `mesh` was generated from (its node bounding box and
/// element counts; every deck this benchmark sends is a rectangle).
#[must_use]
pub fn rect_of(mesh: &Mesh, nx: usize, ny: usize) -> RectSpec {
    let (mut lo, mut hi) = (mesh.nodes[0], mesh.nodes[0]);
    for p in &mesh.nodes {
        lo.x = lo.x.min(p.x);
        lo.y = lo.y.min(p.y);
        hi.x = hi.x.max(p.x);
        hi.y = hi.y.max(p.y);
    }
    RectSpec {
        nx,
        ny,
        origin: lo,
        extent: hi,
    }
}

/// The per-segment re-setup parts a distributed run repeats: RCB
/// partition, submesh extraction and every rank's halo-plan build
/// (ranks build in parallel, so the slowest rank's build counts).
/// Also records the partition quality. Returns the submeshes.
///
/// # Errors
///
/// The partitioner's or submesh builder's typed error.
pub fn probe_resetup(
    mesh: &Mesh,
    ranks: usize,
    layers: &mut Layers,
) -> bookleaf::util::Result<Vec<SubMesh>> {
    let owner = partition(mesh, ranks, Strategy::Rcb)?;
    let subs = SubMeshPlan::build(mesh, &owner, ranks)?;
    let quality = assess_partition(mesh, &owner, ranks)?;
    layers.insert(
        "partition.ms",
        probe(|| partition(mesh, ranks, Strategy::Rcb)) * 1e3,
    );
    layers.insert(
        "mesh.submesh_ms",
        probe(|| SubMeshPlan::build(mesh, &owner, ranks)) * 1e3,
    );
    let slowest_plan = subs
        .iter()
        .map(|sub| probe(|| halo_plan(sub)))
        .fold(0.0, f64::max);
    layers.insert("typhon.plan_build_ms", slowest_plan * 1e3);
    layers.insert("partition.edge_cut", quality.edge_cut as f64);
    layers.insert("partition.imbalance", quality.imbalance);
    Ok(subs)
}

/// The halo plan a rank of the distributed executor builds: the same
/// four phases, with the same slots in the same order, that
/// `bookleaf::core::halo::TyphonHalo::new` registers.
fn halo_plan(sub: &SubMesh) -> bookleaf::typhon::HaloPlan {
    use Entity::{Element as El, Node as Nd};
    use SlotKind::{Corner4, CornerVec2, Scalar, Vec2};
    let mut b = HaloPlanBuilder::new(&sub.el_exchange, &sub.nd_exchange);
    b.phase(
        "pre_viscosity",
        &[
            (Nd, Vec2),
            (Nd, Vec2),
            (El, Scalar),
            (El, Scalar),
            (El, Scalar),
            (El, Scalar),
        ],
    );
    b.phase("pre_acceleration", &[(El, Corner4), (El, CornerVec2)]);
    b.phase(
        "post_remap",
        &[
            (Nd, Vec2),
            (Nd, Vec2),
            (El, Scalar),
            (El, Scalar),
            (El, Scalar),
            (El, Scalar),
            (El, Corner4),
        ],
    );
    b.phase(
        "restore",
        &[
            (Nd, Vec2),
            (Nd, Vec2),
            (Nd, Scalar),
            (El, Scalar),
            (El, Scalar),
            (El, Scalar),
            (El, Scalar),
            (El, Corner4),
        ],
    );
    b.build()
}

/// Directed neighbour links of a decomposition (each rank counts each
/// of its neighbours once).
#[must_use]
pub fn directed_links(subs: &[SubMesh]) -> usize {
    subs.iter().map(|s| s.neighbour_ranks().len()).sum()
}

/// Bytes of the solver state a run sweeps each step (mesh topology and
/// coordinates plus every state array), computed from array lengths.
#[must_use]
pub fn working_set_bytes(mesh: &Mesh, state: &HydroState) -> u64 {
    fn b<T>(v: &[T]) -> u64 {
        std::mem::size_of_val(v) as u64
    }
    let s = state;
    b(&mesh.nodes)
        + b(&mesh.elnd)
        + b(&mesh.elel)
        + b(&mesh.ndel_off)
        + b(&mesh.ndel)
        + b(&mesh.node_bc)
        + b(&mesh.region)
        + [
            &s.mass,
            &s.rho,
            &s.ein,
            &s.pressure,
            &s.cs2,
            &s.volume,
            &s.length,
            &s.q,
            &s.div_u,
            &s.nd_mass,
        ]
        .iter()
        .map(|v| b(v))
        .sum::<u64>()
        + [&s.edge_q, &s.cnmass, &s.cnvol, &s.cnforce_x, &s.cnforce_y]
            .iter()
            .map(|v| b(v))
            .sum::<u64>()
        + b(&s.u)
        + b(&s.ubar)
}

//! The BookLeaf-rs benchmark binary: one workload per process.
//!
//! ```text
//! perfbench --workload <noh-serial|sedov-ale-mpi2-ckpt|serve-mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one detail line (every metric with its sample count and
//! quartiles, the checks, the environment) and then the result line
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `run.py` builds this binary, adds `peak_rss_mb` from
//! the operating system's account of the process, and relays both
//! lines. See README.md for what each workload and metric means.

mod env;
mod json;
mod layers;
mod mix;
mod noh;
mod sedov;
mod serve;
mod stats;

use std::process::ExitCode;

use bookleaf::hydro::HydroState;
use bookleaf::mesh::Mesh;

use json::Json;
use layers::Layers;
use stats::Summary;

/// End-to-end metrics every workload reports with `--trace 0`, in
/// output order. `peak_rss_mb` (MB) is added by `run.py`. The timings
/// are the fast end of their samples ([`stats::FAST_PERCENTILE`]); see
/// README.md for each workload's samples.
pub const END_TO_END: [(&str, &str); 3] = [
    ("cell_steps_per_s", "1/s"),
    ("setup_s", "s"),
    ("latency_ms_p1", "ms"),
];

/// Per-layer metrics every workload reports with `--trace 1`, in
/// output order. A layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("core.build_ms", "ms"),
    ("core.segment_ms", "ms"),
    ("core.checkpoint_ms", "ms"),
    ("core.checkpoint_bytes", "B"),
    ("core.resetup_ms_per_segment", "ms"),
    ("core.unattributed_share", "1"),
    ("mesh.generate_ms", "ms"),
    ("mesh.submesh_ms", "ms"),
    ("partition.ms", "ms"),
    ("partition.edge_cut", "count"),
    ("partition.imbalance", "1"),
    ("typhon.plan_build_ms", "ms"),
    ("typhon.msgs_per_link_per_step", "count"),
    ("typhon.doubles_per_step", "count"),
    ("typhon.collectives_per_step", "count"),
    ("typhon.recv_wait_ms_per_step", "ms"),
    ("typhon.overlap_window_ms_per_step", "ms"),
    ("hydro.getq.ns_per_cell", "ns"),
    ("hydro.getq.share", "1"),
    ("hydro.getq.bytes_per_cell", "B"),
    ("hydro.getq.flops_per_cell", "flop"),
    ("hydro.getforce.ns_per_cell", "ns"),
    ("hydro.getforce.share", "1"),
    ("hydro.getforce.bytes_per_cell", "B"),
    ("hydro.getforce.flops_per_cell", "flop"),
    ("hydro.getacc.ns_per_cell", "ns"),
    ("hydro.getacc.share", "1"),
    ("hydro.getacc.bytes_per_cell", "B"),
    ("hydro.getacc.flops_per_cell", "flop"),
    ("hydro.getdt.ns_per_cell", "ns"),
    ("hydro.getdt.share", "1"),
    ("hydro.getdt.bytes_per_cell", "B"),
    ("hydro.getdt.flops_per_cell", "flop"),
    ("hydro.eos_fused.ns_per_cell", "ns"),
    ("hydro.eos_fused.share", "1"),
    ("hydro.eos_fused.bytes_per_cell", "B"),
    ("hydro.eos_fused.flops_per_cell", "flop"),
    ("ale.remap_ms_per_step", "ms"),
    ("ale.share", "1"),
    ("serve.parse_request_us", "us"),
    ("serve.admit_us", "us"),
    ("serve.direct_run_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.deck_cache_hit_ratio", "1"),
    ("serve.shed", "count"),
    ("serve.status.200", "count"),
    ("serve.status.400", "count"),
    ("serve.status.other", "count"),
    ("trace_overhead_share", "1"),
];

/// The repo's cross-shape invariant: distributed and serial runs of one
/// deck agree to this relative tolerance (see [`rel_err`]).
pub const CROSS_SHAPE_TOL: f64 = 1e-12;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds must be a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One named correctness check and its verdict.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    #[must_use]
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name,
            ok,
            detail: detail.into(),
        }
    }
}

/// A metric of the detail record: its value (the median, unless the
/// name says otherwise) and, for timings, the samples' summary.
#[derive(Debug, Clone)]
pub struct Detail {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Option<f64>,
    pub summary: Option<Summary>,
    pub note: &'static str,
}

impl Detail {
    /// The median of `samples`, with their summary.
    #[must_use]
    pub fn median(name: &'static str, unit: &'static str, samples: &[f64]) -> Detail {
        let summary = Summary::of(samples);
        Detail {
            name,
            unit,
            value: summary.map(|s| s.median),
            summary,
            note: "",
        }
    }

    /// Percentile `p` of `samples`, `None` where the tail rule (ten
    /// samples beyond it) is not met.
    #[must_use]
    pub fn percentile(name: &'static str, unit: &'static str, samples: &[f64], p: f64) -> Detail {
        Detail {
            value: stats::percentile(samples, p),
            note: "null when fewer than ten samples lie beyond the percentile",
            ..Detail::median(name, unit, samples)
        }
    }

    /// The [`stats::FAST_PERCENTILE`] of `samples`, with their summary.
    #[must_use]
    pub fn fast(name: &'static str, unit: &'static str, samples: &[f64]) -> Detail {
        Detail {
            value: stats::low_percentile(samples, stats::FAST_PERCENTILE),
            ..Detail::median(name, unit, samples)
        }
    }

    /// `cell_steps / seconds` at the fast end: the inverse of the
    /// [`stats::FAST_PERCENTILE`] of each sample's seconds per
    /// cell-step. `samples` are `(cell_steps, seconds)` pairs.
    #[must_use]
    pub fn rate(name: &'static str, samples: &[(f64, f64)]) -> Detail {
        let per_s: Vec<f64> = samples.iter().map(|&(w, s)| w / s).collect();
        let s_per: Vec<f64> = samples.iter().map(|&(w, s)| s / w).collect();
        Detail {
            value: stats::low_percentile(&s_per, stats::FAST_PERCENTILE).map(|x| 1.0 / x),
            ..Detail::median(name, "1/s", &per_s)
        }
    }

    /// A single value (a count, a ratio or an exact difference).
    #[must_use]
    pub fn value(name: &'static str, unit: &'static str, value: f64) -> Detail {
        Detail {
            name,
            unit,
            value: Some(value),
            summary: None,
            note: "",
        }
    }

    #[must_use]
    pub fn note(mut self, note: &'static str) -> Detail {
        self.note = note;
        self
    }

    fn json(&self) -> Json {
        let mut j = Json::obj()
            .with("value", self.value)
            .with("unit", self.unit);
        if let Some(s) = self.summary {
            j.push("samples", s);
        }
        if !self.note.is_empty() {
            j.push("note", self.note);
        }
        j
    }
}

/// What a workload run hands back for printing.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// The full per-workload metric set of the detail record; the
    /// `END_TO_END` values are taken from it by name.
    pub details: Vec<Detail>,
    /// Per-layer values (traced runs only).
    pub layers: Layers,
    /// Bytes of solver state one step sweeps (computed).
    pub working_set_bytes: u64,
    /// Seconds the traced run spent on work the untraced run does not
    /// do (the layer probes and the runs they need); 0 untraced.
    pub traced_s: f64,
}

impl Outcome {
    /// `failed ÷ attempted`, the detail record's `failed_share`.
    #[must_use]
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Largest relative difference of ρ, ε, u and node positions between
/// two solutions, each difference scaled as `approx_eq` scales it:
/// absolute below magnitude 1, relative above.
#[must_use]
pub fn rel_err(a: (&Mesh, &HydroState), b: (&Mesh, &HydroState)) -> f64 {
    let scalar = |x: f64, y: f64| (x - y).abs() / x.abs().max(y.abs()).max(1.0);
    let vector = |x: bookleaf::util::Vec2, y: bookleaf::util::Vec2| {
        (x - y).norm() / x.norm().max(y.norm()).max(1.0)
    };
    let (am, ast) = a;
    let (bm, bst) = b;
    let fields = [
        ast.rho
            .iter()
            .zip(&bst.rho)
            .map(|(&x, &y)| scalar(x, y))
            .fold(0.0, f64::max),
        ast.ein
            .iter()
            .zip(&bst.ein)
            .map(|(&x, &y)| scalar(x, y))
            .fold(0.0, f64::max),
        ast.u
            .iter()
            .zip(&bst.u)
            .map(|(&x, &y)| vector(x, y))
            .fold(0.0, f64::max),
        am.nodes
            .iter()
            .zip(&bm.nodes)
            .map(|(&x, &y)| vector(x, y))
            .fold(0.0, f64::max),
    ];
    fields.into_iter().fold(0.0, f64::max)
}

/// Uniform in [0, 1) from the seed (SplitMix64), for seeded inputs.
#[must_use]
pub fn seed_unit(seed: u64, salt: u64) -> f64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

fn print(args: &Args, out: &Outcome) {
    let correct = out.checks.iter().all(|c| c.ok);
    let checks = out
        .checks
        .iter()
        .map(|c| {
            Json::obj()
                .with("name", c.name)
                .with("ok", c.ok)
                .with("detail", c.detail.as_str())
        })
        .collect();
    let mut details = Json::obj();
    for d in &out.details {
        details.push(d.name, d.json());
    }
    details.push(
        "failed_share",
        Detail::value("failed_share", "1", out.failed_share()).json(),
    );
    let l2 = env::l2_bytes();
    let detail = Json::obj()
        .with("workload", args.workload.as_str())
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("metrics", details)
        .with("checks", Json::Arr(checks))
        .with(
            "working_set",
            Json::obj()
                .with("bytes", out.working_set_bytes)
                .with("l2_bytes", l2)
                .with("ratio_to_l2", out.working_set_bytes as f64 / l2 as f64)
                .with("note", "computed from array lengths"),
        )
        .with("computed_kernel_counts", layers::computed_counts_record())
        .with("environment", env::record());
    println!("{}", Json::obj().with("detail", detail));

    let mut metrics = Json::obj();
    if args.trace {
        for (name, unit) in PER_LAYER {
            let value = out.layers.get(name).copied().unwrap_or(0.0);
            metrics.push(name, Json::obj().with("value", value).with("unit", unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = out
                .details
                .iter()
                .find(|d| d.name == name)
                .and_then(|d| d.value);
            metrics.push(name, Json::obj().with("value", value).with("unit", unit));
        }
    }
    let result = Json::obj()
        .with("correct", correct)
        .with("attempted", out.attempted)
        .with("failed", out.failed)
        .with("metrics", metrics);
    println!("{result}");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (outcome, wall_s) = layers::timed(|| match args.workload.as_str() {
        "noh-serial" => noh::run(&args),
        "sedov-ale-mpi2-ckpt" => sedov::run(&args),
        "serve-mix" => serve::run(&args),
        other => Err(format!("unknown workload {other}")),
    });
    match outcome {
        Ok(mut out) if out.attempted > 0 => {
            if args.trace {
                // The traced run does the untraced run's operations and
                // checks unchanged, then probes: its extra wall is the
                // probing time.
                let untraced_s = wall_s - out.traced_s;
                out.layers
                    .insert("trace_overhead_share", out.traced_s / untraced_s);
            }
            print(&args, &out);
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!("perfbench: no operation was attempted");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repo root declares exactly the metrics this
    /// binary (plus run.py's `peak_rss_mb`) prints, with the same units.
    #[test]
    fn benchmark_json_declares_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let mut e2e: Vec<(&str, &str)> = END_TO_END.to_vec();
        e2e.push(("peak_rss_mb", "MB"));
        for (name, unit) in e2e.iter().chain(PER_LAYER.iter()) {
            let want = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&want), "BENCHMARK.json lacks {want}");
        }
        let declared = text.matches("\"name\":").count();
        assert_eq!(declared, e2e.len() + PER_LAYER.len() + 3, "3 workloads");
    }

    #[test]
    fn rel_err_is_absolute_below_one_and_relative_above() {
        let deck = bookleaf::core::decks::sod(4, 2);
        let st = deck.initial_state(&deck.mesh).unwrap();
        let mut other = st.clone();
        assert_eq!(rel_err((&deck.mesh, &st), (&deck.mesh, &other)), 0.0);
        other.rho[0] += 1e-6;
        assert!((rel_err((&deck.mesh, &st), (&deck.mesh, &other)) - 1e-6).abs() < 1e-11);
        other.ein[1] = st.ein[1] * 2.0;
        let e = rel_err((&deck.mesh, &st), (&deck.mesh, &other));
        assert!((e - 0.5).abs() < 1e-12, "{e}");
    }
}

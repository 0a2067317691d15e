//! The serve-mix generator: a pure function of `(seed, index)` that
//! emits one request's deck text and the answer the server owes it.
//!
//! The server under test receives only the text. The mix holds:
//!
//! * small generic decks — Sod, Noh, Sedov and a gas/water two-material
//!   problem — at 16²–48² elements and 20–60 steps, mostly serial, some
//!   flat-MPI 2 and hybrid 1×2, some with an Eulerian ALE remap;
//! * exact repeats drawn from a small popular pool (deck-cache hits)
//!   and unique decks (misses);
//! * invalid and over-limit decks, whose correct answer is a typed
//!   `400` anchored at the offending line.
//!
//! **Every share below is an assumption.** No recorded tenant traffic
//! exists to measure them from; the only source is the qualitative
//! description above ("mostly serial", "some repeats", "a share of
//! invalid decks"). What each share drives:
//!
//! * popular 50 % / unique 35 %: `serve.deck_cache_hit_ratio`; the
//!   popular pool's decks are the samples of the gated timings
//!   (`latency_ms_p1`, `cell_steps_per_s`), the unique decks' builds
//!   weigh on `request_ms_p50` and `requests_per_s`;
//! * invalid 10 % / over-limit 5 %: the `400` count, `requests_per_s`
//!   and `request_ms_p50` (a rejection is answered in microseconds);
//! * serial 70 % / flat-MPI 2 20 % / hybrid 1×2 10 % and ALE 30 %: the
//!   work per answered request (the pool's 8 / 3 / 1 and 4 set the gated
//!   timings), and how many requests meet the segmented
//!   distributed-ALE defect (at least one per block of 20, so every
//!   block is a failed operation while the defect stands).
//!
//! Replace them with measured shares once a recorded request log is
//! committed beside this file.

/// Requests are drawn in blocks of 20 with a fixed composition, each
/// block's order shuffled by the seed. Fixed shares, popular decks drawn
/// in rotation and unique decks spread evenly over the parameter space
/// keep a run's aggregate work the same from seed to seed, so the
/// seed changes the requests but not how much work they add up to.
pub const BLOCK: u64 = 20;
/// Per block: decks with one typed mistake (10 %).
const INVALID_SLOTS: u64 = 2;
/// Per block: well-formed decks over the admission limits (5 %).
const OVER_LIMIT_SLOTS: u64 = 1;
/// Per block: exact repeats from the popular pool (50 %); the other
/// 7 slots (35 %) are unique decks.
const POPULAR_SLOTS: u64 = 10;
const UNIQUE_SLOTS: u64 = BLOCK - INVALID_SLOTS - OVER_LIMIT_SLOTS - POPULAR_SLOTS;
/// Decks in the popular pool.
const POOL: u64 = 12;
/// Executor and remap of the unique decks, by their slot among the
/// block's unique slots: one flat-MPI 2 deck with the remap (it meets
/// the segmented distributed-ALE defect, so every block holds one such
/// deck), one hybrid 1×2, one serial with the remap, four serial
/// Lagrangian. With the popular pool's 8 serial / 3 flat-MPI / 1 hybrid
/// and 4 remapped decks, the valid requests come to about 70 % serial,
/// 20 % flat-MPI 2, 10 % hybrid 1×2 and 30 % remapped.
const UNIQUE_SHAPES: [(Exec, bool); UNIQUE_SLOTS as usize] = [
    (Exec::FlatMpi2, true),
    (Exec::Hybrid1x2, false),
    (Exec::Serial, true),
    (Exec::Serial, false),
    (Exec::Serial, false),
    (Exec::Serial, false),
    (Exec::Serial, false),
];

/// What the server owes a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// `200` with the state CRC of a direct in-process run.
    Ok,
    /// `400 {"kind":"deck"}` naming this 1-based line of the text.
    Rejected { line: usize },
}

/// How the request was drawn (for accounting; the server never sees it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Popular,
    Unique,
    Invalid,
    OverLimit,
}

/// One generated request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixItem {
    pub text: String,
    pub expect: Expect,
    pub class: Class,
}

/// SplitMix64: the stream every draw comes from.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [lo, hi].
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// The stream for `(seed, stream, index)`.
fn stream(seed: u64, salt: u64, index: u64) -> Rng {
    let mut r = Rng::new(seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407));
    let base = r.next();
    Rng::new(base ^ index.wrapping_mul(0x9FB2_1C65_1E98_DF25))
}

/// Position of `slot` in its block after the seed's shuffle.
fn shuffled_position(seed: u64, block: u64, slot: u64) -> u64 {
    let mut order: Vec<u64> = (0..BLOCK).collect();
    let mut r = stream(seed, 3, block);
    for i in (1..order.len()).rev() {
        let j = r.range(0, i as u64) as usize;
        order.swap(i, j);
    }
    order[slot as usize]
}

/// Request `index` of the mix for `seed`.
#[must_use]
pub fn item(seed: u64, index: u64) -> MixItem {
    let (block, slot) = (index / BLOCK, index % BLOCK);
    let p = shuffled_position(seed, block, slot);
    let mut r = stream(seed, 1, index);
    if p < INVALID_SLOTS {
        let (text, line) = invalid_deck(&mut r);
        MixItem {
            text,
            expect: Expect::Rejected { line },
            class: Class::Invalid,
        }
    } else if p < INVALID_SLOTS + OVER_LIMIT_SLOTS {
        let (text, line) = over_limit_deck(&mut r);
        MixItem {
            text,
            expect: Expect::Rejected { line },
            class: Class::OverLimit,
        }
    } else if p < INVALID_SLOTS + OVER_LIMIT_SLOTS + POPULAR_SLOTS {
        let turn = block * POPULAR_SLOTS + (p - INVALID_SLOTS - OVER_LIMIT_SLOTS);
        let k = (turn + stream(seed, 4, 0).next()) % POOL;
        MixItem {
            text: popular_deck(seed, k).render(),
            expect: Expect::Ok,
            class: Class::Popular,
        }
    } else {
        let u = block * UNIQUE_SLOTS + (p - INVALID_SLOTS - OVER_LIMIT_SLOTS - POPULAR_SLOTS);
        MixItem {
            text: unique_deck(seed, u, &mut r).render(),
            expect: Expect::Ok,
            class: Class::Unique,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Sod,
    Noh,
    Sedov,
    TwoMaterial,
}

#[derive(Debug, Clone, Copy)]
enum Exec {
    Serial,
    FlatMpi2,
    Hybrid1x2,
}

/// A valid deck's parameters; [`Spec::render`] writes its text.
struct Spec {
    name: String,
    family: Family,
    n: u64,
    steps: u64,
    /// Drive amplitude (energy or inflow speed scale), in [0.8, 1.2].
    amp: f64,
    ale: bool,
    exec: Exec,
}

const FAMILIES: [Family; 4] = [Family::Sod, Family::Noh, Family::Sedov, Family::TwoMaterial];

fn exec_of(e: f64) -> Exec {
    if e < 0.7 {
        Exec::Serial
    } else if e < 0.9 {
        Exec::FlatMpi2
    } else {
        Exec::Hybrid1x2
    }
}

/// A deck with independent random parameters (the base of the invalid
/// and over-limit decks, whose cost does not matter).
fn random_deck(r: &mut Rng, name: &str) -> Spec {
    Spec {
        name: name.to_string(),
        family: FAMILIES[r.range(0, 3) as usize],
        n: r.range(16, 48),
        steps: r.range(20, 60),
        amp: 0.8 + 0.4 * r.unit(),
        ale: r.unit() < 0.3,
        exec: exec_of(r.unit()),
    }
}

/// Popular deck `k`: a fixed spread of families, executors, remaps,
/// sizes (16²–48²) and lengths (20–60 steps), jittered by the seed.
fn popular_deck(seed: u64, k: u64) -> Spec {
    let mut r = stream(seed, 2, k);
    Spec {
        name: format!("popular{k}"),
        family: FAMILIES[(k % 4) as usize],
        n: (16 + k * 32 / (POOL - 1) + r.range(0, 2)).clamp(17, 49) - 1,
        steps: (20 + (k * 5 % POOL) * 40 / (POOL - 1) + r.range(0, 2)).clamp(21, 61) - 1,
        amp: 0.8 + 0.4 * r.unit(),
        ale: matches!(k, 0 | 5 | 6 | 9),
        exec: match k {
            2 | 5 | 11 => Exec::FlatMpi2,
            7 => Exec::Hybrid1x2,
            _ => Exec::Serial,
        },
    }
}

/// Unique deck `u`: its executor and remap are its slot's
/// [`UNIQUE_SHAPES`] entry; size and length each walk their own Weyl
/// sequence from a seeded start, so any run of consecutive unique decks
/// covers the parameter space evenly.
fn unique_deck(seed: u64, u: u64, r: &mut Rng) -> Spec {
    let walk = |salt: u64, step: f64| (stream(seed, 5, salt).unit() + u as f64 * step).fract();
    let (exec, ale) = UNIQUE_SHAPES[(u % UNIQUE_SLOTS) as usize];
    Spec {
        name: format!("unique{u}"),
        family: FAMILIES[(u % 4) as usize],
        n: 16 + (33.0 * walk(1, 0.618_033_988_749_894_9)) as u64,
        steps: 20 + (41.0 * walk(2, 0.414_213_562_373_095)) as u64,
        amp: 0.8 + 0.4 * r.unit(),
        ale,
        exec,
    }
}

impl Spec {
    fn render(&self) -> String {
        let Spec { n, amp, .. } = *self;
        let mut t = format!("name = {}\n\n", self.name);
        match self.family {
            Family::Sod => {
                t += &format!("[mesh]\nnx = {n}\nny = {n}\n\n");
                t += "[material.gas]\neos = ideal_gas\ngamma = 1.4\n\n";
                t += &format!(
                    "[region.left]\nshape = rect\nx0 = 0\ny0 = 0\nx1 = 0.5\ny1 = 1\n\
                     material = gas\nrho = 1\nein = {}\n\n",
                    2.5 * amp
                );
                t += "[region.right]\nshape = rect\nx0 = 0\ny0 = 0\nx1 = 1\ny1 = 1\n\
                      material = gas\nrho = 0.125\nein = 2\n\n";
            }
            Family::Noh => {
                t += &format!("[mesh]\nnx = {n}\nny = {n}\n\n");
                t += "[material.gas]\neos = ideal_gas\ngamma = 1.6666666666666667\n\n";
                t += &format!(
                    "[region.all]\nshape = rect\nx0 = 0\ny0 = 0\nx1 = 1\ny1 = 1\n\
                     material = gas\nrho = 1\nein = 0.000000000001\nu_radial = {}\n\n",
                    -amp
                );
            }
            Family::Sedov => {
                t += &format!("[mesh]\nnx = {n}\nny = {n}\nx1 = 1.1\ny1 = 1.1\n\n");
                t += "[material.gas]\neos = ideal_gas\ngamma = 1.4\n\n";
                t += &format!(
                    "[region.source]\nshape = circle\ncx = 0\ncy = 0\nr = 0.06875\n\
                     material = gas\nrho = 1\nein = {}\n\n",
                    50.0 * amp
                );
                t += "[region.rest]\nshape = rect\nx0 = 0\ny0 = 0\nx1 = 1.1\ny1 = 1.1\n\
                      material = gas\nrho = 1\nein = 0.000000000001\n\n";
            }
            Family::TwoMaterial => {
                t += &format!("[mesh]\nnx = {n}\nny = {n}\n\n");
                t += "[material.gas]\neos = ideal_gas\ngamma = 1.4\n\n";
                t += "[material.water]\neos = tait\np0 = 100\nrho0 = 1\ngamma = 7\n\n";
                t += &format!(
                    "[region.driver]\nshape = rect\nx0 = 0\ny0 = 0\nx1 = 0.25\ny1 = 1\n\
                     material = gas\nrho = 1\np = {}\nux = 0.5\n\n",
                    5.0 * amp
                );
                t += "[region.water]\nshape = rect\nx0 = 0\ny0 = 0\nx1 = 1\ny1 = 1\n\
                      material = water\nrho = 1\nein = 0.000000000001\n\n";
            }
        }
        t += &format!("[control]\nfinal_time = 10\nmax_steps = {}\n\n", self.steps);
        if self.family == Family::TwoMaterial {
            t += "[dt]\ndt_initial = 0.000005\n\n";
        }
        if self.ale {
            t += "[ale]\nmode = eulerian\nfrequency = 1\n\n";
        }
        t += match self.exec {
            Exec::Serial => "[executor]\nmodel = serial\n",
            Exec::FlatMpi2 => "[executor]\nmodel = flat_mpi\nranks = 2\n",
            Exec::Hybrid1x2 => "[executor]\nmodel = hybrid\nranks = 1\nthreads_per_rank = 2\n",
        };
        t
    }
}

/// Whether a valid deck's text asks for a run on more than one rank with
/// the remap: the decks a segmented run answers wrongly today (the
/// known defect), since every mix deck runs longer than one segment.
#[must_use]
pub fn meets_segment_defect(text: &str) -> bool {
    text.contains("[ale]") && text.contains("model = flat_mpi")
}

/// 1-based line of the first line of `text` that starts with `prefix`.
fn line_of(text: &str, prefix: &str) -> usize {
    text.lines()
        .position(|l| l.starts_with(prefix))
        .map_or(0, |i| i + 1)
}

/// A deck with one typed mistake, and the line the server must name.
fn invalid_deck(r: &mut Rng) -> (String, usize) {
    let base = random_deck(r, "broken").render();
    let (from, to) = match r.range(0, 2) {
        0 => ("nx = ", "nx "),
        1 => ("material = gas", "material = lead"),
        _ => ("rho = 1\n", "rho = -1\n"),
    };
    let text = base.replacen(from, to, 1);
    let line = line_of(&text, to.trim_end());
    (text, line)
}

/// A well-formed deck over the default admission limits (262 144 cells
/// or 100 000 steps), and the line the rejection is anchored at.
fn over_limit_deck(r: &mut Rng) -> (String, usize) {
    let mut spec = random_deck(r, "huge");
    let key = if r.unit() < 0.5 {
        spec.n = 600;
        "nx = "
    } else {
        spec.steps = 200_000;
        "max_steps = "
    };
    let text = spec.render();
    let line = line_of(&text, key);
    (text, line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bookleaf::serve::{admit_deck, ResourceLimits};
    use bookleaf::util::DeckError;

    #[test]
    fn same_seed_gives_a_byte_identical_mix() {
        let a: Vec<MixItem> = (0..500).map(|i| item(42, i)).collect();
        let b: Vec<MixItem> = (0..500).map(|i| item(42, i)).collect();
        assert_eq!(a, b);
        let c: Vec<MixItem> = (0..500).map(|i| item(43, i)).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn every_class_appears_and_popular_decks_repeat() {
        let items: Vec<MixItem> = (0..2000).map(|i| item(7, i)).collect();
        for class in [
            Class::Popular,
            Class::Unique,
            Class::Invalid,
            Class::OverLimit,
        ] {
            assert!(items.iter().any(|m| m.class == class), "{class:?} missing");
        }
        let mut popular: Vec<&str> = items
            .iter()
            .filter(|m| m.class == Class::Popular)
            .map(|m| m.text.as_str())
            .collect();
        let draws = popular.len();
        popular.sort_unstable();
        popular.dedup();
        assert!(popular.len() <= POOL as usize && draws > 10 * popular.len());
    }

    #[test]
    fn every_block_has_the_fixed_composition() {
        for block in 0..50 {
            let classes: Vec<Class> = (0..BLOCK)
                .map(|s| item(11, block * BLOCK + s).class)
                .collect();
            let count = |c: Class| classes.iter().filter(|&&x| x == c).count() as u64;
            assert_eq!(count(Class::Invalid), INVALID_SLOTS);
            assert_eq!(count(Class::OverLimit), OVER_LIMIT_SLOTS);
            assert_eq!(count(Class::Popular), POPULAR_SLOTS);
            assert_eq!(count(Class::Unique), UNIQUE_SLOTS);
            let distributed_ale = (0..BLOCK)
                .map(|s| item(11, block * BLOCK + s))
                .filter(|m| m.class == Class::Unique && meets_segment_defect(&m.text))
                .count();
            assert_eq!(distributed_ale, 1, "block {block}");
        }
    }

    #[test]
    fn valid_decks_are_admitted_and_invalid_ones_get_their_typed_error() {
        let limits = ResourceLimits::default();
        for seed in [1, 2, 3] {
            for i in 0..400 {
                let m = item(seed, i);
                match (m.expect, admit_deck(&m.text, &limits)) {
                    (Expect::Ok, Ok(_)) => {}
                    (Expect::Rejected { line }, Err(DeckError::Text { line: got, .. })) => {
                        assert!(line > 0);
                        assert_eq!(got, line, "seed {seed} item {i}:\n{}", m.text);
                    }
                    (want, got) => panic!("seed {seed} item {i}: want {want:?}, got {got:?}"),
                }
            }
        }
    }
}

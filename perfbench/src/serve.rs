//! `serve-mix`: an in-process `Server` (2 workers) over real TCP, driven
//! by two closed-loop clients (a `post_run` caller blocks until its
//! result arrives) sending the seeded mix of [`crate::mix`].
//!
//! Here the request layer and the small-run `build()` path do the work
//! and the kernels do little: thousands of short builds against the
//! one long run of `noh-serial`, so a change that trades set-up cost
//! for step speed shows on one of the two.
//!
//! An operation is one block of [`mix::BLOCK`] consecutive requests,
//! the unit whose composition the mix fixes; only blocks answered in
//! full count. A block fails when any of its requests gets another
//! status than the mix expects, or a `200` that carries another state
//! CRC than a direct in-process `build()` + `run()` of the same deck.
//! Every block holds a flat-MPI deck with the remap, which the server's
//! segmented run answers wrongly today (the known defect), so every
//! block fails until that is fixed: the failed share is the same from
//! run to run instead of depending on how far a run got. The requests
//! that fail are counted in the detail record, and a check makes the
//! run incorrect if any request fails for another reason.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bookleaf::serve::protocol::parse_request;
use bookleaf::serve::{admit_deck, post_run, state_crc, DeckCache, ServeConfig, Server};
use bookleaf::util::TimerReport;
use bookleaf::{ExecutorKind, InputDeck, Simulation};

use crate::layers::{self, median, median_of, timed, Layers, TimerSum};
use crate::mix::{self, Class, Expect, MixItem};
use crate::{rel_err, stats, Args, Check, Detail, Outcome};

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// `Server::start()` calls timed for `setup_s`, half before the pass
/// and half after it.
const SETUP_STARTS: usize = 300;
/// Distributed decks whose segmented, server-style run is compared
/// with a serial run for `max_rel_err_vs_serial`.
const REL_ERR_DECKS: usize = 16;
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

fn config() -> Result<ServeConfig, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    Ok(ServeConfig {
        workers: WORKERS,
        // Only a drain writes here, and this benchmark never drains.
        drain_dir: cwd.join(".perfbench_drain"),
        ..ServeConfig::default()
    })
}

/// One client-side request: send to full response.
struct Resp {
    index: u64,
    latency_s: f64,
    /// `None` when the transport failed.
    status: Option<u16>,
    body: String,
}

/// The value of `"key":` in a flat JSON object, without quotes.
fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &body[body.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

/// Closed-loop clients against `addr` until `seconds` have passed.
/// Returns the responses in index order and the pass's wall seconds.
fn pass(addr: SocketAddr, seed: u64, seconds: f64) -> (Vec<Resp>, f64) {
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut all: Vec<Resp> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let next = &next;
                s.spawn(move || {
                    let tenant = format!("client{c}");
                    let mut out = Vec::new();
                    while Instant::now() < end {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let item = mix::item(seed, index);
                        let headers = [("X-Tenant", tenant.as_str())];
                        let (resp, latency_s) =
                            timed(|| post_run(addr, &item.text, &headers, REQUEST_TIMEOUT));
                        let (status, body) = match resp {
                            Ok(r) => (Some(r.status), r.text()),
                            Err(e) => (None, e.to_string()),
                        };
                        out.push(Resp {
                            index,
                            latency_s,
                            status,
                            body,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    all.sort_by_key(|r| r.index);
    (all, wall)
}

/// `n` timed `Server::start()` calls, each server shut down at once.
fn setup_samples(config: &ServeConfig, n: usize, samples: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..n {
        let (server, s) = start_server(config)?;
        samples.push(s);
        server.shutdown();
    }
    Ok(())
}

/// A direct in-process run of one deck, as `build()` + `run()`.
struct Direct {
    crc: u32,
    build_s: f64,
    run_s: f64,
    cells: usize,
    working_set: u64,
    timers: TimerReport,
}

fn direct_run(text: &str) -> Result<Direct, String> {
    let (sim, build_s) = timed(|| Simulation::builder().deck_str(text).build());
    let mut sim = sim.map_err(|e| format!("direct build: {e}"))?;
    let (report, run_s) = timed(|| sim.run());
    let report = report.map_err(|e| format!("direct run: {e}"))?;
    Ok(Direct {
        crc: state_crc(&sim),
        build_s,
        run_s,
        cells: sim.mesh().n_elements(),
        working_set: layers::working_set_bytes(sim.mesh(), sim.state()),
        timers: report.timers,
    })
}

/// Direct runs of every valid deck `resps` carry that `known` lacks.
fn direct_runs(
    seed: u64,
    resps: &[Resp],
    known: &mut HashMap<String, Direct>,
) -> Result<(), String> {
    let mut texts: Vec<String> = Vec::new();
    for r in resps {
        let item = mix::item(seed, r.index);
        if item.expect == Expect::Ok
            && !known.contains_key(&item.text)
            && !texts.contains(&item.text)
        {
            texts.push(item.text);
        }
    }
    // On one thread: with two, which thread's allocator arena grows
    // first varies from run to run, and so does the peak resident memory.
    for text in texts {
        let d = direct_run(&text)?;
        known.insert(text, d);
    }
    Ok(())
}

/// Whether `resp` is the answer `item` is owed; if not, the reason.
fn verdict(
    item: &MixItem,
    resp: &Resp,
    direct: &HashMap<String, Direct>,
) -> Result<(), &'static str> {
    let Some(status) = resp.status else {
        return Err("failed.transport");
    };
    match item.expect {
        Expect::Ok => {
            if status != 200 {
                return Err("failed.status");
            }
            let crc = field(&resp.body, "state_crc").and_then(|v| v.parse::<u32>().ok());
            if crc == direct.get(&item.text).map(|d| d.crc) {
                Ok(())
            } else {
                Err("failed.crc_vs_direct_run")
            }
        }
        Expect::Rejected { line } => {
            let anchored = resp.body.contains(&format!("line {line}:"));
            if status == 400 && field(&resp.body, "kind") == Some("deck") && anchored {
                Ok(())
            } else {
                Err("failed.status")
            }
        }
    }
}

/// A server-style run: `run_segment(k)` until complete, as the server's
/// supervised loop runs every request.
fn segmented_like_server(text: &str, k: usize) -> Result<Simulation, String> {
    let mut sim = Simulation::builder()
        .deck_str(text)
        .build()
        .map_err(|e| format!("replica build: {e}"))?;
    while !sim.complete() {
        sim.run_segment(k)
            .map_err(|e| format!("replica segment: {e}"))?;
    }
    Ok(sim)
}

fn serial_of(text: &str) -> Result<Simulation, String> {
    let mut sim = Simulation::builder()
        .deck_str(text)
        .executor(ExecutorKind::Serial)
        .build()
        .map_err(|e| format!("serial build: {e}"))?;
    sim.run().map_err(|e| format!("serial run: {e}"))?;
    Ok(sim)
}

fn start_server(config: &ServeConfig) -> Result<(Server, f64), String> {
    let (server, s) = timed(|| Server::start(config.clone()));
    Ok((server.map_err(|e| format!("server start: {e}"))?, s))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let config = config()?;
    // The set-up samples are split between before and after the pass,
    // half a minute apart, so that one slow moment of the host moves
    // half of them at most.
    let mut setup_s = Vec::new();
    setup_samples(&config, SETUP_STARTS / 2, &mut setup_s)?;
    let (server, _) = start_server(&config)?;

    // Warm-up on a deck outside the mix, so the deck cache starts cold
    // for the mix.
    let warm = "problem = sod\nnx = 8\nny = 2\n[control]\nmax_steps = 5\n";
    for _ in 0..4 {
        post_run(server.addr(), warm, &[], REQUEST_TIMEOUT).map_err(|e| format!("warm-up: {e}"))?;
    }
    let (resps, wall) = pass(server.addr(), args.seed, args.seconds);
    let shed = server.shed_count();
    server.shutdown();
    setup_samples(&config, SETUP_STARTS - SETUP_STARTS / 2, &mut setup_s)?;

    let mut direct = HashMap::new();
    direct_runs(args.seed, &resps, &mut direct)?;

    let mut out = Outcome::default();
    let mut reasons: HashMap<&'static str, usize> = HashMap::new();
    let mut crc_by_text: HashMap<&str, Vec<u32>> = HashMap::new();
    let items: Vec<MixItem> = resps
        .iter()
        .map(|r| mix::item(args.seed, r.index))
        .collect();
    let mut cell_steps = 0.0;
    // Per popular deck: its elements x steps and the latency of every
    // 200 answer it got.
    let mut popular: HashMap<&str, (f64, Vec<f64>)> = HashMap::new();
    // Per block: requests answered, and whether any answer was wrong.
    let mut blocks: BTreeMap<u64, (u64, bool)> = BTreeMap::new();
    let mut unexplained = 0;
    for (item, resp) in items.iter().zip(&resps) {
        let wrong = verdict(item, resp, &direct);
        if let Err(why) = wrong {
            *reasons.entry(why).or_default() += 1;
            let known = why == "failed.crc_vs_direct_run" && mix::meets_segment_defect(&item.text);
            unexplained += usize::from(!known);
        }
        let block = blocks.entry(resp.index / mix::BLOCK).or_default();
        block.0 += 1;
        block.1 |= wrong.is_err();
        if resp.status == Some(200) {
            if let Some(crc) = field(&resp.body, "state_crc").and_then(|v| v.parse().ok()) {
                crc_by_text.entry(item.text.as_str()).or_default().push(crc);
            }
            let steps: f64 = field(&resp.body, "steps")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.0);
            let work = steps * direct.get(&item.text).map_or(0.0, |d| d.cells as f64);
            cell_steps += work;
            if item.class == Class::Popular {
                let deck = popular.entry(item.text.as_str()).or_default();
                deck.0 = work;
                deck.1.push(resp.latency_s);
            }
        }
    }
    for &(answered, wrong) in blocks.values() {
        if answered == mix::BLOCK {
            out.attempted += 1;
            out.failed += u64::from(wrong);
        }
    }
    let failed_requests: usize = reasons.values().sum();
    out.checks.push(Check::new(
        "only_the_known_defect_fails",
        unexplained == 0,
        format!(
            "{failed_requests} of {} requests answered wrongly, {unexplained} of them \
             other than a flat-MPI remapped deck's state CRC",
            resps.len()
        ),
    ));
    let repeats_agree = crc_by_text.values().all(|v| v.iter().all(|&c| c == v[0]));
    out.checks.push(Check::new(
        "server_crc_repeats",
        repeats_agree,
        format!("{} distinct decks answered 200", crc_by_text.len()),
    ));

    // Distributed decks, run the way the server runs them, against a
    // serial run of the same deck: the error the server's answers carry.
    let mut distributed: Vec<&str> = Vec::new();
    for item in &items {
        let serial = item.text.contains("model = serial");
        if item.expect == Expect::Ok && !serial && !distributed.contains(&item.text.as_str()) {
            distributed.push(&item.text);
        }
    }
    distributed.truncate(REL_ERR_DECKS);
    let k = config.drain_check_steps.max(1);
    let mut max_err: f64 = 0.0;
    let mut replica_matches = true;
    for text in &distributed {
        let replica = segmented_like_server(text, k)?;
        let serial = serial_of(text)?;
        let err = rel_err(
            (replica.mesh(), replica.state()),
            (serial.mesh(), serial.state()),
        );
        let crc = state_crc(&replica);
        max_err = max_err.max(err);
        if let Some(server_crcs) = crc_by_text.get(text) {
            replica_matches &= server_crcs.iter().all(|&c| c == crc);
        }
    }
    out.checks.push(Check::new(
        "server_matches_segmented_replica",
        replica_matches,
        format!(
            "{} distributed decks re-run in process with run_segment({k}) give the server's CRC",
            distributed.len()
        ),
    ));
    let latency_ms: Vec<f64> = resps.iter().map(|r| r.latency_s * 1e3).collect();
    // The popular decks repeat tens of times a run: the fast end of each
    // deck's latencies is a steady sample of the server's own speed on
    // its cache-hit path, where one request's latency over the mixed
    // traffic mostly says which deck it was.
    let floors: Vec<(f64, f64)> = popular
        .values()
        .filter_map(|(work, lat)| {
            Some((*work, stats::low_percentile(lat, stats::FAST_PERCENTILE)?))
        })
        .collect();
    let floor_ms: Vec<f64> = floors.iter().map(|&(_, s)| s * 1e3).collect();
    let pool_work: f64 = floors.iter().map(|&(w, _)| w).sum();
    let pool_s: f64 = floors.iter().map(|&(_, s)| s).sum();
    let answered = resps.iter().filter(|r| r.status.is_some()).count();
    out.details = vec![
        Detail::value("cell_steps_per_s", "1/s", pool_work / pool_s)
            .note("elements x steps of the popular decks over the sum of their fast-end latencies"),
        Detail::fast("setup_s", "s", &setup_s)
            .note("Server::start(), half before and half after the pass"),
        Detail {
            value: Some(pool_s * 1e3 / floors.len() as f64),
            ..Detail::median("latency_ms_p1", "ms", &floor_ms)
                .note("per popular deck, the fast end of its latencies; the mean over the pool")
        },
        Detail::median("request_ms_p50", "ms", &latency_ms).note("every request"),
        Detail::percentile("request_ms_p99", "ms", &latency_ms, 99.0),
        Detail::value("requests_per_s", "1/s", answered as f64 / wall),
        Detail::value("pass_cell_steps_per_s", "1/s", cell_steps / wall)
            .note("elements x steps of every 200 answer per second of the pass"),
        Detail::value("max_rel_err_vs_serial", "1", max_err)
            .note("distributed decks of the mix, run as the server runs them"),
    ];
    out.details
        .push(Detail::value("requests", "count", resps.len() as f64));
    out.details.push(
        Detail::value("failed_requests", "count", failed_requests as f64)
            .note("every request of the pass, whole block or not"),
    );
    for why in [
        "failed.transport",
        "failed.status",
        "failed.crc_vs_direct_run",
    ] {
        let n = reasons.get(why).copied().unwrap_or(0);
        out.details.push(Detail::value(why, "count", n as f64));
    }
    // The largest deck answered; every mix deck is far inside L2.
    out.working_set_bytes = direct.values().map(|d| d.working_set).max().unwrap_or(0);

    if args.trace {
        let (l, s) = timed(|| traced(args.seed, &config, &resps, shed, &direct));
        out.layers = l?;
        out.traced_s = s;
    }
    Ok(out)
}

/// Median seconds per call of `f` over three batches of `batch` calls:
/// cheap enough to run once per request of a pass.
fn small_probe<T>(batch: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            timed(|| {
                for _ in 0..batch {
                    std::hint::black_box(f());
                }
            })
            .1 / batch as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[1]
}

/// The traced run's extra work: the request-layer probes on the
/// requests already answered, and the deck-cache replay.
fn traced(
    seed: u64,
    config: &ServeConfig,
    resps: &[Resp],
    shed: usize,
    direct: &HashMap<String, Direct>,
) -> Result<Layers, String> {
    let mut l = Layers::new();
    l.insert("serve.shed", shed as f64);
    let count = |code: Option<u16>| resps.iter().filter(|r| r.status == code).count() as f64;
    let (ok, bad) = (count(Some(200)), count(Some(400)));
    l.insert("serve.status.200", ok);
    l.insert("serve.status.400", bad);
    l.insert("serve.status.other", resps.len() as f64 - ok - bad);

    let items: Vec<MixItem> = resps.iter().map(|r| mix::item(seed, r.index)).collect();
    let limits = config.limits;
    let mut parse_s = Vec::new();
    let mut admit_s = Vec::new();
    let mut direct_ms = Vec::new();
    let mut build_ms = Vec::new();
    let mut timers = TimerSum::default();
    let mut attributed = 0.0;
    let mut generate_ms: HashMap<(usize, usize, u64), f64> = HashMap::new();
    let mut generate_per_request = Vec::new();
    let cache = DeckCache::new(config.cache_entries);
    for item in &items {
        let wire = format!(
            "POST /run HTTP/1.1\r\nHost: bookleaf\r\nX-Tenant: client0\r\nContent-Length: {}\r\n\r\n{}",
            item.text.len(),
            item.text
        );
        let parse = small_probe(20, || {
            parse_request(
                &mut wire.as_bytes(),
                config.max_header_bytes,
                limits.max_deck_bytes,
            )
        });
        let admit = small_probe(5, || admit_deck(&item.text, &limits));
        parse_s.push(parse);
        admit_s.push(admit);
        attributed += parse + admit;
        if let Ok(input) = admit_deck(&item.text, &limits) {
            let _ = cache.get_or_build(&input);
        }
        if let Some(d) = direct.get(&item.text) {
            direct_ms.push((d.build_s + d.run_s) * 1e3);
            build_ms.push(d.build_s * 1e3);
            timers.add(&d.timers);
            attributed += d.build_s + d.run_s;
            let input: InputDeck = item.text.parse().map_err(|e| format!("mix deck: {e}"))?;
            let bookleaf::ProblemSpec::Generic(g) = &input.problem else {
                return Err("mix decks are generic".into());
            };
            let key = (g.mesh.nx, g.mesh.ny, g.mesh.extent.x.to_bits());
            let ms = *generate_ms.entry(key).or_insert_with(|| {
                let spec = bookleaf::mesh::RectSpec {
                    nx: g.mesh.nx,
                    ny: g.mesh.ny,
                    origin: g.mesh.origin,
                    extent: g.mesh.extent,
                };
                small_probe(1, || bookleaf::mesh::generate_rect(&spec, |_| 0)) * 1e3
            });
            generate_per_request.push(ms);
        }
    }
    l.insert("serve.parse_request_us", median(&parse_s) * 1e6);
    l.insert("serve.admit_us", median(&admit_s) * 1e6);
    let direct_p50 = median(&direct_ms);
    l.insert("serve.direct_run_ms_p50", direct_p50);
    let ok_ms = resps
        .iter()
        .filter(|r| r.status == Some(200))
        .map(|r| r.latency_s * 1e3);
    l.insert("serve.overhead_ms_p50", median_of(ok_ms) - direct_p50);
    let (hits, misses) = cache.stats();
    l.insert(
        "serve.deck_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    l.insert("core.build_ms", median(&build_ms));
    l.insert("mesh.generate_ms", median(&generate_per_request));
    timers.record_shares(&mut l);
    layers::record_computed_counts(&mut l);

    // Client-side request time the layers account for: framing parse,
    // admission and the deck's direct build() + run(). The remainder is
    // transport, queueing, cache, segmenting and response encoding.
    let wall: f64 = resps.iter().map(|r| r.latency_s).sum();
    l.insert("core.unattributed_share", 1.0 - attributed / wall);
    Ok(l)
}

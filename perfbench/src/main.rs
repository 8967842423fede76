//! The repository benchmark: named closed-loop workloads against real
//! in-process `TcpServer`s over loopback TCP, every answer checked
//! against the plaintext oracle.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--profile full|tiny] [--corrupt-oracle]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` makes a
//! separate run with the same inputs that derives the per-layer metrics
//! from spans. The last line of standard output is the JSON result.
//! See README.md in this directory.

mod alloc;
mod host;
mod layers;
mod load;
mod span;

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use load::{Done, Kind, LegTiming, LoopStats, Payload, ReplayCheck, Setup, Workload};
use pps_protocol::AggregateStats;

/// Where traced runs write their spans, relative to the repository root
/// the benchmark runs from.
const OUT_DIR: &str = "perfbench/out";

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// End-to-end metrics (untraced run) with their units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("ok_frac", "ratio"),
    ("wire_bytes_per_query", "bytes"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run) with their units. A metric that does
/// not apply to a workload reads 0 (README.md lists which apply where).
const PER_LAYER: [(&str, &str); 39] = [
    ("bignum.mont_mul_ns", "ns"),
    ("bignum.mont_square_ns", "ns"),
    ("bignum.modpow_us", "us"),
    ("bignum.gcd_us", "us"),
    ("bignum.plan_fold_ns_per_row", "ns"),
    ("bignum.plan_build_ms", "ms"),
    ("bignum.allocs_per_mont_mul", "count"),
    ("crypto.encrypt_us", "us"),
    ("crypto.decrypt_us", "us"),
    ("crypto.validate_us", "us"),
    ("crypto.pool_fill_us_per_ct", "us"),
    ("protocol.batch_decode_us_per_row", "us"),
    ("protocol.on_frame_us_per_row", "us"),
    ("protocol.batch_encode_us_per_row", "us"),
    ("protocol.allocs_per_row", "count"),
    ("tcp_client.client_encrypt_ms", "ms"),
    ("tcp_client.comm_ms", "ms"),
    ("tcp_client.server_compute_ms", "ms"),
    ("tcp_client.client_decrypt_ms", "ms"),
    ("transport.frames_per_query", "count"),
    ("transport.send_us_per_frame", "us"),
    ("transport.recv_wait_ms", "ms"),
    ("tcp_server.connect_us", "us"),
    ("tcp_server.hello_ack_us", "us"),
    ("tcp_server.product_wait_ms", "ms"),
    ("tcp_server.failed", "count"),
    ("tcp_server.refused", "count"),
    ("tcp_server.evicted", "count"),
    ("tcp_server.peak_active", "count"),
    ("shard.legs_per_query", "count"),
    ("shard.slowest_leg_ms", "ms"),
    ("shard.leg_skew", "ratio"),
    ("shard.resumes", "count"),
    ("host.cpu_busy_frac", "ratio"),
    ("closure.encrypt", "ratio"),
    ("closure.encrypt_kernel", "ratio"),
    ("closure.fold", "ratio"),
    ("closure.service", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Closure checks: a ratio outside its band flags an unexplained cost.
/// Each band is set from the cost model, not from measurements: the
/// numerator does the denominator's work plus only small extra steps.
const CLOSURES: [(&str, f64, f64, &str); 4] = [
    (
        "closure.encrypt",
        0.9,
        1.3,
        "tcp_client.client_encrypt_ms / (n x crypto.encrypt_us)",
    ),
    (
        "closure.encrypt_kernel",
        0.7,
        1.3,
        "crypto.encrypt_us / bignum.modpow_us",
    ),
    (
        "closure.fold",
        0.8,
        1.25,
        "protocol.on_frame_us_per_row / (crypto.validate_us + bignum.plan_fold_ns_per_row)",
    ),
    (
        "closure.service",
        0.8,
        1.5,
        "session_churn latency_p50_ms / (connect + hello_ack + product_wait)",
    ),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    corrupt_oracle: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        corrupt_oracle: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--profile" => {
                args.tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    other => return Err(format!("--profile takes full or tiny, not {other}")),
                }
            }
            "--corrupt-oracle" => args.corrupt_oracle = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 || args.seconds.is_infinite() {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Seed of set-up repetition `rep`; repetition 0 is the workload seed.
fn rep_seed(seed: u64, rep: usize) -> u64 {
    seed ^ (rep as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Runs the workload; `Ok(false)` when an answer was wrong.
fn run(args: &Args) -> Result<bool, String> {
    let w = load::workload(&args.workload, args.tiny).ok_or_else(|| {
        format!(
            "unknown workload {:?}; expected one of {:?}",
            args.workload,
            load::NAMES
        )
    })?;
    let nproc = host::nproc();
    if w.threads > nproc || w.connections > nproc {
        return Err(format!(
            "refusing to start: {} needs {} generator threads and {} connections, this host has {nproc} CPUs",
            w.name, w.threads, w.connections
        ));
    }
    let window = Duration::from_secs_f64(args.seconds);
    let (stats, metrics) = if args.trace {
        traced(args, &w, window)?
    } else {
        untraced(args, &w, window)?
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in table {
        println!("metric {name} = {} {unit}", fmt_num(metrics[name]));
    }
    let samples = stats.completed();
    let p90 = (samples >= 100).then(|| host::quantile(&stats.latencies_ms, 0.9));
    println!(
        "record {{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"generator_threads\":{},\"connections\":{},\"nproc\":{nproc},\"n\":{},\"batch\":{},\"key_bits\":{},\"samples\":{samples},\"latency_p90_ms\":{},\"failed_frac\":{},\"profile\":\"{}\"}}",
        w.name,
        args.seed,
        u8::from(args.trace),
        w.threads,
        w.connections,
        w.n,
        w.batch,
        load::KEY_BITS,
        p90.map_or("null".into(), fmt_num),
        fmt_num(stats.failed as f64 / stats.attempted.max(1) as f64),
        if args.tiny { "tiny" } else { "full" },
    );
    if let Some(e) = &stats.first_error {
        println!("first failure: {e}");
    }
    if let Some(e) = &stats.wrong {
        println!("WRONG ANSWER: {e}");
    }
    let body: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                fmt_num(metrics[name])
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        stats.wrong.is_none(),
        stats.attempted,
        stats.failed,
        body.join(", ")
    );
    Ok(stats.wrong.is_none())
}

/// A number as JSON: every digit Rust's shortest round-trip form gives.
fn fmt_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

type Metrics = BTreeMap<&'static str, f64>;

fn require_progress(stats: &LoopStats) -> Result<(), String> {
    if stats.completed() == 0 && stats.wrong.is_none() {
        return Err(format!(
            "no query completed in the window ({} attempted; first failure: {})",
            stats.attempted,
            stats.first_error.as_deref().unwrap_or("none")
        ));
    }
    Ok(())
}

/// The end-to-end run: the median of several full set-ups, then one
/// closed-loop window with tracing off.
fn untraced(args: &Args, w: &Workload, window: Duration) -> Result<(LoopStats, Metrics), String> {
    let mut setup_s = Vec::with_capacity(w.setup_reps);
    let mut kept = None;
    for rep in (0..w.setup_reps).rev() {
        let t0 = Instant::now();
        let s = load::setup(w, rep_seed(args.seed, rep), args.corrupt_oracle, false)
            .map_err(|e| format!("set-up failed: {e}"))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep == 0 {
            kept = Some(s);
        } else {
            s.stop();
        }
    }
    let setup = kept.expect("repetition 0 is always made");
    let stats = drive_plain(w, &setup, window, args.seed);
    setup.stop();
    require_progress(&stats)?;
    let mut m = Metrics::new();
    m.insert("setup_s", host::median(&setup_s));
    m.insert("queries_per_s", stats.queries_per_s());
    m.insert("latency_p50_ms", host::median(&stats.latencies_ms));
    m.insert(
        "ok_frac",
        1.0 - stats.failed as f64 / stats.attempted.max(1) as f64,
    );
    m.insert(
        "wire_bytes_per_query",
        stats.bytes as f64 / stats.completed().max(1) as f64,
    );
    m.insert("peak_rss_mb", host::peak_rss_mb());
    println!(
        "setup_s over {} set-ups: {:?}; {} queries in {:.3} s",
        setup_s.len(),
        setup_s,
        stats.completed(),
        stats.elapsed.as_secs_f64()
    );
    Ok((stats, m))
}

/// The window every run measures: the workload's own query loop against
/// the plain servers.
fn drive_plain(w: &Workload, setup: &Setup, window: Duration, seed: u64) -> LoopStats {
    let inputs = &setup.inputs;
    let addrs: Vec<String> = setup.servers.iter().map(|s| s.addr.clone()).collect();
    let check = ReplayCheck::new();
    load::closed_loop(w.threads, window, seed, 1, |_id, v, rng| match w.kind {
        Kind::Fresh => load::fresh_query(&addrs[0], inputs, v, rng),
        Kind::Replay => load::own_session(
            &addrs[0],
            w,
            inputs,
            v,
            Payload::Replay(&setup.replay[v], &check),
        ),
        Kind::Sharded => load::sharded_query(&addrs, inputs, v, rng),
    })
}

/// The traced run: half the window untraced against the plain servers
/// (the reference for `trace.overhead_ratio`), half traced against the
/// observed servers, then the layer measurements.
fn traced(args: &Args, w: &Workload, window: Duration) -> Result<(LoopStats, Metrics), String> {
    let setup = load::setup(w, args.seed, args.corrupt_oracle, true)
        .map_err(|e| format!("set-up failed: {e}"))?;
    let half = window / 2;
    let plain = drive_plain(w, &setup, half, args.seed);
    require_progress(&plain)?;
    if plain.wrong.is_some() {
        setup.stop();
        return Ok((plain, PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect()));
    }

    let components = Mutex::new(Vec::new());
    let legs: Mutex<Vec<LegTiming>> = Mutex::new(Vec::new());
    let check = ReplayCheck::new();
    let addrs: Vec<String> = setup.observed.iter().map(|s| s.addr.clone()).collect();
    span::enable();
    let traced = load::closed_loop(
        w.threads,
        half,
        args.seed ^ 1,
        1,
        |id, v, rng| -> Result<Done, load::QueryError> {
            let inputs = &setup.inputs;
            match w.kind {
                // Alternate the two instruments: the library's observed
                // query gives the paper's four components, the benchmark's
                // own session gives the transport and server timings.
                Kind::Fresh if id % 2 == 0 => {
                    let (done, c) = load::observed_query(&addrs[0], &setup, v, rng)?;
                    components.lock().expect("components lock").push(c);
                    Ok(done)
                }
                Kind::Fresh => load::own_session(&addrs[0], w, inputs, v, Payload::Fresh(rng)),
                Kind::Replay => load::own_session(
                    &addrs[0],
                    w,
                    inputs,
                    v,
                    Payload::Replay(&setup.replay[v], &check),
                ),
                Kind::Sharded => {
                    let (done, t) = load::sharded_query_timed(&addrs, inputs, v, id, rng)?;
                    legs.lock().expect("legs lock").push(t);
                    Ok(done)
                }
            }
        },
    );
    // `sharded_query` is not among the workloads BENCHMARK.json runs, so
    // `fresh_query` also times the §3.5 shard legs, with online
    // encryption as its own queries have.
    let shard = if w.kind == Kind::Fresh {
        Some(shard_legs(args, window / 4, traced.attempted + 1, &legs)?)
    } else {
        None
    };
    let layer = layers::measure(w, &setup.inputs, args.seed);
    span::disable();
    let spans = span::take_all();
    let mut agg = setup.stop();
    let shard = shard.map(|(stats, a)| {
        load::add_aggregate(&mut agg, &a);
        stats
    });
    require_progress(&traced)?;
    let mut m = layer.map_err(|e| format!("layer measurement failed: {e}"))?;

    // tcp_client: the paper's four components, medians per query.
    let comps = components.into_inner().expect("components lock");
    let names = [
        "tcp_client.client_encrypt_ms",
        "tcp_client.comm_ms",
        "tcp_client.server_compute_ms",
        "tcp_client.client_decrypt_ms",
    ];
    for (i, name) in names.iter().enumerate() {
        let xs: Vec<f64> = comps.iter().map(|c| c[i] as f64 / 1e6).collect();
        m.insert(name, host::median(&xs));
    }

    // transport and tcp_server, from the benchmark's own sessions.
    let durs = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    };
    m.insert(
        "transport.frames_per_query",
        traced.frames as f64 / traced.completed().max(1) as f64,
    );
    m.insert(
        "transport.send_us_per_frame",
        host::mean(&durs("Wire::send")) / 1e3,
    );
    let mut recv_per_query: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "Wire::recv") {
        *recv_per_query.entry(s.query).or_default() += s.dur_ns() as f64 / 1e6;
    }
    m.insert(
        "transport.recv_wait_ms",
        host::median(&recv_per_query.into_values().collect::<Vec<_>>()),
    );
    m.insert(
        "tcp_server.connect_us",
        host::median(&durs("TcpWire::connect")) / 1e3,
    );
    m.insert(
        "tcp_server.hello_ack_us",
        host::median(&durs("hello_ack")) / 1e3,
    );
    m.insert(
        "tcp_server.product_wait_ms",
        host::median(&durs("product_wait")) / 1e6,
    );
    m.insert("tcp_server.failed", agg.failed as f64);
    m.insert("tcp_server.refused", agg.refused as f64);
    m.insert("tcp_server.evicted", agg.evicted as f64);
    m.insert("tcp_server.peak_active", agg.peak_active as f64);

    // shard: per-leg times measured at each leg's socket.
    let legs = legs.into_inner().expect("legs lock");
    let slowest: Vec<f64> = legs
        .iter()
        .map(|l| l.leg_ms.iter().copied().fold(0.0, f64::max))
        .collect();
    let skew: Vec<f64> = legs
        .iter()
        .map(|l| {
            let fastest = l.leg_ms.iter().copied().fold(f64::INFINITY, f64::min);
            l.leg_ms.iter().copied().fold(0.0, f64::max) / fastest.max(1e-9)
        })
        .collect();
    let per_query = |x: f64| {
        if legs.is_empty() {
            0.0
        } else {
            x / legs.len() as f64
        }
    };
    m.insert(
        "shard.legs_per_query",
        per_query(legs.iter().map(|l| l.leg_ms.len() as f64).sum()),
    );
    m.insert("shard.slowest_leg_ms", host::median(&slowest));
    m.insert("shard.leg_skew", host::median(&skew));
    m.insert(
        "shard.resumes",
        per_query(legs.iter().map(|l| f64::from(l.resumes)).sum()),
    );

    m.insert(
        "host.cpu_busy_frac",
        plain.cpu.as_secs_f64() / (plain.elapsed.as_secs_f64() * host::nproc() as f64),
    );
    m.insert(
        "trace.overhead_ratio",
        traced.queries_per_s() / plain.queries_per_s(),
    );

    // Closure checks, each printed with its bases.
    let g = |m: &Metrics, k: &str| m.get(k).copied().unwrap_or(0.0);
    let encrypt =
        g(&m, "tcp_client.client_encrypt_ms") * 1e3 / (w.n as f64 * g(&m, "crypto.encrypt_us"));
    let encrypt_kernel = g(&m, "crypto.encrypt_us") / g(&m, "bignum.modpow_us");
    let fold = g(&m, "protocol.on_frame_us_per_row")
        / (g(&m, "crypto.validate_us") + g(&m, "bignum.plan_fold_ns_per_row") / 1e3);
    let plain_p50 = host::median(&plain.latencies_ms);
    let service_parts = (g(&m, "tcp_server.connect_us") + g(&m, "tcp_server.hello_ack_us")) / 1e3
        + g(&m, "tcp_server.product_wait_ms");
    let service = if w.name == "session_churn" {
        plain_p50 / service_parts
    } else {
        0.0
    };
    let bases = [
        format!(
            "{} ms / ({} x {} us)",
            fmt_num(g(&m, "tcp_client.client_encrypt_ms")),
            w.n,
            fmt_num(g(&m, "crypto.encrypt_us"))
        ),
        format!(
            "{} us / {} us",
            fmt_num(g(&m, "crypto.encrypt_us")),
            fmt_num(g(&m, "bignum.modpow_us"))
        ),
        format!(
            "{} us / ({} us + {} ns)",
            fmt_num(g(&m, "protocol.on_frame_us_per_row")),
            fmt_num(g(&m, "crypto.validate_us")),
            fmt_num(g(&m, "bignum.plan_fold_ns_per_row"))
        ),
        format!("{} ms / {} ms", fmt_num(plain_p50), fmt_num(service_parts)),
    ];
    let applies = [w.kind == Kind::Fresh, true, true, w.name == "session_churn"];
    for (i, value) in [encrypt, encrypt_kernel, fold, service]
        .into_iter()
        .enumerate()
    {
        let (name, lo, hi, formula) = CLOSURES[i];
        if !applies[i] || !value.is_finite() {
            m.insert(name, 0.0);
            println!("closure {name} = n/a on {} ({formula})", w.name);
            continue;
        }
        m.insert(name, value);
        let flag = if (lo..=hi).contains(&value) {
            "ok"
        } else {
            "UNEXPLAINED COST"
        };
        println!(
            "closure {name} = {} [{}] base {} ({formula}); tolerance {lo}..{hi}",
            fmt_num(value),
            flag,
            bases[i]
        );
    }

    println!("self time by span ({} spans):", spans.len());
    for (name, (count, total, own)) in span::self_times(&spans) {
        println!(
            "  {name:<32} count {count:>7}  total {:>12.3} ms  self {:>12.3} ms  self/call {:>10.3} us",
            total as f64 / 1e6,
            own as f64 / 1e6,
            own as f64 / 1e3 / count as f64
        );
    }
    write_spans(args, w, &spans);

    for (name, _) in PER_LAYER {
        m.entry(name).or_insert(0.0);
    }
    let mut both = traced;
    for other in std::iter::once(plain).chain(shard) {
        both.attempted += other.attempted;
        both.failed += other.failed;
        if both.first_error.is_none() {
            both.first_error = other.first_error;
        }
        if both.wrong.is_none() {
            both.wrong = other.wrong;
        }
    }
    Ok((both, m))
}

/// One closed-loop client of `run_sharded_query_with` against the
/// `sharded_query` workload's shard workers for `window`, each query's
/// leg times pushed to `legs`. Query ids count up from `first_id`, so
/// the spans stay apart from the traced window's.
fn shard_legs(
    args: &Args,
    window: Duration,
    first_id: u64,
    legs: &Mutex<Vec<LegTiming>>,
) -> Result<(LoopStats, AggregateStats), String> {
    let w = load::workload("sharded_query", args.tiny).expect("sharded_query is a workload");
    let setup = load::setup(&w, args.seed, args.corrupt_oracle, false)
        .map_err(|e| format!("shard set-up failed: {e}"))?;
    let addrs: Vec<String> = setup.servers.iter().map(|s| s.addr.clone()).collect();
    let stats = load::closed_loop(1, window, args.seed ^ 2, first_id, |id, v, rng| {
        let (done, t) = load::sharded_query_timed(&addrs, &setup.inputs, v, id, rng)?;
        legs.lock().expect("legs lock").push(t);
        Ok(done)
    });
    let agg = setup.stop();
    require_progress(&stats)?;
    Ok((stats, agg))
}

fn write_spans(args: &Args, w: &Workload, spans: &[span::Span]) {
    let dir = Path::new(OUT_DIR);
    let path = dir.join(format!("trace-{}-seed{}.jsonl", w.name, args.seed));
    let result = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| span::write_jsonl(spans, &mut std::io::BufWriter::new(f)));
    match result {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written ({}): {e}", path.display()),
    }
}

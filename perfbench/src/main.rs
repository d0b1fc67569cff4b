//! The repository's benchmark: drives the public front ends
//! (`dr_reduction::VolumeManager`, `dr_cluster::Cluster`) with one named
//! workload, checks every byte read back against a model, and prints the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ingest-dedup --seed 1 --seconds 40 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}`.
//! The lines before it are a human-readable table, the host fingerprint,
//! and the SHA-1 of the final simulated reports. The exit code is non-zero
//! when any read returned wrong bytes or the simulated output differed
//! between rounds of the same seed.
//!
//! Both modes are a closed loop with one client: the next call is issued
//! when the previous one returns. A run repeats whole rounds (build the
//! system, set up, write, read) until `--seconds` is spent and reports the
//! median over rounds, with host times scaled to a nominal host speed (see
//! `scale_to_nominal_host`).

mod frontend;
mod probes;
mod reference;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dr_hashes::{sha1_digest, simd};
use dr_obs::{chrome_trace_json, Snapshot, Tracer};

use workload::{run_round, Inputs, Round, Workload, CHUNK};

/// End-to-end metrics, `--trace 0`: `(name, unit)`.
const END_TO_END: [(&str, &str); 10] = [
    ("write_mb_s", "MiB/s"),
    ("read_mb_s", "MiB/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_write_kiops", "kIOPS"),
    ("sim_read_kiops", "kIOPS"),
    ("sim_read_p50_us", "us"),
    ("sim_read_p99_us", "us"),
    ("stored_bytes_per_user_byte", "B/B"),
    ("ssd_bytes_per_user_byte", "B/B"),
];

/// Per-layer metrics, `--trace 1`: `(name, unit)`.
const PER_LAYER: [(&str, &str); 56] = [
    ("frontend.write_calls", "count"),
    ("frontend.write_busy_s", "s"),
    ("frontend.write_call_p50_us", "us"),
    ("frontend.write_call_p99_us", "us"),
    ("frontend.read_calls", "count"),
    ("frontend.read_busy_s", "s"),
    ("frontend.read_call_p50_us", "us"),
    ("frontend.read_call_p99_us", "us"),
    ("frontend.flush_busy_s", "s"),
    ("frontend.unattributed_share", "ratio"),
    ("chunking.wall_s", "s"),
    ("hashes.sha1_ns_per_byte", "ns/B"),
    ("hashing.wall_s", "s"),
    ("hashes.bytes", "B"),
    ("binindex.lookup_ns", "ns"),
    ("index.probe_wall_s", "s"),
    ("binindex.dedup_hit_ratio", "ratio"),
    ("binindex.buffer_hit_share", "ratio"),
    ("index.flushes", "count"),
    ("index.bloom_false_positives", "count"),
    ("compress.fastlz_ns_per_byte", "ns/B"),
    ("compress.gpu_path_ns_per_byte", "ns/B"),
    ("compress.wall_s", "s"),
    ("compress.ratio", "ratio"),
    ("compress.unique_chunks", "count"),
    ("decode.ns_per_byte", "ns/B"),
    ("decompress.gpu_batches", "count"),
    ("read.cache_hit_ratio", "ratio"),
    ("read.cache_evictions", "count"),
    ("read.cold_frames_per_block", "ratio"),
    ("destage.wall_s", "s"),
    ("destage.appends", "count"),
    ("destage.partial_flushes", "count"),
    ("destage.data_pages", "count"),
    ("journal.appends", "count"),
    ("journal.bytes", "B"),
    ("journal.encode_ns", "ns"),
    ("ssd.writes", "count"),
    ("ssd.reads", "count"),
    ("ssd.ftl_write_amp", "ratio"),
    ("ssd.write_sim_p99_us", "us"),
    ("ssd.read_sim_p99_us", "us"),
    ("gpu.kernel_launches", "count"),
    ("gpu.busy_sim_s", "s"),
    ("gpu.h2d_bytes", "B"),
    ("gpu.d2h_bytes", "B"),
    ("cpu.busy_sim_s", "s"),
    ("pool.tasks", "count"),
    ("pool.steals", "count"),
    ("pool.jobs", "count"),
    ("pool.batch_wall_s", "s"),
    ("cluster.route_ns", "ns"),
    ("cluster.node_chunk_skew", "ratio"),
    ("cluster.dedup_hit_ratio", "ratio"),
    ("obs.overhead_pct", "%"),
    ("frontend.rounds", "count"),
];

/// Rounds a run always makes, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
/// Leading rounds that only warm up (first-touch page faults, lazily
/// built tables): checked for correctness, left out of every median.
const WARMUP_ROUNDS: usize = 1;
/// Where traced runs leave their Chrome trace, relative to the checkout.
const TRACE_DIR: &str = "perfbench/target/traces";
/// Trace events kept per traced round (a sixteenth of it per thread).
const TRACE_CAPACITY: usize = 1 << 21;
const MIB: f64 = (1 << 20) as f64;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// Default seed; `HELD_OUT_SEED` is kept for confirming a claim on a seed
/// nobody tuned against.
const DEFAULT_SEED: u64 = 1;
const HELD_OUT_SEED: u64 = 20_261_017;

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::IngestDedup,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    bad(&format!(
                        "expected one of {:?}",
                        Workload::ALL.map(Workload::name)
                    ))
                })?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or_else(|| bad("expected a positive integer"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Median of `xs` (sorted in place); the mean of the middle two for an
/// even count.
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Harrell–Davis estimate of quantile `q` of `xs` (sorted in place): a
/// Beta-weighted mean of every order statistic. The simulated devices
/// serve reads in whole page-read steps, so a nearest-rank percentile
/// jumps between a few values; this estimate moves with the whole
/// distribution instead.
fn quantile(xs: &mut [u64], q: f64) -> f64 {
    xs.sort_unstable();
    let n = xs.len() as f64;
    let (a, b) = (q * (n + 1.0), (1.0 - q) * (n + 1.0));
    let mut below = 0.0;
    let mut estimate = 0.0;
    for (i, &x) in xs.iter().enumerate() {
        let cdf = beta_inc(a, b, (i + 1) as f64 / n);
        estimate += (cdf - below) * x as f64;
        below = cdf;
    }
    estimate
}

/// Regularized incomplete beta function `I_x(a, b)`, by Lentz's continued
/// fraction on whichever side of the mode converges.
fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_fraction(b, a, 1.0 - x) / b
    }
}

fn beta_fraction(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut c = 1.0;
    let mut d = 1.0 - (a + b) * x / (a + 1.0);
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut h = d;
    for m in 1..10_000 {
        let m = f64::from(m);
        for num in [
            m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0)),
        ] {
            d = 1.0 + num * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + num / c;
            c = if c.abs() < TINY { TINY } else { c };
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7, reflected below 1/2).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let series: f64 = G[0] + (1..9).map(|i| G[i] / (x + i as f64)).sum::<f64>();
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The end-to-end metrics of one round.
fn end_to_end(r: &Round) -> BTreeMap<&'static str, f64> {
    let write_ns: u64 = r.write_ns.iter().sum::<u64>() + r.flush_ns;
    let read_ns: u64 = r.read_ns.iter().sum();
    let sim_read_ns: u64 = r.sim_read_ns.iter().sum();
    let chunks: u64 = r.reports.iter().map(|x| x.chunks).sum();
    let bytes_in: u64 = r.reports.iter().map(|x| x.bytes_in).sum();
    let stored: u64 = r.reports.iter().map(|x| x.stored_bytes).sum();
    let ssd: u64 = r.reports.iter().map(|x| x.ssd_bytes_written).sum();
    // Nodes ingest concurrently: the slowest node's reduction frontier
    // bounds the whole front end.
    let makespan = r
        .reports
        .iter()
        .map(|x| x.reduction_end.as_secs_f64())
        .fold(0.0, f64::max);
    let mut sim = r.sim_read_ns.clone();
    BTreeMap::from([
        ("write_mb_s", r.write_bytes as f64 / MIB / secs(write_ns)),
        (
            "read_mb_s",
            (r.read_blocks as usize * CHUNK) as f64 / MIB / secs(read_ns),
        ),
        ("setup_s", r.setup_s),
        ("sim_write_kiops", chunks as f64 / makespan / 1e3),
        (
            "sim_read_kiops",
            r.read_blocks as f64 / secs(sim_read_ns) / 1e3,
        ),
        ("sim_read_p50_us", quantile(&mut sim, 0.50) / 1e3),
        ("sim_read_p99_us", quantile(&mut sim, 0.99) / 1e3),
        (
            "stored_bytes_per_user_byte",
            stored as f64 / bytes_in as f64,
        ),
        ("ssd_bytes_per_user_byte", ssd as f64 / bytes_in as f64),
    ])
}

/// Looks metrics up by name in a snapshot; absent ones read as zero.
struct Metrics<'a>(&'a Snapshot);

impl Metrics<'_> {
    fn counter(&self, name: &str) -> f64 {
        self.0
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v as f64)
    }

    fn hist(&self, name: &str) -> Option<dr_obs::snapshot::HistogramSummary> {
        self.0
            .histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| *h)
    }

    /// Summed wall time of a stage histogram, in seconds.
    fn wall_s(&self, name: &str) -> f64 {
        self.hist(name).map_or(0.0, |h| secs(h.sum))
    }

    fn p99_us(&self, name: &str) -> f64 {
        self.hist(name).map_or(0.0, |h| h.p99 as f64 / 1e3)
    }
}

/// The per-layer metrics a traced round yields (replays and overhead are
/// added by the caller).
fn per_layer(r: &Round) -> BTreeMap<&'static str, f64> {
    let snap = r.snapshot.as_ref().expect("traced rounds carry metrics");
    let m = Metrics(snap);
    let sum = |f: &dyn Fn(&dr_reduction::Report) -> f64| r.reports.iter().map(f).sum::<f64>();
    let chunks = sum(&|x| x.chunks as f64);
    let dedup_hits = sum(&|x| x.dedup_hits as f64);
    let unique = sum(&|x| x.unique_chunks as f64);
    let reads = sum(&|x| x.reads as f64);
    let ssd_bytes = sum(&|x| x.ssd_bytes_written as f64);
    let write_busy = secs(r.write_ns.iter().sum());
    let read_busy = secs(r.read_ns.iter().sum());
    let flush_busy = secs(r.flush_ns);
    // Stage time spent inside the measured calls: set-up's share is
    // taken out, as front-end busy time excludes set-up.
    let at_setup = Metrics(
        r.setup_snapshot
            .as_ref()
            .expect("traced rounds carry metrics"),
    );
    let stage_wall: f64 = [
        "chunking.wall_ns",
        "hashing.wall_ns",
        "index.probe_wall_ns",
        "compress.wall_ns",
        "destage.wall_ns",
    ]
    .iter()
    .map(|h| m.wall_s(h) - at_setup.wall_s(h))
    .sum();
    let busy = write_busy + read_busy + flush_busy;
    let mut write_ns = r.write_ns.clone();
    let mut read_ns = r.read_ns.clone();
    let per_node_chunks: Vec<f64> = r.reports.iter().map(|x| x.chunks as f64).collect();
    let mean_node_chunks = chunks / per_node_chunks.len() as f64;
    // Only the cluster hashes each chunk twice: once to route it, once in
    // the node's pipeline.
    let router_bytes = if r.reports.len() > 1 {
        r.write_bytes as f64
    } else {
        0.0
    };
    let (front_hits, front_chunks) = r.dedup;
    BTreeMap::from([
        ("frontend.write_calls", r.write_ns.len() as f64),
        ("frontend.write_busy_s", write_busy),
        (
            "frontend.write_call_p50_us",
            quantile(&mut write_ns, 0.50) / 1e3,
        ),
        (
            "frontend.write_call_p99_us",
            quantile(&mut write_ns, 0.99) / 1e3,
        ),
        ("frontend.read_calls", r.read_ns.len() as f64),
        ("frontend.read_busy_s", read_busy),
        (
            "frontend.read_call_p50_us",
            quantile(&mut read_ns, 0.50) / 1e3,
        ),
        (
            "frontend.read_call_p99_us",
            quantile(&mut read_ns, 0.99) / 1e3,
        ),
        ("frontend.flush_busy_s", flush_busy),
        ("frontend.unattributed_share", 1.0 - stage_wall / busy),
        ("chunking.wall_s", m.wall_s("chunking.wall_ns")),
        ("hashing.wall_s", m.wall_s("hashing.wall_ns")),
        ("hashes.bytes", sum(&|x| x.bytes_in as f64) + router_bytes),
        ("index.probe_wall_s", m.wall_s("index.probe_wall_ns")),
        ("binindex.dedup_hit_ratio", dedup_hits / chunks),
        (
            "binindex.buffer_hit_share",
            sum(&|x| x.buffer_hits as f64) / dedup_hits.max(1.0),
        ),
        ("index.flushes", m.counter("index.flushes")),
        (
            "index.bloom_false_positives",
            m.counter("index.bloom_false_positives"),
        ),
        ("compress.wall_s", m.wall_s("compress.wall_ns")),
        (
            "compress.ratio",
            unique * CHUNK as f64 / sum(&|x| x.stored_bytes as f64),
        ),
        ("compress.unique_chunks", unique),
        (
            "decompress.gpu_batches",
            m.counter("decompress.gpu_batches"),
        ),
        (
            "read.cache_hit_ratio",
            sum(&|x| x.read_cache_hits as f64) / reads,
        ),
        ("read.cache_evictions", m.counter("read.cache_evictions")),
        (
            "read.cold_frames_per_block",
            m.counter("read.cache_misses") / reads,
        ),
        ("destage.wall_s", m.wall_s("destage.wall_ns")),
        ("destage.appends", m.counter("destage.appends")),
        (
            "destage.partial_flushes",
            m.counter("destage.partial_flushes"),
        ),
        ("destage.data_pages", m.counter("destage.data_pages")),
        ("journal.appends", m.counter("journal.appends")),
        ("journal.bytes", m.counter("journal.bytes")),
        ("ssd.writes", m.counter("ssd.writes")),
        ("ssd.reads", m.counter("ssd.reads")),
        (
            "ssd.ftl_write_amp",
            sum(&|x| x.write_amplification * x.ssd_bytes_written as f64) / ssd_bytes,
        ),
        ("ssd.write_sim_p99_us", m.p99_us("ssd.write_sim_ns")),
        ("ssd.read_sim_p99_us", m.p99_us("ssd.read_sim_ns")),
        ("gpu.kernel_launches", m.counter("gpu.kernel_launches")),
        ("gpu.busy_sim_s", sum(&|x| x.gpu_busy.as_secs_f64())),
        ("gpu.h2d_bytes", m.counter("gpu.h2d_bytes")),
        ("gpu.d2h_bytes", m.counter("gpu.d2h_bytes")),
        ("cpu.busy_sim_s", sum(&|x| x.cpu_busy.as_secs_f64())),
        ("pool.tasks", m.counter("pool.tasks")),
        ("pool.steals", m.counter("pool.steals")),
        ("pool.jobs", m.counter("pool.jobs")),
        ("pool.batch_wall_s", m.wall_s("pool.batch_wall_ns")),
        (
            "cluster.node_chunk_skew",
            per_node_chunks.iter().copied().fold(0.0, f64::max) / mean_node_chunks,
        ),
        (
            "cluster.dedup_hit_ratio",
            front_hits as f64 / front_chunks as f64,
        ),
    ])
}

/// A typical reference-pass time on the host the bounds were set on (a
/// 2-vCPU Xeon guest; its runs' medians ranged from 9 to 14 ms).
const NOMINAL_REF_MS: f64 = 13.0;

/// Scales the host-time metrics to the nominal host speed. The machine is
/// shared, and its speed drifts by a fifth or more over minutes with the
/// neighbours' load; the reference pass slows down with it, so a rate times
/// `host_ref_ms / NOMINAL_REF_MS` (a time divided by it) measures the
/// program rather than the neighbours.
fn scale_to_nominal_host(e2e: &mut BTreeMap<&'static str, f64>, host_ref_ms: f64) {
    let slowdown = host_ref_ms / NOMINAL_REF_MS;
    for rate in ["write_mb_s", "read_mb_s"] {
        *e2e.get_mut(rate).expect("rates are measured") *= slowdown;
    }
    *e2e.get_mut("setup_s").expect("set-up is measured") /= slowdown;
}

/// Per-key median over rounds.
fn median_by_key(rounds: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for key in rounds[0].keys() {
        let mut xs: Vec<f64> = rounds.iter().map(|m| m[key]).collect();
        out.insert(*key, median(&mut xs));
    }
    out
}

/// SHA-1 over the debug rendering of every node's final report: one
/// fingerprint of the simulated output.
fn report_digest(r: &Round) -> String {
    sha1_digest(format!("{:?}", r.reports).as_bytes()).to_hex()
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The host a result was measured on, and how fast it ran meanwhile: the
/// median time of the reference pass over the measured rounds.
fn host_fingerprint(workload: Workload, host_ref_ms: f64) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"cpu\": {}, \"sha1_hw\": {}, \"crc32c_hw\": {}, \"nproc\": {nproc}, \"pool_width\": {}, \"nodes\": {}, \"host_ref_ms\": {host_ref_ms:.3}}}",
        json_str(&cpu),
        simd::sha1_hw(),
        simd::crc32c_hw(),
        workload.pool_width(),
        workload.nodes(),
    )
}

/// Runs rounds until `budget` is spent (at least `MIN_ROUNDS`);
/// `traced(i)` says whether round `i` runs with metrics and tracing.
/// Returns the rounds and the tracer of the last traced round.
fn run_rounds(
    inputs: &Inputs,
    budget: Duration,
    traced: impl Fn(usize) -> bool,
) -> (Vec<Round>, Option<Tracer>) {
    let mut reference = reference::Reference::new();
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut last_tracer = None;
    loop {
        let tracer = traced(rounds.len()).then(|| Tracer::with_capacity(TRACE_CAPACITY));
        let host_ref_ns = reference.time_ns();
        let mut round = run_round(inputs, tracer.as_ref());
        round.host_ref_ns = host_ref_ns;
        rounds.push(round);
        last_tracer = tracer.or(last_tracer);
        let spent = start.elapsed();
        let per_round = spent / rounds.len() as u32;
        if rounds.len() >= MIN_ROUNDS && spent + per_round > budget {
            return (rounds, last_tracer);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds N] [--trace 0|1]\n\
                 default seed {DEFAULT_SEED}; held-out seed for confirming claims {HELD_OUT_SEED}",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let inputs = Inputs::generate(args.workload, args.seed);

    // Traced runs alternate plain and traced rounds after the warm-up, so
    // the traced rounds' write rate can be set against the plain ones of
    // the same run.
    let (rounds, last_tracer) = if args.trace {
        run_rounds(&inputs, budget, |i| i % 2 == 1)
    } else {
        run_rounds(&inputs, budget, |_| false)
    };
    let peak_rss = peak_rss_mib();

    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let mismatches: u64 = rounds.iter().map(|r| r.mismatches).sum();
    let digests: Vec<String> = rounds.iter().map(report_digest).collect();
    let deterministic = digests.iter().all(|d| *d == digests[0]);
    if !deterministic {
        eprintln!("perfbench: simulated reports differ between rounds: {digests:?}");
    }

    let measured = &rounds[WARMUP_ROUNDS..];
    let host_ref_ms = median(
        &mut measured
            .iter()
            .map(|r| r.host_ref_ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let plain: Vec<BTreeMap<_, _>> = measured
        .iter()
        .filter(|r| !r.traced)
        .map(end_to_end)
        .collect();
    let plain_e2e = median_by_key(&plain);

    let (metrics, table): (BTreeMap<&str, f64>, &[(&str, &str)]) = if args.trace {
        let traced: Vec<&Round> = measured.iter().filter(|r| r.traced).collect();
        let traced_e2e = median_by_key(&traced.iter().map(|r| end_to_end(r)).collect::<Vec<_>>());
        let mut layer = median_by_key(&traced.iter().map(|r| per_layer(r)).collect::<Vec<_>>());
        let tracer = last_tracer
            .as_ref()
            .expect("a traced run has traced rounds");
        layer.extend(probes::replay(
            &inputs.probe_chunks(),
            Workload::TenantsRw.nodes(),
            tracer,
        ));
        layer.insert(
            "obs.overhead_pct",
            (plain_e2e["write_mb_s"] / traced_e2e["write_mb_s"] - 1.0) * 100.0,
        );
        layer.insert("frontend.rounds", traced.len() as f64);
        write_trace(tracer, &args);
        (layer, &PER_LAYER)
    } else {
        let mut e2e = plain_e2e.clone();
        scale_to_nominal_host(&mut e2e, host_ref_ms);
        e2e.insert("peak_rss_mib", peak_rss);
        (e2e, &END_TO_END)
    };

    for (i, r) in rounds.iter().enumerate() {
        let m = end_to_end(r);
        println!(
            "round {i}{}{}: setup_s {:.4} write_mb_s {:.1} read_mb_s {:.1} host_ref_ms {:.3}",
            if r.traced { " (traced)" } else { "" },
            if i < WARMUP_ROUNDS { " (warm-up)" } else { "" },
            m["setup_s"],
            m["write_mb_s"],
            m["read_mb_s"],
            r.host_ref_ns as f64 / 1e6
        );
    }
    let first = &rounds[0];
    println!(
        "perfbench {} seed {} trace {}: {} rounds in {:.1} s budget",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        rounds.len(),
        budget.as_secs_f64()
    );
    println!("host: {}", host_fingerprint(args.workload, host_ref_ms));
    println!(
        "unscaled medians: write_mb_s {} read_mb_s {} setup_s {} (host_ref_ms {host_ref_ms} vs nominal {NOMINAL_REF_MS})",
        plain_e2e["write_mb_s"], plain_e2e["read_mb_s"], plain_e2e["setup_s"]
    );
    println!(
        "report_sha1: {} (identical across rounds: {deterministic})",
        digests[0]
    );
    println!(
        "samples: write calls {} / read calls {} per round; sim read p99 has {} samples above it",
        first.write_ns.len(),
        first.read_ns.len(),
        first.sim_read_ns.len() / 100
    );
    println!(
        "op_fail_share: {} ({failed} of {attempted} calls; {mismatches} wrong reads)",
        failed as f64 / attempted as f64
    );
    let mut correct = deterministic && mismatches == 0;
    let mut json = Vec::new();
    for (name, unit) in table {
        let Some(&value) = metrics.get(name) else {
            eprintln!("perfbench: metric {name} was not measured");
            correct = false;
            continue;
        };
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is {value}");
            correct = false;
            continue;
        }
        println!("  {name:<32} {value:>16.6} {unit}");
        json.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes the last traced round's Chrome trace (open it in
/// chrome://tracing or ui.perfetto.dev) and prints the profile to stderr.
fn write_trace(tracer: &Tracer, args: &Args) {
    let sink = tracer.sink().expect("an enabled tracer has a sink");
    let events = sink.drain();
    let dropped = sink.dropped();
    eprint!("{}", dr_obs::profile(&events, dropped));
    let path = format!(
        "{TRACE_DIR}/{}-seed{}.json",
        args.workload.name(),
        args.seed
    );
    let written = std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(&path, chrome_trace_json(&events, dropped)));
    match written {
        Ok(()) => eprintln!("trace: {} events -> {path}", events.len()),
        Err(e) => eprintln!("trace: could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incomplete_beta_matches_closed_forms() {
        // I_x(1, 1) = x, I_x(a, 1) = x^a, and I_1/2(a, a) = 1/2.
        for x in [0.1, 0.5, 0.9] {
            assert!((beta_inc(1.0, 1.0, x) - x).abs() < 1e-12);
            assert!((beta_inc(3.5, 1.0, x) - x.powf(3.5)).abs() < 1e-12);
        }
        assert!((beta_inc(512.5, 512.5, 0.5) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn harrell_davis_tracks_the_order_statistics() {
        let mut xs: Vec<u64> = (1..=1001).rev().collect();
        assert!((quantile(&mut xs, 0.5) - 501.0).abs() < 0.5);
        assert!((quantile(&mut xs, 0.99) - 991.0).abs() < 1.5);
        let mut same = vec![7u64; 64];
        assert!((quantile(&mut same, 0.99) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}

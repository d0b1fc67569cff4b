//! The three workloads: what each writes and reads, and one measured round
//! of it against a freshly built front end.
//!
//! Every input is a pure function of the seed and is generated outside the
//! timed calls. Each round rebuilds the system from nothing and replays the
//! same inputs, so its simulated output must repeat exactly.

use std::borrow::Cow;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dr_cluster::ClusterConfig;
use dr_obs::trace::Track;
use dr_obs::{Snapshot, Tracer};
use dr_reduction::{IntegrationMode, PipelineConfig, Report};
use dr_workload::{
    synthesize_block, ClientPopulation, PopulationConfig, StreamConfig, StreamGenerator,
    ZipfSampler,
};

use crate::frontend::{obs_for, Frontend, NodeClock, Tenants, Volume};

/// Block and chunk size of every workload (the paper's 4 KiB chunks).
pub const CHUNK: usize = 4096;

/// Ingest: the stream is written sequentially in 256 KiB requests...
const INGEST_REQUEST_BLOCKS: usize = 64;
/// ...then read back once, cold and in order, in 32-block batches (large
/// enough to take the GPU decompression arm when the mode has one).
const INGEST_READ_BATCH: usize = 32;
const INGEST_DEDUP_BYTES: u64 = 128 << 20;
const INGEST_UNIQUE_BYTES: u64 = 128 << 20;
/// Host threads for the ingest pool, capped at the host's parallelism.
const INGEST_POOL_WIDTH: usize = 2;

/// Tenants: 64 clients × 256 blocks (64 MiB) is far more than the
/// 256-chunk read cache of each node, while the zipf head re-hits it.
const TENANT_CLIENTS: usize = 64;
const TENANT_BLOCKS_PER_CLIENT: u64 = 256;
/// 64 payload versions per block, so an overwrite usually carries new
/// content instead of deduplicating against the block's previous one.
const TENANT_VERSIONS: u64 = 64;
const TENANT_THETA: f64 = 0.99;
const TENANT_COMPRESS_RATIO: f64 = 2.0;
/// Write/read pairs per round: one 4 KiB write, then one 16-block read.
const TENANT_OPS: usize = 6_000;
const TENANT_READ_BATCH: usize = 16;
const TENANT_NODES: usize = 2;
/// Journal region per node; sized well above what a round appends.
const TENANT_JOURNAL_PAGES: u64 = 32 << 10;

/// Chunks the layer replays run over.
const PROBE_CHUNKS: usize = 1024;

/// One named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IngestDedup,
    IngestUnique,
    TenantsRw,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::IngestDedup,
        Workload::IngestUnique,
        Workload::TenantsRw,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestDedup => "ingest-dedup",
            Workload::IngestUnique => "ingest-unique",
            Workload::TenantsRw => "tenants-rw",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Host threads the workload's pools use in total.
    pub fn pool_width(self) -> usize {
        match self {
            Workload::IngestDedup | Workload::IngestUnique => ingest_pool_width(),
            // One pool worker (the calling thread) per node.
            Workload::TenantsRw => 1,
        }
    }

    /// Nodes behind the front end.
    pub fn nodes(self) -> usize {
        match self {
            Workload::IngestDedup | Workload::IngestUnique => 1,
            Workload::TenantsRw => TENANT_NODES,
        }
    }
}

fn ingest_pool_width() -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    INGEST_POOL_WIDTH.min(nproc)
}

/// The seeded inputs of one run.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// Ingest: the whole write stream. Tenants: the prefill image. Either
    /// way, the volume contents the model starts from.
    pub image: Vec<u8>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let image = match workload {
            Workload::IngestDedup => stream(StreamConfig::vdi(INGEST_DEDUP_BYTES), seed),
            Workload::IngestUnique => stream(StreamConfig::database(INGEST_UNIQUE_BYTES), seed),
            Workload::TenantsRw => {
                let blocks = TENANT_CLIENTS as u64 * TENANT_BLOCKS_PER_CLIENT;
                let mut image = Vec::with_capacity(blocks as usize * CHUNK);
                for b in 0..blocks {
                    let block_seed = (seed ^ 0x5052_4546_494c_4c00)
                        .wrapping_add(b)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    image.extend_from_slice(&synthesize_block(
                        block_seed,
                        CHUNK,
                        TENANT_COMPRESS_RATIO,
                    ));
                }
                image
            }
        };
        Inputs {
            workload,
            seed,
            image,
        }
    }

    fn blocks(&self) -> u64 {
        (self.image.len() / CHUNK) as u64
    }

    /// The chunks the layer replays time: the first ones the workload
    /// writes.
    pub fn probe_chunks(&self) -> Vec<Vec<u8>> {
        match self.workload {
            Workload::IngestDedup | Workload::IngestUnique => self
                .image
                .chunks(CHUNK)
                .take(PROBE_CHUNKS)
                .map(<[u8]>::to_vec)
                .collect(),
            Workload::TenantsRw => {
                let mut pop = population(self.seed);
                (0..PROBE_CHUNKS).map(|_| pop.next_write().data).collect()
            }
        }
    }
}

fn stream(config: StreamConfig, seed: u64) -> Vec<u8> {
    StreamGenerator::new(StreamConfig { seed, ..config }).generate()
}

fn population(seed: u64) -> ClientPopulation {
    ClientPopulation::new(PopulationConfig {
        clients: TENANT_CLIENTS,
        blocks_per_client: TENANT_BLOCKS_PER_CLIENT,
        block_bytes: CHUNK,
        theta: TENANT_THETA,
        versions: TENANT_VERSIONS,
        compress_ratio: TENANT_COMPRESS_RATIO,
        seed,
    })
}

/// What one round measured.
#[derive(Default)]
pub struct Round {
    /// Construction, volume creation and any prefill.
    pub setup_s: f64,
    /// Host time of the reference pass run just before the round.
    pub host_ref_ns: u64,
    /// Whether metrics and tracing were on.
    pub traced: bool,
    /// Host time of each write call of the measured phase.
    pub write_ns: Vec<u64>,
    /// Host time of the closing flush.
    pub flush_ns: u64,
    /// Host time of each read call.
    pub read_ns: Vec<u64>,
    /// User bytes the measured phase wrote.
    pub write_bytes: u64,
    /// Blocks returned by successful read calls.
    pub read_blocks: u64,
    /// Simulated service time of each successful read call.
    pub sim_read_ns: Vec<u64>,
    /// Front-end calls attempted, in set-up and measured phases alike.
    pub attempted: u64,
    /// Calls that returned an error, panicked, or returned wrong bytes.
    pub failed: u64,
    /// Calls whose returned bytes differ from the model.
    pub mismatches: u64,
    /// Every node's final report.
    pub reports: Vec<Report>,
    /// Front-end dedup accounting, `(dedup_hits, chunks)`.
    pub dedup: (u64, u64),
    /// Metrics at the end of set-up and at the end of the round, in
    /// traced rounds only.
    pub setup_snapshot: Option<Snapshot>,
    pub snapshot: Option<Snapshot>,
}

/// What each block should hold.
struct Model<'a> {
    image: Cow<'a, [u8]>,
    /// Blocks whose write failed: their contents are not known.
    unknown: HashSet<u64>,
}

impl Model<'_> {
    fn expected(&self, block: u64) -> Option<&[u8]> {
        let at = block as usize * CHUNK;
        if self.unknown.contains(&block) {
            return None;
        }
        self.image.get(at..at + CHUNK)
    }

    fn record_write(&mut self, block: u64, data: &[u8], ok: bool) {
        let n = (data.len() / CHUNK) as u64;
        for b in block..block + n {
            if ok {
                self.unknown.remove(&b);
            } else {
                self.unknown.insert(b);
            }
        }
        if ok {
            let at = block as usize * CHUNK;
            if self.image[at..at + data.len()] != *data {
                self.image.to_mut()[at..at + data.len()].copy_from_slice(data);
            }
        }
    }
}

/// The one closed-loop client: issues front-end calls, times them, and
/// counts failures.
struct Client<'t> {
    fe: Box<dyn Frontend>,
    tracer: Option<&'t Tracer>,
    round: Round,
}

impl<'t> Client<'t> {
    /// One timed call. A returned error or a panic counts as a failure.
    fn call<T>(
        &mut self,
        name: &'static str,
        op: impl FnOnce(&mut dyn Frontend) -> Result<T, String>,
    ) -> (Option<T>, u64) {
        self.round.attempted += 1;
        let span = self.tracer.map(|t| t.wall_span(Track::Driver, name));
        let fe = &mut *self.fe;
        let start = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| op(fe)));
        let ns = start.elapsed().as_nanos() as u64;
        drop(span);
        match out {
            Ok(Ok(v)) => (Some(v), ns),
            Ok(Err(e)) => {
                eprintln!("perfbench: {name} failed: {e}");
                self.round.failed += 1;
                (None, ns)
            }
            Err(_) => {
                eprintln!("perfbench: {name} panicked");
                self.round.failed += 1;
                (None, ns)
            }
        }
    }

    fn write(&mut self, block: u64, data: &[u8], model: &mut Model) -> u64 {
        let (ok, ns) = self.call("write", |fe| fe.write(block, data));
        model.record_write(block, data, ok.is_some());
        ns
    }

    fn read(&mut self, blocks: &[u64], model: &Model) {
        let before = self.fe.clocks();
        let (out, ns) = self.call("read", |fe| fe.read_batch(blocks));
        self.round.read_ns.push(ns);
        let Some(out) = out else { return };
        self.round.read_blocks += blocks.len() as u64;
        self.round
            .sim_read_ns
            .push(sim_service_ns(&before, &self.fe.clocks()));
        let correct = out.len() == blocks.len()
            && blocks
                .iter()
                .zip(&out)
                .all(|(&b, got)| model.expected(b).is_none_or(|want| want == got.as_slice()));
        if !correct {
            eprintln!(
                "perfbench: read of {} blocks returned wrong bytes",
                blocks.len()
            );
            self.round.failed += 1;
            self.round.mismatches += 1;
        }
    }

    /// Ends set-up: its time and, when traced, its metrics.
    fn end_setup(&mut self, start: Instant) {
        self.round.setup_s = start.elapsed().as_secs_f64();
        self.round.setup_snapshot = self.tracer.and_then(|_| self.fe.snapshot());
    }

    fn flush(&mut self) {
        let (_, ns) = self.call("flush", |fe| fe.flush());
        self.round.flush_ns = ns;
    }

    fn finish(mut self) -> Round {
        self.round.attempted += 1;
        if let Err(e) = self.fe.integrity() {
            eprintln!("perfbench: integrity check failed: {e}");
            self.round.failed += 1;
        }
        self.round.reports = self.fe.reports();
        self.round.dedup = self.fe.dedup();
        self.round.traced = self.tracer.is_some();
        self.round.snapshot = self.tracer.and_then(|_| self.fe.snapshot());
        self.round
    }
}

/// Simulated service time of one read call. Each node issues the read at
/// its later clock (last read or last reduction) and the nodes serve in
/// parallel, so the call takes as long as its slowest node.
fn sim_service_ns(before: &[NodeClock], after: &[NodeClock]) -> u64 {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| a.read_end.saturating_sub(b.read_end.max(b.reduction_end)))
        .max()
        .unwrap_or(0)
}

/// Builds the workload's front end and runs one round of it. With a
/// tracer, metrics and trace spans are on.
pub fn run_round(inputs: &Inputs, tracer: Option<&Tracer>) -> Round {
    match inputs.workload {
        Workload::IngestDedup => ingest_round(inputs, IntegrationMode::CpuOnly, tracer),
        Workload::IngestUnique => ingest_round(inputs, IntegrationMode::GpuForCompression, tracer),
        Workload::TenantsRw => tenants_round(inputs, tracer),
    }
}

fn ingest_round(inputs: &Inputs, mode: IntegrationMode, tracer: Option<&Tracer>) -> Round {
    let blocks = inputs.blocks();
    let start = Instant::now();
    let fe = Volume::new(PipelineConfig {
        mode,
        pool_workers: inputs.workload.pool_width(),
        journal_pages: 0,
        obs: obs_for(tracer),
        ..PipelineConfig::default()
    });
    let mut client = Client {
        fe: Box::new(fe),
        tracer,
        round: Round::default(),
    };
    client.call("create", |fe| fe.create_volume(blocks));
    client.end_setup(start);

    let mut model = Model {
        image: Cow::Borrowed(&inputs.image),
        unknown: HashSet::new(),
    };
    for (i, request) in inputs
        .image
        .chunks(INGEST_REQUEST_BLOCKS * CHUNK)
        .enumerate()
    {
        let block = (i * INGEST_REQUEST_BLOCKS) as u64;
        let ns = client.write(block, request, &mut model);
        client.round.write_ns.push(ns);
        client.round.write_bytes += request.len() as u64;
    }
    client.flush();
    let order: Vec<u64> = (0..blocks).collect();
    for batch in order.chunks(INGEST_READ_BATCH) {
        client.read(batch, &model);
    }
    client.finish()
}

fn tenants_round(inputs: &Inputs, tracer: Option<&Tracer>) -> Round {
    let seed = inputs.seed;
    let blocks = inputs.blocks();
    let mut model = Model {
        image: Cow::Owned(inputs.image.clone()),
        unknown: HashSet::new(),
    };
    let start = Instant::now();
    let fe = Tenants::new(ClusterConfig {
        nodes: TENANT_NODES,
        max_nodes: TENANT_NODES,
        node: PipelineConfig {
            pool_workers: 1,
            journal_pages: TENANT_JOURNAL_PAGES,
            obs: obs_for(tracer),
            ..PipelineConfig::default()
        },
        ..ClusterConfig::default()
    });
    let mut client = Client {
        fe: Box::new(fe),
        tracer,
        round: Round::default(),
    };
    client.call("create", |fe| fe.create_volume(blocks));
    for (i, request) in inputs
        .image
        .chunks(INGEST_REQUEST_BLOCKS * CHUNK)
        .enumerate()
    {
        client.write((i * INGEST_REQUEST_BLOCKS) as u64, request, &mut model);
    }
    client.end_setup(start);

    let mut pop = population(seed);
    let mut read_client = ZipfSampler::new(TENANT_CLIENTS, TENANT_THETA, seed ^ 0x7265_6164_0001);
    let mut read_block = ZipfSampler::new(
        TENANT_BLOCKS_PER_CLIENT as usize,
        TENANT_THETA,
        seed ^ 0x7265_6164_0002,
    );
    let mut batch = vec![0u64; TENANT_READ_BATCH];
    for _ in 0..TENANT_OPS {
        let w = pop.next_write();
        let ns = client.write(w.block, &w.data, &mut model);
        client.round.write_ns.push(ns);
        client.round.write_bytes += w.data.len() as u64;
        for b in batch.iter_mut() {
            *b =
                read_client.sample() as u64 * TENANT_BLOCKS_PER_CLIENT + read_block.sample() as u64;
        }
        client.read(&batch, &model);
    }
    client.flush();
    client.finish()
}

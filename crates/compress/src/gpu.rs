//! The GPU sub-chunk compressor with CPU post-processing.
//!
//! Prior GPU LZ work (Ozsoy et al.) assumes large buffers that can fill a
//! GPU; a primary-storage system compresses 4 KB chunks, which cannot. The
//! paper's answer, reproduced here:
//!
//! 1. Assign **T threads per chunk**. Thread `t` compresses its own
//!    sub-region with a private history/look-ahead buffer; adjacent threads
//!    *overlap* by the history size, so thread `t` may emit matches
//!    reaching up to `history` bytes into thread `t−1`'s region.
//! 2. The per-thread raw token streams are **not refined on the GPU**
//!    ("due to performance issues") — the branchy merge would diverge.
//! 3. The **CPU post-processes**: it concatenates the streams in thread
//!    order (offsets are backward-relative, so they stay valid once the
//!    preceding regions are decoded), then seals the result with the
//!    stored-raw fallback when compression did not pay.
//!
//! Functionally the kernel runs on the host, in two phases. The **host
//! pass** ([`GpuCompressor::host_pass`]) runs once per batch, one chunk
//! per task on the worker pool: each thread region is scanned straight
//! into the chunk's sealed frame through the worker's reused,
//! generation-tagged match table, and each region's raw token bytes are
//! recorded. The **device pass** ([`GpuCompressor::device_pass`]) runs per
//! attempt: it prices the work items from those counts, and the
//! [`dr_gpu_sim`] timing model charges transfer, launch and SIMT time.

use dr_des::{Grant, SimTime};
use dr_gpu_sim::{GpuDevice, GpuError, LaunchConfig, LaunchReport, MemAccess, WorkItemCost};
use dr_obs::{CounterHandle, HistogramHandle, ObsHandle};
use dr_pool::WorkerPool;

use crate::error::CodecError;
use crate::fastlz::{encode_region, with_thread_table, MatchTable};
use crate::frame;

/// ALU cycles the kernel spends per input byte of region scanned
/// (hash + probe + compare on a GCN-class core).
const KERNEL_CYCLES_PER_BYTE: u64 = 16;

/// Parameters of the GPU compression kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuCompressorConfig {
    /// Threads (work items) assigned to each chunk.
    pub threads_per_chunk: usize,
    /// Private history-buffer size; also the inter-thread overlap.
    pub history: usize,
}

impl Default for GpuCompressorConfig {
    /// 8 threads per 4 KB chunk with 512-byte histories.
    fn default() -> Self {
        GpuCompressorConfig {
            threads_per_chunk: 8,
            history: 512,
        }
    }
}

impl GpuCompressorConfig {
    fn validate(&self) {
        assert!(
            self.threads_per_chunk > 0,
            "need at least one thread per chunk"
        );
        assert!(self.history > 0, "history buffer must be non-empty");
    }
}

/// Timing summary of one batched GPU compression call.
#[derive(Debug, Clone)]
pub struct GpuBatchReport {
    /// Host→device staging of the chunk batch.
    pub h2d: Grant,
    /// The kernel launch.
    pub kernel: LaunchReport,
    /// Device→host return of the raw token streams.
    pub d2h: Grant,
    /// Total bytes of raw token streams the CPU must post-process.
    pub raw_token_bytes: u64,
    /// When the GPU side of the batch completed (before CPU post-processing).
    pub gpu_done: SimTime,
}

/// The GPU compression path.
///
/// # Example
///
/// ```
/// use dr_compress::{GpuCompressor, GpuCompressorConfig};
/// use dr_gpu_sim::{GpuDevice, GpuSpec};
/// use dr_des::SimTime;
/// use dr_pool::WorkerPool;
///
/// let mut gpu = GpuDevice::new(GpuSpec::radeon_hd_7970());
/// let pool = WorkerPool::new(0); // inline: runs on the caller
/// let comp = GpuCompressor::new(GpuCompressorConfig::default());
/// let chunk = b"abcdabcdabcdabcd".repeat(256); // 4 KB
/// let (frames, report) = comp
///     .compress_batch(SimTime::ZERO, &mut gpu, &pool, &[chunk.as_slice()])
///     .unwrap();
/// assert!(frames[0].len() < chunk.len());
/// assert_eq!(dr_compress::frame::open(&frames[0]).unwrap(), chunk);
/// assert!(report.gpu_done > SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GpuCompressor {
    config: GpuCompressorConfig,
    obs: GpuCompressObs,
}

/// Interned `compress.*` metric handles for the GPU path; inert until
/// [`GpuCompressor::set_obs`].
#[derive(Debug, Clone, Default)]
struct GpuCompressObs {
    batches: CounterHandle,
    batch_chunks: HistogramHandle,
    in_bytes: CounterHandle,
    out_bytes: CounterHandle,
    raw_token_bytes: CounterHandle,
}

impl GpuCompressObs {
    fn new(obs: &ObsHandle) -> Self {
        GpuCompressObs {
            batches: obs.counter("compress.gpu_batches"),
            batch_chunks: obs.histogram("compress.gpu_batch_chunks"),
            in_bytes: obs.counter("compress.gpu_in_bytes"),
            out_bytes: obs.counter("compress.gpu_out_bytes"),
            raw_token_bytes: obs.counter("compress.gpu_raw_token_bytes"),
        }
    }
}

impl GpuCompressor {
    /// Creates the compressor.
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent.
    pub fn new(config: GpuCompressorConfig) -> Self {
        config.validate();
        GpuCompressor {
            config,
            obs: GpuCompressObs::default(),
        }
    }

    /// The kernel parameters.
    pub fn config(&self) -> GpuCompressorConfig {
        self.config
    }

    /// Wires metrics into `obs` under the `compress.*` namespace: batch
    /// count and occupancy (chunks per batch), input/output bytes, and
    /// the raw token volume the CPU must post-process.
    pub fn set_obs(&mut self, obs: &ObsHandle) {
        self.obs = GpuCompressObs::new(obs);
    }

    /// Compresses a batch of chunks on `gpu`, starting at `now`: the host
    /// pass ([`GpuCompressor::host_pass`]) on `pool`, then the device pass
    /// ([`GpuCompressor::device_pass`]).
    ///
    /// Returns one sealed frame per chunk and the GPU timing report. The
    /// caller charges CPU time for post-processing using
    /// [`GpuBatchReport::raw_token_bytes`].
    ///
    /// # Errors
    ///
    /// Whatever [`GpuCompressor::device_pass`] reports.
    pub fn compress_batch(
        &self,
        now: SimTime,
        gpu: &mut GpuDevice,
        pool: &WorkerPool,
        chunks: &[&[u8]],
    ) -> Result<(Vec<Vec<u8>>, GpuBatchReport), GpuError> {
        let mut frames = vec![Vec::new(); chunks.len()];
        let host = self.host_pass(pool, chunks, &mut frames);
        let report = self.device_pass(now, gpu, chunks, &host)?;
        Ok((frames, report))
    }

    /// The host side of the kernel, run once per batch: every thread's
    /// region is scanned functionally and the CPU post-processing
    /// ("refinement") — concatenating the thread streams in order and
    /// sealing with the stored-raw fallback — happens in the same pass.
    ///
    /// Chunks fan out one per task over `pool`. Each task writes its
    /// sealed frame straight into `frames[i]` (cleared first; its capacity
    /// is reused) through the worker's own match table, so the steady
    /// state allocates nothing per chunk. The frames do not depend on the
    /// pool's width.
    ///
    /// # Panics
    ///
    /// Panics if `frames` and `chunks` differ in length.
    pub fn host_pass(
        &self,
        pool: &WorkerPool,
        chunks: &[&[u8]],
        frames: &mut [Vec<u8>],
    ) -> GpuHostPass {
        assert_eq!(frames.len(), chunks.len(), "one frame buffer per chunk");
        let t = self.config.threads_per_chunk;
        let mut region_token_bytes = vec![0u64; chunks.len() * t];
        let mut tasks: Vec<(&mut Vec<u8>, &mut [u64])> = frames
            .iter_mut()
            .zip(region_token_bytes.chunks_mut(t))
            .collect();
        pool.for_each_mut(&mut tasks, |i, (frame, counts)| {
            with_thread_table(|table| self.encode_chunk(chunks[i], table, frame, counts));
        });
        GpuHostPass {
            region_token_bytes,
            frame_bytes: frames.iter().map(|f| f.len() as u64).sum(),
        }
    }

    /// The device side of the kernel, run per attempt: stages the batch,
    /// launches one work item per (chunk, thread) priced from `host`'s
    /// per-region raw token bytes, and returns the raw streams. Re-running
    /// it after a transient fault needs no new host pass.
    ///
    /// # Errors
    ///
    /// [`GpuError::OutOfMemory`] when the batch does not fit in device
    /// memory; launch-level faults ([`GpuError::LaunchFailed`],
    /// [`GpuError::ProbeTimeout`], [`GpuError::DeviceLost`]) when the
    /// device's fault schedule injects them — the staged batch is freed
    /// before the error propagates, so a retry is safe.
    ///
    /// # Panics
    ///
    /// Panics if `host` was not produced for `chunks`.
    pub fn device_pass(
        &self,
        now: SimTime,
        gpu: &mut GpuDevice,
        chunks: &[&[u8]],
        host: &GpuHostPass,
    ) -> Result<GpuBatchReport, GpuError> {
        let t = self.config.threads_per_chunk;
        assert_eq!(
            host.region_token_bytes.len(),
            chunks.len() * t,
            "host pass does not match the batch"
        );
        let total_in: usize = chunks.iter().map(|c| c.len()).sum();

        // Stage the batch into device memory (one contiguous buffer).
        let in_buf = gpu.alloc(total_in.max(1) as u64)?;
        let mut staged = Vec::with_capacity(total_in);
        for c in chunks {
            staged.extend_from_slice(c);
        }
        let h2d = gpu.write_buffer(now, in_buf, 0, &staged)?;

        // One work item per thread region, in chunk x thread order.
        let mut items = Vec::with_capacity(host.region_token_bytes.len());
        for (chunk, counts) in chunks.iter().zip(host.region_token_bytes.chunks(t)) {
            for ((start, end), &out_bytes) in self.regions(chunk.len()).zip(counts) {
                let region_bytes = (end - start) as u64;
                let window_bytes = region_bytes + self.config.history.min(start) as u64;
                items.push(WorkItemCost {
                    cycles: region_bytes * KERNEL_CYCLES_PER_BYTE,
                    mem: MemAccess {
                        // Linear scan of the region + its history window,
                        // plus the raw token stream written out.
                        coalesced_bytes: window_bytes + out_bytes,
                        uncoalesced_bytes: 0,
                    },
                });
            }
        }
        let raw_token_bytes = host.raw_token_bytes();
        // The per-thread history buffers live in local memory (the paper's
        // "continuous data layout is useful when utilizing the GPU's local
        // memory"), which bounds occupancy.
        let resources = dr_gpu_sim::KernelResources {
            registers_per_item: 48,
            local_mem_per_group: (self.config.history as u32).saturating_mul(64).max(1),
            items_per_group: 64,
        };
        let kernel = match gpu.launch(
            h2d.end,
            LaunchConfig::named("lz-subchunk").with_resources(resources),
            &items,
        ) {
            Ok(report) => report,
            Err(e) => {
                // Release the staged batch so a retry (or the CPU fallback)
                // does not leak device memory; on a lost device the free
                // can fail too, which is fine to ignore.
                let _ = gpu.free(in_buf);
                return Err(e);
            }
        };

        // Return raw streams to the host.
        let out_buf = gpu.alloc(raw_token_bytes.max(1))?;
        let (_, d2h) = gpu.read_buffer(kernel.grant.end, out_buf, 0, raw_token_bytes.max(1))?;
        gpu.free(in_buf)?;
        gpu.free(out_buf)?;

        let gpu_done = d2h.end;
        self.obs.batches.incr();
        self.obs.batch_chunks.record(chunks.len() as u64);
        self.obs.in_bytes.add(total_in as u64);
        self.obs.out_bytes.add(host.frame_bytes);
        self.obs.raw_token_bytes.add(raw_token_bytes);
        Ok(GpuBatchReport {
            h2d,
            kernel,
            d2h,
            raw_token_bytes,
            gpu_done,
        })
    }

    /// Compresses one chunk without a device, for functional tests: the
    /// exact frame the GPU path produces, minus the timing.
    pub fn compress_functional(&self, chunk: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        let mut counts = vec![0; self.config.threads_per_chunk];
        with_thread_table(|table| self.encode_chunk(chunk, table, &mut frame, &mut counts));
        frame
    }

    /// Decompresses a frame produced by this path.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] from the shared frame decoder.
    pub fn decompress(&self, block: &[u8]) -> Result<Vec<u8>, CodecError> {
        frame::open(block)
    }

    /// The `[start, end)` region of each kernel thread over a chunk of
    /// `len` bytes, in thread order. Adjacent regions are contiguous; each
    /// thread's history reaches `history` bytes back across its start.
    fn regions(&self, len: usize) -> impl Iterator<Item = (usize, usize)> {
        let t = self.config.threads_per_chunk;
        let stride = len.div_ceil(t).max(1);
        (0..t).map(move |thread| ((thread * stride).min(len), ((thread + 1) * stride).min(len)))
    }

    /// Single-pass kernel over one chunk: every thread region's wire bytes
    /// go straight into `frame`, in thread order, and each region's raw
    /// token bytes into `region_token_bytes`. Offsets are backward
    /// distances, so the concatenated regions decode as one stream.
    fn encode_chunk(
        &self,
        chunk: &[u8],
        table: &mut MatchTable,
        frame: &mut Vec<u8>,
        region_token_bytes: &mut [u64],
    ) {
        debug_assert_eq!(region_token_bytes.len(), self.config.threads_per_chunk);
        frame::seal_with(chunk, frame, |original, payload| {
            for ((start, end), raw) in self.regions(original.len()).zip(region_token_bytes) {
                *raw = encode_region(original, start, end, self.config.history, table, payload);
            }
        });
    }
}

/// What the host pass of one batch leaves for the device pass: the raw
/// token bytes of every kernel work item (the sizes the kernel's output
/// streams would have) and the total size of the sealed frames.
#[derive(Debug, Clone)]
pub struct GpuHostPass {
    /// Chunk-major, then thread order — the kernel's work-item order.
    region_token_bytes: Vec<u64>,
    frame_bytes: u64,
}

impl GpuHostPass {
    /// Total bytes of raw token streams the CPU post-processes; equals
    /// [`GpuBatchReport::raw_token_bytes`] of the device pass.
    pub fn raw_token_bytes(&self) -> u64 {
        self.region_token_bytes.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastlz::tokenize_region;
    use crate::token::Token;
    use crate::FastLz;
    use dr_gpu_sim::GpuSpec;

    fn gpu() -> GpuDevice {
        GpuDevice::new(GpuSpec::radeon_hd_7970())
    }

    fn compressor() -> GpuCompressor {
        GpuCompressor::new(GpuCompressorConfig::default())
    }

    fn inline() -> WorkerPool {
        WorkerPool::new(0)
    }

    /// The token-IR reference for one chunk: every thread region
    /// tokenized on a fresh table, the streams concatenated in thread
    /// order and sealed. Returns the frame and each region's raw token
    /// bytes (literal run = len + 1, match = 3).
    fn reference(config: GpuCompressorConfig, chunk: &[u8]) -> (Vec<u8>, Vec<u64>) {
        let t = config.threads_per_chunk;
        let stride = chunk.len().div_ceil(t).max(1);
        let mut merged = Vec::new();
        let mut raw = Vec::new();
        for thread in 0..t {
            let start = (thread * stride).min(chunk.len());
            let end = ((thread + 1) * stride).min(chunk.len());
            let tokens = tokenize_region(chunk, start, end, config.history);
            raw.push(
                tokens
                    .iter()
                    .map(|tok| match tok {
                        Token::Literals(b) => b.len() as u64 + 1,
                        Token::Match { .. } => 3,
                    })
                    .sum(),
            );
            merged.extend(tokens);
        }
        (frame::seal(chunk, &merged), raw)
    }

    /// Random, zero and text chunks of every edge-case length.
    fn differential_chunks() -> Vec<Vec<u8>> {
        let text = include_str!("fastlz.rs").as_bytes();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut out = Vec::new();
        for len in [0usize, 1, 2, 3, 7, 63, 4095, 4096, 8192] {
            let random = (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (state >> 33) as u8
                })
                .collect();
            out.push(random);
            out.push(vec![0u8; len]);
            out.push(text.iter().copied().cycle().take(len).collect());
        }
        out
    }

    #[test]
    fn single_pass_kernel_matches_token_ir_reference() {
        let chunks = differential_chunks();
        let views: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
        let pools = [WorkerPool::new(0), WorkerPool::new(1), WorkerPool::new(3)];
        for threads_per_chunk in [1, 2, 8, 64] {
            for history in [1, 128, 512, 4096] {
                let config = GpuCompressorConfig {
                    threads_per_chunk,
                    history,
                };
                let c = GpuCompressor::new(config);
                let expected: Vec<(Vec<u8>, Vec<u64>)> = chunks
                    .iter()
                    .map(|chunk| reference(config, chunk))
                    .collect();
                let raw_total: u64 = expected.iter().flat_map(|(_, raw)| raw).sum();
                for (chunk, (frame_bytes, _)) in chunks.iter().zip(&expected) {
                    assert_eq!(
                        &c.compress_functional(chunk),
                        frame_bytes,
                        "functional {config:?} len {}",
                        chunk.len()
                    );
                }
                for pool in &pools {
                    let label = format!("{config:?} pool {}", pool.workers());
                    let (frames, report) = c
                        .compress_batch(SimTime::ZERO, &mut gpu(), pool, &views)
                        .unwrap();
                    for (i, (frame_bytes, _)) in expected.iter().enumerate() {
                        assert_eq!(&frames[i], frame_bytes, "batch {label} chunk {i}");
                    }
                    assert_eq!(report.raw_token_bytes, raw_total, "{label}");
                    let mut frames = vec![Vec::new(); views.len()];
                    let host = c.host_pass(pool, &views, &mut frames);
                    let per_region: Vec<u64> =
                        expected.iter().flat_map(|(_, raw)| raw.clone()).collect();
                    assert_eq!(host.region_token_bytes, per_region, "{label}");
                }
            }
        }
    }

    #[test]
    fn match_table_wrap_and_clear_is_byte_identical() {
        // Start the generation just below u32::MAX: the first chunk's
        // regions claim past it, so the table is cleared mid-stream and
        // every later scan runs on post-wrap generations.
        let start = u32::MAX - 10_000;
        let mut table = MatchTable::with_base(start);
        let c = compressor();
        let chunks = differential_chunks();
        let mut frame_bytes = Vec::new();
        let mut counts = vec![0; c.config().threads_per_chunk];
        for round in 0..3 {
            for chunk in chunks.iter().rev() {
                c.encode_chunk(chunk, &mut table, &mut frame_bytes, &mut counts);
                let (expected, raw) = reference(c.config(), chunk);
                assert_eq!(frame_bytes, expected, "round {round} len {}", chunk.len());
                assert_eq!(counts, raw, "round {round} len {}", chunk.len());
            }
        }
        assert!(
            table.generation() < start,
            "the generation never wrapped: {}",
            table.generation()
        );
    }

    #[test]
    fn retried_device_pass_reuses_the_host_pass() {
        // The device pass is a pure function of the host pass and the
        // device: re-running it gives the same raw token volume and work,
        // and frees everything it staged.
        let chunks = differential_chunks();
        let views: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
        let c = compressor();
        let mut frames = vec![Vec::new(); views.len()];
        let host = c.host_pass(&inline(), &views, &mut frames);
        let mut device = gpu();
        let first = c
            .device_pass(SimTime::ZERO, &mut device, &views, &host)
            .unwrap();
        let again = c
            .device_pass(SimTime::ZERO, &mut gpu(), &views, &host)
            .unwrap();
        assert_eq!(first.raw_token_bytes, host.raw_token_bytes());
        assert_eq!(first.raw_token_bytes, again.raw_token_bytes);
        assert_eq!(first.gpu_done, again.gpu_done);
        assert_eq!(device.mem_used(), 0);
    }

    #[test]
    fn round_trips_repetitive_chunk() {
        let chunk = b"0123456789abcdef".repeat(256); // 4 KB
        let c = compressor();
        let block = c.compress_functional(&chunk);
        assert!(block.len() < chunk.len());
        assert_eq!(c.decompress(&block).unwrap(), chunk);
    }

    #[test]
    fn round_trips_random_chunk_via_raw_fallback() {
        let mut state = 1u64;
        let chunk: Vec<u8> = (0..4096)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        let c = compressor();
        let block = c.compress_functional(&chunk);
        assert!(block.len() <= chunk.len() + 5);
        assert_eq!(c.decompress(&block).unwrap(), chunk);
    }

    #[test]
    fn batch_path_matches_functional_path() {
        let chunks: Vec<Vec<u8>> = (0..16)
            .map(|i| format!("pattern-{i}!").into_bytes().repeat(400))
            .collect();
        let views: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
        let c = compressor();
        let (frames, report) = c
            .compress_batch(SimTime::ZERO, &mut gpu(), &inline(), &views)
            .unwrap();
        for (frame_bytes, chunk) in frames.iter().zip(&chunks) {
            assert_eq!(&c.decompress(frame_bytes).unwrap(), chunk);
            assert_eq!(frame_bytes, &c.compress_functional(chunk));
        }
        assert!(report.raw_token_bytes > 0);
        assert!(report.gpu_done >= report.kernel.grant.end);
    }

    #[test]
    fn timing_orders_h2d_kernel_d2h() {
        let chunk = vec![0u8; 4096];
        let c = compressor();
        let (_, report) = c
            .compress_batch(SimTime::ZERO, &mut gpu(), &inline(), &[chunk.as_slice()])
            .unwrap();
        assert!(report.h2d.end <= report.kernel.grant.start);
        assert!(report.kernel.grant.end <= report.d2h.start);
    }

    #[test]
    fn device_memory_is_released() {
        let mut device = gpu();
        let chunk = vec![1u8; 4096];
        let c = compressor();
        for _ in 0..4 {
            c.compress_batch(SimTime::ZERO, &mut device, &inline(), &[chunk.as_slice()])
                .unwrap();
        }
        assert_eq!(device.mem_used(), 0);
    }

    #[test]
    fn sub_chunk_parallelism_costs_some_ratio() {
        // T private histories can't see as far as one whole-chunk pass:
        // GPU output is allowed to be up to ~2x the CPU codec's, never 10x.
        let chunk: Vec<u8> = include_str!("fastlz.rs").as_bytes()[..4096].to_vec();
        let whole = FastLz::new().compress(&chunk).len();
        let sub = compressor().compress_functional(&chunk).len();
        assert!(sub >= whole / 2, "sub {sub} whole {whole}");
        assert!(sub <= whole * 3, "sub {sub} whole {whole}");
    }

    #[test]
    fn more_threads_still_round_trip() {
        let chunk = b"abcabcabc".repeat(500);
        for t in [1, 2, 4, 16, 64] {
            let c = GpuCompressor::new(GpuCompressorConfig {
                threads_per_chunk: t,
                history: 128,
            });
            let block = c.compress_functional(&chunk);
            assert_eq!(c.decompress(&block).unwrap(), chunk, "threads = {t}");
        }
    }

    #[test]
    fn tiny_chunks_round_trip() {
        let c = compressor();
        for len in [0usize, 1, 2, 7, 63] {
            let chunk = vec![5u8; len];
            let block = c.compress_functional(&chunk);
            assert_eq!(c.decompress(&block).unwrap(), chunk, "len = {len}");
        }
    }

    #[test]
    fn obs_records_batches_and_bytes() {
        let obs = ObsHandle::enabled("t");
        let mut c = compressor();
        c.set_obs(&obs);
        let chunks: Vec<Vec<u8>> = (0..3).map(|i| vec![i as u8; 4096]).collect();
        let views: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
        let (frames, report) = c
            .compress_batch(SimTime::ZERO, &mut gpu(), &inline(), &views)
            .unwrap();
        let snap = obs.snapshot().unwrap();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(counter("compress.gpu_batches"), 1);
        assert_eq!(counter("compress.gpu_in_bytes"), 3 * 4096);
        assert_eq!(
            counter("compress.gpu_out_bytes"),
            frames.iter().map(|f| f.len() as u64).sum::<u64>()
        );
        assert_eq!(
            counter("compress.gpu_raw_token_bytes"),
            report.raw_token_bytes
        );
        let (_, occ) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "compress.gpu_batch_chunks")
            .expect("batch occupancy recorded");
        assert_eq!((occ.count, occ.max), (1, 3));
    }

    #[test]
    #[should_panic(expected = "thread per chunk")]
    fn zero_threads_rejected() {
        GpuCompressor::new(GpuCompressorConfig {
            threads_per_chunk: 0,
            history: 512,
        });
    }
}

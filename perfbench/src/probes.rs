//! Layer replays: each layer's public function timed on the workload's own
//! chunks, outside the front end, after a warm-up pass.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

use dr_binindex::{BinIndex, BinIndexConfig, BinRouter, ChunkRef};
use dr_cluster::{ClusterConfig, NodeId, Ring};
use dr_compress::{frame, FastLz, GpuCompressor, GpuCompressorConfig};
use dr_hashes::{sha1_digest, ChunkDigest};
use dr_obs::trace::Track;
use dr_obs::Tracer;
use dr_reduction::journal::{encode_record, BatchCommit, ChunkCommit, Frontier, Record};

use crate::median;

/// Timed passes per replay; the median is reported.
const REPEATS: usize = 7;
/// Chunks per journal batch-commit record, as the pipeline batches them.
const COMMIT_CHUNKS: usize = 128;

/// Median seconds of one call of `pass`, after one untimed warm-up.
fn time(tracer: &Tracer, name: &'static str, mut pass: impl FnMut()) -> f64 {
    let _span = tracer.wall_span(Track::Driver, name);
    pass();
    let mut secs: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            pass();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut secs)
}

/// Runs every replay and returns `(metric, value)` pairs: ns per byte for
/// the data layers, ns per call for the rest.
pub fn replay(chunks: &[Vec<u8>], nodes: usize, tracer: &Tracer) -> Vec<(&'static str, f64)> {
    let bytes: usize = chunks.iter().map(Vec::len).sum();
    let digests: Vec<ChunkDigest> = chunks.iter().map(|c| sha1_digest(c)).collect();
    let mut seen = HashSet::new();
    let unique: Vec<&[u8]> = chunks
        .iter()
        .zip(&digests)
        .filter(|(_, d)| seen.insert(**d))
        .map(|(c, _)| c.as_slice())
        .collect();
    let unique_bytes: usize = unique.iter().map(|c| c.len()).sum();
    let ns_per = |secs: f64, n: usize| secs * 1e9 / n as f64;

    let sha1 = time(tracer, "replay sha1_digest", || {
        for c in chunks {
            black_box(sha1_digest(black_box(c)));
        }
    });

    let mut index = BinIndex::new(BinIndexConfig::default());
    for (i, c) in unique.iter().enumerate() {
        index.insert(
            sha1_digest(c),
            ChunkRef::new((i * c.len()) as u64, c.len() as u32),
        );
    }
    let lookup = time(tracer, "replay BinIndex::lookup", || {
        for d in &digests {
            black_box(index.lookup(black_box(d)));
        }
    });

    let fastlz = FastLz::new();
    let mut out = Vec::new();
    let lz = time(tracer, "replay FastLz::compress_into", || {
        for c in &unique {
            fastlz.compress_into(black_box(c), &mut out);
            black_box(&out);
        }
    });

    let gpu = GpuCompressor::new(GpuCompressorConfig::default());
    let gpu_path = time(tracer, "replay GpuCompressor::compress_functional", || {
        for c in &unique {
            black_box(gpu.compress_functional(black_box(c)));
        }
    });

    let frames: Vec<Vec<u8>> = unique
        .iter()
        .map(|c| {
            let mut f = Vec::new();
            fastlz.compress_into(c, &mut f);
            f
        })
        .collect();
    let decode = time(tracer, "replay frame::open", || {
        for f in &frames {
            black_box(frame::open(black_box(f)).expect("a frame FastLz sealed opens"));
        }
    });

    let records: Vec<Record> = digests
        .chunks(COMMIT_CHUNKS)
        .enumerate()
        .map(|(b, ds)| {
            Record::BatchCommit(BatchCommit {
                frontier: Frontier {
                    next_data_lpn: b as u64,
                    next_index_lpn: u64::MAX - b as u64,
                    appended_bytes: (b * COMMIT_CHUNKS * 2048) as u64,
                    tail: vec![0x5a; 1024],
                },
                chunks: ds
                    .iter()
                    .enumerate()
                    .map(|(i, d)| ChunkCommit {
                        digest: *d,
                        dup: i % 2 == 0,
                        addr: (i * 2048) as u64,
                        stored_len: 2048,
                        orig_len: 4096,
                    })
                    .collect(),
            })
        })
        .collect();
    let journal = time(tracer, "replay encode_record", || {
        for r in &records {
            black_box(encode_record(black_box(r)));
        }
    });

    let router = BinRouter::new(ClusterConfig::default().prefix_bytes);
    let ring = Ring::new(&(0..nodes as NodeId).collect::<Vec<_>>());
    let route = time(tracer, "replay BinRouter+Ring::route", || {
        for d in &digests {
            black_box(ring.route(router.route(black_box(d)) as u64));
        }
    });

    vec![
        ("hashes.sha1_ns_per_byte", ns_per(sha1, bytes)),
        ("binindex.lookup_ns", ns_per(lookup, digests.len())),
        ("compress.fastlz_ns_per_byte", ns_per(lz, unique_bytes)),
        (
            "compress.gpu_path_ns_per_byte",
            ns_per(gpu_path, unique_bytes),
        ),
        ("decode.ns_per_byte", ns_per(decode, unique_bytes)),
        ("journal.encode_ns", ns_per(journal, records.len())),
        ("cluster.route_ns", ns_per(route, digests.len())),
    ]
}

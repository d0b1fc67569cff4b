//! Randomized tests: every compression path is lossless on arbitrary inputs.

use dr_compress::{FastLz, GpuCompressor, GpuCompressorConfig};
use dr_des::testkit::{self, Cases};

#[test]
fn fastlz_round_trips() {
    Cases::new("fastlz_round_trips", 0xC02_0001).run(128, |rng| {
        let data = testkit::vec_u8(rng, 0, 8192);
        let codec = FastLz::new();
        let packed = codec.compress(&data);
        assert_eq!(codec.decompress(&packed).unwrap(), data);
    });
}

#[test]
fn gpu_subchunk_round_trips() {
    Cases::new("gpu_subchunk_round_trips", 0xC02_0003).run(128, |rng| {
        let data = testkit::vec_u8(rng, 0, 8192);
        let threads = testkit::usize_in(rng, 1, 15);
        let history = testkit::usize_in(rng, 1, 1023);
        let comp = GpuCompressor::new(GpuCompressorConfig {
            threads_per_chunk: threads,
            history,
        });
        let block = comp.compress_functional(&data);
        assert_eq!(comp.decompress(&block).unwrap(), data);
    });
}

#[test]
fn fastlz_round_trips_low_entropy() {
    Cases::new("fastlz_round_trips_low_entropy", 0xC02_0004).run(128, |rng| {
        // Low-entropy inputs exercise long matches and overlapping copies.
        let len = testkit::usize_in(rng, 0, 8191);
        let data: Vec<u8> = (0..len).map(|_| (rng.next_u64() % 4) as u8).collect();
        let codec = FastLz::new();
        let packed = codec.compress(&data);
        assert!(data.is_empty() || packed.len() <= data.len() + 5);
        assert_eq!(codec.decompress(&packed).unwrap(), data);
    });
}

#[test]
fn expansion_is_bounded() {
    Cases::new("expansion_is_bounded", 0xC02_0005).run(128, |rng| {
        // Stored-raw fallback bounds worst-case expansion to the header.
        let data = testkit::vec_u8(rng, 0, 4096);
        for packed in [
            FastLz::new().compress(&data),
            GpuCompressor::new(GpuCompressorConfig::default()).compress_functional(&data),
        ] {
            assert!(packed.len() <= data.len() + 5);
        }
    });
}

#[test]
fn codecs_decode_each_others_frames() {
    Cases::new("codecs_decode_each_others_frames", 0xC02_0006).run(128, |rng| {
        // Both paths share one frame format: CPU frames decode with the
        // GPU path's decoder and vice versa.
        let data = testkit::vec_u8_compressible(rng, 0, 4096);
        let gpu = GpuCompressor::new(GpuCompressorConfig::default());
        let a = FastLz::new().compress(&data);
        let b = gpu.compress_functional(&data);
        assert_eq!(gpu.decompress(&a).unwrap(), data);
        assert_eq!(FastLz::new().decompress(&b).unwrap(), data);
    });
}

#[test]
fn codecs_shrink_compressible_data() {
    Cases::new("codecs_shrink_compressible_data", 0xC02_0007).run(64, |rng| {
        // Run-heavy inputs must actually compress, not just round-trip.
        let data = testkit::vec_u8_compressible(rng, 1024, 8192);
        let packed = FastLz::new().compress(&data);
        assert!(
            packed.len() < data.len(),
            "{} !< {}",
            packed.len(),
            data.len()
        );
        assert_eq!(FastLz::new().decompress(&packed).unwrap(), data);
    });
}

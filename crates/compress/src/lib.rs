//! LZ compression for the `inline-dr` pipeline.
//!
//! The paper compresses 4 KB chunks inline with LZ-family codecs, on two
//! execution paths:
//!
//! * **CPU path** — each chunk is handed whole to one worker thread running
//!   a fast single-pass codec (the paper compares against parallel
//!   *QuickLZ*; our from-scratch equivalent is [`FastLz`]).
//! * **GPU path** — a 4 KB chunk cannot fill a GPU by itself, so the paper
//!   assigns *multiple threads per chunk*: each thread LZ-compresses its own
//!   sub-region with a private history/look-ahead buffer, adjacent threads
//!   overlap by the history size, and the **CPU post-processes** the raw
//!   per-thread outputs into one valid stream ([`gpu::GpuCompressor`]).
//!
//! Both paths share one token IR ([`token`]) and one self-framing container
//! ([`frame`]) that falls back to stored-raw when compression does not pay,
//! so every path round-trips bit-exactly — verified by unit and property
//! tests.
//!
//! # Example
//!
//! ```
//! use dr_compress::FastLz;
//!
//! let codec = FastLz::new();
//! let data = b"abcabcabcabcabcabcabcabcabcabc".repeat(10);
//! let packed = codec.compress(&data);
//! assert!(packed.len() < data.len());
//! assert_eq!(codec.decompress(&packed).unwrap(), data);
//! ```

pub mod error;
pub mod fastlz;
pub mod frame;
pub mod gpu;
pub mod gpu_decomp;
pub mod scan;
pub mod token;

pub use error::CodecError;
pub use fastlz::FastLz;
pub use frame::{compression_ratio, Frame, FrameStats};
pub use gpu::{GpuCompressor, GpuCompressorConfig};
pub use gpu_decomp::{GpuDecompReport, GpuDecompressor, GpuDecompressorConfig};
pub use token::Token;

//! Chunking: splitting an incoming data stream into dedup units.
//!
//! The paper's pipeline begins with *chunking* — breaking the write stream
//! into the base units whose redundancy is checked. Primary-storage systems
//! overwhelmingly use **fixed-size** chunks aligned to the block size (the
//! paper uses 4 KB for compression experiments and 8 KB for capacity
//! sizing). This crate provides that chunker:
//!
//! * [`FixedChunker`] — fixed-size, block-aligned chunking (paper default),
//! * [`Chunk`] — a borrowed view of one chunk plus its stream offset.
//!
//! # Example
//!
//! ```
//! use dr_chunking::FixedChunker;
//!
//! let data = vec![7u8; 10_000];
//! let chunker = FixedChunker::new(4096);
//! let chunks: Vec<_> = chunker.chunk(&data).collect();
//! assert_eq!(chunks.len(), 3); // 4096 + 4096 + 1808 (short tail kept)
//! assert_eq!(chunks[2].data.len(), 10_000 - 2 * 4096);
//! ```

pub mod fixed;

pub use fixed::FixedChunker;

/// A single chunk cut from a stream: a borrowed byte window plus where it
/// came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk<'a> {
    /// Byte offset of this chunk within the stream it was cut from.
    pub offset: u64,
    /// The chunk payload.
    pub data: &'a [u8],
}

impl<'a> Chunk<'a> {
    /// Length of the chunk in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the chunk is empty (never produced by the chunker).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_len_helpers() {
        let c = Chunk {
            offset: 0,
            data: b"abc",
        };
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
    }
}

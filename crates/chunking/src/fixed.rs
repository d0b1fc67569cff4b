//! Fixed-size chunking (the paper's default for primary storage).

use crate::Chunk;

/// Cuts a stream into fixed-size, block-aligned chunks; a short final chunk
/// is emitted as-is so framing stays lossless.
///
/// ```
/// use dr_chunking::FixedChunker;
/// let chunker = FixedChunker::new(8);
/// let chunks: Vec<_> = chunker.chunk(b"0123456789ab").collect();
/// assert_eq!(chunks.len(), 2);
/// assert_eq!(chunks[0].data, b"01234567");
/// assert_eq!(chunks[1].offset, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedChunker {
    size: usize,
}

impl FixedChunker {
    /// Creates a chunker producing `size`-byte chunks.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "chunk size must be positive");
        FixedChunker { size }
    }

    /// The configured chunk size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Cuts `data` into chunks. Chunks are non-empty, contiguous, in
    /// stream order, and concatenating `chunk.data` in order reproduces the
    /// input exactly (lossless framing).
    pub fn chunk<'a>(&self, data: &'a [u8]) -> FixedChunks<'a> {
        FixedChunks {
            data,
            size: self.size,
            offset: 0,
        }
    }
}

/// Iterator over the chunks of a [`FixedChunker`].
#[derive(Debug, Clone)]
pub struct FixedChunks<'a> {
    data: &'a [u8],
    size: usize,
    offset: u64,
}

impl<'a> Iterator for FixedChunks<'a> {
    type Item = Chunk<'a>;

    fn next(&mut self) -> Option<Chunk<'a>> {
        if self.data.is_empty() {
            return None;
        }
        let take = self.size.min(self.data.len());
        let (head, tail) = self.data.split_at(take);
        let chunk = Chunk {
            offset: self.offset,
            data: head,
        };
        self.data = tail;
        self.offset += take as u64;
        Some(chunk)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.data.len().div_ceil(self.size);
        (n, Some(n))
    }
}

impl ExactSizeIterator for FixedChunks<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_multiple() {
        let data = vec![1u8; 4096 * 4];
        let chunker = FixedChunker::new(4096);
        let chunks: Vec<_> = chunker.chunk(&data).collect();
        assert_eq!(chunks.len(), 4);
        assert!(chunks.iter().all(|c| c.len() == 4096));
        assert_eq!(chunks[3].offset, 3 * 4096);
    }

    #[test]
    fn short_tail_kept() {
        let data = vec![1u8; 100];
        let chunker = FixedChunker::new(64);
        let chunks: Vec<_> = chunker.chunk(&data).collect();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[1].len(), 36);
    }

    #[test]
    fn empty_input_yields_nothing() {
        let chunker = FixedChunker::new(64);
        let chunks: Vec<_> = chunker.chunk(&[]).collect();
        assert!(chunks.is_empty());
    }

    #[test]
    fn lossless_reassembly() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 256) as u8).collect();
        let chunker = FixedChunker::new(77);
        let mut rebuilt = Vec::new();
        for c in chunker.chunk(&data) {
            assert_eq!(c.offset as usize, rebuilt.len());
            rebuilt.extend_from_slice(c.data);
        }
        assert_eq!(rebuilt, data);
    }

    #[test]
    fn exact_size_hint() {
        let data = vec![0u8; 130];
        let chunker = FixedChunker::new(64);
        assert_eq!(chunker.chunk(&data).len(), 3);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_size_panics() {
        FixedChunker::new(0);
    }
}

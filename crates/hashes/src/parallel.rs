//! Order-preserving parallel hashing of chunk batches.
//!
//! The paper observes that hashing has *no inter-chunk dependency*, so the
//! chunking stage's output can be fingerprinted by any number of CPU worker
//! threads. [`hash_chunks_pooled`] fans each batch out over a persistent
//! [`WorkerPool`] — worker threads are created once, not per batch, and
//! idle workers steal from busy ones instead of relying on static
//! partitioning. Digests always come back in input order.

use crate::digest::ChunkDigest;
use crate::sha1::sha1_digest;
use dr_pool::WorkerPool;

/// Hashes every chunk over an existing pool, returning digests in input
/// order.
///
/// ```
/// use dr_hashes::{hash_chunks_pooled, sha1_digest};
/// use dr_pool::WorkerPool;
/// let pool = WorkerPool::new(2);
/// let ds = hash_chunks_pooled(&pool, &[b"xy".as_slice()]);
/// assert_eq!(ds[0], sha1_digest(b"xy"));
/// ```
pub fn hash_chunks_pooled<T: AsRef<[u8]> + Sync>(
    pool: &WorkerPool,
    chunks: &[T],
) -> Vec<ChunkDigest> {
    pool.map_collect(chunks.len(), |i| sha1_digest(chunks[i].as_ref()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_chunks(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("chunk payload number {i}").into_bytes())
            .collect()
    }

    #[test]
    fn matches_serial_hashing() {
        let chunks = make_chunks(97);
        let serial: Vec<ChunkDigest> = chunks.iter().map(|c| sha1_digest(c)).collect();
        for workers in [0, 1, 2, 7] {
            let pool = WorkerPool::new(workers);
            assert_eq!(
                hash_chunks_pooled(&pool, &chunks),
                serial,
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn empty_batch() {
        let pool = WorkerPool::new(3);
        assert!(hash_chunks_pooled::<Vec<u8>>(&pool, &[]).is_empty());
    }

    #[test]
    fn reusing_one_pool_across_batches() {
        let pool = WorkerPool::new(2);
        for round in 0..50 {
            let chunks = make_chunks(round % 9 + 1);
            let serial: Vec<ChunkDigest> = chunks.iter().map(|c| sha1_digest(c)).collect();
            assert_eq!(hash_chunks_pooled(&pool, &chunks), serial, "round {round}");
        }
    }
}

//! A QuickLZ-class fast LZ codec.
//!
//! The paper's CPU baseline is *parallel QuickLZ*: a single-pass,
//! byte-oriented LZ with a direct-mapped hash table over 3-byte sequences
//! and greedy match extension — trading ratio for speed. QuickLZ itself is
//! closed-source; [`FastLz`] is a from-scratch codec of the same
//! algorithmic class (see `DESIGN.md` §2).

use std::cell::RefCell;

use dr_hashes::mix64;

use crate::error::CodecError;
use crate::frame;
use crate::scan::match_len;
use crate::token::{emit_literals, emit_match, Token, MAX_OFFSET, MIN_MATCH};

/// Number of slots in the direct-mapped match table (power of two).
const TABLE_SIZE: usize = 1 << 12;

/// Upper bound on the candidate-bucket width (see [`FastLz::with_probes`]).
pub const MAX_PROBES: u8 = 4;

/// The fast single-pass codec.
///
/// ```
/// use dr_compress::FastLz;
/// let codec = FastLz::new();
/// let packed = codec.compress(&[0u8; 4096]);
/// assert!(packed.len() < 128);
/// assert_eq!(codec.decompress(&packed).unwrap(), vec![0u8; 4096]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastLz {
    /// Candidates examined per table slot (1 = classic direct-mapped).
    probes: u8,
}

impl Default for FastLz {
    fn default() -> Self {
        Self::new()
    }
}

impl FastLz {
    /// Creates the codec with the classic single-candidate table.
    pub fn new() -> Self {
        FastLz { probes: 1 }
    }

    /// A codec whose match table keeps `probes` recent candidates per slot
    /// (a 4-ary set-associative table at the maximum). More probes buy
    /// ratio on hash-collision-heavy data for a proportional scan cost;
    /// `probes == 1` is byte-identical to [`FastLz::new`].
    ///
    /// # Panics
    ///
    /// Panics if `probes` is zero or exceeds [`MAX_PROBES`].
    pub fn with_probes(probes: u8) -> Self {
        assert!(
            (1..=MAX_PROBES).contains(&probes),
            "probes must be in 1..={MAX_PROBES}"
        );
        FastLz { probes }
    }

    /// The configured candidates-per-slot count.
    pub fn probes(&self) -> u8 {
        self.probes
    }

    /// Tokenizes `input` with the greedy single-pass matcher: the token-IR
    /// form of what [`FastLz::compress_into`] writes. Always single-probe,
    /// matching [`FastLz::new`].
    pub fn tokenize(input: &[u8]) -> Vec<Token> {
        tokenize_region(input, 0, input.len(), input.len())
    }

    /// Compresses `input` into `out` (cleared first), reusing its capacity.
    ///
    /// Single-pass: the matcher emits wire bytes directly into the frame as
    /// it scans, on the calling thread's reused match table, so no token
    /// IR, intermediate buffer or table is allocated. The produced frame is
    /// byte-identical to [`FastLz::compress`].
    pub fn compress_into(&self, input: &[u8], out: &mut Vec<u8>) {
        with_thread_table(|table| {
            frame::seal_with(input, out, |original, payload| {
                scan_region_dispatch(
                    original,
                    0,
                    original.len(),
                    original.len(),
                    self.probes,
                    table,
                    &mut WireSink::new(payload),
                );
            });
        });
    }

    /// Compresses `input` into a self-framing block: an LZ frame, or
    /// stored-raw when compression does not pay, so expansion is bounded
    /// by the frame header.
    pub fn compress(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.compress_into(input, &mut out);
        out
    }

    /// Decompresses a block produced by [`FastLz::compress`] (or any other
    /// frame sealer in this crate).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] when the block is truncated or corrupt.
    pub fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        frame::open(input)
    }
}

/// Receives matcher output: either a literal span or a back-reference.
/// Lets one matcher implementation drive both the token-IR path (the
/// reference tokenizer tests compare against) and the single-pass wire
/// path (the CPU codec and the GPU kernel's host pass, which need zero
/// intermediate allocation).
trait TokenSink {
    fn literals(&mut self, bytes: &[u8]);
    fn matched(&mut self, offset: usize, len: usize);
}

impl TokenSink for Vec<Token> {
    fn literals(&mut self, bytes: &[u8]) {
        self.push(Token::Literals(bytes.to_vec()));
    }
    fn matched(&mut self, offset: usize, len: usize) {
        self.push(Token::Match { offset, len });
    }
}

/// Emits the wire encoding straight into a byte buffer, counting the raw
/// token bytes as it goes: one control byte plus the bytes of each literal
/// run, three bytes per match, before the wire format's run and match
/// splitting. That count is the size of a GPU kernel thread's output
/// stream.
struct WireSink<'a> {
    out: &'a mut Vec<u8>,
    raw_token_bytes: u64,
}

impl<'a> WireSink<'a> {
    fn new(out: &'a mut Vec<u8>) -> Self {
        WireSink {
            out,
            raw_token_bytes: 0,
        }
    }
}

impl TokenSink for WireSink<'_> {
    fn literals(&mut self, bytes: &[u8]) {
        self.raw_token_bytes += bytes.len() as u64 + 1;
        emit_literals(self.out, bytes);
    }
    fn matched(&mut self, offset: usize, len: usize) {
        self.raw_token_bytes += 3;
        emit_match(self.out, offset, len);
    }
}

/// Number of `u32` slots behind a [`MatchTable`]: room for the widest
/// bucket layout, so one table serves every probe width.
const TABLE_SLOTS: usize = TABLE_SIZE * MAX_PROBES as usize;

/// A reusable, generation-tagged match table.
///
/// Slots hold `base + pos` rather than `pos`. Each scan claims a fresh
/// generation by advancing `base` past every position it can store, so an
/// entry left by an earlier scan reads back (`slot - base`, wrapping) as a
/// position beyond the current scan's end: it fails the matcher's
/// `candidate < pos` check exactly as an empty slot would, and no scan
/// pays to zero the table. The slots are zeroed only when `base` would
/// wrap `u32`.
pub(crate) struct MatchTable {
    slots: Box<[u32]>,
    /// Generation of the next scan; always `>= 1`, so a zeroed slot is
    /// stale too.
    base: u32,
}

impl MatchTable {
    /// A zeroed table whose first scan is generation 1.
    pub(crate) fn new() -> Self {
        Self::with_base(1)
    }

    /// A zeroed table whose first scan is generation `base`. Tests start
    /// near `u32::MAX` to run the wrap-and-clear branch.
    pub(crate) fn with_base(base: u32) -> Self {
        assert!(base >= 1, "generation 0 would make zeroed slots live");
        MatchTable {
            slots: vec![0; TABLE_SLOTS].into_boxed_slice(),
            base,
        }
    }

    /// The generation the next scan will claim.
    #[cfg(test)]
    pub(crate) fn generation(&self) -> u32 {
        self.base
    }

    /// Claims the generation for a scan that stores positions below `end`
    /// and returns its base with the slots viewed as `PROBES`-wide
    /// buckets.
    fn claim<const PROBES: usize>(
        &mut self,
        end: usize,
    ) -> (u32, &mut [[u32; PROBES]; TABLE_SIZE]) {
        // `base + end <= u32::MAX` keeps every stale entry reading back
        // above `end`, hence above any scan position.
        let span = u32::try_from(end)
            .ok()
            .filter(|&span| span < u32::MAX)
            .expect("input exceeds the match table's u32 position range");
        if u32::MAX - self.base < span {
            self.slots.fill(0);
            self.base = 1;
        }
        let base = self.base;
        self.base += span;
        let (buckets, _) = self.slots.as_chunks_mut::<PROBES>();
        let buckets = (&mut buckets[..TABLE_SIZE])
            .try_into()
            .expect("the slots hold TABLE_SIZE buckets of every width");
        (base, buckets)
    }
}

thread_local! {
    /// The calling thread's match table, reused by every scan it runs.
    static THREAD_TABLE: RefCell<MatchTable> = RefCell::new(MatchTable::new());
}

/// Runs `f` with the calling thread's [`MatchTable`].
pub(crate) fn with_thread_table<R>(f: impl FnOnce(&mut MatchTable) -> R) -> R {
    THREAD_TABLE.with_borrow_mut(f)
}

/// Greedy-tokenizes `input[start..end]`, allowing matches that reach back
/// at most `window` bytes (and never before `input[0]`). Offsets are
/// relative distances, so the produced tokens decode correctly whenever at
/// least `start` bytes of history precede them — the property the GPU
/// post-processor relies on. Runs on a fresh table: the token-IR reference
/// the single-pass paths are tested against.
pub(crate) fn tokenize_region(input: &[u8], start: usize, end: usize, window: usize) -> Vec<Token> {
    let mut tokens = Vec::new();
    scan_region_probed::<1>(
        input,
        start,
        end,
        window,
        &mut MatchTable::new(),
        &mut tokens,
    );
    tokens
}

/// Appends the wire encoding of `input[start..end]` (the same tokens as
/// [`tokenize_region`]) to `out` through `table`, and returns the raw
/// token bytes of the region (see [`WireSink`]).
pub(crate) fn encode_region(
    input: &[u8],
    start: usize,
    end: usize,
    window: usize,
    table: &mut MatchTable,
    out: &mut Vec<u8>,
) -> u64 {
    let mut sink = WireSink::new(out);
    scan_region_probed::<1>(input, start, end, window, table, &mut sink);
    sink.raw_token_bytes
}

/// Monomorphizes the probe width: the bucket width is a compile-time
/// constant per variant.
fn scan_region_dispatch(
    input: &[u8],
    start: usize,
    end: usize,
    window: usize,
    probes: u8,
    table: &mut MatchTable,
    sink: &mut dyn TokenSink,
) {
    match probes {
        1 => scan_region_probed::<1>(input, start, end, window, table, sink),
        2 => scan_region_probed::<2>(input, start, end, window, table, sink),
        3 => scan_region_probed::<3>(input, start, end, window, table, sink),
        _ => scan_region_probed::<4>(input, start, end, window, table, sink),
    }
}

/// The 3-byte match key at `at`, as a little-endian word — both the hash
/// input and the candidate prefilter word.
#[inline]
fn three_bytes(input: &[u8], at: usize) -> u32 {
    // One unaligned 4-byte load beats three byte loads; the tail guard
    // keeps the read in bounds on the last position of the buffer.
    if at + 4 <= input.len() {
        u32::from_le_bytes(input[at..at + 4].try_into().unwrap()) & 0x00FF_FFFF
    } else {
        u32::from_le_bytes([input[at], input[at + 1], input[at + 2], 0])
    }
}

#[inline]
fn hash_key(key: u32) -> usize {
    (mix64(key as u64 | 0x0100_0000) as usize) & (TABLE_SIZE - 1)
}

/// Pushes `pos` (tagged with the scan's generation `base`) as the newest
/// candidate in its bucket, aging out the oldest. With `PROBES == 1` this
/// is exactly the direct-mapped overwrite. Positions are stored as `u32`
/// so the table stays half the size (and cache footprint) of a `usize`
/// table.
#[inline]
fn bucket_push<const PROBES: usize>(
    table: &mut [[u32; PROBES]; TABLE_SIZE],
    slot: usize,
    base: u32,
    pos: usize,
) {
    let bucket = &mut table[slot];
    for i in (1..PROBES).rev() {
        bucket[i] = bucket[i - 1];
    }
    bucket[0] = base + pos as u32;
}

/// Greedy single-pass scan over a `PROBES`-way set-associative match
/// table. Candidates are probed newest-first; the longest match wins, with
/// ties going to the most recent (smallest-offset) candidate. Extension is
/// SWAR ([`match_len`]) — decision-identical to the byte-at-a-time loop,
/// so `PROBES == 1` reproduces the historical output byte for byte.
///
/// This is the one LZ scan loop in the crate: [`FastLz`] and the GPU
/// kernel's host pass run it on the calling thread's reused table,
/// [`tokenize_region`] on a fresh one. Stale generations read exactly as
/// empty slots, so the table's history never changes a decision.
fn scan_region_probed<const PROBES: usize>(
    input: &[u8],
    start: usize,
    end: usize,
    window: usize,
    table: &mut MatchTable,
    sink: &mut dyn TokenSink,
) {
    debug_assert!(start <= end && end <= input.len());
    let (base, table) = table.claim::<PROBES>(end);
    // Seed the table with positions from the visible history window so the
    // first bytes of the region can match backwards into it.
    let hist_start = start.saturating_sub(window);
    if end >= MIN_MATCH {
        for pos in hist_start..start.min(end - MIN_MATCH + 1) {
            bucket_push(table, hash_key(three_bytes(input, pos)), base, pos);
        }
    }

    let mut literal_start = start;
    let mut pos = start;
    while pos + MIN_MATCH <= end {
        let here = three_bytes(input, pos);
        let slot = hash_key(here);

        let mut matched = 0usize;
        let mut best = usize::MAX;
        let limit = end - pos;
        for &candidate in &table[slot] {
            // Reject stale, future, and out-of-window slots without
            // branching: a stale generation reads back above `end` (see
            // `MatchTable`), so it is never below a valid position, and
            // `wrapping_sub` turns a future candidate into a huge
            // distance both range checks refuse. Eager `&` instead of
            // `&&` keeps this a flag computation — slot occupancy is a
            // coin flip for most of a 4 KiB chunk, and a data-dependent
            // branch here mispredicts its way to ~2x the scan cost.
            let candidate = candidate.wrapping_sub(base) as usize;
            let distance = pos.wrapping_sub(candidate);
            let in_range = (candidate < pos)
                & (distance <= MAX_OFFSET)
                & (distance <= window)
                & (candidate >= hist_start);
            // A candidate disagreeing in the first MIN_MATCH bytes can
            // never reach MIN_MATCH, and sub-minimum lengths never emit —
            // the word prefilter is decision-identical and avoids the
            // slice setup of a doomed extension. Rejected candidates load
            // from `pos` (always in bounds) so the load itself needs no
            // branch; the flag keeps them out of the accept path.
            let probe_at = if in_range { candidate } else { pos };
            let accept = in_range & (three_bytes(input, probe_at) == here);
            if accept {
                // Extend the match greedily, bounded by the region end.
                let len = match_len(&input[candidate..candidate + limit], &input[pos..end]);
                if len > matched {
                    matched = len;
                    best = candidate;
                }
            }
        }
        bucket_push(table, slot, base, pos);

        if matched >= MIN_MATCH {
            if literal_start < pos {
                sink.literals(&input[literal_start..pos]);
            }
            sink.matched(pos - best, matched);
            // Insert a few positions inside the match so later data can
            // reference it (bounded to keep the pass single-speed).
            let insert_end = (pos + matched).min(end.saturating_sub(MIN_MATCH - 1));
            for p in (pos + 1..insert_end).take(8) {
                bucket_push(table, hash_key(three_bytes(input, p)), base, p);
            }
            pos += matched;
            literal_start = pos;
        } else {
            pos += 1;
        }
    }
    if literal_start < end {
        sink.literals(&input[literal_start..end]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let codec = FastLz::new();
        let packed = codec.compress(data);
        assert_eq!(
            codec.decompress(&packed).unwrap(),
            data,
            "round trip failed"
        );
    }

    #[test]
    fn empty_and_tiny_inputs() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"ab");
        round_trip(b"abc");
    }

    #[test]
    fn run_of_zeros_compresses_hard() {
        // 4 KB of zeros: one literal + ~32 max-length match tokens.
        let data = vec![0u8; 4096];
        let packed = FastLz::new().compress(&data);
        assert!(packed.len() < 128, "packed {} bytes", packed.len());
        round_trip(&data);
    }

    #[test]
    fn repeated_phrase_compresses() {
        let data = b"the quick brown fox jumps over the lazy dog. ".repeat(100);
        let packed = FastLz::new().compress(&data);
        assert!(packed.len() < data.len() / 2);
        round_trip(&data);
    }

    #[test]
    fn random_data_expands_only_by_header() {
        let mut state = 0x12345678u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        let packed = FastLz::new().compress(&data);
        assert!(packed.len() <= data.len() + 5);
        round_trip(&data);
    }

    #[test]
    fn text_like_data_round_trips() {
        let data: Vec<u8> = include_str!("fastlz.rs").as_bytes().to_vec();
        let packed = FastLz::new().compress(&data);
        assert!(packed.len() < data.len());
        round_trip(&data);
    }

    #[test]
    fn all_byte_values_round_trip() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        round_trip(&data);
    }

    #[test]
    fn compress_into_matches_token_ir_path_byte_for_byte() {
        let inputs: Vec<Vec<u8>> = vec![
            Vec::new(),
            b"a".to_vec(),
            vec![0u8; 4096],
            b"the quick brown fox jumps over the lazy dog. ".repeat(100),
            (0..=255u8).cycle().take(10_000).collect(),
            include_str!("fastlz.rs").as_bytes().to_vec(),
        ];
        let codec = FastLz::new();
        let mut out = Vec::new();
        for input in &inputs {
            let via_tokens = frame::seal(input, &FastLz::tokenize(input));
            codec.compress_into(input, &mut out);
            assert_eq!(out, via_tokens, "input len {}", input.len());
        }
    }

    #[test]
    fn stale_generations_stay_stale_across_the_wrap() {
        // One slot holds the largest position of an early generation.
        // Every later claim — through the u32 wrap, and on until the base
        // climbs past that old value again — must read it back past the
        // scan's end, where the matcher treats it as an empty slot.
        const END: usize = 1 << 20;
        let mut table = MatchTable::with_base(u32::MAX - 2 * END as u32);
        let (base, buckets) = table.claim::<1>(END);
        let planted = base + (END as u32 - 1);
        buckets[0][0] = planted;
        let mut wrapped = false;
        for claim in 0..2 * (u32::MAX as usize / END) {
            let (base, buckets) = table.claim::<1>(END);
            wrapped |= base < planted;
            let read = buckets[0][0].wrapping_sub(base) as usize;
            assert!(read > END, "claim {claim}: stale slot reads as {read}");
        }
        assert!(wrapped, "the generation never wrapped");
    }

    #[test]
    fn reused_thread_table_matches_fresh_table_across_probe_widths() {
        // Interleaved probe widths and input sizes on this thread's one
        // table must seal exactly what a scan on a fresh table seals:
        // stale generations of any bucket layout read as empty slots.
        let inputs: Vec<Vec<u8>> = vec![
            include_str!("fastlz.rs").as_bytes()[..4096].to_vec(),
            vec![7u8; 300],
            include_str!("token.rs").as_bytes().repeat(3),
            b"abcabcabd".repeat(50),
        ];
        let mut out = Vec::new();
        let mut fresh = Vec::new();
        for _ in 0..2 {
            for probes in [4, 1, 3, 2] {
                for input in &inputs {
                    FastLz::with_probes(probes).compress_into(input, &mut out);
                    frame::seal_with(input, &mut fresh, |original, payload| {
                        let len = original.len();
                        scan_region_dispatch(
                            original,
                            0,
                            len,
                            len,
                            probes,
                            &mut MatchTable::new(),
                            &mut WireSink::new(payload),
                        );
                    });
                    assert_eq!(out, fresh, "probes {probes} len {}", input.len());
                }
            }
        }
    }

    #[test]
    fn compress_into_reuses_buffer_capacity() {
        let codec = FastLz::new();
        let big = vec![0u8; 65536];
        let mut out = Vec::new();
        codec.compress_into(&big, &mut out);
        let cap = out.capacity();
        for _ in 0..10 {
            codec.compress_into(&big, &mut out);
            assert_eq!(out.capacity(), cap, "steady state must not reallocate");
        }
        assert_eq!(codec.decompress(&out).unwrap(), big);
    }

    #[test]
    fn single_probe_codec_matches_default() {
        // `with_probes(1)` must be byte-identical to `new()` — the default
        // dispatch arm the pipeline relies on for reproducible output.
        let data = include_str!("fastlz.rs").as_bytes().repeat(2);
        assert_eq!(
            FastLz::with_probes(1).compress(&data),
            FastLz::new().compress(&data)
        );
    }

    #[test]
    fn deeper_probing_round_trips_and_does_not_hurt_ratio() {
        let data = include_str!("token.rs").as_bytes().repeat(2);
        let base = FastLz::new().compress(&data);
        for probes in 2..=MAX_PROBES {
            let codec = FastLz::with_probes(probes);
            let packed = codec.compress(&data);
            assert!(
                packed.len() <= base.len(),
                "probes {probes}: {} vs {}",
                packed.len(),
                base.len()
            );
            assert_eq!(codec.decompress(&packed).unwrap(), data, "probes {probes}");
        }
    }

    #[test]
    #[should_panic(expected = "probes must be")]
    fn zero_probes_rejected() {
        FastLz::with_probes(0);
    }

    #[test]
    fn region_tokenizer_respects_window() {
        // A match candidate further back than `window` must be ignored.
        let mut data = b"UNIQUEPREFIX".to_vec();
        data.extend_from_slice(&[b'x'; 300]);
        data.extend_from_slice(b"UNIQUEPREFIX");
        let tokens = tokenize_region(&data, 0, data.len(), 64);
        for t in &tokens {
            if let Token::Match { offset, .. } = t {
                assert!(*offset <= 64, "match crossed the window: offset {offset}");
            }
        }
    }

    #[test]
    fn region_tokens_decode_with_history_present() {
        // Tokenize only the second half; decoding after pre-seeding the
        // first half must reproduce the second half.
        let data = b"abcdefghij".repeat(50);
        let mid = data.len() / 2;
        let tokens = tokenize_region(&data, mid, data.len(), mid);
        let mut out = data[..mid].to_vec();
        crate::token::decode_stream(&crate::token::encode_tokens(&tokens), &mut out).unwrap();
        assert_eq!(out, data);
    }
}

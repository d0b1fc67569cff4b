//! A fixed piece of host work, timed before every round, that gauges how
//! fast the host runs at that moment. On a shared machine the wall rates
//! drift with the neighbours' load; the run's median pass time scales the
//! host-time metrics to a nominal host speed and is printed with the host
//! fingerprint.
//!
//! It is plain standard-library code over a buffer of its own, so no change
//! to the library can change how long it takes; only the host can.

use std::hint::black_box;
use std::time::Instant;

const BYTES: usize = 2 << 20;
const TABLE_BITS: u32 = 16;

pub struct Reference {
    data: Vec<u8>,
    /// Scratch the pass reuses, so that it allocates nothing: a fresh
    /// allocation would time the allocator's state, which the program
    /// under test leaves behind.
    table: Vec<u32>,
    copy: Vec<u8>,
}

impl Reference {
    /// Half the buffer is pseudo-random bytes and half repeats earlier
    /// spans, so the match scan below both hits and misses.
    pub fn new() -> Self {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut data = Vec::with_capacity(BYTES);
        while data.len() < BYTES {
            let word = next();
            if word % 2 == 0 || data.len() < 4096 {
                data.extend_from_slice(&word.to_le_bytes());
            } else {
                let from = (word >> 8) as usize % (data.len() - 64);
                let len = 16 + (word >> 40) as usize % 48;
                data.extend_from_within(from..from + len);
            }
        }
        data.truncate(BYTES);
        Reference {
            copy: data.clone(),
            table: vec![0; 1 << TABLE_BITS],
            data,
        }
    }

    /// Host nanoseconds for one pass: a multiply chain over every byte, an
    /// LZ-style hash-table match scan, and a copy, the kinds of work the
    /// reduction pipeline does.
    pub fn time_ns(&mut self) -> u64 {
        let start = Instant::now();
        let data = black_box(&self.data);
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        for &b in data {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        let table = &mut self.table;
        table.fill(0);
        let mut matches = 0u64;
        for i in 0..data.len() - 4 {
            let word = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
            let slot = (word.wrapping_mul(2_654_435_761) >> (32 - TABLE_BITS)) as usize;
            let candidate = table[slot] as usize;
            if candidate < i && data[candidate..candidate + 4] == data[i..i + 4] {
                matches += 1;
            }
            table[slot] = i as u32;
        }
        self.copy.copy_from_slice(data);
        black_box((hash, matches, &self.copy));
        start.elapsed().as_nanos() as u64
    }
}

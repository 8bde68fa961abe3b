//! One conformance harness for every byte layout in the workspace: wire
//! frames, WAL records, the catalog blob.
//!
//! A library module, not a `#[cfg(test)]` one, because the layouts it
//! checks live in three crates (`cdb-storage`, `cdb-core`, `cdb-net`) whose
//! unit tests all call it. Each of those test binaries installs
//! [`PeakAlloc`] as its `#[global_allocator]`, which is how the harness
//! sees what a decoder allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use cdb_prng::StdRng;

use crate::codec::{self, Wire};

/// Seeded single-byte mutations tried per sample.
const MUTATIONS: usize = 256;

/// Bytes a decoder may allocate at once per input byte. Every decoded
/// element consumes at least one input byte, the largest element type on
/// any wire is under 128 bytes in memory, and a growing `Vec` at most
/// doubles — so an allocation past this bound was sized from a count, not
/// from bytes that arrived.
const ALLOC_PER_BYTE: usize = 256;

/// The system allocator, remembering the largest single allocation each
/// thread has asked for and how many it has made.
pub struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: allocations during thread teardown find the slot gone.
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded to `System` with the arguments it was
// given, so `System`'s own upholding of the `GlobalAlloc` contract carries
// over; the only addition is a store to two const-initialised thread-local
// integers, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f`, returning its result and the largest single allocation it
/// made on this thread.
pub fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    PEAK.with(|p| p.set(0));
    let out = f();
    (out, PEAK.with(Cell::get))
}

/// Runs `f`, returning its result and how many allocations (`alloc` and
/// `realloc` calls) it made on this thread — the guard against per-row
/// work creeping back into a path that should allocate per batch.
pub fn allocations_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

/// Checks a codec against `samples`:
///
/// 1. every sample round-trips to an equal value;
/// 2. every strict prefix of its bytes is an error;
/// 3. one trailing byte is an error;
/// 4. `MUTATIONS` seeded single-byte mutations each decode to `Ok` or
///    `Err` — no panic, and no single allocation over
///    `ALLOC_PER_BYTE` × the input length.
///
/// # Panics
/// Panics, naming the sample and the offending bytes, when a check fails —
/// or when the calling test binary has not installed [`PeakAlloc`].
pub fn conformance<T: PartialEq + Debug, E: Debug>(
    samples: &[T],
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Result<T, E>,
) {
    let (probe, seen) = peak_during(|| std::hint::black_box(Vec::<u8>::with_capacity(4096)));
    assert!(
        seen >= probe.capacity(),
        "install cdb_storage::conformance::PeakAlloc as this test binary's #[global_allocator]"
    );
    for (i, sample) in samples.iter().enumerate() {
        let bytes = encode(sample);
        match decode(&bytes) {
            Ok(back) => assert_eq!(&back, sample, "sample {i} changed in the round trip"),
            Err(e) => panic!("sample {i} ({sample:?}) does not decode: {e:?}"),
        }
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "sample {i} ({sample:?}) decodes from its first {cut} bytes"
            );
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(
            decode(&longer).is_err(),
            "sample {i} ({sample:?}) accepts a trailing byte"
        );
        let mut rng = StdRng::seed_from_u64(i as u64);
        for _ in 0..MUTATIONS {
            let mut forged = bytes.clone();
            let at = rng.gen_range(0..forged.len());
            forged[at] ^= rng.gen_range(1..=255u32) as u8;
            let (outcome, peak) =
                peak_during(|| catch_unwind(AssertUnwindSafe(|| decode(&forged).is_ok())));
            assert!(
                outcome.is_ok(),
                "sample {i}: decoding panicked on {forged:02x?} (byte {at} forged)"
            );
            assert!(
                peak <= ALLOC_PER_BYTE * forged.len(),
                "sample {i}: one allocation of {peak} bytes decoding {} bytes \
                 {forged:02x?} (byte {at} forged)",
                forged.len()
            );
        }
    }
}

/// [`conformance`] for a type's own [`Wire`] impl.
pub fn wire_conformance<T: Wire + PartialEq + Debug>(samples: &[T]) {
    conformance(samples, codec::encode, codec::decode::<T>)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{CodecError, RecordReader, RecordWriter};

    #[derive(Debug, PartialEq)]
    struct Swapped(u8, u8);

    impl Wire for Swapped {
        fn put(&self, w: &mut RecordWriter) {
            (self.0, self.1).put(w)
        }
        fn get(r: &mut RecordReader<'_>) -> Result<Self, CodecError> {
            let (b, a) = Wire::get(r)?;
            Ok(Swapped(a, b))
        }
    }

    #[test]
    #[should_panic(expected = "changed in the round trip")]
    fn a_put_and_get_that_disagree_fail_the_harness() {
        wire_conformance(&[Swapped(1, 2)]);
    }

    #[derive(Debug, PartialEq)]
    struct TrustsCount(Vec<u8>);

    impl Wire for TrustsCount {
        fn put(&self, w: &mut RecordWriter) {
            (self.0.len() as u16).put(w);
            w.put_seq(&self.0)
        }
        fn get(r: &mut RecordReader<'_>) -> Result<Self, CodecError> {
            let n = usize::from(u16::get(r)?);
            let mut v = Vec::with_capacity(n);
            v.extend(r.get_seq::<u8>(n)?);
            Ok(TrustsCount(v))
        }
    }

    #[test]
    #[should_panic(expected = "one allocation of")]
    fn a_decoder_that_allocates_from_a_count_fails_the_harness() {
        wire_conformance(&[TrustsCount(vec![1, 2, 3])]);
    }
}

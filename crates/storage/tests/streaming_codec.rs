//! Fuzz-style seeded regression suite for the streaming frame codec.
//!
//! The wire path feeds `read_frame` bytes straight off a socket, so a
//! malicious or truncated peer must never be able to provoke a panic or an
//! unbounded allocation — every mangled input has to come back as a
//! `FrameError`. Deterministic seeds stand in for a fuzzer: each failure
//! reproduces exactly.

use std::io::Cursor;

use cdb_prng::StdRng;
use cdb_storage::{read_frame, write_frame, CodecError, FrameError, DEFAULT_MAX_FRAME};

const FUZZ_MAX_FRAME: usize = 1 << 20;

fn random_payload(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..max_len);
    (0..len).map(|_| rng.gen::<u32>() as u8).collect()
}

#[test]
fn random_frame_streams_round_trip() {
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let frames: Vec<Vec<u8>> = (0..rng.gen_range(1..8usize))
            .map(|_| random_payload(&mut rng, 8_000))
            .collect();
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut r = Cursor::new(wire);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(
                &read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(),
                f,
                "seed {seed} frame {i}"
            );
        }
        assert!(
            matches!(
                read_frame(&mut r, DEFAULT_MAX_FRAME),
                Err(FrameError::Closed)
            ),
            "seed {seed}: stream end must report Closed"
        );
    }
}

#[test]
fn mangled_streams_never_panic_or_overallocate() {
    for seed in 0..96u64 {
        let mut rng = StdRng::seed_from_u64(0xC0DEC ^ seed);
        let mut wire = Vec::new();
        for f in (0..rng.gen_range(1..4usize)).map(|_| random_payload(&mut rng, 2_000)) {
            write_frame(&mut wire, &f).unwrap();
        }
        // Mangle: truncate, bit-flip, or splice random garbage (which can
        // forge a huge length prefix).
        match rng.gen_range(0..3u32) {
            0 => {
                let cut = rng.gen_range(0..wire.len());
                wire.truncate(cut);
            }
            1 => {
                let pos = rng.gen_range(0..wire.len());
                wire[pos] ^= 1 << rng.gen_range(0..8u32);
            }
            _ => {
                let pos = rng.gen_range(0..wire.len());
                let junk: Vec<u8> = (0..rng.gen_range(1..64usize))
                    .map(|_| rng.gen::<u32>() as u8)
                    .collect();
                wire.splice(pos..pos, junk);
            }
        }
        // Drain the stream: every frame must either decode or fail cleanly,
        // and the reader must terminate (Closed / Corrupt), never hang on a
        // forged length it cannot satisfy.
        let mut r = Cursor::new(&wire);
        loop {
            match read_frame(&mut r, FUZZ_MAX_FRAME) {
                Ok(payload) => assert!(payload.len() < FUZZ_MAX_FRAME, "seed {seed}"),
                Err(FrameError::Closed) => break,
                Err(FrameError::Corrupt(_)) => break,
                Err(FrameError::Io(e)) => panic!("seed {seed}: unexpected io error {e}"),
            }
        }
    }
}

#[test]
fn forged_length_prefix_cannot_allocate_past_limit() {
    // Adversarial prefixes: u32::MAX, just over the limit, exactly at the
    // limit but with no payload behind it.
    for forged in [u32::MAX, (FUZZ_MAX_FRAME as u32) + 1, FUZZ_MAX_FRAME as u32] {
        let mut wire = Vec::new();
        wire.extend_from_slice(&forged.to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let mut r = Cursor::new(&wire);
        match read_frame(&mut r, FUZZ_MAX_FRAME) {
            Err(FrameError::Corrupt(CodecError::Invalid(_)))
            | Err(FrameError::Corrupt(CodecError::Truncated)) => {}
            other => panic!("forged len {forged}: unexpected {other:?}"),
        }
    }
}

/// Counts the `write` calls that reach the underlying sink.
struct CountingWriter {
    bytes: Vec<u8>,
    writes: usize,
}

impl std::io::Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_frame_is_one_write() {
    let mut w = CountingWriter {
        bytes: Vec::new(),
        writes: 0,
    };
    for (i, len) in [0usize, 1, 1_032, 6_164, 200_000].into_iter().enumerate() {
        write_frame(&mut w, &vec![0xA5; len]).unwrap();
        assert_eq!(w.writes, i + 1, "frame of {len} bytes");
    }
    let mut r = Cursor::new(w.bytes);
    for len in [0usize, 1, 1_032, 6_164, 200_000] {
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(),
            vec![0xA5; len]
        );
    }
}

/// Hands out at most one byte per `read` call.
struct Trickle<'a>(&'a [u8]);

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match (self.0.split_first(), buf.first_mut()) {
            (Some((&b, rest)), Some(slot)) => {
                *slot = b;
                self.0 = rest;
                Ok(1)
            }
            _ => Ok(0),
        }
    }
}

#[test]
fn frames_read_alike_byte_by_byte_and_back_to_back() {
    let mut rng = StdRng::seed_from_u64(32);
    let first = random_payload(&mut rng, 8_000);
    let second = random_payload(&mut rng, 8_000);
    let mut wire = Vec::new();
    write_frame(&mut wire, &first).unwrap();
    let first_len = wire.len();
    write_frame(&mut wire, &second).unwrap();

    let mut trickle = Trickle(&wire[..first_len]);
    assert_eq!(read_frame(&mut trickle, DEFAULT_MAX_FRAME).unwrap(), first);
    assert!(trickle.0.is_empty());

    // Both frames in one buffer: the first read must stop at its own end,
    // leaving the second intact for the next reader of the stream.
    let mut r = Cursor::new(&wire);
    assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(), first);
    assert_eq!(r.position() as usize, first_len);
    assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(), second);
    assert!(matches!(
        read_frame(&mut r, DEFAULT_MAX_FRAME),
        Err(FrameError::Closed)
    ));
}

#[test]
fn eof_at_every_offset_is_closed_only_at_zero() {
    let mut wire = Vec::new();
    write_frame(&mut wire, b"a frame cut short").unwrap();
    for cut in 0..wire.len() {
        for bytewise in [false, true] {
            let got = if bytewise {
                read_frame(&mut Trickle(&wire[..cut]), DEFAULT_MAX_FRAME)
            } else {
                read_frame(&mut Cursor::new(&wire[..cut]), DEFAULT_MAX_FRAME)
            };
            match (cut, got) {
                (0, Err(FrameError::Closed)) => {}
                (1.., Err(FrameError::Corrupt(CodecError::Truncated))) => {}
                (_, other) => panic!("cut at {cut} (bytewise {bytewise}): {other:?}"),
            }
        }
    }
}

//! A deterministic in-process TCP chaos proxy for fault-injection tests.
//!
//! [`ChaosProxy`] sits between a client and a real server on loopback and
//! forwards traffic frame by frame — it parses the same
//! `[len][payload][crc]` framing the protocol uses, so faults land on
//! exact frame boundaries (or at an exact byte offset *inside* a chosen
//! frame, for torn-write tests) instead of wherever the kernel happened
//! to split a segment. Faults come from a [`ChaosPlan`], which is plain
//! data derived from a seed: the same plan against the same traffic
//! produces the same failure, every run.
//!
//! The proxy counts frames globally across both directions and all
//! connections through it, in arrival order. Under the protocol's
//! stop-and-wait discipline (one request, one response) that order is
//! deterministic, which is what makes "reset on the 7th frame" a
//! reproducible scenario rather than a race.
//!
//! This is test infrastructure, compiled into the library so integration
//! tests (the chaos case in `tests/net_roundtrip.rs`) can drive it; it
//! has no dependencies beyond std and never touches the engine.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cdb_prng::StdRng;

/// How often pump threads re-check the stop flag while idle.
const PUMP_POLL: Duration = Duration::from_millis(200);

/// A deterministic fault schedule. Frame indices count every frame the
/// proxy forwards, in either direction, starting at 0.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaosPlan {
    /// Added delay before forwarding each frame.
    pub latency: Option<Duration>,
    /// Forward only the first `bytes` bytes of frame number `frame`,
    /// then tear the connection down — a torn write on the wire.
    pub torn_frame: Option<(u64, usize)>,
    /// Reset both directions when frame number `n` arrives, before
    /// forwarding it.
    pub reset_at_frame: Option<u64>,
    /// From frame number `n` on, swallow traffic silently instead of
    /// forwarding — the peer sees a hang, not an error.
    pub blackhole_from_frame: Option<u64>,
}

impl ChaosPlan {
    /// No faults: the proxy forwards everything verbatim.
    pub fn clean() -> ChaosPlan {
        ChaosPlan::default()
    }

    /// A random-but-reproducible plan: picks one fault kind and an early
    /// frame index from the seed. The same seed always yields the same
    /// plan, so a failing chaos case replays exactly. Frame 0 (the
    /// greeting) is always spared, so connections establish and faults
    /// land on requests in flight.
    pub fn seeded(seed: u64) -> ChaosPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let frame = 1 + rng.next_u64() % 12;
        let mut plan = ChaosPlan {
            latency: Some(Duration::from_millis(1 + rng.next_u64() % 20)),
            ..ChaosPlan::default()
        };
        match rng.next_u64() % 3 {
            0 => plan.torn_frame = Some((frame, 1 + (rng.next_u64() % 7) as usize)),
            1 => plan.reset_at_frame = Some(frame),
            _ => plan.blackhole_from_frame = Some(frame),
        }
        plan
    }
}

/// A loopback TCP proxy that applies a [`ChaosPlan`] to traffic between
/// its listen address and a fixed upstream. Dropping the proxy stops the
/// accept thread and tears down every connection through it.
pub struct ChaosProxy {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds an ephemeral loopback port and forwards every connection to
    /// `upstream` under `plan`.
    ///
    /// # Errors
    /// [`std::io::Error`] when the loopback port cannot be bound.
    pub fn spawn(upstream: SocketAddr, plan: ChaosPlan) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let frames = Arc::new(AtomicU64::new(0));
        let accept_thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut pumps = Vec::new();
                while !stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((down, _)) => {
                            let Ok(up) = TcpStream::connect(upstream) else {
                                drop(down);
                                continue;
                            };
                            let _ = down.set_nodelay(true);
                            let _ = up.set_nodelay(true);
                            for (src, dst) in
                                [(down.try_clone(), up.try_clone()), (Ok(up), Ok(down))]
                            {
                                let (Ok(src), Ok(dst)) = (src, dst) else {
                                    continue;
                                };
                                let stop = Arc::clone(&stop);
                                let frames = Arc::clone(&frames);
                                pumps.push(std::thread::spawn(move || {
                                    pump(src, dst, plan, &frames, &stop);
                                }));
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => break,
                    }
                }
                for p in pumps {
                    let _ = p.join();
                }
            })
        };
        Ok(ChaosProxy {
            local_addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address clients should connect to instead of the upstream.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Reads exactly `buf.len()` bytes, tolerating read timeouts (used as a
/// stop-flag poll) and partial reads. Returns false on EOF, error, or
/// stop — the pump should wind down.
fn read_full(src: &mut TcpStream, buf: &mut [u8], stop: &AtomicBool) -> bool {
    let mut filled = 0;
    while filled < buf.len() {
        if stop.load(Ordering::SeqCst) {
            return false;
        }
        match src.read(&mut buf[filled..]) {
            Ok(0) => return false,
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Mid-frame stalls are tolerated indefinitely: the poll
                // timeout exists to observe the stop flag, not to give
                // the proxy opinions about peer latency.
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    true
}

/// Forwards frames from `src` to `dst` until EOF, error, stop, or a
/// scheduled fault fires. One pump per direction per connection; both
/// share the proxy-global frame counter.
fn pump(
    mut src: TcpStream,
    mut dst: TcpStream,
    plan: ChaosPlan,
    frames: &AtomicU64,
    stop: &AtomicBool,
) {
    let _ = src.set_read_timeout(Some(PUMP_POLL));
    loop {
        // One protocol frame = [len u32 LE][payload][crc32 LE].
        let mut len_bytes = [0u8; 4];
        if !read_full(&mut src, &mut len_bytes, stop) {
            break;
        }
        let len = u32::from_le_bytes(len_bytes) as usize;
        let mut frame = vec![0u8; 4 + len + 4];
        frame[..4].copy_from_slice(&len_bytes);
        if !read_full(&mut src, &mut frame[4..], stop) {
            break;
        }
        let idx = frames.fetch_add(1, Ordering::SeqCst);
        if let Some(d) = plan.latency {
            std::thread::sleep(d);
        }
        if plan.reset_at_frame == Some(idx) {
            break; // teardown below resets both directions
        }
        if let Some(from) = plan.blackhole_from_frame {
            if idx >= from {
                continue; // swallowed: the peer just waits
            }
        }
        if let Some((torn_idx, bytes)) = plan.torn_frame {
            if idx == torn_idx {
                let cut = bytes.min(frame.len());
                let _ = dst.write_all(&frame[..cut]);
                let _ = dst.flush();
                break; // the rest of the frame never arrives
            }
        }
        if dst.write_all(&frame).is_err() || dst.flush().is_err() {
            break;
        }
    }
    let _ = src.shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
}

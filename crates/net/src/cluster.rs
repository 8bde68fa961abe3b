//! A resilient multi-node client: writes go to the primary, reads are
//! load-balanced across followers, failures are retried with seeded
//! jittered backoff, and read-your-writes staleness is bounded.
//!
//! [`ClusterClient`] holds the member list and one lazy connection per
//! member. It discovers the primary by probing members' `stats` (each
//! replica names its primary, so one probe usually resolves the whole
//! topology) and follows [`NetError::NotPrimary`] leader hints on
//! redirect — including to addresses it has never heard of, which it
//! adds to the member list.
//!
//! **Retry discipline.** Reads are idempotent: a retryable failure
//! ([`NetError::is_retryable`]) moves the read to a different member
//! after a backoff, up to the configured attempt budget, then falls back
//! to the primary. Writes are not: a write is retried only when it
//! provably never reached an engine — a connection that could not be
//! established, or a [`NetError::NotPrimary`] redirect (the replica
//! rejected it before the lane). A transport error *after* a write was
//! sent is returned to the caller, who knows whether the operation is
//! safe to repeat.
//!
//! **Read-your-writes, always.** Every response carries the LSN of the
//! state it reflects; the client remembers the durable LSN of its last
//! acknowledged write. A follower answer reflecting an older LSN is
//! discarded: retried on another member while the lag is within
//! `staleness_bound`, or served by the primary (which is never stale) once
//! it exceeds it. The check has no off switch.

use std::time::{Duration, Instant};

use cdb_prng::StdRng;

use crate::api::{Api, Backend, StatsReply};
use crate::client::Client;
use crate::proto::{NetError, ReplicationInfo, Request, Response};

/// Tunables for [`ClusterClient`]. The defaults suit tests and
/// interactive use; long-haul deployments should raise the backoff cap.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Seeds the backoff jitter and nothing else — two clients with
    /// different seeds desynchronize their retry storms.
    pub seed: u64,
    /// Per-request deadline in milliseconds (0: none), enforced
    /// server-side and stamped on every request.
    pub deadline_ms: u32,
    /// Read attempts across distinct members before falling back to the
    /// primary.
    pub read_retries: u32,
    /// First retry delay; doubles per attempt.
    pub backoff_base: Duration,
    /// Retry delay ceiling.
    pub backoff_cap: Duration,
    /// A follower lagging more than this many LSNs behind this client's
    /// last acknowledged write stops being retried — the primary serves
    /// the read directly.
    pub staleness_bound: u64,
    /// Socket I/O timeout applied to every member connection (None: the
    /// client default). Chaos tests shorten this so blackholed links
    /// resolve to [`NetError::Timeout`] quickly.
    pub io_timeout: Option<Duration>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            seed: 0xC1D8,
            deadline_ms: 0,
            read_retries: 3,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(1),
            staleness_bound: 0,
            io_timeout: None,
        }
    }
}

/// Bound on leader-hint hops per write: a flapping or circular topology
/// surfaces as an error instead of a spin.
const MAX_WRITE_HOPS: u32 = 4;

struct Member {
    addr: String,
    conn: Option<Client>,
}

/// A replicated deployment as a [`Backend`]. See the module docs for the
/// routing and retry rules.
pub struct Cluster {
    members: Vec<Member>,
    primary: Option<usize>,
    cursor: usize,
    rng: StdRng,
    last_write_lsn: u64,
    config: ClusterConfig,
}

/// The typed API over a replicated deployment.
pub type ClusterClient = Api<Cluster>;

impl ClusterClient {
    /// Builds a client over the given member addresses. Connections are
    /// lazy — nothing is dialed until the first request — so a cluster
    /// client can be constructed while some members are down.
    ///
    /// # Errors
    /// [`NetError::Malformed`] when the member list is empty.
    pub fn new(
        members: impl IntoIterator<Item = impl Into<String>>,
        config: ClusterConfig,
    ) -> Result<ClusterClient, NetError> {
        let members: Vec<Member> = members
            .into_iter()
            .map(|a| Member {
                addr: a.into(),
                conn: None,
            })
            .collect();
        if members.is_empty() {
            return Err(NetError::Malformed(
                "a cluster client needs at least one member address".into(),
            ));
        }
        Ok(Api(Cluster {
            members,
            primary: None,
            cursor: 0,
            rng: StdRng::seed_from_u64(config.seed),
            last_write_lsn: 0,
            config,
        }))
    }
}

impl Cluster {
    /// The member addresses currently known (grows when leader hints
    /// name new nodes).
    pub fn members(&self) -> Vec<String> {
        self.members.iter().map(|m| m.addr.clone()).collect()
    }

    /// The durable LSN of this client's last acknowledged write — the
    /// watermark read-your-writes enforces.
    pub fn last_write_lsn(&self) -> u64 {
        self.last_write_lsn
    }

    /// Routes a mutation to the primary, following leader hints and
    /// re-probing the member list on connection failures. See the module
    /// docs for what is — and deliberately is not — retried. The retry
    /// loop's total wall clock is capped by the configured per-request
    /// deadline: once it expires, the attempt budget no longer buys
    /// another round and [`NetError::Timeout`] surfaces instead.
    ///
    /// # Errors
    /// Any [`NetError`] from the winning attempt, or the error that
    /// exhausted the hop budget.
    pub fn write(&mut self, request: Request) -> Result<Response, NetError> {
        let deadline = self.request_deadline();
        let mut hops = 0u32;
        loop {
            let idx = match self.primary {
                Some(i) => i,
                None => self.reprobe()?,
            };
            let sent = match self.conn(idx) {
                Ok(c) => c.call(request.clone()),
                Err(e) => {
                    // Never dialed: provably not applied, safe to retry.
                    self.primary = None;
                    hops += 1;
                    if hops > MAX_WRITE_HOPS {
                        return Err(e);
                    }
                    self.backoff(hops, deadline)?;
                    continue;
                }
            };
            match sent {
                Ok(resp) => {
                    if let Some(c) = self.members[idx].conn.as_ref() {
                        self.last_write_lsn = self.last_write_lsn.max(c.last_seen_lsn());
                    }
                    return Ok(resp);
                }
                Err(NetError::NotPrimary { leader_hint }) => {
                    // Rejected before the engine lane: retry at the leader.
                    self.primary = leader_hint.map(|hint| self.member_index(&hint));
                    hops += 1;
                    if hops > MAX_WRITE_HOPS {
                        return Err(NetError::NotPrimary { leader_hint: None });
                    }
                    if expired(deadline) {
                        return Err(NetError::Timeout);
                    }
                    continue;
                }
                Err(e) => {
                    if matches!(e, NetError::Transport(_) | NetError::Timeout) {
                        // The request may or may not have been applied —
                        // drop the connection and our primary belief, but
                        // surface the ambiguity instead of re-sending.
                        self.members[idx].conn = None;
                        self.primary = None;
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Serves a read from a follower, load-balanced round-robin, with
    /// retryable failures moved to a different member after a backoff.
    /// Falls back to the primary when followers are exhausted or too stale
    /// for read-your-writes. Like [`write`](Self::write), the
    /// configured per-request deadline caps the loop's total wall clock,
    /// not just its attempt count.
    ///
    /// # Errors
    /// The first non-retryable [`NetError`], or the primary fallback's
    /// error once follower attempts are spent.
    pub fn read(&mut self, request: Request) -> Result<Response, NetError> {
        let deadline = self.request_deadline();
        let candidates: Vec<usize> = {
            let followers: Vec<usize> = (0..self.members.len())
                .filter(|i| Some(*i) != self.primary)
                .collect();
            if followers.is_empty() {
                (0..self.members.len()).collect()
            } else {
                followers
            }
        };
        let attempts = self.config.read_retries.max(1);
        for attempt in 1..=attempts {
            let idx = candidates[self.cursor % candidates.len()];
            self.cursor = self.cursor.wrapping_add(1);
            let outcome = match self.conn(idx) {
                Ok(c) => c.call(request.clone()),
                Err(e) => Err(e),
            };
            let seen = self.members[idx]
                .conn
                .as_ref()
                .map_or(0, |c| c.last_seen_lsn());
            if outcome.is_err() {
                // A timed-out or broken session may deliver a late
                // response and desynchronize request ids — never reuse it.
                self.members[idx].conn = None;
            }
            if seen < self.last_write_lsn {
                // This follower has not caught up to our own write — even
                // an error (e.g. "no such tuple") could be from before it.
                if self.last_write_lsn - seen > self.config.staleness_bound {
                    return self.read_at_primary(request);
                }
                self.backoff(attempt, deadline)?;
                continue;
            }
            match outcome {
                Ok(resp) => return Ok(resp),
                Err(e) if e.is_retryable() => {
                    self.backoff(attempt, deadline)?;
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        if expired(deadline) {
            return Err(NetError::Timeout);
        }
        self.read_at_primary(request)
    }

    /// Routes a read to the primary — never stale, so this is both the
    /// read-your-writes escape hatch and the last-resort fallback.
    fn read_at_primary(&mut self, request: Request) -> Result<Response, NetError> {
        let idx = match self.primary {
            Some(i) => i,
            None => self.reprobe()?,
        };
        match self.conn(idx) {
            Ok(c) => c.call(request),
            Err(e) => {
                self.primary = None;
                Err(e)
            }
        }
    }

    /// Finds the primary by probing members' `stats`: a standalone or
    /// primary node answers for itself; a replica names its primary,
    /// which is probed next (and remembered, even if previously
    /// unknown).
    ///
    /// # Errors
    /// The last probe error when no member resolves to a primary.
    fn reprobe(&mut self) -> Result<usize, NetError> {
        let mut last_err = NetError::Transport("no cluster member is reachable".into());
        for start in 0..self.members.len() {
            let mut idx = start;
            // Follow at most one hint chain per starting member.
            for _ in 0..=MAX_WRITE_HOPS {
                let probe = match self.conn(idx) {
                    Ok(c) => c.stats(),
                    Err(e) => {
                        last_err = e;
                        break;
                    }
                };
                match probe {
                    Ok(reply) => match reply.replication {
                        Some(ReplicationInfo::Replica { primary, .. }) => {
                            idx = self.member_index(&primary);
                        }
                        _ => {
                            // Primary role, or a standalone server: writes
                            // go here either way.
                            self.primary = Some(idx);
                            return Ok(idx);
                        }
                    },
                    Err(e) => {
                        self.members[idx].conn = None;
                        last_err = e;
                        break;
                    }
                }
            }
        }
        Err(last_err)
    }

    /// The index of `addr` in the member list, adding it when unknown.
    fn member_index(&mut self, addr: &str) -> usize {
        if let Some(i) = self.members.iter().position(|m| m.addr == addr) {
            return i;
        }
        self.members.push(Member {
            addr: addr.to_string(),
            conn: None,
        });
        self.members.len() - 1
    }

    /// The (possibly freshly dialed) connection to member `idx`.
    fn conn(&mut self, idx: usize) -> Result<&mut Client, NetError> {
        if self.members[idx].conn.is_none() {
            let mut c = Client::connect(&self.members[idx].addr)?;
            c.set_deadline_ms(self.config.deadline_ms);
            if let Some(t) = self.config.io_timeout {
                c.set_io_timeout(Some(t))?;
            }
            self.members[idx].conn = Some(c);
        }
        Ok(self.members[idx].conn.as_mut().expect("just installed"))
    }

    /// The wall-clock instant the current request must conclude by, from
    /// the configured per-request deadline (`None`: unlimited).
    fn request_deadline(&self) -> Option<Instant> {
        (self.config.deadline_ms > 0)
            .then(|| Instant::now() + Duration::from_millis(u64::from(self.config.deadline_ms)))
    }

    /// Exponential backoff with 0.5x–1.5x jitter, capped — by the
    /// configured ceiling *and* by the request deadline: the sleep never
    /// overshoots the deadline, and a deadline already spent refuses
    /// another round with [`NetError::Timeout`] instead of sleeping at
    /// all.
    fn backoff(&mut self, attempt: u32, deadline: Option<Instant>) -> Result<(), NetError> {
        let base = self
            .config
            .backoff_base
            .saturating_mul(1u32 << attempt.min(6).saturating_sub(1))
            .min(self.config.backoff_cap);
        let mut delay = base.mul_f64(0.5 + self.rng.next_f64());
        if let Some(d) = deadline {
            let remaining = d.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(NetError::Timeout);
            }
            delay = delay.min(remaining);
        }
        std::thread::sleep(delay);
        if expired(deadline) {
            return Err(NetError::Timeout);
        }
        Ok(())
    }

    /// `stats` from *every* known member, keyed by address — the fan-in
    /// behind the shell's `cluster stats` table. One sweep, one row per
    /// member; an unreachable member contributes its error instead of
    /// poisoning the sweep.
    pub fn member_stats(&mut self) -> Vec<(String, Result<StatsReply, NetError>)> {
        (0..self.members.len())
            .map(|idx| {
                let addr = self.members[idx].addr.clone();
                let reply = match self.conn(idx) {
                    Ok(c) => c.stats(),
                    Err(e) => Err(e),
                };
                if reply.is_err() {
                    // Same hygiene as read(): a failed session may deliver
                    // a late response and desynchronize request ids.
                    self.members[idx].conn = None;
                }
                (addr, reply)
            })
            .collect()
    }
}

impl Backend for Cluster {
    /// Mutations go to the primary ([`Cluster::write`]), everything else to
    /// the read rotation ([`Cluster::read`]). `Shutdown` is refused: it
    /// would stop whichever member the rotation happened to pick.
    fn call(&mut self, request: Request) -> Result<Response, NetError> {
        match request {
            Request::Shutdown | Request::Subscribe { .. } => Err(NetError::Malformed(format!(
                "'{}' over a cluster session is ambiguous — connect to one member",
                request.op_name()
            ))),
            r if r.is_write() => self.write(r),
            r => self.read(r),
        }
    }
}

/// Whether a request deadline has passed (`false` when there is none).
fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

//! Worker and root agents (paper §3.2, Fig. 2).
//!
//! Every training machine runs a *worker agent* that publishes its health
//! status into the distributed KV store under a TTL lease and keeps it
//! alive with heartbeats. One machine additionally runs the *root agent*,
//! elected through the store's leader election; it periodically scans the
//! health keys, declares machines whose keys have lapsed as failed, and
//! (in the harness) drives replacement and checkpoint retrieval. Workers
//! symmetrically read the root's election key; when it lapses, an alive
//! worker is promoted.
//!
//! A health value is `rank:machine:beat`, three decimal integers. That
//! format is what `format!("{}:{}:{}")` writes and `str::parse` reads; the
//! agents keep it byte for byte but skip `fmt` and `str::split` on the
//! steady-state path: a worker builds its key once, re-encodes its value
//! into a buffer it owns, and the root's scan decodes each value in one
//! pass over its bytes into a [`ScanReport`] the caller reuses.

use crate::config::GeminiConfig;
use gemini_kvstore::{Campaign, Election, KvError, KvStore, LeaseId, Seen};
use gemini_sim::SimTime;

/// Key prefix for worker health statuses.
pub const HEALTH_PREFIX: &str = "gemini/health/";
/// Election key for the root agent.
pub const ROOT_ELECTION_KEY: &str = "gemini/root";

/// The health value a worker publishes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HealthStatus {
    /// The worker's rank.
    pub rank: usize,
    /// The physical machine identity currently serving that rank.
    pub machine: u64,
    /// Heartbeat sequence number.
    pub beat: u64,
}

impl HealthStatus {
    /// Writes `rank:machine:beat` into `out`, replacing its contents.
    fn encode_into(&self, out: &mut String) {
        out.clear();
        push_decimal(out, self.rank as u64);
        out.push(':');
        push_decimal(out, self.machine);
        out.push(':');
        push_decimal(out, self.beat);
    }

    /// Reads `rank:machine:beat`. Each field is an optional `+` and one or
    /// more ASCII digits that fit the field's type — what `str::parse`
    /// accepts. Strict: exactly three fields. Trailing garbage
    /// ("1:2:3:junk") means a corrupt or foreign writer — reject rather
    /// than silently truncate.
    fn decode(s: &str) -> Option<HealthStatus> {
        let mut bytes = s.as_bytes();
        let rank = usize::try_from(take_field(&mut bytes, true)?).ok()?;
        let machine = take_field(&mut bytes, true)?;
        let beat = take_field(&mut bytes, false)?;
        Some(HealthStatus {
            rank,
            machine,
            beat,
        })
    }
}

/// Appends `v` in decimal.
fn push_decimal(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20]; // u64::MAX has 20 digits
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

/// Parses one `u64` field off the front of `bytes` in a single pass and
/// consumes it with its terminator: a `:` when `more` fields follow, the
/// end of input otherwise.
fn take_field(bytes: &mut &[u8], more: bool) -> Option<u64> {
    let mut rest = bytes.strip_prefix(b"+").unwrap_or(*bytes);
    let mut value = 0u64;
    let mut digits = 0usize;
    while let Some((&b, tail)) = rest.split_first() {
        if b == b':' {
            break;
        }
        if !b.is_ascii_digit() {
            return None;
        }
        value = value.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
        digits += 1;
        rest = tail;
    }
    if digits == 0 {
        return None;
    }
    match (rest.split_first(), more) {
        (Some((&b':', tail)), true) => *bytes = tail,
        (None, false) => {}
        _ => return None,
    }
    Some(value)
}

/// The per-machine worker agent.
#[derive(Clone, Debug)]
pub struct WorkerAgent {
    rank: usize,
    machine: u64,
    lease: Option<LeaseId>,
    beat: u64,
    config: GeminiConfig,
    /// `HEALTH_PREFIX` + rank, built once.
    key: String,
    /// The encoded status, rewritten in place on every publish.
    value: String,
}

impl WorkerAgent {
    /// Creates the agent for `rank` on physical machine `machine`.
    pub fn new(rank: usize, machine: u64, config: GeminiConfig) -> Self {
        let mut key = String::from(HEALTH_PREFIX);
        push_decimal(&mut key, rank as u64);
        WorkerAgent {
            rank,
            machine,
            lease: None,
            beat: 0,
            config,
            key,
            value: String::new(),
        }
    }

    /// The rank this agent serves.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// This worker's health key.
    pub fn health_key(&self) -> &str {
        &self.key
    }

    /// Registers the health key under a fresh TTL lease. The heartbeat
    /// sequence number is *not* reset: `beat` is monotonic for the lifetime
    /// of the agent, so observers can distinguish a re-registered wedged
    /// worker (beat continues) from a genuinely fresh one (beat restarts
    /// at 0 only because the agent itself is new).
    pub fn register(&mut self, kv: &mut KvStore, now: SimTime) -> Result<(), KvError> {
        let lease = kv.grant_lease(now, self.config.health_ttl);
        self.lease = Some(lease);
        self.publish(kv, now, lease)
    }

    /// One heartbeat: refresh the lease and bump the status. If the lease
    /// already lapsed (the process was wedged past the TTL), re-register.
    pub fn heartbeat(&mut self, kv: &mut KvStore, now: SimTime) -> Result<(), KvError> {
        // One lease op: `keep_alive` retires overdue leases at `now` before
        // refreshing, so it fails exactly when a liveness probe would.
        match self.lease.map(|lease| (lease, kv.keep_alive(now, lease))) {
            Some((lease, Ok(()))) => {
                self.beat += 1;
                self.publish(kv, now, lease)?;
                kv.telemetry().counter_add("kv.heartbeats", 1);
                Ok(())
            }
            None | Some((_, Err(KvError::LeaseNotFound(_)))) => {
                // Wedged past the TTL: the lease is gone, so re-register —
                // but this is still a heartbeat, so the monotonic sequence
                // advances rather than resetting to zero.
                self.beat += 1;
                self.register(kv, now)
            }
            Some((_, Err(e))) => Err(e),
        }
    }

    /// Puts the current status at the health key under `lease`.
    fn publish(&mut self, kv: &mut KvStore, now: SimTime, lease: LeaseId) -> Result<(), KvError> {
        HealthStatus {
            rank: self.rank,
            machine: self.machine,
            beat: self.beat,
        }
        .encode_into(&mut self.value);
        kv.put(now, &self.key, &self.value, Some(lease))
    }

    /// Tears down this worker's presence (clean shutdown).
    pub fn deregister(&mut self, kv: &mut KvStore, now: SimTime) -> Result<(), KvError> {
        if let Some(lease) = self.lease.take() {
            kv.revoke(now, lease)?;
        }
        Ok(())
    }

    /// Whether the root agent is currently alive, from this worker's view
    /// (workers "periodically check the root machine's health status").
    pub fn root_alive(&self, kv: &mut KvStore, now: SimTime) -> bool {
        Election::new(ROOT_ELECTION_KEY, self.config.health_ttl)
            .leader(kv, now)
            .is_some()
    }
}

/// What the root agent's scan reports. The caller owns one report and
/// hands it to every [`RootAgent::scan`], which clears and refills it
/// while keeping its buffers, so a steady-state scan allocates nothing.
#[derive(Clone, Debug, Default, Eq)]
pub struct ScanReport {
    /// Ranks in `0..n` whose health key is present.
    pub alive: Vec<usize>,
    /// Ranks expected but missing (their lease expired → failed).
    pub missing: Vec<usize>,
    /// Ranks `>= n` found under the health prefix: stale keys from a
    /// since-shrunk deployment or a foreign writer. Never treated as
    /// alive; surfaced so operators can spot the pollution.
    pub out_of_range: Vec<usize>,
    /// The scan's presence bitmap over `0..n`: scratch, not part of the
    /// report's value.
    present: Vec<bool>,
}

impl PartialEq for ScanReport {
    fn eq(&self, other: &Self) -> bool {
        (&self.alive, &self.missing, &self.out_of_range)
            == (&other.alive, &other.missing, &other.out_of_range)
    }
}

/// The root agent.
#[derive(Clone, Debug)]
pub struct RootAgent {
    identity: String,
    election: Election,
    lease: Option<LeaseId>,
}

impl RootAgent {
    /// Creates a root-agent candidate with the given identity string.
    pub fn new(identity: &str, config: &GeminiConfig) -> Self {
        RootAgent {
            identity: identity.to_string(),
            election: Election::new(ROOT_ELECTION_KEY, config.health_ttl),
            lease: None,
        }
    }

    /// The candidate identity.
    pub fn identity(&self) -> &str {
        &self.identity
    }

    /// Campaigns for (or renews) root leadership. Returns whether this
    /// agent currently leads.
    pub fn campaign(&mut self, kv: &mut KvStore, now: SimTime) -> Result<bool, KvError> {
        let seen = self.election.seen_by(kv, now, &self.identity);
        self.campaign_seen(kv, now, seen)
    }

    /// [`RootAgent::campaign`] against a read of the election key already
    /// taken at `now`. A follower that holds no lease handle has nothing
    /// to renew, claim or revoke, so its campaign touches neither the
    /// store nor the agent.
    fn campaign_seen(
        &mut self,
        kv: &mut KvStore,
        now: SimTime,
        seen: Seen,
    ) -> Result<bool, KvError> {
        match self
            .election
            .campaign_seen(kv, now, &self.identity, self.lease, seen)?
        {
            Campaign::Leader(lease) => {
                self.lease = Some(lease);
                Ok(true)
            }
            Campaign::Follower => {
                // Losing the campaign while still holding a live lease
                // (e.g. the election key was lost in a KV blip but our
                // lease survived) used to just drop the handle, stranding
                // the lease in the store until its TTL. Revoke it instead
                // so the live-lease population stays bounded by the number
                // of current leaders.
                if let Some(lease) = self.lease.take() {
                    if kv.lease_alive(now, lease) {
                        let _ = kv.revoke(now, lease);
                        kv.telemetry().counter_add("kv.election_lease_revoked", 1);
                    }
                }
                Ok(false)
            }
        }
    }

    /// One coordination round: reads the election key once, then every
    /// candidate for which `eligible(rank)` holds campaigns against that
    /// read, in rank order, as if each had read the key itself. A claim
    /// updates the read, so later candidates find the key held. Returns
    /// the rank holding the key after the round: `None` when it is vacant
    /// or held by an identity outside `roots`.
    ///
    /// Only the holder (renewing), followers with a lease handle (which
    /// revoke it) and candidates facing a vacant key do any work; as in
    /// etcd, the other followers wait on the election instead of reading
    /// the key again.
    pub fn elect(
        roots: &mut [RootAgent],
        kv: &mut KvStore,
        now: SimTime,
        eligible: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let mut held = roots.first()?.election.holder(kv, now).map(|v| {
            let rank = roots.iter().position(|r| r.identity == v.value);
            (rank, v.lease)
        });
        for (rank, root) in roots.iter_mut().enumerate() {
            if !eligible(rank) {
                continue;
            }
            let seen = match held {
                None => Seen::Vacant,
                Some((Some(holder), lease)) if holder == rank => Seen::Mine(lease),
                Some(_) => Seen::Theirs,
            };
            if let Ok(true) = root.campaign_seen(kv, now, seen) {
                held = Some((Some(rank), root.lease));
            }
        }
        held.and_then(|(rank, _)| rank)
    }

    /// The current leader's identity, if any (one election-key read,
    /// borrowed from the store).
    pub fn leader<'kv>(&self, kv: &'kv mut KvStore, now: SimTime) -> Option<&'kv str> {
        self.election.leader(kv, now)
    }

    /// Scans worker health for ranks `0..n` into `report`, reporting who
    /// is missing. "The root agent periodically checks the health statuses
    /// in the distributed key-value store" (§3.2).
    pub fn scan(&self, kv: &mut KvStore, now: SimTime, n: usize, report: &mut ScanReport) {
        let ScanReport {
            alive,
            missing,
            out_of_range,
            present,
        } = report;
        alive.clear();
        missing.clear();
        out_of_range.clear();
        present.clear();
        present.resize(n, false);
        // The non-cloning visitor keeps the scan allocation-free per key;
        // a flat presence bitmap keeps the sweep O(n) at fleet scale and
        // yields both rank lists in order without a sort.
        kv.for_each_in_range(now, HEALTH_PREFIX, |_, v| {
            if let Some(h) = HealthStatus::decode(&v.value) {
                // Only ranks in the expected set count as alive; a stale
                // or foreign key must not inflate the membership view.
                if h.rank < n {
                    present[h.rank] = true;
                } else {
                    out_of_range.push(h.rank);
                }
            }
        });
        for (rank, &here) in present.iter().enumerate() {
            if here {
                alive.push(rank);
            } else {
                missing.push(rank);
            }
        }
        out_of_range.sort_unstable();
        out_of_range.dedup();
        kv.telemetry().counter_add("kv.health_scans", 1);
        if !out_of_range.is_empty() {
            kv.telemetry()
                .counter_add("kv.scan_out_of_range", out_of_range.len() as u64);
        }
        let alive_count = alive.len();
        kv.telemetry()
            .gauge_set("kv.alive_workers", || alive_count as f64);
    }

    /// Steps down voluntarily.
    pub fn resign(&mut self, kv: &mut KvStore, now: SimTime) -> Result<(), KvError> {
        if let Some(lease) = self.lease.take() {
            self.election.resign(kv, now, lease)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn cfg() -> GeminiConfig {
        GeminiConfig::default() // heartbeat 5 s, TTL 15 s
    }

    #[test]
    fn workers_register_and_root_sees_them() {
        let mut kv = KvStore::new();
        let mut workers: Vec<WorkerAgent> = (0..4)
            .map(|r| WorkerAgent::new(r, r as u64, cfg()))
            .collect();
        for w in &mut workers {
            w.register(&mut kv, t(0)).unwrap();
        }
        let root = RootAgent::new("machine-0", &cfg());
        let mut report = ScanReport::default();
        root.scan(&mut kv, t(1), 4, &mut report);
        assert_eq!(report.alive, vec![0, 1, 2, 3]);
        assert!(report.missing.is_empty());
    }

    #[test]
    fn dead_worker_detected_within_ttl() {
        // The paper measures 15 s detection latency (Fig. 14); our TTL is
        // exactly that bound.
        let mut kv = KvStore::new();
        let mut workers: Vec<WorkerAgent> = (0..4)
            .map(|r| WorkerAgent::new(r, r as u64, cfg()))
            .collect();
        for w in &mut workers {
            w.register(&mut kv, t(0)).unwrap();
        }
        let root = RootAgent::new("machine-0", &cfg());
        // Everyone heartbeats except rank 2, which dies at t = 20. The root
        // scans every second; record when it first sees rank 2 missing.
        let mut first_missing = None;
        let mut report = ScanReport::default();
        for s in 1..60 {
            if s % 5 == 0 {
                for w in workers.iter_mut() {
                    if w.rank() == 2 && s >= 20 {
                        continue;
                    }
                    w.heartbeat(&mut kv, t(s)).unwrap();
                }
            }
            root.scan(&mut kv, t(s), 4, &mut report);
            if !report.missing.is_empty() && first_missing.is_none() {
                assert_eq!(report.missing, vec![2]);
                assert_eq!(report.alive, vec![0, 1, 3]);
                first_missing = Some(s);
            }
        }
        // Rank 2's last beat was t=15, so its key lapses at t=30.
        assert_eq!(first_missing, Some(30));
    }

    #[test]
    fn detection_latency_bounded_by_ttl() {
        let mut kv = KvStore::new();
        let mut w = WorkerAgent::new(0, 0, cfg());
        w.register(&mut kv, t(0)).unwrap();
        let die_at = 7u64; // last refresh at t=5
        for s in (5..die_at).step_by(5) {
            w.heartbeat(&mut kv, t(s)).unwrap();
        }
        let root = RootAgent::new("r", &cfg());
        // Key lapses 15 s after the last refresh (t=5): at t=20.
        let mut detected_at = None;
        let mut report = ScanReport::default();
        for s in die_at..60 {
            root.scan(&mut kv, t(s), 1, &mut report);
            if !report.missing.is_empty() {
                detected_at = Some(s);
                break;
            }
        }
        let latency = detected_at.unwrap() - 5;
        assert_eq!(latency, 15, "detection latency = {latency}s");
    }

    #[test]
    fn root_failover_promotes_a_worker() {
        let mut kv = KvStore::new();
        let mut root0 = RootAgent::new("machine-0", &cfg());
        let mut root3 = RootAgent::new("machine-3", &cfg());
        assert!(root0.campaign(&mut kv, t(0)).unwrap());
        assert!(!root3.campaign(&mut kv, t(1)).unwrap());
        // Root 0 renews until t=20, then dies.
        for s in (5..=20).step_by(5) {
            assert!(root0.campaign(&mut kv, t(s)).unwrap());
        }
        // Workers still see it before the TTL runs out...
        let w = WorkerAgent::new(3, 3, cfg());
        assert!(w.root_alive(&mut kv, t(30)));
        // ...and notice it gone at t=35 (TTL 15 after last renewal).
        assert!(!w.root_alive(&mut kv, t(35)));
        assert!(root3.campaign(&mut kv, t(36)).unwrap());
        assert_eq!(root3.leader(&mut kv, t(36)), Some("machine-3"));
    }

    #[test]
    fn wedged_worker_reregisters() {
        let mut kv = KvStore::new();
        let mut w = WorkerAgent::new(1, 7, cfg());
        w.register(&mut kv, t(0)).unwrap();
        // The process stalls 40 s (lease long gone), then resumes.
        w.heartbeat(&mut kv, t(40)).unwrap();
        let root = RootAgent::new("r", &cfg());
        let mut report = ScanReport::default();
        root.scan(&mut kv, t(41), 2, &mut report);
        assert!(report.alive.contains(&1));
    }

    #[test]
    fn deregister_removes_key_immediately() {
        let mut kv = KvStore::new();
        let mut w = WorkerAgent::new(0, 0, cfg());
        w.register(&mut kv, t(0)).unwrap();
        w.deregister(&mut kv, t(1)).unwrap();
        let root = RootAgent::new("r", &cfg());
        let mut report = ScanReport::default();
        root.scan(&mut kv, t(1), 1, &mut report);
        assert_eq!(report.missing, vec![0]);
    }

    /// The `format!` encoder the byte-level codec replaced, kept as the
    /// reference it must match byte for byte.
    fn reference_encode(h: &HealthStatus) -> String {
        format!("{}:{}:{}", h.rank, h.machine, h.beat)
    }

    /// The `split` + `parse` decoder the byte-level codec replaced.
    fn reference_decode(s: &str) -> Option<HealthStatus> {
        let mut it = s.split(':');
        let status = HealthStatus {
            rank: it.next()?.parse().ok()?,
            machine: it.next()?.parse().ok()?,
            beat: it.next()?.parse().ok()?,
        };
        if it.next().is_some() {
            return None;
        }
        Some(status)
    }

    #[test]
    fn codec_matches_the_format_and_parse_reference() {
        let max = u64::MAX;
        let mut corpus: Vec<String> = [
            "+7:1:2",
            ":1:2",
            "1::2",
            "1:2:",
            "18446744073709551616:1:2",
            "1:18446744073709551616:2",
            "1:2:18446744073709551616",
            "-1:2:3",
            "1:-2:3",
            " 1:2:3",
            "1:2:3 ",
            "\u{0661}:2:3",
            "1:2:\u{ff13}",
            "1:2:3:4",
            "+:1:2",
            "++1:2:3",
            "+-1:2:3",
            "-0:0:0",
            "007:00:0",
            "",
            ":",
            "::",
            ":::",
            "garbage",
        ]
        .map(String::from)
        .to_vec();
        corpus.push(format!("{max}:{max}:{max}"));
        corpus.push(format!("+{max}:+{max}:+{max}"));
        let mut rng = gemini_sim::DetRng::new(0x6865_616c_7468);
        // Strings of 1-4 fields of 1-2 tokens each hit the accept path and
        // every reject branch far more often than raw bytes would.
        const TOKENS: &[&str] = &[
            "0",
            "1",
            "9",
            "42",
            "+",
            "-",
            " ",
            "x",
            "\u{0661}",
            "\u{e9}",
            "18446744073709551615",
            "18446744073709551616",
        ];
        for _ in 0..20_000 {
            let width = [1, 2, 3, 3, 3, 4][rng.uniform_u64(0, 6) as usize];
            let fields: Vec<String> = (0..width)
                .map(|_| {
                    (0..rng.uniform_u64(1, 3))
                        .map(|_| TOKENS[rng.uniform_u64(0, TOKENS.len() as u64) as usize])
                        .collect()
                })
                .collect();
            corpus.push(fields.join(":"));
        }
        for _ in 0..5_000 {
            let bytes: Vec<u8> = (0..rng.uniform_u64(0, 16))
                .map(|_| rng.uniform_u64(0, 256) as u8)
                .collect();
            corpus.push(String::from_utf8_lossy(&bytes).into_owned());
        }
        let mut accepted = 0;
        for s in &corpus {
            let got = HealthStatus::decode(s);
            assert_eq!(got, reference_decode(s), "decode({s:?})");
            accepted += usize::from(got.is_some());
        }
        assert!(
            accepted > 100,
            "only {accepted} strings reach the accept path"
        );

        let mut values = vec![
            0,
            1,
            9,
            10,
            99,
            100,
            u64::from(u32::MAX),
            max / 10,
            max - 1,
            max,
        ];
        for _ in 0..64 {
            values.push(rng.uniform_u64(0, max) >> rng.uniform_u64(0, 64));
        }
        let mut buf = String::from("stale contents");
        for &rank in &values {
            for &machine in &values {
                for &beat in &values[..12] {
                    let h = HealthStatus {
                        rank: rank as usize,
                        machine,
                        beat,
                    };
                    h.encode_into(&mut buf);
                    assert_eq!(buf, reference_encode(&h));
                    assert_eq!(HealthStatus::decode(&buf), Some(h));
                }
            }
        }
    }

    #[test]
    fn steady_beats_grant_exactly_one_lease() {
        // `heartbeat` refreshes through `keep_alive` alone; a live lease
        // must never be replaced by a fresh grant.
        let sink = gemini_telemetry::TelemetrySink::enabled();
        let mut kv = KvStore::new().with_telemetry(sink.clone());
        let mut w = WorkerAgent::new(3, 11, cfg());
        w.register(&mut kv, t(0)).unwrap();
        for s in 1..=100 {
            w.heartbeat(&mut kv, t(5 * s)).unwrap();
        }
        let counter = |name| {
            sink.metrics_snapshot()
                .counter(gemini_telemetry::Key::plain(name))
        };
        assert_eq!(counter("kv.leases_granted"), 1);
        assert_eq!(counter("kv.leases_expired"), 0);
        assert_eq!(counter("kv.heartbeats"), 100);
        assert_eq!(w.health_key(), "gemini/health/3");
        assert_eq!(kv.get(t(500), w.health_key()).unwrap().value, "3:11:100");
        // A wedge past the TTL re-registers: one more grant, and the
        // re-registering beat is not counted as a heartbeat.
        w.heartbeat(&mut kv, t(600)).unwrap();
        assert_eq!(counter("kv.leases_granted"), 2);
        assert_eq!(counter("kv.leases_expired"), 1);
        assert_eq!(counter("kv.heartbeats"), 100);
        assert_eq!(kv.get(t(600), w.health_key()).unwrap().value, "3:11:101");
    }

    #[test]
    fn health_status_roundtrip() {
        let h = HealthStatus {
            rank: 3,
            machine: 42,
            beat: 17,
        };
        let mut buf = String::new();
        h.encode_into(&mut buf);
        assert_eq!(HealthStatus::decode(&buf), Some(h));
        assert_eq!(HealthStatus::decode("garbage"), None);
    }

    #[test]
    fn health_status_decode_rejects_trailing_fields() {
        // Regression: decode used to silently accept "1:2:3:junk",
        // truncating instead of rejecting.
        assert_eq!(HealthStatus::decode("1:2:3:junk"), None);
        assert_eq!(HealthStatus::decode("1:2:3:"), None);
        assert_eq!(HealthStatus::decode("1:2:3:4"), None);
        // Too few fields and non-numeric fields still fail.
        assert_eq!(HealthStatus::decode("1:2"), None);
        assert_eq!(HealthStatus::decode("1:x:3"), None);
        assert_eq!(HealthStatus::decode(""), None);
        // Exactly three numeric fields pass.
        assert_eq!(
            HealthStatus::decode("1:2:3"),
            Some(HealthStatus {
                rank: 1,
                machine: 2,
                beat: 3
            })
        );
    }

    #[test]
    fn reregistration_preserves_beat_counter() {
        // Regression: a wedged worker re-registering used to restart its
        // heartbeat sequence at 0, erasing the monotonic counter that lets
        // observers order health observations.
        let mut kv = KvStore::new();
        let mut w = WorkerAgent::new(0, 0, cfg());
        w.register(&mut kv, t(0)).unwrap();
        let mut last_beat = 0u64;
        for s in (5..=15).step_by(5) {
            w.heartbeat(&mut kv, t(s)).unwrap();
            let h = HealthStatus::decode(&kv.get(t(s), w.health_key()).unwrap().value).unwrap();
            assert!(h.beat > last_beat || (s == 5 && h.beat == 1));
            last_beat = h.beat;
        }
        // Wedge: no heartbeats until t=50, lease long gone; the next
        // heartbeat re-registers.
        w.heartbeat(&mut kv, t(50)).unwrap();
        let h = HealthStatus::decode(&kv.get(t(50), w.health_key()).unwrap().value).unwrap();
        assert!(
            h.beat > last_beat,
            "beat must stay monotonic across re-register: {} -> {}",
            last_beat,
            h.beat
        );
        // And it keeps climbing afterwards.
        w.heartbeat(&mut kv, t(55)).unwrap();
        let h2 = HealthStatus::decode(&kv.get(t(55), w.health_key()).unwrap().value).unwrap();
        assert!(h2.beat > h.beat);
    }

    #[test]
    fn scan_bounds_alive_to_expected_ranks() {
        // Regression: stale/foreign health keys with rank >= n used to be
        // reported in `alive`, inflating the membership view.
        let mut kv = KvStore::new();
        for r in [0usize, 1, 7, 12] {
            let mut w = WorkerAgent::new(r, r as u64, cfg());
            w.register(&mut kv, t(0)).unwrap();
        }
        let root = RootAgent::new("r", &cfg());
        let mut report = ScanReport::default();
        root.scan(&mut kv, t(1), 4, &mut report);
        assert_eq!(report.alive, vec![0, 1]);
        assert_eq!(report.missing, vec![2, 3]);
        assert_eq!(report.out_of_range, vec![7, 12]);
        // The pollution is surfaced as a telemetry counter too.
        let sink = gemini_telemetry::TelemetrySink::enabled();
        let mut kv2 = KvStore::new().with_telemetry(sink.clone());
        let mut w = WorkerAgent::new(9, 9, cfg());
        w.register(&mut kv2, t(0)).unwrap();
        root.scan(&mut kv2, t(1), 4, &mut report);
        let snap = sink.metrics_snapshot();
        assert_eq!(
            snap.counter(gemini_telemetry::Key::plain("kv.scan_out_of_range")),
            1
        );
    }

    /// The allocating scan the reused report replaced: fresh rank lists
    /// on every call, kept as the reference [`RootAgent::scan`] must
    /// match.
    fn reference_scan(kv: &mut KvStore, now: SimTime, n: usize) -> ScanReport {
        let mut out_of_range = Vec::new();
        let mut present = vec![false; n];
        kv.for_each_in_range(now, HEALTH_PREFIX, |_, v| {
            if let Some(h) = HealthStatus::decode(&v.value) {
                if h.rank < n {
                    present[h.rank] = true;
                } else {
                    out_of_range.push(h.rank);
                }
            }
        });
        let (alive, missing) = (0..n).partition(|&r| present[r]);
        out_of_range.sort_unstable();
        out_of_range.dedup();
        ScanReport {
            alive,
            missing,
            out_of_range,
            present: Vec::new(),
        }
    }

    #[test]
    fn a_reused_report_matches_a_fresh_scan_after_every_change() {
        // One report carried through a lease expiry, a re-registration,
        // pollution under the health prefix and a changing `n`: a buffer
        // that is not cleared shows up as a rank the reference does not
        // report.
        fn check(root: &RootAgent, kv: &mut KvStore, s: u64, n: usize, report: &mut ScanReport) {
            root.scan(kv, t(s), n, report);
            assert_eq!(*report, reference_scan(kv, t(s), n), "t={s}, n={n}");
        }
        let mut kv = KvStore::new();
        let mut workers: Vec<WorkerAgent> = (0..6)
            .map(|r| WorkerAgent::new(r, r as u64, cfg()))
            .collect();
        for w in &mut workers {
            w.register(&mut kv, t(0)).unwrap();
        }
        let root = RootAgent::new("r", &cfg());
        let mut report = ScanReport::default();
        check(&root, &mut kv, 1, 6, &mut report);
        // Rank 4 stops beating after registering at t = 0, so its lease
        // lapses at t = 15.
        for s in [5, 10] {
            for w in workers.iter_mut().filter(|w| w.rank() != 4) {
                w.heartbeat(&mut kv, t(s)).unwrap();
            }
            check(&root, &mut kv, s, 6, &mut report);
        }
        check(&root, &mut kv, 15, 6, &mut report);
        assert_eq!(report.missing, vec![4]);
        // The wedged worker re-registers.
        workers[4].heartbeat(&mut kv, t(16)).unwrap();
        check(&root, &mut kv, 16, 6, &mut report);
        assert!(report.missing.is_empty());
        // A stale key with an out-of-range rank.
        kv.put(t(17), "gemini/health/stale", "9:9:9", None).unwrap();
        check(&root, &mut kv, 17, 6, &mut report);
        assert_eq!(report.out_of_range, vec![9]);
        // A corrupt value is ignored.
        kv.put(t(18), "gemini/health/corrupt", "1:2:3:junk", None)
            .unwrap();
        check(&root, &mut kv, 18, 6, &mut report);
        // Foreign keys repeating an in-range and an out-of-range rank.
        kv.put(t(19), "gemini/health/foreign", "2:77:1", None)
            .unwrap();
        kv.put(t(19), "gemini/health/foreign9", "9:1:1", None)
            .unwrap();
        check(&root, &mut kv, 19, 6, &mut report);
        assert_eq!(report.out_of_range, vec![9]);
        // The expected set shrinks, then grows past the registered ranks.
        check(&root, &mut kv, 19, 3, &mut report);
        assert_eq!(report.out_of_range, vec![3, 4, 5, 9]);
        check(&root, &mut kv, 19, 8, &mut report);
        assert_eq!(report.missing, vec![6, 7]);
        // The pollution goes away; so does the lapsed lease's rank when
        // nobody else beats past t = 25.
        kv.delete(t(20), "gemini/health/stale").unwrap();
        kv.delete(t(20), "gemini/health/foreign9").unwrap();
        check(&root, &mut kv, 20, 6, &mut report);
        assert!(report.out_of_range.is_empty());
        check(&root, &mut kv, 25, 6, &mut report);
        assert_eq!(report.alive, vec![2, 4]);
    }

    #[test]
    fn one_election_read_per_round_and_followers_with_a_lease_still_revoke() {
        // m1 leads, then a KV blip drops the election key while m1's lease
        // survives, and m0 claims the key. In the next round m1 is a
        // follower that still holds a live lease handle: skipping its
        // campaign would strand that lease until its TTL.
        let sink = gemini_telemetry::TelemetrySink::enabled();
        let counter = |name| {
            sink.metrics_snapshot()
                .counter(gemini_telemetry::Key::plain(name))
        };
        let mut kv = KvStore::new().with_telemetry(sink.clone());
        let mut roots = [RootAgent::new("m0", &cfg()), RootAgent::new("m1", &cfg())];
        assert!(roots[1].campaign(&mut kv, t(0)).unwrap());
        kv.delete(t(1), ROOT_ELECTION_KEY).unwrap();
        assert!(roots[0].campaign(&mut kv, t(1)).unwrap());
        assert_eq!(kv.live_leases(t(1)), 2);
        let reads = counter("kv.election_reads");
        assert_eq!(
            RootAgent::elect(&mut roots, &mut kv, t(2), |_| true),
            Some(0)
        );
        assert_eq!(counter("kv.election_reads"), reads + 1);
        assert_eq!(counter("kv.election_lease_revoked"), 1);
        assert_eq!(kv.live_leases(t(2)), 1, "the follower's lease is revoked");
        // The next round has no handle left to revoke, and the holder
        // renews off the same single read.
        assert_eq!(
            RootAgent::elect(&mut roots, &mut kv, t(20), |_| true),
            Some(0)
        );
        assert_eq!(counter("kv.election_reads"), reads + 2);
        assert_eq!(counter("kv.election_lease_revoked"), 1);
        assert_eq!(roots[0].leader(&mut kv, t(20)), Some("m0"));
    }

    #[test]
    fn elect_matches_one_campaign_per_candidate() {
        // The shared read must decide every campaign as a fresh read would:
        // the same holder, the same leases and the same counters, round
        // after round, with candidates muted, revived and blipped out.
        let run = |shared: bool| {
            let sink = gemini_telemetry::TelemetrySink::enabled();
            let mut kv = KvStore::new().with_telemetry(sink.clone());
            let mut roots: Vec<RootAgent> = (0..4)
                .map(|r| RootAgent::new(&format!("m{r}"), &cfg()))
                .collect();
            let mut trace = Vec::new();
            for s in 0..120u64 {
                let eligible = |rank: usize| (s / 10 + rank as u64) % 4 != 0;
                if shared {
                    RootAgent::elect(&mut roots, &mut kv, t(s), eligible);
                } else {
                    for (rank, root) in roots.iter_mut().enumerate() {
                        if eligible(rank) {
                            let _ = root.campaign(&mut kv, t(s));
                        }
                    }
                }
                if s % 7 == 3 {
                    let _ = kv.delete(t(s), ROOT_ELECTION_KEY);
                }
                let leader = roots[0].leader(&mut kv, t(s)).map(str::to_string);
                trace.push((leader, kv.live_leases(t(s))));
            }
            let snap = sink.metrics_snapshot();
            let counters = [
                "kv.election_rounds",
                "kv.election_lease_revoked",
                "kv.leases_granted",
                "kv.leases_expired",
            ]
            .map(|name| snap.counter(gemini_telemetry::Key::plain(name)));
            (trace, counters)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn contested_root_campaigns_bound_live_leases() {
        // Regression (lease leak): when the election key is lost while the
        // holder's lease survives (a KV blip — exactly what the chaos
        // engine injects), the displaced root used to drop its live lease
        // handle on follow, stranding one lease per losing round until TTL
        // (~15 stranded leases in steady state here). Post-fix the live
        // population stays bounded by the number of campaigners.
        let mut kv = KvStore::new();
        let mut roots = [RootAgent::new("m0", &cfg()), RootAgent::new("m1", &cfg())];
        for s in 0..60u64 {
            // Alternate who campaigns first so leadership ping-pongs.
            let first = (s % 2) as usize;
            let _ = roots[first].campaign(&mut kv, t(s));
            let _ = roots[1 - first].campaign(&mut kv, t(s));
            assert!(
                kv.live_leases(t(s)) <= 2,
                "leaked leases at t={s}: {} live",
                kv.live_leases(t(s))
            );
            // KV blip: the election key vanishes but leases survive.
            let _ = kv.delete(t(s), ROOT_ELECTION_KEY);
        }
    }
}

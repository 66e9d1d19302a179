//! Cross-figure memoized run cache.
//!
//! Every simulation is a pure function of its [`WorkloadProfile`],
//! [`RunOpts`], and [`SystemConfig`] (minus the reporting label), so
//! figures that sweep overlapping grids — fig13's PMS column repeats
//! fig6's, the PB/LPQ size sweeps of fig14/fig15 include the default
//! point, fig11's first configuration is the stock PMS machine — can
//! share one simulation per distinct point. Each
//! [`RunContext`](crate::RunContext) owns a [`RunCache`]; the
//! [`crate::pipeline`] executor, the only code that consults one, looks a
//! node up before simulating it and re-stamps a cached [`RunResult`] with
//! the job's label.
//!
//! **Soundness.** The key is the full `Debug` rendering of every input
//! (no hashing, so no collisions); entries are stored with the label
//! cleared. Two categories of runs are never cached: jobs with a
//! [`TraceSource`](crate::TraceSource) (file contents can change between
//! runs) and jobs whose engine is an *anonymous* [`EngineKind::Custom`]
//! (a factory without [`asd_mc::EngineFactory::stable_id`] is opaque — its
//! `Debug` form cannot distinguish two different factories). Custom
//! factories that do declare a stable id (the prefetcher zoo) are keyed
//! by that id alongside the `Debug` render, which is sound under the
//! `stable_id` contract documented in `asd-mc`.
//! Concurrent requests for one key compute it once: `RunCache::get_or_run`
//! hands the first a single-flight lease and parks the rest until its
//! result lands.
//!
//! A context built with memoization off gives no job a key, so its cache
//! stays empty; [`RunCache::stats`] reports hits/misses for telemetry
//! exposition. The per-thread traces runs consume are not kept here: each
//! [`Pipeline`](crate::pipeline::Pipeline) run memoizes its own nodes'
//! traces and frees each after its last reader.
//!
//! **Disk tier.** On top of each cache's memory store sits an
//! optional persistent tier, fixed when the context is built
//! ([`RunContext::with_disk_dir`](crate::RunContext::with_disk_dir)): a
//! directory of content-addressed record files, one per cache key, named
//! by the key's FNV-1a hash with the full key stored inside the record as
//! a collision guard. Records carry a CRC-32 over their contents in a
//! header mirroring the ASDT chunk framing ([`asd_traceio::format`]); a
//! corrupt, truncated, or version-skewed record is **evicted and
//! recomputed** — never served and never a panic. Results survive process restarts and dedupe across
//! clients of the `asd-serve` daemon; only telemetry-free results are
//! persisted (see [`crate::wire`]). Concurrent writers may race on one
//! key, but both write byte-identical records via an atomic
//! temp-file-then-rename, so whichever rename lands last is invisible.

use crate::config::{RunOpts, SystemConfig};
use crate::error::SimError;
use crate::system::RunResult;
use asd_mc::EngineKind;
use asd_trace::WorkloadProfile;
use asd_traceio::format::crc32;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// One run cache: the memory tier, the optional disk tier, the
/// single-flight table, and the counters of all three. Each
/// [`RunContext`](crate::RunContext) owns one, and a second context's
/// cache shares no entry, flight or counter with it.
#[derive(Default)]
pub struct RunCache {
    store: Mutex<BTreeMap<String, RunResult>>,
    /// The keys being computed right now, and the condvar joiners park
    /// on. See [`RunCache::get_or_run`].
    flights: Mutex<BTreeSet<String>>,
    landed: Condvar,
    /// The disk tier's directory, fixed when the context is built.
    pub(crate) disk_dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    flight_leads: AtomicU64,
    flight_joins: AtomicU64,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    disk_writes: AtomicU64,
    disk_evictions: AtomicU64,
}

/// FNV-1a 64-bit hash of `key` — the content address a disk record files
/// under. Collisions are tolerated (the record stores the full key and a
/// mismatch reads as a miss), so the hash only needs to spread names.
pub fn fnv64(key: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Magic bytes opening every disk-cache record (`ASDC` = ASD Cache).
pub const DISK_MAGIC: [u8; 4] = *b"ASDC";

/// Disk record version; bump on any layout change so stale records read
/// as corrupt (and are evicted) instead of misdecoding.
pub const DISK_VERSION: u16 = 1;

/// The file a `key` persists to under `dir`.
pub fn disk_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{:016x}.run", fnv64(key)))
}

/// Serialize one disk record: magic, version, key length, payload
/// length, CRC-32 over key + payload, then key and payload — the same
/// length-plus-checksum framing an ASDT chunk uses.
fn encode_disk_record(key: &str, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(18 + key.len() + payload.len());
    buf.extend_from_slice(&DISK_MAGIC);
    buf.extend_from_slice(&DISK_VERSION.to_le_bytes());
    buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut crc_input = Vec::with_capacity(key.len() + payload.len());
    crc_input.extend_from_slice(key.as_bytes());
    crc_input.extend_from_slice(payload);
    buf.extend_from_slice(&crc32(&crc_input).to_le_bytes());
    buf.extend_from_slice(key.as_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Parse and verify a disk record, returning `(key, payload)`. `None` on
/// any structural or checksum problem.
fn decode_disk_record(bytes: &[u8]) -> Option<(String, Vec<u8>)> {
    fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Option<&'a [u8]> {
        let end = pos.checked_add(n)?;
        let s = bytes.get(*pos..end)?;
        *pos = end;
        Some(s)
    }
    let mut pos = 0usize;
    if take(bytes, &mut pos, 4)? != DISK_MAGIC {
        return None;
    }
    if u16::from_le_bytes(take(bytes, &mut pos, 2)?.try_into().ok()?) != DISK_VERSION {
        return None;
    }
    let key_len =
        usize::try_from(u32::from_le_bytes(take(bytes, &mut pos, 4)?.try_into().ok()?)).ok()?;
    let payload_len =
        usize::try_from(u32::from_le_bytes(take(bytes, &mut pos, 4)?.try_into().ok()?)).ok()?;
    let crc = u32::from_le_bytes(take(bytes, &mut pos, 4)?.try_into().ok()?);
    let body = bytes.get(pos..)?;
    if body.len() != key_len.checked_add(payload_len)? || crc32(body) != crc {
        return None;
    }
    let key = std::str::from_utf8(body.get(..key_len)?).ok()?.to_string();
    Some((key, body.get(key_len..)?.to_vec()))
}

/// The canonical cache key for a job, or `None` when the job must not be
/// cached (file-backed trace source, or anonymous custom engine).
pub(crate) fn key(cfg: &SystemConfig, profile: &WorkloadProfile, opts: &RunOpts) -> Option<String> {
    if cfg.trace.is_some() {
        return None;
    }
    let engine_id = match &cfg.mc.engine {
        // Custom engines are admitted only with an explicit memoization
        // identity; the id joins the key so two factories with the same
        // Debug render but different ids never collide.
        EngineKind::Custom(factory) => factory.stable_id()?,
        _ => "",
    };
    Some(format!(
        "{profile:?}|{opts:?}|{core:?}|{mc:?}|{dram:?}|{tel:?}|{engine_id}",
        core = cfg.core,
        mc = cfg.mc,
        dram = cfg.dram,
        tel = cfg.telemetry,
    ))
}

impl RunCache {
    /// Hit/miss counters (misses are only counted for cacheable jobs;
    /// uncacheable jobs bypass the cache entirely).
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// Disk-tier counters: `(hits, misses, writes, evictions)`. Misses
    /// are only counted while a disk directory is configured; evictions
    /// count corrupt or unreadable records that were deleted and
    /// recomputed.
    pub fn disk_stats(&self) -> (u64, u64, u64, u64) {
        (
            self.disk_hits.load(Ordering::Relaxed),
            self.disk_misses.load(Ordering::Relaxed),
            self.disk_writes.load(Ordering::Relaxed),
            self.disk_evictions.load(Ordering::Relaxed),
        )
    }

    /// Single-flight counters: `(leads, joins)`. A lead is a claim that
    /// went on to simulate; a join is a claim that parked on someone
    /// else's in-flight run instead of recomputing it.
    pub fn flight_stats(&self) -> (u64, u64) {
        (self.flight_leads.load(Ordering::Relaxed), self.flight_joins.load(Ordering::Relaxed))
    }

    /// The directory the disk tier persists to, if it is on.
    fn disk_dir(&self) -> Option<&Path> {
        self.disk_dir.as_deref()
    }

    /// Look `key` up in the disk tier. Corrupt records are evicted. The
    /// returned result carries an empty label, exactly like the memory
    /// store's entries.
    fn disk_load(&self, key: &str) -> Option<RunResult> {
        let path = disk_path(self.disk_dir()?, key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                self.disk_misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        let decoded = decode_disk_record(&bytes)
            .filter(|(k, _)| k == key)
            .and_then(|(_, payload)| crate::wire::decode_result(&payload));
        match decoded {
            Some(result) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                Some(result)
            }
            None => {
                // Corrupt, truncated, version-skewed, or an FNV collision:
                // drop the record so the slot is recomputed cleanly.
                let _ = std::fs::remove_file(&path);
                self.disk_evictions.fetch_add(1, Ordering::Relaxed);
                self.disk_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Persist a (label-cleared) result under `key`. Failures are silent —
    /// the disk tier is an optimization, never a correctness dependency.
    fn disk_store(&self, key: &str, stored: &RunResult) {
        let Some(dir) = self.disk_dir() else { return };
        let Some(payload) = crate::wire::encode_result(stored) else { return };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let record = encode_disk_record(key, &payload);
        let final_path = disk_path(dir, key);
        let tmp = dir.join(format!("{:016x}.tmp-{}", fnv64(key), std::process::id()));
        let write = std::fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(&record).and_then(|()| f.sync_all()));
        if write.is_ok() && std::fs::rename(&tmp, &final_path).is_ok() {
            self.disk_writes.fetch_add(1, Ordering::Relaxed);
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Write a human-readable index of the disk tier (`index.txt` in the
    /// cache directory): one `hash<TAB>benchmark<TAB>key` line per valid
    /// record, sorted by hash. The daemon persists this on graceful shutdown
    /// so operators can see what a cache directory holds without a decoder.
    ///
    /// # Errors
    ///
    /// Any I/O error reading the directory or writing the index.
    pub fn persist_disk_index(&self) -> std::io::Result<usize> {
        let Some(dir) = self.disk_dir() else { return Ok(0) };
        // An idle daemon may shut down before its first disk write; an empty
        // index is still a valid index.
        std::fs::create_dir_all(dir)?;
        let mut lines: Vec<String> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("run") {
                continue;
            }
            let Ok(bytes) = std::fs::read(&path) else { continue };
            if let Some((key, payload)) = decode_disk_record(&bytes) {
                let bench = crate::wire::decode_result(&payload)
                    .map_or_else(|| "?".to_string(), |r| r.benchmark);
                lines.push(format!("{:016x}\t{bench}\t{key}", fnv64(&key)));
            }
        }
        lines.sort();
        let count = lines.len();
        let mut body = lines.join("\n");
        body.push('\n');
        std::fs::write(dir.join("index.txt"), body)?;
        Ok(count)
    }

    /// Number of valid-looking record files currently in the disk tier (a
    /// cheap directory scan; contents are not verified).
    pub fn disk_entry_count(&self) -> usize {
        let Some(dir) = self.disk_dir() else { return 0 };
        let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
        entries
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("run"))
            .count()
    }

    /// Tier lookup without touching the hit/miss counters: memory tier
    /// first, then the disk tier (a disk hit is promoted into memory so
    /// later lookups stay lock-cheap). The result is re-stamped with
    /// `label`. [`Self::get_or_run`] layers its own accounting on top so
    /// a single-flight joiner's retry loop does not inflate the miss
    /// count.
    fn lookup(&self, key: &str, label: &str) -> Option<RunResult> {
        // asd-lint: allow(D005) -- cache poisoning means a sibling worker panicked mid-run; propagating is correct
        let hit = self.store.lock().expect("run cache poisoned").get(key).cloned();
        let hit = match hit {
            Some(r) => Some(r),
            None => {
                let from_disk = self.disk_load(key);
                if let Some(r) = &from_disk {
                    // asd-lint: allow(D005) -- cache poisoning means a sibling worker panicked mid-run; propagating is correct
                    let mut store = self.store.lock().expect("run cache poisoned");
                    store.insert(key.to_string(), r.clone());
                }
                from_disk
            }
        };
        hit.map(|mut r| {
            r.config = label.to_string();
            r
        })
    }

    /// Store a result under `key` with the reporting label cleared, in both
    /// tiers (the disk write is skipped when no directory is configured or
    /// the result carries a telemetry snapshot).
    fn put(&self, key: String, result: &RunResult) {
        let mut stored = result.clone();
        stored.config = String::new();
        self.disk_store(&key, &stored);
        // asd-lint: allow(D005) -- cache poisoning means a sibling worker panicked mid-run; propagating is correct
        self.store.lock().expect("run cache poisoned").insert(key, stored);
    }

    /// The single-flight entry point: the result of the job keyed `key`,
    /// re-stamped with `label`. A cached result counts a hit, whichever
    /// tier served it; an unclaimed key makes the caller the leader, which
    /// counts a miss, runs `simulate` and publishes its result to both
    /// tiers; a key already in flight parks the caller until the leader
    /// lands, then retries (normally a hit — a re-claim only happens when
    /// the leader failed). Exactly one simulation runs per key no matter
    /// how many figures or connections request it concurrently.
    ///
    /// Lock order is flight table → store (via `lookup`); `put` and
    /// `release` each take one lock at a time, so the order is acyclic.
    pub(crate) fn get_or_run(
        &self,
        key: &str,
        label: &str,
        simulate: impl FnOnce() -> Result<RunResult, SimError>,
    ) -> Result<RunResult, SimError> {
        loop {
            if let Some(hit) = self.lookup(key, label) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(hit);
            }
            // asd-lint: allow(D005) -- flight table poisoning means a sibling worker panicked mid-run; propagating is correct
            let mut keys = self.flights.lock().expect("flight table poisoned");
            if !keys.contains(key) {
                // Re-check the store under the flight lock: a leader may have
                // completed between our miss above and acquiring the lock.
                if let Some(hit) = self.lookup(key, label) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(hit);
                }
                keys.insert(key.to_string());
                drop(keys);
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.flight_leads.fetch_add(1, Ordering::Relaxed);
                let lease = FlightLease { cache: self, key: key.to_string(), completed: false };
                // A `?` here drops the lease un-completed, releasing joiners
                // to re-claim and surface the same error themselves.
                let result = simulate()?;
                lease.complete(&result);
                return Ok(result);
            }
            self.flight_joins.fetch_add(1, Ordering::Relaxed);
            while keys.contains(key) {
                // asd-lint: allow(D005) -- flight table poisoning means a sibling worker panicked mid-run; propagating is correct
                keys = self.landed.wait(keys).expect("flight table poisoned");
            }
        }
    }

    fn release(&self, key: &str) {
        // asd-lint: allow(D005) -- flight table poisoning means a sibling worker panicked mid-run; propagating is correct
        self.flights.lock().expect("flight table poisoned").remove(key);
        self.landed.notify_all();
    }
}

/// Exclusive right to compute one cache key, held by the leader in
/// [`RunCache::get_or_run`] while it runs the simulation; it calls
/// [`FlightLease::complete`]. Dropping the lease without completing (the
/// simulation failed) wakes parked joiners so one of them re-claims and
/// recomputes — an error is never published as a result.
struct FlightLease<'a> {
    cache: &'a RunCache,
    key: String,
    completed: bool,
}

impl FlightLease<'_> {
    /// Publish `result` to both cache tiers and release every joiner
    /// parked on this key.
    fn complete(mut self, result: &RunResult) {
        self.cache.put(self.key.clone(), result);
        self.completed = true;
        self.cache.release(&self.key);
    }
}

impl Drop for FlightLease<'_> {
    fn drop(&mut self) {
        if !self.completed {
            self.cache.release(&self.key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrefetchKind;
    use crate::source::TraceSource;

    fn milc() -> WorkloadProfile {
        asd_trace::suites::by_name("milc").expect("suite profile")
    }

    #[test]
    fn key_covers_all_inputs() {
        let opts = RunOpts::quick();
        let cfg = SystemConfig::for_kind(PrefetchKind::Pms, 1);
        let base = key(&cfg, &milc(), &opts).expect("cacheable");

        // Same inputs, same key.
        assert_eq!(key(&cfg, &milc(), &opts), Some(base.clone()));

        // Any input change must change the key.
        let other_opts = RunOpts { seed: 1, ..RunOpts::quick() };
        assert_ne!(key(&cfg, &milc(), &other_opts), Some(base.clone()));
        let other_cfg = SystemConfig::for_kind(PrefetchKind::Np, 1);
        assert_ne!(key(&other_cfg, &milc(), &opts), Some(base.clone()));
        let other_profile = asd_trace::suites::by_name("lbm").expect("suite profile");
        assert_ne!(key(&cfg, &other_profile, &opts), Some(base));
    }

    #[test]
    fn trace_sourced_jobs_are_not_cached() {
        let opts = RunOpts::quick();
        let cfg = SystemConfig::for_kind(PrefetchKind::Pms, 1)
            .with_trace(TraceSource::generate("milc", 0x5eed));
        assert_eq!(key(&cfg, &milc(), &opts), None);
    }

    /// A fresh cache whose disk tier is `dir`: no sibling test's
    /// simulation writes there or moves its counters.
    fn disk_cache(dir: &Path) -> RunCache {
        RunCache { disk_dir: Some(dir.to_path_buf()), ..RunCache::default() }
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("asd-cache-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn sample_result() -> RunResult {
        let opts = RunOpts::quick();
        let cfg = SystemConfig::for_kind(PrefetchKind::Ms, 1);
        crate::system::System::new(cfg, &milc(), &opts)
            .expect("valid config")
            .with_label("MS")
            .run()
    }

    #[test]
    fn disk_record_framing_roundtrips_and_rejects_corruption() {
        let payload = b"payload bytes".to_vec();
        let record = encode_disk_record("some|key", &payload);
        assert_eq!(decode_disk_record(&record), Some(("some|key".to_string(), payload.clone())));
        // Every truncation is rejected, not panicked on.
        for cut in 0..record.len() {
            assert_eq!(decode_disk_record(&record[..cut]), None, "cut at {cut}");
        }
        // Any single bit flip breaks either the header or the CRC.
        for byte in 0..record.len() {
            let mut bad = record.clone();
            bad[byte] ^= 0x10;
            assert_eq!(decode_disk_record(&bad), None, "flip at {byte}");
        }
    }

    #[test]
    fn disk_tier_stores_loads_and_evicts_corrupt_records() {
        let dir = scratch_dir("roundtrip");
        let cache = disk_cache(&dir);
        let result = sample_result();
        let mut stored = result.clone();
        stored.config = String::new();

        let key = "disk-tier-test|roundtrip";
        cache.disk_store(key, &stored);
        let path = disk_path(&dir, key);
        assert!(path.exists(), "record file written");
        let loaded = cache.disk_load(key).expect("disk hit");
        assert_eq!(format!("{loaded:?}"), format!("{stored:?}"));

        // A key that hashes elsewhere misses without touching the record.
        let (_, _, _, ev0) = cache.disk_stats();
        assert!(cache.disk_load("disk-tier-test|other").is_none());
        assert!(path.exists());

        // Corrupt the payload: the load fails, the record is evicted,
        // and the slot reads as a miss from then on.
        let mut bytes = std::fs::read(&path).expect("read record");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).expect("write corrupt record");
        assert!(cache.disk_load(key).is_none(), "corrupt record must not decode");
        assert!(!path.exists(), "corrupt record evicted");
        let (_, _, _, ev1) = cache.disk_stats();
        assert!(ev1 > ev0, "eviction counted");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_tier_serves_get_after_memory_miss() {
        let dir = scratch_dir("get");
        let cache = disk_cache(&dir);
        let mut stored = sample_result();
        stored.config = String::new();

        // A synthetic key no simulation path produces: the memory store
        // cannot contain it, so the lookup must fall through to disk.
        let key = "disk-tier-test|get-path";
        cache.disk_store(key, &stored);
        let get = |label: &str| cache.get_or_run(key, label, || panic!("{label}: simulated"));
        let hit = get("RELABELED").expect("disk-backed get");
        assert_eq!(hit.config, "RELABELED");
        assert_eq!(hit.cycles, stored.cycles);
        assert_eq!(cache.stats(), (1, 0), "a disk hit counts as a run-cache hit");
        // Promotion: with the record gone from disk, the second get is
        // served from memory.
        std::fs::remove_dir_all(&dir).expect("remove the disk tier");
        assert_eq!(get("AGAIN").expect("memory-backed get").config, "AGAIN");
        assert_eq!(cache.stats(), (2, 0));
    }

    #[test]
    fn disk_index_lists_valid_records() {
        let dir = scratch_dir("index");
        let cache = disk_cache(&dir);
        let mut stored = sample_result();
        stored.config = String::new();
        cache.disk_store("disk-tier-test|index-a", &stored);
        cache.disk_store("disk-tier-test|index-b", &stored);
        std::fs::write(dir.join("feedbeefdeadc0de.run"), b"garbage").expect("write junk");
        assert_eq!(cache.disk_entry_count(), 3);
        let indexed = cache.persist_disk_index().expect("index written");
        assert_eq!(indexed, 2, "only valid records indexed");
        let body = std::fs::read_to_string(dir.join("index.txt")).expect("index file");
        assert!(body.contains("disk-tier-test|index-a"));
        assert!(body.contains("\tmilc\t"));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64("foobar"), 0x85944171f73967e8);
    }
}

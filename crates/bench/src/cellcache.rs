//! Persistent, content-addressed cell cache.
//!
//! Stores each successfully simulated cell's deterministic outcome as one
//! JSON file under a user-supplied directory (`prodigy-eval --cell-cache
//! DIR`), keyed by the full content address
//! `cell-key|scale|system-config|base-seed|code-rev`:
//!
//! * the **cell key** (`workload|reorder|prefetcher|pfhr|classify|cores`,
//!   plus a `|farN` suffix for two-tier cells) identifies the grid point;
//! * **scale** and the **system-config fingerprint** pin the machine the
//!   cell ran on (the cell key alone does not encode them);
//! * the **base seed** pins the workload inputs;
//! * the **code rev** is a build fingerprint over every crate that can
//!   affect simulated results (see `build.rs`), so a source change
//!   invalidates prior entries instead of silently serving stale numbers.
//!   `PRODIGY_CODE_REV` overrides it at runtime for caches known to span
//!   result-identical builds.
//!
//! Only *successful* results are ever persisted. Failures — panics,
//! timeouts — must never poison the disk cache: a panic is retried on the
//! next process (where the bug may be fixed), a timeout on the next request
//! (where the budget may be bigger). [`CellCache::store`] therefore only
//! accepts a finished [`RunOutcome`].
//!
//! Integrity: every entry embeds its composite key and an FNV-1a digest of
//! its payload. [`CellCache::load`] re-serializes the reconstructed outcome
//! and compares digests, so a truncated, corrupted, hand-edited, or
//! hash-colliding entry is silently treated as a miss (and re-simulated) —
//! never a crash, never a wrong number. Writes go through a temp file +
//! atomic rename so concurrent shard processes sharing one cache directory
//! can never observe a half-written entry.

use crate::sweep::stable_key_hash;
use prodigy_sim::record::{escape, parse_json, Record};
use prodigy_sim::SystemConfig;
use prodigy_workloads::RunOutcome;
use std::path::{Path, PathBuf};

/// On-disk entry format version; bumped whenever the payload's shape (the
/// [`RunOutcome`] record declaration and the records it nests) changes, so
/// old entries miss instead of misparse.
const FORMAT_VERSION: u64 = 2;

/// The effective code revision: the compile-time build fingerprint unless
/// the `PRODIGY_CODE_REV` environment variable overrides it.
pub fn code_rev() -> String {
    std::env::var("PRODIGY_CODE_REV").unwrap_or_else(|_| env!("PRODIGY_BUILD_FINGERPRINT").into())
}

/// Builds the composite content address for one cell under one machine +
/// seed + build. Everything that can change the simulated numbers is in
/// here; nothing host-varying is.
pub fn composite_key(
    cell_key: &str,
    scale: u64,
    sys: &SystemConfig,
    base_seed: u64,
    code_rev: &str,
) -> String {
    // The system config participates via a fingerprint of its canonical
    // debug rendering: any field change (core count, cache sizing, DRAM
    // model, ...) produces a new address without this module naming every
    // field.
    let sys_fp = stable_key_hash(&format!("{sys:?}"));
    format!("{cell_key}|scale={scale}|sys={sys_fp:016x}|seed={base_seed}|rev={code_rev}")
}

/// A persistent cell cache rooted at one directory.
#[derive(Debug, Clone)]
pub struct CellCache {
    dir: PathBuf,
}

impl CellCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    /// Returns a message when the directory cannot be created.
    pub fn open(dir: &Path) -> Result<CellCache, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cell cache: cannot create {}: {e}", dir.display()))?;
        Ok(CellCache {
            dir: dir.to_path_buf(),
        })
    }

    /// The entry file path for a composite key.
    pub fn path_for(&self, composite: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.json", stable_key_hash(composite)))
    }

    /// Loads the entry for `composite`, or `None` on any miss *or anomaly*
    /// (absent file, unreadable, unparsable, wrong version, key mismatch
    /// from a hash collision, digest mismatch from corruption). Anomalies
    /// are deliberately indistinguishable from misses: the caller
    /// re-simulates and overwrites the bad entry.
    pub fn load(&self, composite: &str) -> Option<RunOutcome> {
        let text = std::fs::read_to_string(self.path_for(composite)).ok()?;
        let v = parse_json(&text).ok()?;
        if v.get("version")?.as_int::<u64>()? != FORMAT_VERSION {
            return None;
        }
        if v.get("key")?.as_str()? != composite {
            return None;
        }
        let stored_fnv = v.get("payload_fnv")?.as_str()?;
        let out = RunOutcome::read(v.get("payload")?).ok()?;
        // Deep integrity: the reconstructed outcome must re-serialize to a
        // payload with the stored digest. This catches both bit corruption
        // and any parse that silently lost information.
        if format!("{:016x}", stable_key_hash(&out.to_json())) != stored_fnv {
            return None;
        }
        Some(out)
    }

    /// Persists a *successful* outcome for `composite`. The write is
    /// atomic (temp file + rename), so concurrent shard processes racing
    /// on one key at worst both write the same bytes.
    ///
    /// # Errors
    /// Returns a message when the entry cannot be written.
    pub fn store(&self, composite: &str, out: &RunOutcome) -> Result<(), String> {
        let payload = out.to_json();
        let entry = format!(
            "{{\"version\":{FORMAT_VERSION},\"key\":\"{}\",\"payload_fnv\":\"{:016x}\",\"payload\":{payload}}}\n",
            escape(composite),
            stable_key_hash(&payload),
        );
        let path = self.path_for(composite);
        let tmp = self.dir.join(format!(
            ".tmp-{:016x}-{}",
            stable_key_hash(composite),
            std::process::id()
        ));
        std::fs::write(&tmp, entry)
            .map_err(|e| format!("cell cache: cannot write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            format!("cell cache: cannot commit {}: {e}", path.display())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prodigy::ProdigyStats;
    use prodigy_sim::{
        AttributionTable, CpiStack, EnergyBreakdown, LevelOccupancy, LevelStats, Log2Hist,
        OccupancySnapshot, PollutionCounts, PrefetchUse, RunSummary, RunTiming, SourceCounts,
        Stats, TelemetrySummary, TierSplit, TierTelemetry, Timeliness,
    };

    /// Every persisted field set, and nonzero, through exhaustive struct
    /// literals: a new field fails to compile here until the fixture sets
    /// it, and fails the round trip until its record declares it.
    fn sample_outcome() -> RunOutcome {
        let hist = |vals: &[u64]| {
            let mut h = Log2Hist::new();
            vals.iter().for_each(|&v| h.record(v));
            h
        };
        let level = |demand, tag| LevelOccupancy {
            demand,
            untagged: 2,
            sources: [(tag, 5), (4, 17)].into_iter().collect(),
        };
        let tier = |base: u64| TierTelemetry {
            load_to_use: hist(&[base, 3 * base]),
            queue_wait: hist(&[base / 10]),
            demand_reads: base,
            prefetch_reads: base + 1,
            writebacks: base + 2,
        };
        let levels = |hits, misses, writebacks| LevelStats {
            hits,
            misses,
            writebacks,
        };
        let mut attribution = AttributionTable::default();
        let counts = SourceCounts {
            issued: 512,
            timely: 290,
            late: 10,
            inaccurate: 100,
            dropped: 17,
            polluting: 6,
        };
        attribution.insert_counts((1 << 8) | 2, counts);
        let stats = Stats {
            instructions: 12_345,
            loads: 4_000,
            stores: 1_000,
            branches: 900,
            mispredicts: 33,
            cycles: 98_765,
            l1d: levels(3_000, 1_000, 7),
            l2: levels(600, 400, 5),
            l3: levels(200, 200, 3),
            dram_reads: 210,
            dram_writes: 12,
            dram_queue_cycles: 4_400,
            tlb_hits: 3_999,
            tlb_misses: 1,
            prefetches_issued: 512,
            prefetches_redundant: 17,
            prefetches_throttled: 3,
            prefetch_use: PrefetchUse {
                hit_l1: 300,
                hit_l2: 20,
                hit_l3: 5,
                evicted_unused: 100,
            },
            llc_misses_prefetchable: 88,
            llc_misses_other: 11,
            cpi: CpiStack {
                no_stall: 0.1234567890123,
                dram: 98765.4321,
                cache: 1e-300,
                branch: 0.1 + 0.2,
                dependency: 7.0,
                other: 1.0 / 3.0,
            },
        };
        RunOutcome {
            summary: RunSummary {
                stats,
                energy: EnergyBreakdown {
                    core: 1.5e-3,
                    cache: 2.25e-4,
                    dram: 7.0e-4,
                    other: 0.1,
                },
                prefetcher: "prodigy \"v2\"".into(),
            },
            checksum: 0xdead_beef_cafe_f00d,
            prodigy: Some(ProdigyStats {
                sequences_initiated: 40,
                sequences_dropped: 1,
                single_prefetches: 300,
                ranged_prefetches: 212,
                trigger_prefetches: 9,
                inline_advances: 5,
                pfhr_drops: 2,
                elements_advanced: 6_000,
                range_elements_tracked: 2_500,
            }),
            storage_bits: 57_344,
            seed: 42,
            timing: RunTiming { host_nanos: 123 },
            telemetry: TelemetrySummary {
                timeliness: Timeliness {
                    timely: 290,
                    late: 10,
                    inaccurate: 100,
                    dropped: 17,
                },
                load_to_use: hist(&[0, 300]),
                fill_to_use: hist(&[40]),
                late_wait: hist(&[17]),
                dram_round_trip: hist(&[200, 900]),
                dram_queue_wait: hist(&[3]),
                throttle_ups: 4,
                throttle_downs: 2,
                dig_transitions: 777,
                pollution: PollutionCounts {
                    l1: 1,
                    l2: 2,
                    l3: 3,
                },
                attribution,
                tiers: Some(TierSplit {
                    near: tier(150),
                    far: tier(960),
                }),
                occupancy: Some(OccupancySnapshot {
                    l1: level(30, 258),
                    l2: level(60, 3),
                    l3: level(900, 5),
                    near: Some(level(800, 5)),
                    far: Some(level(100, 6)),
                }),
            },
            // Neither is persisted: they read back as their defaults.
            trace: None,
            metrics: None,
        }
    }

    /// `out` as the cache hands it back: host timing and the opt-in
    /// sections are never persisted.
    fn persisted(out: &RunOutcome) -> String {
        let expected = RunOutcome {
            timing: RunTiming::default(),
            ..out.clone()
        };
        format!("{expected:?}")
    }

    #[test]
    fn payload_round_trips_every_declared_field() {
        let out = sample_outcome();
        let back = RunOutcome::read(&parse_json(&out.to_json()).unwrap()).unwrap();
        assert_eq!(format!("{back:?}"), persisted(&out));
    }

    #[test]
    fn store_then_load_hits_and_other_keys_miss() {
        let dir = std::env::temp_dir().join(format!("prodigy-cellcache-ut-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CellCache::open(&dir).unwrap();
        let out = sample_outcome();
        let key = |cell: &str, scale, seed, rev: &str| {
            composite_key(cell, scale, &SystemConfig::default(), seed, rev)
        };
        let cell = "pr|false|prodigy|16|false|0";
        let hit = key(cell, 1, 0, "testrev");
        assert!(cache.load(&hit).is_none(), "cold cache misses");
        cache.store(&hit, &out).unwrap();
        let loaded = cache.load(&hit).expect("warm cache hits");
        assert_eq!(format!("{loaded:?}"), persisted(&out));
        // Changing any component of the address misses.
        for other in [
            key(cell, 1, 7, "testrev"),
            key(cell, 1, 0, "otherrev"),
            key(cell, 64, 0, "testrev"),
            key("pr|false|none|16|false|0", 1, 0, "testrev"),
        ] {
            assert_ne!(other, hit);
            assert!(cache.load(&other).is_none(), "{other} must miss");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_truncated_or_mismatched_entries_are_misses() {
        let dir = std::env::temp_dir().join(format!(
            "prodigy-cellcache-corrupt-ut-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CellCache::open(&dir).unwrap();
        let out = sample_outcome();
        let key = "cell|scale=1|sys=0|seed=0|rev=r";
        cache.store(key, &out).unwrap();
        let path = cache.path_for(key);
        let good = std::fs::read_to_string(&path).unwrap();
        let version = format!("\"version\":{FORMAT_VERSION}");
        assert!(good.contains(&version) && good.contains("\"cycles\":98765"));

        // Truncated entry.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(cache.load(key).is_none(), "truncated entry is a miss");

        // Bit-flipped payload (counter changed, digest now stale).
        std::fs::write(&path, good.replace("\"cycles\":98765", "\"cycles\":98766")).unwrap();
        assert!(cache.load(key).is_none(), "tampered entry is a miss");

        // Entry whose embedded key disagrees (filename hash collision).
        std::fs::write(&path, good.replace(key, "someone|else=entirely")).unwrap();
        assert!(cache.load(key).is_none(), "key mismatch is a miss");

        // Not JSON at all.
        std::fs::write(&path, "not json {{{").unwrap();
        assert!(cache.load(key).is_none(), "garbage entry is a miss");

        // Nested deeply enough to overflow a recursive parser's stack.
        std::fs::write(&path, "[".repeat(200_000)).unwrap();
        assert!(cache.load(key).is_none(), "deeply nested entry is a miss");

        // Wrong format version.
        std::fs::write(&path, good.replace(&version, "\"version\":999")).unwrap();
        assert!(cache.load(key).is_none(), "future version is a miss");

        // And after all that abuse, re-storing repairs the entry.
        cache.store(key, &out).unwrap();
        assert!(cache.load(key).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

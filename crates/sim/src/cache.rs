//! Content-addressed on-disk run cache for scenario results.
//!
//! The dominant workload on this repo is re-running large sweep grids
//! with small spec deltas; any run whose spec is unchanged recomputes
//! tables that are — by the determinism contract — bit-identical to the
//! last time. [`RunCache`] memoizes them: the [`crate::scenario::Runner`]
//! consults the store before executing and replays byte-identical tables
//! on a hit.
//!
//! ## Key derivation
//!
//! An entry is addressed by the spec's FNV-1a content hash
//! ([`crate::scenario::ScenarioSpec::hash`], taken over the canonical
//! form) **plus** the seed, the trial count, and the cache format
//! version, all spelled into the file name:
//!
//! ```text
//! <spec_hash:016x>-s<seed>-t<trials>-v<FORMAT_VERSION>.run
//! ```
//!
//! Seed and trials are already part of the canonical form (so the hash
//! covers them); they appear in the name redundantly so a directory
//! listing is self-describing and so hash-only collisions cannot pair
//! specs that differ in either. As a final guard against a 64-bit hash
//! collision, the entry stores the full canonical spec string and a
//! lookup verifies it matches before trusting the entry.
//!
//! ## Invalidation
//!
//! Any change to the canonical spec — axis points, seed, trials, scene,
//! reader, tag, wiring — changes the key and therefore misses. What the
//! key **cannot** see is the code: a model change that leaves the spec
//! intact makes stale entries indistinguishable from fresh ones. The
//! default location (`target/mmtag-run-cache`, overridable via
//! `MMTAG_CACHE_DIR`) ties the cache's lifetime to build artifacts, so
//! `cargo clean` — and CI's fresh checkout — wipe it. Bump
//! [`FORMAT_VERSION`] when the entry format itself changes **or** when
//! any registered scenario's tables change under an unchanged spec: the
//! new version re-keys every entry, so a store filled by the old code can
//! no longer replay its tables.
//!
//! ## Entry format and corruption
//!
//! Entries are a line-oriented text format; every `f64` cell is stored
//! as the zero-padded hex of its IEEE-754 bit pattern, so a replayed
//! table is **bit-identical** to the stored one — no decimal round-trip.
//! Loads parse defensively: any structural anomaly (truncation, bad
//! hex, wrong counts, version skew) makes the entry a **miss**, never a
//! panic — a corrupted cache can cost a recompute, not an artifact.
//! Writes go to a temp file first and are atomically renamed into
//! place, so a running reader never sees a half-entry under the final
//! name. A store does not `fsync`: an entry is a memo, and a load checks
//! the magic line, the format version, the full canonical spec and every
//! count, so whatever a crash leaves under the final name — an empty,
//! zero-filled or cut file — loads as a miss, or as the stored tables
//! bit for bit. Syncing the file would not have made the entry durable
//! anyway without also syncing the directory after the rename.

use crate::experiment::Table;
use crate::scenario::ScenarioSpec;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

/// Bumped whenever the entry format changes or a scenario's tables change
/// under an unchanged spec; part of the entry key, so old entries simply
/// stop being addressed.
pub const FORMAT_VERSION: u32 = 4;

/// Magic first line of every entry.
const MAGIC: &str = "mmtag-run-cache";

/// How many [`RunCache::store`] calls pass between amortized
/// [`RunCache::enforce_policy`] sweeps. Enforcement scans the whole
/// directory, so running it on every store would turn an O(1) append
/// into an O(entries) one; every Nth store keeps the overshoot bounded
/// at N entries past budget while the common store stays one rename.
const ENFORCE_EVERY: u64 = 16;

/// Size/age budgets for a [`RunCache`]. The default is unbounded — the
/// cache behaves exactly as before the lifecycle layer existed.
///
/// Enforcement is **store-side only**: [`RunCache::load`] never scans the
/// directory or touches policy state, so the hit path stays as cheap
/// (and as allocation-free, where callers arrange that) as ever. Budget
/// overshoot between amortized sweeps is bounded by `ENFORCE_EVERY`
/// entries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CachePolicy {
    /// Evict least-recently-written entries (LRU by mtime) until the
    /// directory's `.run` bytes fit under this budget. `None` = no limit.
    pub max_bytes: Option<u64>,
    /// Evict entries whose mtime is older than this. `None` = no limit.
    pub max_age: Option<Duration>,
}

impl CachePolicy {
    /// True when neither budget is set — enforcement is a no-op and the
    /// store path skips the bookkeeping entirely.
    pub fn is_unbounded(&self) -> bool {
        self.max_bytes.is_none() && self.max_age.is_none()
    }
}

/// Cumulative lifecycle bookkeeping, shared across clones of one
/// [`RunCache`] so a daemon's status endpoint sees every evictor pass.
#[derive(Debug, Default)]
struct Lifecycle {
    /// Stores since the last amortized enforcement sweep.
    stores: AtomicU64,
    /// Entries removed by enforcement (eviction + format GC), ever.
    evicted: AtomicU64,
    /// Bytes those removals reclaimed, ever.
    evicted_bytes: AtomicU64,
}

/// A directory of memoized scenario runs. Cheap to construct; all I/O
/// happens per lookup/store.
#[derive(Clone, Debug)]
pub struct RunCache {
    dir: PathBuf,
    policy: CachePolicy,
    lifecycle: Arc<Lifecycle>,
}

/// What a [`RunCache::stats`] directory scan found: how many entries the
/// store holds, how many bytes they occupy, and how many are *stale* —
/// written under an older [`FORMAT_VERSION`] and therefore unreachable
/// by any lookup (only [`RunCache::prune_stale`] will ever touch them).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `.run` entries addressed by the current format version.
    pub entries: usize,
    /// Total size in bytes of all `.run` entries (any version).
    pub bytes: u64,
    /// `.run` entries from older format versions: dead weight on disk.
    pub stale: usize,
}

impl RunCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        RunCache {
            dir: dir.into(),
            policy: CachePolicy::default(),
            lifecycle: Arc::new(Lifecycle::default()),
        }
    }

    /// The same cache with size/age budgets attached; subsequent stores
    /// enforce them incrementally (every `ENFORCE_EVERY`th store).
    pub fn with_policy(mut self, policy: CachePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The lifecycle policy this cache enforces.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// Cumulative `(entries, bytes)` removed by policy enforcement over
    /// this cache's lifetime (shared across clones).
    pub fn evicted(&self) -> (u64, u64) {
        (
            self.lifecycle.evicted.load(Ordering::Relaxed),
            self.lifecycle.evicted_bytes.load(Ordering::Relaxed),
        )
    }

    /// The directory this cache reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry path for `spec`.
    pub fn entry_path(&self, spec: &ScenarioSpec) -> PathBuf {
        self.dir.join(format!(
            "{:016x}-s{}-t{}-v{}.run",
            spec.hash(),
            spec.seed,
            spec.trials,
            FORMAT_VERSION
        ))
    }

    /// Looks up `spec`; `Some(tables)` replays the stored run
    /// byte-identically. Missing, unreadable, corrupted or
    /// canonical-mismatched entries are all `None`.
    pub fn load(&self, spec: &ScenarioSpec) -> Option<Vec<Table>> {
        let text = fs::read_to_string(self.entry_path(spec)).ok()?;
        parse_entry(&text, &spec.canonical())
    }

    /// Stores a run's tables under `spec`'s key (atomic
    /// write-then-rename, unsynced — see the module docs; concurrent
    /// writers of the same spec converge on identical bytes by
    /// determinism).
    pub fn store(&self, spec: &ScenarioSpec, tables: &[Table]) -> std::io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let path = self.entry_path(spec);
        // Unique per process AND per store call: concurrent writers of
        // the same spec (e.g. parallel tests) must not share a temp file.
        static STORE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = STORE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp{}-{seq}", std::process::id()));
        fs::write(&tmp, write_entry(spec, tables))?;
        fs::rename(&tmp, &path)?;
        // Amortized lifecycle enforcement: every Nth store sweeps the
        // directory. An enforcement I/O error must not fail the store —
        // the entry itself landed — so it is deliberately swallowed.
        if !self.policy.is_unbounded()
            && self.lifecycle.stores.fetch_add(1, Ordering::Relaxed) % ENFORCE_EVERY
                == ENFORCE_EVERY - 1
        {
            let _ = self.enforce_policy();
        }
        Ok(())
    }

    /// Every `.run` file in the cache directory, each paired with whether
    /// it is *stale* (written under an older [`FORMAT_VERSION`], so no
    /// lookup can reach it). Other files, in-flight `.tmp*` writes among
    /// them, are skipped. A missing directory is an empty cache.
    fn scan(&self) -> std::io::Result<Vec<(fs::DirEntry, bool)>> {
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let current = format!("-v{FORMAT_VERSION}.run");
        Ok(entries
            .flatten()
            .filter_map(|entry| {
                let name = entry.file_name();
                let name = name.to_str()?;
                let stale = !name.ends_with(&current);
                name.ends_with(".run").then_some((entry, stale))
            })
            .collect())
    }

    /// One full lifecycle sweep: format-version GC (stale-version entries
    /// can never be addressed again), then age expiry, then LRU-by-mtime
    /// eviction until the surviving `.run` bytes fit under `max_bytes`.
    /// Returns `(entries removed, bytes reclaimed)` and accumulates both
    /// into the shared [`RunCache::evicted`] counters. A missing
    /// directory is an empty cache: `(0, 0)`.
    pub fn enforce_policy(&self) -> std::io::Result<(usize, u64)> {
        let now = SystemTime::now();
        let mut removed = 0usize;
        let mut reclaimed = 0u64;
        // Survivors of GC + age expiry, as (mtime, bytes, path).
        let mut live: Vec<(SystemTime, u64, PathBuf)> = Vec::new();
        let mut live_bytes = 0u64;
        for (entry, stale) in self.scan()? {
            let Ok(meta) = entry.metadata() else { continue };
            let bytes = meta.len();
            let mtime = meta.modified().unwrap_or(now);
            let expired = self
                .policy
                .max_age
                .is_some_and(|max| now.duration_since(mtime).is_ok_and(|age| age > max));
            if stale || expired {
                fs::remove_file(entry.path())?;
                removed += 1;
                reclaimed += bytes;
            } else {
                live_bytes += bytes;
                live.push((mtime, bytes, entry.path()));
            }
        }
        if let Some(max) = self.policy.max_bytes {
            if live_bytes > max {
                // Oldest mtime first; ties broken by path so concurrent
                // sweeps pick the same victims.
                live.sort_by(|a, b| (a.0, &a.2).cmp(&(b.0, &b.2)));
                for (_, bytes, path) in &live {
                    if live_bytes <= max {
                        break;
                    }
                    fs::remove_file(path)?;
                    removed += 1;
                    reclaimed += *bytes;
                    live_bytes -= *bytes;
                }
            }
        }
        self.lifecycle
            .evicted
            .fetch_add(removed as u64, Ordering::Relaxed);
        self.lifecycle
            .evicted_bytes
            .fetch_add(reclaimed, Ordering::Relaxed);
        Ok((removed, reclaimed))
    }

    /// Scans the cache directory and reports entry/byte/stale counts. A
    /// missing or unreadable directory is an empty cache. Non-`.run` files
    /// (including in-flight `.tmp*` writes) are ignored.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for (entry, stale) in self.scan().unwrap_or_default() {
            if stale {
                stats.stale += 1;
            } else {
                stats.entries += 1;
            }
            if let Ok(meta) = entry.metadata() {
                stats.bytes += meta.len();
            }
        }
        stats
    }

    /// Removes entries written under older [`FORMAT_VERSION`]s — they can
    /// never be addressed again, so they are pure disk waste. Returns
    /// `(entries removed, bytes reclaimed)`; a missing directory removes
    /// nothing.
    pub fn prune_stale(&self) -> std::io::Result<(usize, u64)> {
        let mut removed = 0;
        let mut bytes = 0u64;
        for (entry, _) in self.scan()?.into_iter().filter(|&(_, stale)| stale) {
            if let Ok(meta) = entry.metadata() {
                bytes += meta.len();
            }
            fs::remove_file(entry.path())?;
            removed += 1;
        }
        Ok((removed, bytes))
    }
}

/// The default cache directory: `MMTAG_CACHE_DIR` if set, else
/// `target/mmtag-run-cache` under the current directory — inside the
/// build tree on purpose, so `cargo clean` invalidates it together with
/// the code that produced it.
pub fn default_dir() -> PathBuf {
    match std::env::var_os("MMTAG_CACHE_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => Path::new("target").join("mmtag-run-cache"),
    }
}

/// One-line escaping for free text (titles, labels, canonical specs):
/// backslash, tab and newline — the three bytes the line/field framing
/// uses — become `\\`, `\t`, `\n`.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape`]; `None` on a dangling or unknown escape.
fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            't' => out.push('\t'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

fn write_entry(spec: &ScenarioSpec, tables: &[Table]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{MAGIC} {FORMAT_VERSION}\n"));
    out.push_str(&format!("spec\t{}\n", escape(&spec.canonical())));
    out.push_str(&format!("tables\t{}\n", tables.len()));
    for t in tables {
        out.push_str(&format!("table\t{}\n", escape(t.title())));
        out.push_str(&format!("columns\t{}", t.columns().len()));
        for c in t.columns() {
            out.push('\t');
            out.push_str(&escape(c));
        }
        out.push('\n');
        out.push_str(&format!("rows\t{}\n", t.len()));
        for r in 0..t.len() {
            out.push_str("r\t");
            out.push_str(&escape(t.label(r)));
            for c in 0..t.columns().len() {
                out.push_str(&format!("\t{:016x}", t.cell(r, c).to_bits()));
            }
            out.push('\n');
        }
    }
    out.push_str("end\n");
    out
}

/// Parses an entry, validating it against the expected canonical spec.
/// Every failure mode — truncation, version skew, malformed counts or
/// hex, spec mismatch — returns `None` (a cache miss).
fn parse_entry(text: &str, want_canonical: &str) -> Option<Vec<Table>> {
    let mut lines = text.lines();
    let header = lines.next()?;
    let version = header.strip_prefix(MAGIC)?.trim();
    if version.parse::<u32>().ok()? != FORMAT_VERSION {
        return None;
    }
    let spec_line = lines.next()?.strip_prefix("spec\t")?;
    if unescape(spec_line)? != want_canonical {
        return None;
    }
    let n_tables: usize = lines.next()?.strip_prefix("tables\t")?.parse().ok()?;
    let mut tables = Vec::with_capacity(n_tables.min(1024));
    for _ in 0..n_tables {
        let title = unescape(lines.next()?.strip_prefix("table\t")?)?;
        let mut cols = lines.next()?.strip_prefix("columns\t")?.split('\t');
        let n_cols: usize = cols.next()?.parse().ok()?;
        let columns: Vec<String> = cols.map(unescape).collect::<Option<_>>()?;
        if columns.len() != n_cols || n_cols == 0 {
            return None;
        }
        let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
        let mut table = Table::new(&title, &col_refs);
        let n_rows: usize = lines.next()?.strip_prefix("rows\t")?.parse().ok()?;
        for _ in 0..n_rows {
            let mut fields = lines.next()?.strip_prefix("r\t")?.split('\t');
            let label = unescape(fields.next()?)?;
            let cells: Vec<f64> = fields
                .map(|h| {
                    (h.len() == 16)
                        .then(|| u64::from_str_radix(h, 16).ok().map(f64::from_bits))
                        .flatten()
                })
                .collect::<Option<_>>()?;
            if cells.len() != n_cols {
                return None;
            }
            table.push_labeled_row(&label, &cells);
        }
        tables.push(table);
    }
    if lines.next()? != "end" || lines.next().is_some() {
        return None;
    }
    Some(tables)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::AxisKind;

    fn temp_cache(tag: &str) -> RunCache {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        RunCache::at(std::env::temp_dir().join(format!(
            "mmtag-cache-test-{tag}-{}-{nanos}",
            std::process::id()
        )))
    }

    fn spec() -> ScenarioSpec {
        ScenarioSpec::paper_link("e00-cache", "cache unit test")
            .with_axis("x", AxisKind::Values(vec![1.0, 2.5, -0.0]))
            .with_trials(123)
            .with_seed(42)
    }

    fn tables() -> Vec<Table> {
        let mut t = Table::new("weird cells", &["x", "y\twith\ttabs"]);
        t.push_row(&[1.0, f64::NAN]);
        t.push_labeled_row("label\nnewline", &[f64::INFINITY, -0.0]);
        t.push_labeled_row("plain", &[1.0e-300, 2f64.powi(-1074)]);
        let mut u = Table::new("second", &["only"]);
        u.push_row(&[0.1 + 0.2]); // a value decimal text would mangle
        vec![t, u]
    }

    #[test]
    fn round_trip_is_bit_identical_including_nan_and_negative_zero() {
        let cache = temp_cache("roundtrip");
        let spec = spec();
        let original = tables();
        cache.store(&spec, &original).unwrap();
        let replayed = cache.load(&spec).expect("stored entry must hit");
        assert_eq!(original.len(), replayed.len());
        for (a, b) in original.iter().zip(&replayed) {
            assert_eq!(a.title(), b.title());
            assert_eq!(a.columns(), b.columns());
            assert_eq!(a.len(), b.len());
            for r in 0..a.len() {
                assert_eq!(a.label(r), b.label(r));
                for c in 0..a.columns().len() {
                    assert_eq!(
                        a.cell(r, c).to_bits(),
                        b.cell(r, c).to_bits(),
                        "cell ({r},{c})"
                    );
                }
            }
            // The serialized artifacts must also match byte for byte.
            assert_eq!(a.render(), b.render());
            assert_eq!(a.to_csv(), b.to_csv());
        }
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn any_spec_change_misses() {
        let cache = temp_cache("specchange");
        let base = spec();
        cache.store(&base, &tables()).unwrap();
        assert!(cache.load(&base).is_some());
        let variants = [
            base.clone().with_seed(43),
            base.clone().with_trials(124),
            base.clone()
                .with_axis("x", AxisKind::Values(vec![1.0, 2.5])),
            base.clone().with_axis("extra", AxisKind::Values(vec![0.0])),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert!(cache.load(v).is_none(), "variant {i} must miss");
        }
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn hash_collision_with_different_canonical_misses() {
        // Same file on disk, different canonical string → the stored
        // canonical fails verification and the entry is ignored.
        let cache = temp_cache("collision");
        let a = spec();
        cache.store(&a, &tables()).unwrap();
        let b = a.clone().with_seed(99);
        // Force b's lookup at a's path by copying the entry.
        fs::copy(cache.entry_path(&a), cache.entry_path(&b)).unwrap();
        assert!(cache.load(&b).is_none(), "mismatched canonical must miss");
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupted_entries_are_misses_not_panics() {
        let cache = temp_cache("corrupt");
        let spec = spec();
        cache.store(&spec, &tables()).unwrap();
        let path = cache.entry_path(&spec);
        let good = fs::read_to_string(&path).unwrap();
        let header = format!("{MAGIC} {FORMAT_VERSION}\n");
        assert!(good.starts_with(&header));
        let corruptions: Vec<String> = vec![
            String::new(),                                        // empty file
            good[..good.len() / 2].to_string(),                   // truncated
            good.replacen(&header, &format!("{MAGIC} 999\n"), 1), // version skew
            good.replacen("tables\t2", "tables\t7", 1),           // bad count
            good.replace('r', "q"),                               // mangled rows
            format!("{good}trailing garbage\n"),                  // data past end
            good.replacen("rows\t3", "rows\tlots", 1),            // non-numeric
        ];
        for (i, bad) in corruptions.iter().enumerate() {
            fs::write(&path, bad).unwrap();
            assert!(cache.load(&spec).is_none(), "corruption {i} must miss");
        }
        // A rewrite of the good bytes hits again.
        fs::write(&path, &good).unwrap();
        assert!(cache.load(&spec).is_some());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn every_cut_of_an_entry_is_a_miss_or_the_stored_tables() {
        // What an unsynced store can leave after a crash: the entry cut
        // at any byte, or a file of its length that holds only zeros.
        let cache = temp_cache("cuts");
        let spec = spec();
        let stored = tables();
        cache.store(&spec, &stored).unwrap();
        let path = cache.entry_path(&spec);
        let good = fs::read(&path).unwrap();
        let mut hits = 0;
        for cut in 0..=good.len() {
            fs::write(&path, &good[..cut]).unwrap();
            if let Some(loaded) = cache.load(&spec) {
                hits += 1;
                assert_eq!(loaded.len(), stored.len(), "cut at {cut}");
                for (a, b) in stored.iter().zip(&loaded) {
                    assert_eq!(a.render(), b.render(), "cut at {cut}");
                    for r in 0..a.len() {
                        for c in 0..a.columns().len() {
                            let (x, y) = (a.cell(r, c), b.cell(r, c));
                            assert_eq!(x.to_bits(), y.to_bits(), "cut at {cut}");
                        }
                    }
                }
            }
        }
        // Only the whole entry and the one missing its final newline.
        assert_eq!(hits, 2);
        fs::write(&path, vec![0u8; good.len()]).unwrap();
        assert!(cache.load(&spec).is_none(), "a zero-filled entry must miss");
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn missing_directory_is_a_miss_and_store_creates_it() {
        let cache = temp_cache("fresh");
        assert!(cache.load(&spec()).is_none());
        cache.store(&spec(), &tables()).unwrap();
        assert!(cache.load(&spec()).is_some());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn concurrent_writers_of_one_key_leave_a_valid_entry() {
        // Two threads race store() on the same key. Each writes its own
        // temp file, then both rename onto the final path: last writer
        // wins, and at no interleaving does a reader see a half-entry.
        // The writers store *different* tables (standing in for two code
        // versions) so the test can tell whose bytes survived.
        let cache = temp_cache("race");
        let spec = spec();
        let mut t_a = Table::new("racer", &["v"]);
        t_a.push_row(&[1.0]);
        let mut t_b = Table::new("racer", &["v"]);
        t_b.push_row(&[2.0]);
        let (a, b) = (vec![t_a], vec![t_b]);
        for round in 0..20 {
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                s.spawn(|| {
                    barrier.wait();
                    cache.store(&spec, &a).unwrap();
                });
                s.spawn(|| {
                    barrier.wait();
                    cache.store(&spec, &b).unwrap();
                });
            });
            let got = cache
                .load(&spec)
                .unwrap_or_else(|| panic!("round {round}: racing stores must leave a hit"));
            let v = got[0].cell(0, 0);
            assert!(v == 1.0 || v == 2.0, "round {round}: got {v}");
        }
        // No temp files may survive the races.
        let leftovers: Vec<_> = fs::read_dir(cache.dir())
            .unwrap()
            .flatten()
            .filter(|e| !e.file_name().to_string_lossy().ends_with(".run"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        // Corruption-as-miss still holds on the surviving entry.
        fs::write(cache.entry_path(&spec), "mangled").unwrap();
        assert!(cache.load(&spec).is_none());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn stats_and_prune_stale_track_version_skew() {
        let cache = temp_cache("stats");
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(cache.prune_stale().unwrap(), (0, 0));

        cache.store(&spec(), &tables()).unwrap();
        let other = spec().with_seed(7);
        cache.store(&other, &tables()).unwrap();
        let entry_bytes = fs::metadata(cache.entry_path(&spec())).unwrap().len()
            + fs::metadata(cache.entry_path(&other)).unwrap().len();
        let fresh = cache.stats();
        assert_eq!((fresh.entries, fresh.stale), (2, 0));
        assert_eq!(fresh.bytes, entry_bytes);

        // Plant two old-version entries and a non-entry file.
        let old_a = cache.dir().join("0123456789abcdef-s1-t10-v0.run");
        let old_b = cache.dir().join("fedcba9876543210-s2-t20-v0.run");
        fs::write(&old_a, "old format").unwrap();
        fs::write(&old_b, "old format").unwrap();
        fs::write(cache.dir().join("README.txt"), "not an entry").unwrap();
        let mixed = cache.stats();
        assert_eq!((mixed.entries, mixed.stale), (2, 2));
        assert!(mixed.bytes > entry_bytes);

        // Prune removes exactly the stale entries (and reports their
        // bytes); live ones still hit.
        let stale_bytes = fs::metadata(&old_a).unwrap().len() + fs::metadata(&old_b).unwrap().len();
        assert_eq!(cache.prune_stale().unwrap(), (2, stale_bytes));
        assert!(!old_a.exists() && !old_b.exists());
        let pruned = cache.stats();
        assert_eq!((pruned.entries, pruned.stale), (2, 0));
        assert!(cache.load(&spec()).is_some());
        assert!(cache.dir().join("README.txt").exists());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn size_budget_evicts_lru_and_survivors_replay_byte_identically() {
        let cache = temp_cache("evict");
        // Store a sequence of distinct entries, oldest first, with
        // forced mtime spacing so LRU order is unambiguous even on
        // coarse-mtime filesystems.
        let specs: Vec<ScenarioSpec> = (0..6).map(|s| spec().with_seed(s)).collect();
        for (i, s) in specs.iter().enumerate() {
            cache.store(s, &tables()).unwrap();
            let mtime = SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000 + i as u64 * 60);
            set_mtime(&cache.entry_path(s), mtime);
        }
        let per_entry = fs::metadata(cache.entry_path(&specs[0])).unwrap().len();
        let total = per_entry * specs.len() as u64;
        // Budget for four entries: the two oldest are the LRU victims.
        let bounded = cache.clone().with_policy(CachePolicy {
            max_bytes: Some(total - 2 * per_entry),
            max_age: None,
        });
        let (removed, bytes) = bounded.enforce_policy().unwrap();
        assert_eq!((removed, bytes), (2, 2 * per_entry));
        assert_eq!(bounded.evicted(), (2, 2 * per_entry));
        assert!(cache.load(&specs[0]).is_none(), "oldest must be evicted");
        assert!(
            cache.load(&specs[1]).is_none(),
            "2nd-oldest must be evicted"
        );
        // Survivors replay byte-identically through the serializers.
        let reference = tables();
        for s in &specs[2..] {
            let replayed = cache.load(s).expect("survivor must still hit");
            for (a, b) in reference.iter().zip(&replayed) {
                assert_eq!(a.render(), b.render());
                assert_eq!(a.to_csv(), b.to_csv());
            }
        }
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn age_budget_expires_old_entries_only() {
        let cache = temp_cache("age");
        let old = spec().with_seed(1);
        let fresh = spec().with_seed(2);
        cache.store(&old, &tables()).unwrap();
        cache.store(&fresh, &tables()).unwrap();
        let ancient = SystemTime::now() - Duration::from_secs(3600);
        set_mtime(&cache.entry_path(&old), ancient);
        let bounded = cache.clone().with_policy(CachePolicy {
            max_bytes: None,
            max_age: Some(Duration::from_secs(60)),
        });
        let (removed, bytes) = bounded.enforce_policy().unwrap();
        assert_eq!(removed, 1);
        assert!(bytes > 0);
        assert!(cache.load(&old).is_none());
        assert!(cache.load(&fresh).is_some());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn enforce_policy_garbage_collects_stale_format_versions() {
        let cache = temp_cache("gc");
        cache.store(&spec(), &tables()).unwrap();
        // A stale FORMAT_VERSION entry: unreachable by any lookup, so
        // enforcement removes it even though it is neither old nor over
        // the size budget.
        let stale = cache.dir().join("0123456789abcdef-s1-t10-v0.run");
        fs::write(&stale, "old format").unwrap();
        let bounded = cache.clone().with_policy(CachePolicy {
            max_bytes: Some(u64::MAX),
            max_age: None,
        });
        let (removed, bytes) = bounded.enforce_policy().unwrap();
        assert_eq!((removed, bytes), (1, 10));
        assert!(!stale.exists());
        assert!(cache.load(&spec()).is_some(), "current entry untouched");
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn store_enforces_amortized_and_unbounded_policy_never_scans() {
        // With a one-entry byte budget, ENFORCE_EVERY stores trigger a
        // sweep that trims the directory back near the budget.
        let cache = temp_cache("amortized").with_policy(CachePolicy {
            max_bytes: Some(1),
            max_age: None,
        });
        for s in 0..(ENFORCE_EVERY + 1) {
            cache.store(&spec().with_seed(s), &tables()).unwrap();
        }
        let (evicted, evicted_bytes) = cache.evicted();
        assert!(evicted >= 1, "amortized sweep must have run");
        assert!(evicted_bytes > 0);
        assert!(
            cache.stats().entries <= ENFORCE_EVERY as usize + 1,
            "directory stays bounded near the budget"
        );
        // An unbounded cache never counts stores or evicts.
        let unbounded = temp_cache("unbounded");
        for s in 0..(ENFORCE_EVERY + 1) {
            unbounded.store(&spec().with_seed(s), &tables()).unwrap();
        }
        assert_eq!(unbounded.evicted(), (0, 0));
        assert_eq!(unbounded.stats().entries, ENFORCE_EVERY as usize + 1);
        let _ = fs::remove_dir_all(cache.dir());
        let _ = fs::remove_dir_all(unbounded.dir());
    }

    /// Sets a file's mtime without any external crate: truncating append
    /// is not enough, so rewrite via `filetime`-free `File::set_times`
    /// (stable since 1.75).
    fn set_mtime(path: &Path, mtime: SystemTime) {
        let f = fs::File::options().append(true).open(path).unwrap();
        let times = fs::FileTimes::new().set_modified(mtime);
        f.set_times(times).unwrap();
    }
}

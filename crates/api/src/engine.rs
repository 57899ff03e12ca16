//! [`QueryEngine`]: the one execution path behind `failctl report`,
//! `failctl compare`, and every `faild` query.
//!
//! # One path, two lifetimes
//!
//! The CLI constructs a fresh engine per invocation, so its caches are
//! always cold and execution is exactly the old in-CLI pipeline. The
//! server keeps one engine alive across clients; that engine memoizes
//!
//! * **indexed logs** — the unfiltered [`StreamView`] of every parsed
//!   or generated log, built once by value from the records, one per
//!   source: keyed by the [`QuerySource`] itself (a file path, or a
//!   model name and seed), so a file named like a model's catalog id
//!   never serves that model. A file entry also records the
//!   fingerprint (`bytes`, `crc32`) of the bytes it parsed, and serves
//!   only a read with that fingerprint; a parse of new bytes replaces
//!   it, so an appended log holds one view, not one per append. Each
//!   entry stores the [`Collector`] that recorded
//!   the original parse/generation, and a cache hit replays those
//!   instruments into the new query's collector
//!   ([`Collector::merge_from`]), so the `metrics` section and `--trace`
//!   exports stay byte-identical to an uncached run. Filtered views are
//!   never kept: every `--where` filters the held view per query, and
//!   the render cache keeps the output.
//! * **rendered outputs** — keyed by the full query shape (command,
//!   source fingerprints, filters, sections, format, index policy,
//!   and — when snapshots are in play — the snapshot freshness state).
//!   The thread count is deliberately **excluded**: output is
//!   byte-identical at every `--threads` value, so all thread counts
//!   share one entry. A log that grows on disk changes its fingerprint,
//!   which invalidates every dependent entry.
//!
//! Only successful outputs are cached; errors always re-execute.
//!
//! # One read per source
//!
//! `execute` reads each file of a report or compare at most once, into
//! a [`faillog::LogFile`]. That one buffer yields the render key (its
//! fingerprint plus [`failindex::freshness`]), the warm open or
//! extension ([`failindex::open`]), the cold parse, and the fingerprint
//! and file identity of any snapshot saved afterwards, so a query never
//! mixes two versions of a file. An unreadable file bypasses the render
//! cache; its error (`PATH: i/o error: ...`, whatever the index mode) is
//! raised where execution reaches the load, after argument validation.
//!
//! # Vouched reads
//!
//! One rule decides whether a file still holds the bytes a query
//! fingerprinted: [`failindex::vouch`], git's racy-clean rule. A
//! recorded read — the file's `stat` identity (device, inode, length,
//! mtime, ctime) and the time just before that `stat` — vouches for the
//! file while it still has that identity and the read came more than
//! `G` after its last change (100 ms, or 2 s on whole-second
//! filesystems). Warm opens and render-cache hits both use it:
//!
//! * **Warm opens.** With `--index auto` or `require`, a file source is
//!   opened with [`failindex::open_log`]: when the snapshot beside it
//!   recorded a read that vouches for the open log, the log is not read
//!   at all. The render key is then built from the snapshot's recorded
//!   fingerprint with freshness `exact` — byte-identical to the key a
//!   read would build — and the query trace counts `index.snapshot_hit`
//!   exactly as a hashed exact hit does, so output, `metrics` and
//!   `--trace` are unchanged. The engine counts each such source on
//!   `engine.snapshots_vouched` in [`QueryEngine::metrics`]. A snapshot
//!   body that fails its checksum or decode sends the source back to
//!   the read path.
//! * **Render-cache hits.** Every read replaces the path's *vouched
//!   entry*: its fingerprint (with the freshness tag when the key needs
//!   one), the read that vouches for the log ([`LogSource::stat`]), and
//!   a `stat` of the `.fsidx`, or its absence, taken before the open
//!   reads the snapshot header, so a rename between the two shows up as
//!   a changed identity. A later query re-stats both paths and reuses
//!   the entry only when the rule vouches for the log and for the
//!   snapshot, or the snapshot was absent and still is. The render key
//!   is then built from the entries by the same `render_key` code, so
//!   it is byte-identical to a fresh read's, and a hit returns without
//!   reading (counted on `engine.fingerprints_reused`). Everything else
//!   takes the read path above. A read torn by a concurrent write
//!   records no identity, so it is never vouched.
//!
//! A read within `G` of a file's last change is never vouched: until a
//! read comes `G` after the change, each query re-reads the file. The
//! rule's blind spots are git's: a clock stepped backwards, an NFS
//! server whose clock runs ahead of the client's, and a single write in
//! flight for longer than `G`.
//!
//! # Dirty snapshots
//!
//! Every cold parse of a file (index mode `off`, where the CLI would
//! never write a snapshot) is held with the [`failindex::SourceInfo`]
//! fingerprint of the bytes it parsed and the file identity of that
//! read, and marked dirty. [`QueryEngine::persist_dirty`] — called by
//! the server on graceful shutdown — writes the held views still marked
//! dirty to disk so the next process starts warm. Auto-mode cold parses
//! refresh their snapshot immediately, for filtered queries too: every
//! parse is unfiltered.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::{Arc, Mutex};

use failfilter::CompiledPredicate;
use failindex::{Freshness, IndexMode, IndexedLoad, LogSource, SourceInfo, Vouch};
use faillog::{LogFile, ParseOptions, ReadStat};
use failscope::{SectionCtx, StreamView};
use failsim::{Simulator, SystemModel};
use failtrace::Collector;
use failtypes::{Error, JsonValue, Result};

use crate::request::{OutputFormat, QueryCmd, QueryOptions, QueryRequest, QuerySource};

/// Default byte budget for the render cache (64 MiB). Rendered
/// reports are small (a few KiB), so the default holds thousands of
/// entries; `faild --cache-bytes` overrides it. The bound only ever
/// affects memory, never correctness: an evicted entry re-renders.
pub const DEFAULT_CACHE_BYTES: usize = 64 * 1024 * 1024;

/// The result of executing one [`QueryRequest`].
#[derive(Debug)]
pub struct QueryOutcome {
    /// The rendered output, byte-identical to the equivalent CLI
    /// invocation.
    pub output: String,
    /// The query's trace collector (load instruments replayed on cache
    /// hits), for `--trace` exports.
    pub trace: Collector,
    /// `true` when the output was served from the render cache.
    pub cached: bool,
}

/// The index of a parsed (or generated) log plus the collector that
/// recorded the work, replayed into later queries that reuse the entry.
struct CachedLog {
    view: Arc<StreamView>,
    load_trace: Collector,
    /// The file fingerprint at parse time (`None` for models).
    source_info: Option<SourceInfo>,
    /// The identity of the read that produced `source_info`, when it
    /// had one.
    read: Option<ReadStat>,
    /// Whether this cold-parsed file view awaits snapshot persistence
    /// at shutdown.
    dirty: bool,
}

struct RenderEntry {
    output: String,
    trace: Collector,
    /// Every source this output depends on, so a catalog `evict` can
    /// drop dependent renders.
    sources: Vec<QuerySource>,
    /// The entry's current recency stamp; `order` records with an
    /// older stamp are stale and skipped on eviction.
    stamp: u64,
    /// Charged against the byte budget: key + output length.
    bytes: usize,
}

/// An LRU render cache bounded by total bytes, not entry count.
///
/// Recency is tracked with stamps: every hit pushes a fresh
/// `(key, stamp)` pair instead of splicing the old one out of the
/// queue, and eviction skips pairs whose stamp no longer matches the
/// entry's (lazy invalidation). The queue is compacted when the stale
/// pairs outnumber the live entries.
#[derive(Default)]
struct RenderCache {
    map: HashMap<String, RenderEntry>,
    order: VecDeque<(String, u64)>,
    next_stamp: u64,
    bytes: usize,
}

impl RenderCache {
    /// Marks `key` as most recently used.
    fn touch(&mut self, key: &str) {
        self.next_stamp += 1;
        let stamp = self.next_stamp;
        if let Some(entry) = self.map.get_mut(key) {
            entry.stamp = stamp;
            self.order.push_back((key.to_string(), stamp));
        }
        self.maybe_compact();
    }

    /// Inserts an entry as most recently used and charges its bytes.
    fn insert(&mut self, key: String, mut entry: RenderEntry) {
        self.next_stamp += 1;
        entry.stamp = self.next_stamp;
        self.bytes += entry.bytes;
        self.order.push_back((key.clone(), entry.stamp));
        self.map.insert(key, entry);
    }

    /// Evicts least-recently-used entries until the budget holds.
    /// Returns how many live entries were dropped.
    fn evict_to(&mut self, budget: usize) -> usize {
        let mut evicted = 0;
        while self.bytes > budget {
            let Some((key, stamp)) = self.order.pop_front() else {
                break;
            };
            let live = self.map.get(&key).is_some_and(|e| e.stamp == stamp);
            if live {
                if let Some(entry) = self.map.remove(&key) {
                    self.bytes -= entry.bytes;
                    evicted += 1;
                }
            }
        }
        evicted
    }

    /// Drops every entry depending on `source`; returns the count.
    fn remove_source(&mut self, source: &QuerySource) -> usize {
        let doomed: Vec<String> = self
            .map
            .iter()
            .filter(|(_, e)| e.sources.contains(source))
            .map(|(k, _)| k.clone())
            .collect();
        for key in &doomed {
            if let Some(entry) = self.map.remove(key) {
                self.bytes -= entry.bytes;
            }
        }
        self.maybe_compact();
        doomed.len()
    }

    /// Rebuilds the recency queue once stale pairs dominate, keeping
    /// amortized O(1) touches without unbounded queue growth.
    fn maybe_compact(&mut self) {
        if self.order.len() > 2 * self.map.len() + 64 {
            self.order
                .retain(|(key, stamp)| self.map.get(key).is_some_and(|e| e.stamp == *stamp));
        }
    }
}

/// The shared query executor. See the module docs for the caching and
/// determinism contract.
pub struct QueryEngine {
    /// One unfiltered view per source. Keyed by the source itself, not
    /// its [`catalog_id`]: a file may be named like a model's id.
    logs: Mutex<HashMap<QuerySource, CachedLog>>,
    renders: Mutex<RenderCache>,
    metrics: Collector,
    /// Render-cache byte budget (key + output bytes per entry).
    cache_bytes: usize,
    /// Host parallelism, read once: the most workers any request gets.
    max_threads: usize,
    /// Per file path: the fingerprint of its last read and what vouches
    /// for it (see the module docs).
    vouched: Mutex<HashMap<String, Vouched>>,
}

impl std::fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEngine").finish_non_exhaustive()
    }
}

impl Default for QueryEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryEngine {
    /// A fresh engine with empty caches and the default render-cache
    /// byte budget ([`DEFAULT_CACHE_BYTES`]).
    pub fn new() -> Self {
        Self::with_cache_bytes(DEFAULT_CACHE_BYTES)
    }

    /// A fresh engine whose render cache is bounded to `cache_bytes`
    /// (the `faild --cache-bytes` knob). A budget of 0 disables render
    /// caching entirely; log memoization is unaffected.
    pub fn with_cache_bytes(cache_bytes: usize) -> Self {
        QueryEngine {
            logs: Mutex::new(HashMap::new()),
            renders: Mutex::new(RenderCache::default()),
            metrics: Collector::new(),
            cache_bytes,
            max_threads: failstats::available_threads(),
            vouched: Mutex::new(HashMap::new()),
        }
    }

    /// The worker count `opts` gets: its `threads`, capped at the host's
    /// parallelism. Output is byte-identical at any count, so the cap
    /// changes no reply; it keeps a wire client's `threads` field from
    /// choosing how many threads the parser and renderers spawn.
    fn threads(&self, opts: &QueryOptions) -> usize {
        opts.threads.min(self.max_threads)
    }

    /// The engine's own instrumentation (cache hits/misses, snapshot
    /// persistence). Cloning shares the registry, so a server can record
    /// its own counters into the same collector and export one
    /// `metrics` document.
    pub fn metrics(&self) -> &Collector {
        &self.metrics
    }

    /// Executes one query. The output is byte-identical to the
    /// equivalent CLI invocation at any thread count, warm or cold,
    /// cached or uncached.
    ///
    /// # Errors
    ///
    /// Propagates argument validation, filter compilation, I/O, and
    /// parse errors with the same messages the CLI commands always
    /// produced. Errors are never cached.
    pub fn execute(&self, req: &QueryRequest) -> Result<QueryOutcome> {
        let filter = build_filter(&req.opts)?;
        let paths = file_paths(&req.cmd);
        let needs_fsidx = req.opts.index_mode() != IndexMode::Off;
        if !paths.is_empty() {
            if let Some(prints) = self.vouched_prints(&paths, needs_fsidx) {
                let (key, _) = render_key(req, &paths, &prints);
                if let Some(hit) = self.render_hit(&key) {
                    let reused = paths.len() as u64;
                    self.metrics.incr("engine.fingerprints_reused", reused);
                    return Ok(hit);
                }
            }
        }
        // Each file source is read exactly once, or not at all when its
        // snapshot vouches for it; the render key, the snapshot
        // decision, the parse and any snapshot saved all use these
        // bytes. A read error waits until execution reaches the load, so
        // argument errors keep their precedence. The snapshot is stat-ed
        // before the open, which may read its header.
        let mut snapshots = Vec::with_capacity(paths.len());
        let mut files: Vec<Result<LogSource>> = paths
            .iter()
            .map(|path| {
                snapshots.push(ReadStat::now(&failindex::snapshot_path(path)));
                let opened = if needs_fsidx {
                    failindex::open_log(path)
                } else {
                    LogFile::read(path).map(LogSource::Read)
                };
                opened.map_err(|e| Error::run(format!("{path}: {e}")))
            })
            .collect();
        let prints: Option<Vec<Fingerprint>> = files
            .iter()
            .map(|file| file.as_ref().ok().map(|f| Fingerprint::of(f, needs_fsidx)))
            .collect();
        if let Some(prints) = &prints {
            self.record_vouched(&paths, &files, prints, snapshots);
        }
        let key = prints.map(|prints| render_key(req, &paths, &prints));
        if let Some((key, _)) = &key {
            if let Some(hit) = self.render_hit(key) {
                return Ok(hit);
            }
        }
        self.metrics.incr("cache.misses", 1);
        let trace = Collector::new();
        let output = match &req.cmd {
            QueryCmd::Report(source) => {
                self.run_report(req, source, files.pop(), &filter, &trace)?
            }
            QueryCmd::Compare { .. } => {
                let new = files.pop().expect("compare reads two files");
                let old = files.pop().expect("compare reads two files");
                self.run_compare(req, old, new, &filter, &trace)?
            }
        };
        if let Some((key, sources)) = key {
            let snapshot = Collector::new();
            snapshot.merge_from(&trace);
            let mut renders = self.renders.lock().unwrap_or_else(|e| e.into_inner());
            if !renders.map.contains_key(&key) {
                let bytes = key.len() + output.len();
                renders.insert(
                    key,
                    RenderEntry {
                        output: output.clone(),
                        trace: snapshot,
                        sources,
                        stamp: 0,
                        bytes,
                    },
                );
                let evicted = renders.evict_to(self.cache_bytes);
                if evicted > 0 {
                    self.metrics.incr("cache.evictions", evicted as u64);
                }
            }
        }
        Ok(QueryOutcome {
            output,
            trace,
            cached: false,
        })
    }

    /// The cached output under `key`, if any, as a cache-hit outcome.
    fn render_hit(&self, key: &str) -> Option<QueryOutcome> {
        let mut renders = self.renders.lock().unwrap_or_else(|e| e.into_inner());
        let entry = renders.map.get(key)?;
        self.metrics.incr("cache.hits", 1);
        let trace = Collector::new();
        trace.merge_from(&entry.trace);
        let output = entry.output.clone();
        renders.touch(key);
        Some(QueryOutcome {
            output,
            trace,
            cached: true,
        })
    }

    /// The vouched fingerprint of every path, or `None` unless all of
    /// them are still vouched for (and carry a freshness tag when the
    /// request's key needs one).
    fn vouched_prints(&self, paths: &[&str], needs_fsidx: bool) -> Option<Vec<Fingerprint>> {
        let entries: Vec<Vouched> = {
            let vouched = self.vouched.lock().unwrap_or_else(|e| e.into_inner());
            paths
                .iter()
                .map(|path| vouched.get(*path).cloned())
                .collect::<Option<_>>()?
        };
        paths
            .iter()
            .zip(entries)
            .map(|(path, entry)| {
                let complete = !needs_fsidx || entry.print.fsidx.is_some();
                (complete && entry.holds(path)).then_some(entry.print)
            })
            .collect()
    }

    /// Replaces each path's vouched entry with the read just made: the
    /// log's vouching read and the snapshot's `stat` from before the
    /// open. A path whose read recorded no identity (a torn read), or
    /// whose snapshot had none, is forgotten.
    fn record_vouched(
        &self,
        paths: &[&str],
        files: &[Result<LogSource>],
        prints: &[Fingerprint],
        snapshots: Vec<Option<Option<ReadStat>>>,
    ) {
        let mut vouched = self.vouched.lock().unwrap_or_else(|e| e.into_inner());
        for (((path, file), print), fsidx) in paths.iter().zip(files).zip(prints).zip(snapshots) {
            let log = file.as_ref().ok().and_then(LogSource::stat);
            match (log, fsidx) {
                (Some(log), Some(fsidx)) => {
                    let print = print.clone();
                    vouched.insert((*path).to_string(), Vouched { print, log, fsidx });
                }
                _ => {
                    vouched.remove(*path);
                }
            }
        }
    }

    /// The snapshot freshness of `path` as its vouched entry recorded
    /// it, when the entry still holds.
    fn vouched_freshness(&self, path: &str) -> Option<Freshness> {
        self.vouched_prints(&[path], true)?.pop()?.fsidx
    }

    /// Writes a `.fsidx` snapshot for every cold-parsed file log the
    /// engine is still holding, skipping logs whose snapshot is
    /// already exact. Returns the number of snapshots written. Called
    /// by the server on graceful shutdown.
    pub fn persist_dirty(&self) -> usize {
        let drained: Vec<(String, Arc<StreamView>, SourceInfo, Option<ReadStat>)> = {
            let mut logs = self.logs.lock().unwrap_or_else(|e| e.into_inner());
            logs.iter_mut()
                .filter_map(|(source, entry)| match (source, entry.source_info) {
                    (QuerySource::File(path), Some(info)) if entry.dirty => {
                        entry.dirty = false;
                        Some((path.clone(), Arc::clone(&entry.view), info, entry.read))
                    }
                    _ => None,
                })
                .collect()
        };
        let mut written = 0;
        for (path, view, source, read) in drained {
            if matches!(failindex::probe(&path), Ok(Freshness::Exact)) {
                continue;
            }
            let saved = failindex::save_traced(
                failindex::snapshot_path(&path),
                view.as_ref(),
                source,
                read,
                None,
            );
            if saved.is_ok() {
                written += 1;
                self.metrics.incr("engine.snapshots_persisted", 1);
            }
        }
        written
    }

    /// The number of file logs currently awaiting snapshot persistence.
    pub fn dirty_count(&self) -> usize {
        let logs = self.logs.lock().unwrap_or_else(|e| e.into_inner());
        logs.values().filter(|entry| entry.dirty).count()
    }

    /// Lists every source the engine has memoized, one entry per
    /// source, sorted by catalog id (the file path, or
    /// `model:{name}:{seed}`) for deterministic output; a file named
    /// like a model's id lists before the model. Snapshot freshness
    /// reflects the disk as of this call: it comes from the source's
    /// vouched entry while that entry still holds, and from a live
    /// [`failindex::probe`] otherwise.
    pub fn catalog(&self) -> Vec<CatalogEntry> {
        let held: Vec<(QuerySource, usize, Option<SourceInfo>, bool)> = {
            let logs = self.logs.lock().unwrap_or_else(|e| e.into_inner());
            logs.iter()
                .map(|(source, entry)| {
                    (source.clone(), entry.view.len(), entry.source_info, entry.dirty)
                })
                .collect()
        };
        let render_counts: HashMap<QuerySource, usize> = {
            let renders = self.renders.lock().unwrap_or_else(|e| e.into_inner());
            let mut counts = HashMap::new();
            for entry in renders.map.values() {
                for source in &entry.sources {
                    *counts.entry(source.clone()).or_insert(0) += 1;
                }
            }
            counts
        };
        let mut entries: Vec<CatalogEntry> = held
            .into_iter()
            .map(|(source, records, info, dirty)| {
                let path = match &source {
                    QuerySource::File(path) => Some(path.as_str()),
                    QuerySource::Model { .. } => None,
                };
                let snapshot = path.map(|path| {
                    let freshness = match self.vouched_freshness(path) {
                        Some(fresh) => Ok(fresh),
                        None => failindex::probe(path),
                    };
                    match freshness {
                        Ok(Freshness::Exact) => "exact".to_string(),
                        Ok(Freshness::Prefix { .. }) => "prefix".to_string(),
                        Ok(Freshness::Stale { .. }) => "stale".to_string(),
                        Ok(Freshness::Missing) | Err(_) => "missing".to_string(),
                    }
                });
                CatalogEntry {
                    records,
                    bytes: info.map(|i| i.bytes),
                    crc32: info.map(|i| i.crc32),
                    snapshot,
                    render_entries: render_counts.get(&source).copied().unwrap_or(0),
                    dirty,
                    source: catalog_id(&source),
                }
            })
            .collect();
        // A file named like a model's id lists before the model.
        entries.sort_by_key(|entry| (entry.source.clone(), entry.bytes.is_none()));
        entries
    }

    /// Drops every memoized state for one source: its parsed view,
    /// render-cache entries depending on it, its pending dirty
    /// snapshot, and its vouched fingerprint. The next
    /// query re-parses from disk (or regenerates the model). Render
    /// drops count as cache evictions.
    pub fn evict(&self, source: &QuerySource) -> EvictOutcome {
        let held = self.logs.lock().unwrap_or_else(|e| e.into_inner()).remove(source);
        let logs = usize::from(held.is_some());
        let dirty = usize::from(held.as_ref().is_some_and(|entry| entry.dirty));
        // The view's arrays are freed here, outside the lock.
        drop(held);
        let renders = {
            let mut renders = self.renders.lock().unwrap_or_else(|e| e.into_inner());
            renders.remove_source(source)
        };
        if let QuerySource::File(path) = source {
            let mut vouched = self.vouched.lock().unwrap_or_else(|e| e.into_inner());
            vouched.remove(path);
        }
        if renders > 0 {
            self.metrics.incr("cache.evictions", renders as u64);
        }
        self.metrics.incr("engine.catalog.evict", 1);
        EvictOutcome {
            source: catalog_id(source),
            logs,
            renders,
            dirty,
        }
    }

    /// Ported from the CLI `report` command: resolves the input (model,
    /// warm snapshot, or cold parse), renders the selected sections.
    fn run_report(
        &self,
        req: &QueryRequest,
        source: &QuerySource,
        file: Option<Result<LogSource>>,
        filter: &Option<CompiledPredicate>,
        trace: &Collector,
    ) -> Result<String> {
        let opts = &req.opts;
        let sections = match &opts.sections {
            Some(spec) => failscope::select_sections(spec)?,
            None => failscope::SECTIONS.iter().collect(),
        };
        let (view, warm) = match source {
            QuerySource::Model { name, seed } => {
                if let Some(mode) = opts.index {
                    return Err(Error::args(format!(
                        "--index {mode} only applies to file input (--model {name} is generated in-process)"
                    )));
                }
                (self.model_view(name, *seed, trace)?, false)
            }
            QuerySource::File(_) => {
                let file = file.expect("a file report reads its file")?;
                self.load_file_view(req, file, trace)?
            }
        };
        let view = filter_view(view, filter, trace);
        if !warm {
            view.trace_index(trace);
        }
        let ctx = SectionCtx::with_trace(view.as_ref(), trace);
        let threads = self.threads(opts);
        let body = match opts.format {
            OutputFormat::Text => failscope::render_text_sections(&sections, &ctx, threads),
            OutputFormat::Json => failscope::render_json_sections(&sections, &ctx, threads),
        };
        Ok(version_header(opts.format, "report") + &body)
    }

    /// Ported from the CLI `compare` command.
    fn run_compare(
        &self,
        req: &QueryRequest,
        old: Result<LogSource>,
        new: Result<LogSource>,
        filter: &Option<CompiledPredicate>,
        trace: &Collector,
    ) -> Result<String> {
        let opts = &req.opts;
        let load = |file: Result<LogSource>| -> Result<Arc<StreamView>> {
            let (view, _) = self.load_file_view(req, file?, trace)?;
            Ok(filter_view(view, filter, trace))
        };
        let older = load(old)?;
        let newer = load(new)?;
        let threads = self.threads(opts);
        let body = trace.time("compare.render", || match opts.format {
            OutputFormat::Text => failscope::render_comparison_index(&older, &newer, threads),
            OutputFormat::Json => failscope::render_comparison_json(&older, &newer, threads),
        });
        Ok(version_header(opts.format, "compare") + &body)
    }

    /// Loads a file input's unfiltered index honouring the index
    /// policy: a warm snapshot is served without parsing the log (exact
    /// hit) or by parsing only its appended tail (prefix hit); otherwise
    /// the log is parsed cold ([`QueryEngine::file_view`]) and auto mode
    /// refreshes the snapshot best-effort. The caller applies the
    /// query's filter to the result ([`filter_view`]), so every source
    /// and every index mode filters the same way. Every branch judges
    /// the bytes `file` holds, so a refreshed snapshot fingerprints
    /// exactly the bytes parsed. A vouched source serves its snapshot
    /// without those bytes, and falls back to reading them when the
    /// snapshot body fails. Returns the view and whether it came from a
    /// snapshot.
    fn load_file_view(
        &self,
        req: &QueryRequest,
        source: LogSource,
        trace: &Collector,
    ) -> Result<(Arc<StreamView>, bool)> {
        let opts = &req.opts;
        let mode = opts.index_mode();
        let warm = |view: StreamView| Ok((Arc::new(view), true));
        let file = match source {
            LogSource::Read(file) => file,
            LogSource::Vouched(vouched) => {
                let path = vouched.path().to_path_buf();
                match vouched.open(Some(trace)) {
                    Ok(snap) => {
                        self.metrics.incr("engine.snapshots_vouched", 1);
                        return warm(snap.into_view());
                    }
                    Err(log) => LogFile::read_from(&path, log)
                        .map_err(|e| Error::run(format!("{}: {e}", path.display())))?,
                }
            }
        };
        if mode == IndexMode::Off {
            return Ok((self.file_view(file, opts, trace)?, false));
        }
        match failindex::open(&file, Some(trace)) {
            IndexedLoad::Exact(snap) => warm(snap.into_view()),
            IndexedLoad::Extended { snapshot, .. } => warm(snapshot.into_view()),
            IndexedLoad::Cold { source } => {
                if mode == IndexMode::Require {
                    return Err(require_warm_err(&file.path().display().to_string(), opts));
                }
                let spath = failindex::snapshot_path(file.path());
                let read = file.stat();
                let view = self.file_view(file, opts, trace)?;
                failindex::save_traced(spath, view.as_ref(), source, read, Some(trace)).ok();
                Ok((view, false))
            }
        }
    }

    /// A memoized in-process model generation, indexed. The stored load
    /// trace is replayed into `trace` so a cache hit's metrics are
    /// identical to a fresh generation.
    fn model_view(&self, name: &str, seed: u64, trace: &Collector) -> Result<Arc<StreamView>> {
        let model = model_by_name(name)?;
        let key = QuerySource::model(name, seed);
        {
            let logs = self.logs.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(entry) = logs.get(&key) {
                self.metrics.incr("engine.log_cache.hit", 1);
                trace.merge_from(&entry.load_trace);
                return Ok(Arc::clone(&entry.view));
            }
        }
        self.metrics.incr("engine.log_cache.miss", 1);
        let load_trace = Collector::new();
        let log = Simulator::new(model, seed).generate_traced(Some(&load_trace))?;
        let view = Arc::new(StreamView::from(log));
        trace.merge_from(&load_trace);
        let mut logs = self.logs.lock().unwrap_or_else(|e| e.into_inner());
        logs.entry(key).or_insert(CachedLog {
            view: Arc::clone(&view),
            load_trace,
            source_info: None,
            read: None,
            dirty: false,
        });
        Ok(view)
    }

    /// A memoized, indexed, unfiltered cold file parse, held under the
    /// file's path and served only to a read of the same fingerprint,
    /// so a grown or rewritten log re-parses and replaces it. Every
    /// parse is remembered for snapshot persistence at shutdown, with
    /// the fingerprint of exactly the bytes parsed.
    fn file_view(
        &self,
        file: LogFile,
        opts: &QueryOptions,
        trace: &Collector,
    ) -> Result<Arc<StreamView>> {
        let path = file.path().display().to_string();
        let (info, read) = (file.source(), file.stat());
        {
            let logs = self.logs.lock().unwrap_or_else(|e| e.into_inner());
            let entry = logs.get(&QuerySource::file(path.as_str()));
            if let Some(entry) = entry.filter(|e| e.source_info == Some(info)) {
                self.metrics.incr("engine.log_cache.hit", 1);
                trace.merge_from(&entry.load_trace);
                return Ok(Arc::clone(&entry.view));
            }
        }
        self.metrics.incr("engine.log_cache.miss", 1);
        let parse_opts = ParseOptions::new().threads(self.threads(opts));
        let load_trace = Collector::new();
        // Parse errors carry their 1-based line number and offending
        // field; prefixing the path makes the message directly
        // actionable.
        let log = file
            .parse(Some(&load_trace), &parse_opts)
            .map_err(|e| Error::run(format!("{path}: {e}")))?;
        let view = Arc::new(StreamView::from(log));
        trace.merge_from(&load_trace);
        let entry = CachedLog {
            view: Arc::clone(&view),
            load_trace,
            source_info: Some(info),
            read,
            dirty: true,
        };
        let mut logs = self.logs.lock().unwrap_or_else(|e| e.into_inner());
        let replaced = logs.insert(QuerySource::file(path), entry);
        drop(logs);
        // The last reference to a replaced view may be this one; its
        // arrays are freed here, outside the lock.
        drop(replaced);
        Ok(view)
    }
}

/// One source in the engine's catalog: everything `faild` remembers
/// about a log it has served. Produced by [`QueryEngine::catalog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogEntry {
    /// The catalog id: the file path, or `model:{name}:{seed}`.
    pub source: String,
    /// Records in the held (unfiltered) view of this source.
    pub records: usize,
    /// File bytes at parse time (`None` for in-process models).
    pub bytes: Option<u64>,
    /// CRC-32 of the file bytes at parse time (`None` for models).
    pub crc32: Option<u32>,
    /// Live `.fsidx` freshness — `exact`, `prefix`, `stale`, or
    /// `missing` — probed at listing time (`None` for models).
    pub snapshot: Option<String>,
    /// Render-cache entries whose output depends on this source.
    pub render_entries: usize,
    /// Whether a cold parse awaits snapshot persistence.
    pub dirty: bool,
}

/// What one [`QueryEngine::evict`] dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictOutcome {
    /// The catalog id the eviction targeted.
    pub source: String,
    /// Parsed views dropped (0 or 1).
    pub logs: usize,
    /// Render-cache entries dropped.
    pub renders: usize,
    /// Pending dirty snapshots dropped (0 or 1).
    pub dirty: usize,
}

impl EvictOutcome {
    /// The `faild` response body for an `evict` command.
    pub fn render(&self) -> String {
        if self.logs == 0 && self.renders == 0 && self.dirty == 0 {
            return format!("faild: nothing cached for {}\n", self.source);
        }
        format!(
            "faild: evicted {} (logs={} renders={} dirty={})\n",
            self.source, self.logs, self.renders, self.dirty
        )
    }
}

/// The catalog id a source is held under: the file path, or
/// `model:{name}:{seed}`.
fn catalog_id(source: &QuerySource) -> String {
    match source {
        QuerySource::File(path) => path.clone(),
        QuerySource::Model { name, seed } => format!("model:{name}:{seed}"),
    }
}

/// Renders the catalog listing the `faild` `logs` command returns: a
/// count header plus one line per source, sorted by catalog id.
pub fn render_catalog(entries: &[CatalogEntry]) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "faild: {} cached log{}\n",
        entries.len(),
        if entries.len() == 1 { "" } else { "s" }
    );
    for e in entries {
        let _ = write!(out, "{}: records={}", e.source, e.records);
        if let (Some(bytes), Some(crc)) = (e.bytes, e.crc32) {
            let _ = write!(out, " bytes={bytes} crc32={crc:08x}");
        }
        if let Some(snapshot) = &e.snapshot {
            let _ = write!(out, " snapshot={snapshot}");
        }
        let _ = writeln!(
            out,
            " renders={} dirty={}",
            e.render_entries,
            if e.dirty { "yes" } else { "no" }
        );
    }
    out
}

/// The file paths a command reads, in the order it loads them.
fn file_paths(cmd: &QueryCmd) -> Vec<&str> {
    match cmd {
        QueryCmd::Report(QuerySource::Model { .. }) => Vec::new(),
        QueryCmd::Report(QuerySource::File(path)) => vec![path.as_str()],
        QueryCmd::Compare { old, new } => vec![old.as_str(), new.as_str()],
    }
}

/// What the render key needs from one file source.
#[derive(Debug, Clone)]
struct Fingerprint {
    info: SourceInfo,
    /// The snapshot's freshness against the fingerprinted bytes, when
    /// the read computed it (only keys with an index mode need it).
    fsidx: Option<Freshness>,
}

impl Fingerprint {
    /// A read file's fingerprint, and its snapshot's freshness when
    /// `needs_fsidx`. A vouched source is an exact match for the
    /// fingerprint its snapshot recorded, so its key is byte-identical
    /// to the one reading and hashing the log would build.
    fn of(source: &LogSource, needs_fsidx: bool) -> Fingerprint {
        match source {
            LogSource::Read(file) => Fingerprint {
                info: file.source(),
                fsidx: needs_fsidx.then(|| failindex::freshness(file)),
            },
            LogSource::Vouched(vouched) => Fingerprint {
                info: vouched.source(),
                fsidx: Some(Freshness::Exact),
            },
        }
    }
}

/// A fingerprint from an earlier read, and the reads that vouch that
/// the log and its snapshot still hold what that read saw.
#[derive(Debug, Clone)]
struct Vouched {
    print: Fingerprint,
    /// The read that vouches for the log's bytes.
    log: ReadStat,
    /// The snapshot's `stat` before the open; `None`: it was absent.
    fsidx: Option<ReadStat>,
}

impl Vouched {
    /// Whether the entry still describes `path`, by a fresh `stat` of
    /// the log and of its snapshot (see the module docs).
    fn holds(&self, path: &str) -> bool {
        let vouches = |read: ReadStat, file: &Path| {
            failindex::vouch(Some(read), faillog::file_id(file).flatten()) == Vouch::Yes
        };
        let snapshot = failindex::snapshot_path(path);
        vouches(self.log, Path::new(path))
            && match self.fsidx {
                Some(read) => vouches(read, &snapshot),
                None => faillog::file_id(&snapshot) == Some(None),
            }
    }
}

/// Builds the render-cache key for a request from the fingerprints of
/// the files it reads (one per path, in load order), plus the sources it
/// depends on, recorded in the entry so a catalog `evict` can drop
/// dependent renders.
fn render_key(
    req: &QueryRequest,
    paths: &[&str],
    prints: &[Fingerprint],
) -> (String, Vec<QuerySource>) {
    let mut sources = Vec::new();
    let mut depends = Vec::new();
    if let QueryCmd::Report(model @ QuerySource::Model { name, seed }) = &req.cmd {
        sources.push(format!("model:{name}:{seed}"));
        depends.push(model.clone());
    }
    for (path, print) in paths.iter().zip(prints) {
        let info = print.info;
        depends.push(QuerySource::file(*path));
        let mut id = format!("file:{path}:{}:{:08x}", info.bytes, info.crc32);
        if req.opts.index_mode() != IndexMode::Off {
            // Warm queries also depend on the snapshot's state: a cold
            // auto run that leaves a snapshot behind must not be
            // replayed for the (now warm) next run, whose `metrics`
            // section truthfully differs.
            let tag = match print.fsidx.as_ref().expect("indexed keys carry freshness") {
                Freshness::Exact => "exact".to_string(),
                Freshness::Prefix { tail_bytes } => format!("prefix:{tail_bytes}"),
                Freshness::Stale { .. } => "stale".to_string(),
                Freshness::Missing => "missing".to_string(),
            };
            id.push_str(&format!(":fsidx={tag}"));
        }
        sources.push(id);
    }
    let opts = &req.opts;
    let key = JsonValue::object()
        .field("v", 1u64)
        .field(
            "cmd",
            match &req.cmd {
                QueryCmd::Report(_) => "report",
                QueryCmd::Compare { .. } => "compare",
            },
        )
        .field("sources", JsonValue::array(sources))
        .field("where", opt_str(&opts.where_expr))
        .field("since", opt_str(&opts.since))
        .field("until", opt_str(&opts.until))
        .field("sections", opt_str(&opts.sections))
        .field("format", opts.format.name())
        .field("index", opts.index_mode().to_string())
        .build()
        .render();
    (key, depends)
}

/// The `{"v":1,...}` header line versioning every JSON output; text
/// output is unversioned (it is not a machine schema).
fn version_header(format: OutputFormat, kind: &str) -> String {
    match format {
        OutputFormat::Text => String::new(),
        OutputFormat::Json => format!("{{\"v\":1,\"kind\":\"{kind}\"}}\n"),
    }
}

fn opt_str(value: &Option<String>) -> JsonValue {
    match value {
        Some(s) => JsonValue::Str(s.clone()),
        None => JsonValue::Null,
    }
}

/// Compiles the record filter for a query: the `--where` expression,
/// conjoined with the `--since`/`--until` sugar, which desugars into
/// the same predicate IR (`time >= SINCE && time < UNTIL`; `--until` is
/// exclusive, matching the half-open observation window). Returns
/// `None` when no filtering option is present.
pub(crate) fn build_filter(opts: &QueryOptions) -> Result<Option<CompiledPredicate>> {
    compile_filter(
        opts.where_expr.as_deref(),
        opts.since.as_deref(),
        opts.until.as_deref(),
    )
}

/// Filter compilation shared with the watch runner.
pub(crate) fn compile_filter(
    where_expr: Option<&str>,
    since: Option<&str>,
    until: Option<&str>,
) -> Result<Option<CompiledPredicate>> {
    let mut pred: Option<CompiledPredicate> = None;
    let mut conjoin = |p: CompiledPredicate| {
        pred = Some(match pred.take() {
            Some(q) => q.and(p),
            None => p,
        });
    };
    if let Some(src) = where_expr {
        conjoin(failfilter::compile(src).map_err(|e| Error::args(format!("--where: {e}")))?);
    }
    for (flag, op, raw) in [("since", ">=", since), ("until", "<", until)] {
        if let Some(raw) = raw {
            let lit = failfilter::time_literal(raw)
                .map_err(|e| Error::args(format!("--{flag}: {e}")))?;
            conjoin(
                failfilter::compile(&format!("time {op} {lit}"))
                    .map_err(|e| Error::args(format!("--{flag}: {e}")))?,
            );
        }
    }
    Ok(pred)
}

/// Applies the query's predicate to a loaded, unfiltered view — a cold
/// parse, a decoded snapshot or a generated model — and records the
/// `filter.records_in` (view length) and `filter.records_kept` counters
/// on `trace`. Identity, recording nothing, without a predicate. This
/// is the only place a report or compare filters, so every source and
/// index mode yields the same filtered view and the same counters.
fn filter_view(
    view: Arc<StreamView>,
    filter: &Option<CompiledPredicate>,
    trace: &Collector,
) -> Arc<StreamView> {
    match filter {
        Some(p) => {
            let kept = view.filtered_by(p);
            trace.incr("filter.records_in", view.len() as u64);
            trace.incr("filter.records_kept", kept.len() as u64);
            Arc::new(kept)
        }
        None => view,
    }
}

fn require_warm_err(path: &str, opts: &QueryOptions) -> Error {
    use std::fmt::Write as _;
    let mut msg = format!(
        "{path}: no warm .fsidx snapshot for --index require (build one with `failctl index build {path}`)"
    );
    if let Some(expr) = &opts.where_expr {
        // Snapshots are always unfiltered, so the fix is the same build
        // command — the filter applies at read time, not build time.
        let _ = write!(
            msg,
            "; `--where {expr}` filters the snapshot at read time, so the same unfiltered build serves it"
        );
    }
    Error::run(msg)
}

/// Resolves a calibrated model by name.
pub fn model_by_name(name: &str) -> Result<SystemModel> {
    match name {
        "tsubame2" => Ok(SystemModel::tsubame2()),
        "tsubame3" => Ok(SystemModel::tsubame3()),
        other => Err(Error::run(format!(
            "unknown model `{other}` (use tsubame2 or tsubame3)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::QueryRequest;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("failapi-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[test]
    fn model_report_is_cached_with_identical_bytes_and_trace() {
        let engine = QueryEngine::new();
        let req = QueryRequest::report(QuerySource::model("tsubame2", 42))
            .format(OutputFormat::Json)
            .threads(2);
        let cold = engine.execute(&req).expect("executes");
        assert!(!cold.cached);
        assert!(cold.output.starts_with("{\"v\":1,\"kind\":\"report\"}\n"));
        let warm = engine.execute(&req).expect("executes");
        assert!(warm.cached);
        assert_eq!(warm.output, cold.output);
        assert_eq!(warm.trace.export(), cold.trace.export());
        // A fresh engine (the CLI case) produces the same bytes.
        let fresh = QueryEngine::new().execute(&req).expect("executes");
        assert_eq!(fresh.output, cold.output);
        assert_eq!(fresh.trace.export(), cold.trace.export());
    }

    #[test]
    fn worker_count_is_capped_at_host_parallelism() {
        let engine = QueryEngine::new();
        let host = failstats::available_threads();
        let opts = |threads| {
            QueryRequest::report(QuerySource::model("tsubame2", 42))
                .threads(threads)
                .opts
        };
        assert_eq!(engine.threads(&opts(1)), 1);
        assert_eq!(engine.threads(&opts(host)), host);
        assert_eq!(engine.threads(&opts(1_000_000)), host);

        // A million-thread file report runs on the capped pool; the
        // reply is the same as a serial run's.
        let path = temp_path("threads-cap.fslog");
        let log = Simulator::new(SystemModel::tsubame2(), 42)
            .generate()
            .expect("simulates");
        std::fs::write(&path, faillog::to_string(&log).expect("serializes")).expect("write");
        let req =
            QueryRequest::report(QuerySource::file(path.to_str().unwrap())).index(IndexMode::Off);
        let many = QueryEngine::new()
            .execute(&req.clone().threads(1_000_000))
            .expect("executes");
        let one = QueryEngine::new()
            .execute(&req.threads(1))
            .expect("executes");
        assert_eq!(many.output, one.output);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn thread_count_shares_one_cache_entry() {
        let engine = QueryEngine::new();
        let base = QueryRequest::report(QuerySource::model("tsubame3", 7));
        let one = engine.execute(&base.clone().threads(1)).expect("executes");
        let four = engine.execute(&base.threads(4)).expect("executes");
        assert!(!one.cached);
        assert!(four.cached, "threads must not split the render cache");
        assert_eq!(one.output, four.output);
    }

    #[test]
    fn file_growth_invalidates_the_render_cache() {
        let path = temp_path("grow.fslog");
        let p = path.to_str().unwrap();
        let log = Simulator::new(SystemModel::tsubame2(), 42)
            .generate()
            .expect("simulates");
        let text = faillog::to_string(&log).expect("serializes");
        let cut = text[..text.len() / 2].rfind('\n').expect("has lines") + 1;
        std::fs::write(&path, &text[..cut]).expect("write prefix");

        let engine = QueryEngine::new();
        let req = QueryRequest::report(QuerySource::file(p)).sections("header,tbf");
        let first = engine.execute(&req).expect("executes");
        assert!(engine.execute(&req).expect("executes").cached);

        std::fs::write(&path, &text).expect("write full");
        let regrown = engine.execute(&req).expect("executes");
        assert!(!regrown.cached, "growth must invalidate the cache");
        assert_ne!(regrown.output, first.output);
        // ... and the grown output matches a fresh engine's.
        let fresh = QueryEngine::new().execute(&req).expect("executes");
        assert_eq!(regrown.output, fresh.output);

        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn persist_dirty_writes_snapshots_for_cold_parses() {
        let path = temp_path("dirty.fslog");
        let p = path.to_str().unwrap();
        let spath = failindex::snapshot_path(p);
        let log = Simulator::new(SystemModel::tsubame2(), 42)
            .generate()
            .expect("simulates");
        faillog::save(p, &log).expect("saves");
        let _ = std::fs::remove_file(&spath);

        let engine = QueryEngine::new();
        let req = QueryRequest::report(QuerySource::file(p)).sections("header");
        engine.execute(&req).expect("executes");
        assert_eq!(engine.dirty_count(), 1);
        assert_eq!(engine.persist_dirty(), 1);
        assert_eq!(engine.dirty_count(), 0);
        assert!(matches!(failindex::probe(p), Ok(Freshness::Exact)));
        // A filtered query on this engine filters the view it already
        // holds: nothing is parsed, so nothing new is dirty.
        let _ = std::fs::remove_file(&spath);
        let filtered = QueryRequest::report(QuerySource::file(p))
            .sections("header")
            .where_expr("category == gpu");
        engine.execute(&filtered).expect("executes");
        assert_eq!(engine.dirty_count(), 0);
        // On a fresh engine the filtered query parses the whole log
        // (the predicate filters the view afterwards), so the parse is
        // dirty and persists a snapshot that is exact for the log.
        let fresh = QueryEngine::new();
        fresh.execute(&filtered).expect("executes");
        assert_eq!(fresh.dirty_count(), 1);
        assert_eq!(fresh.persist_dirty(), 1);
        assert!(matches!(failindex::probe(p), Ok(Freshness::Exact)));

        std::fs::remove_file(&path).expect("cleanup");
        let _ = std::fs::remove_file(&spath);
    }

    /// A log at `name` holding the first `parts`/4 of a tsubame2 year.
    fn write_quarters(path: &std::path::Path, parts: usize) {
        let log = Simulator::new(SystemModel::tsubame2(), 42)
            .generate()
            .expect("simulates");
        let text = faillog::to_string(&log).expect("serializes");
        let cut = text[..text.len() * parts / 4]
            .rfind('\n')
            .expect("has lines")
            + 1;
        std::fs::write(path, &text[..cut]).expect("writes");
    }

    /// Sleeps past `G` (100 ms on a filesystem with nanosecond
    /// timestamps), so a read from now on vouches for every file last
    /// changed before the call.
    fn settle() {
        std::thread::sleep(std::time::Duration::from_millis(250));
    }

    fn reused(engine: &QueryEngine) -> u64 {
        engine.metrics().counter("engine.fingerprints_reused")
    }

    #[test]
    fn a_read_within_g_of_a_change_is_never_vouched() {
        let path = temp_path("racy.fslog");
        let p = path.to_str().unwrap();
        write_quarters(&path, 1);
        // The log's last change is a second ahead, so every read below
        // comes within `G` of it however slowly the test runs.
        let ahead = std::time::SystemTime::now() + std::time::Duration::from_secs(1);
        let file = std::fs::File::options()
            .write(true)
            .open(&path)
            .expect("opens");
        file.set_modified(ahead).expect("sets the mtime");
        let engine = QueryEngine::new();
        let req = QueryRequest::report(QuerySource::file(p)).sections("header");
        for _ in 0..3 {
            engine.execute(&req).expect("executes");
        }
        assert_eq!(reused(&engine), 0, "a racy read is re-read by every query");
        // Once a read comes `G` after the change, it is vouched, and the
        // following hit reads nothing.
        while std::time::SystemTime::now() < ahead {
            settle();
        }
        settle();
        assert!(engine.execute(&req).expect("executes").cached);
        assert_eq!(reused(&engine), 0, "the settled query still reads");
        assert!(engine.execute(&req).expect("executes").cached);
        assert_eq!(reused(&engine), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_vouched_hit_reuses_the_fingerprint_until_a_change() {
        let path = temp_path("vouched.fslog");
        let p = path.to_str().unwrap();
        let spath = failindex::snapshot_path(p);
        write_quarters(&path, 2);
        let _ = std::fs::remove_file(&spath);
        settle();
        let engine = QueryEngine::new();
        let req = QueryRequest::report(QuerySource::file(p)).sections("header,tbf");
        let first = engine.execute(&req).expect("executes");
        assert!(!first.cached);
        assert_eq!(reused(&engine), 0, "the first query reads");
        let hit = engine.execute(&req).expect("executes");
        assert!(hit.cached);
        assert_eq!(hit.output, first.output);
        assert_eq!(reused(&engine), 1, "an unchanged file is not re-read");

        // Each change sends the next query to a read. After a settle wait
        // the entry is vouched again, and a hit reads nothing.
        let after = |what: &str, change: &dyn Fn()| {
            change();
            let before = reused(&engine);
            let reply = engine.execute(&req).expect("executes");
            assert_eq!(reused(&engine), before, "{what}: the next query reads");
            let fresh = QueryEngine::new().execute(&req).expect("executes");
            assert_eq!(reply.output, fresh.output, "{what}");
            settle();
            engine.execute(&req).expect("executes");
            let settled = reused(&engine);
            assert!(engine.execute(&req).expect("executes").cached);
            assert_eq!(reused(&engine), settled + 1, "{what}: then hits without reading");
        };
        after("a touch", &|| {
            let file = std::fs::File::options()
                .write(true)
                .open(&path)
                .expect("opens");
            file.set_modified(std::time::SystemTime::now())
                .expect("touches");
        });
        after("growth", &|| write_quarters(&path, 4));
        after("an index build", &|| {
            let auto = req.clone().index(IndexMode::Auto);
            QueryEngine::new()
                .execute(&auto)
                .expect("builds the snapshot");
            assert!(spath.exists());
        });
        after("a snapshot removal", &|| {
            std::fs::remove_file(&spath).expect("removes the snapshot")
        });

        // A compare needs both sources vouched; an indexed key needs the
        // freshness tag, which an index-off read did not compute. The
        // first auto run saves a snapshot, which changes the key of the
        // second; the third is a vouched hit.
        let warm = req.clone().index(IndexMode::Auto);
        engine.execute(&warm).expect("executes");
        settle();
        assert!(!engine.execute(&warm).expect("executes").cached);
        let before = reused(&engine);
        let again = engine.execute(&warm).expect("executes");
        assert!(again.cached);
        assert_eq!(reused(&engine), before + 1);
        assert_eq!(
            again.output,
            QueryEngine::new().execute(&warm).expect("executes").output
        );
        let cmp = QueryRequest::compare(p, p);
        engine.execute(&cmp).expect("executes");
        assert!(engine.execute(&cmp).expect("executes").cached);
        assert_eq!(reused(&engine), before + 3);

        // Evicting drops the vouched entry.
        engine.evict(&QuerySource::file(p));
        engine.execute(&req).expect("executes");
        assert_eq!(reused(&engine), before + 3);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&spath).ok();
    }

    #[test]
    fn a_stat_vouched_source_records_its_entry() {
        let path = temp_path("stat-vouched.fslog");
        let p = path.to_str().unwrap();
        let spath = failindex::snapshot_path(p);
        write_quarters(&path, 3);
        let _ = std::fs::remove_file(&spath);
        let req = QueryRequest::report(QuerySource::file(p))
            .sections("header,ttr")
            .index(IndexMode::Auto);
        // A snapshot built from a settled read vouches for the log.
        settle();
        QueryEngine::new()
            .execute(&req)
            .expect("builds the snapshot");
        settle();
        let engine = QueryEngine::new();
        let first = engine.execute(&req).expect("executes");
        assert!(!first.cached);
        assert_eq!(engine.metrics().counter("engine.snapshots_vouched"), 1);
        let hit = engine.execute(&req).expect("executes");
        assert!(hit.cached);
        assert_eq!(hit.output, first.output);
        assert_eq!(
            reused(&engine),
            1,
            "the vouched open's entry serves the hit"
        );
        assert_eq!(engine.metrics().counter("engine.snapshots_vouched"), 1);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&spath).ok();
    }

    #[test]
    fn the_catalog_takes_vouched_freshness_and_probes_otherwise() {
        let path = temp_path("catalog-vouched.fslog");
        let p = path.to_str().unwrap();
        write_quarters(&path, 1);
        let spath = failindex::snapshot_path(p);
        let _ = std::fs::remove_file(&spath);
        let engine = QueryEngine::new();
        let req = QueryRequest::report(QuerySource::file(p))
            .sections("header")
            .index(IndexMode::Auto);
        // The cold auto run saves a snapshot after its read, so its
        // entry (snapshot absent) no longer holds: the catalog probes.
        engine.execute(&req).expect("executes");
        assert_eq!(engine.vouched_freshness(p), None);
        assert_eq!(engine.catalog()[0].snapshot.as_deref(), Some("exact"));
        // A settled read's entry holds, and the catalog reads it.
        settle();
        engine.execute(&req).expect("executes");
        assert_eq!(engine.vouched_freshness(p), Some(Freshness::Exact));
        assert_eq!(engine.catalog()[0].snapshot.as_deref(), Some("exact"));
        std::fs::remove_file(&spath).expect("removes the snapshot");
        assert_eq!(engine.vouched_freshness(p), None);
        assert_eq!(engine.catalog()[0].snapshot.as_deref(), Some("missing"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn appends_drop_the_superseded_parses_of_every_filter() {
        let path = temp_path("superseded.fslog");
        let p = path.to_str().unwrap();
        let engine = QueryEngine::new();
        let plain = QueryRequest::report(QuerySource::file(p)).sections("header,tbf");
        let filtered = plain.clone().where_expr("ttr > 2");
        for quarters in 1..=4 {
            // Each rewrite keeps the earlier bytes: an append.
            write_quarters(&path, quarters);
            for req in [&plain, &filtered] {
                let reply = engine.execute(req).expect("executes");
                let fresh = QueryEngine::new().execute(req).expect("executes");
                assert_eq!(reply.output, fresh.output, "after {quarters} quarter(s)");
            }
            // One held view for the path, unfiltered and of the current
            // bytes, whatever filters were asked for.
            let records = faillog::load(p).expect("loads").len();
            let catalog = engine.catalog();
            assert_eq!(catalog.len(), 1);
            assert_eq!(catalog[0].records, records, "after {quarters} quarter(s)");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn filter_counters_are_the_same_for_every_source_and_engine() {
        let path = temp_path("filter-counters.fslog");
        let p = path.to_str().unwrap();
        let spath = failindex::snapshot_path(p);
        write_quarters(&path, 4);
        let _ = std::fs::remove_file(&spath);
        let plain = QueryRequest::report(QuerySource::file(p)).sections("header,metrics");
        let filtered = plain.clone().where_expr("category == gpu && ttr > 24");
        let filter_lines = |output: &str| -> Vec<String> {
            let lines: Vec<String> = output
                .lines()
                .filter(|l| l.contains(" filter."))
                .map(str::to_string)
                .collect();
            assert_eq!(lines.len(), 2, "{output}");
            lines
        };
        let fresh = QueryEngine::new().execute(&filtered).expect("executes").output;
        let want = filter_lines(&fresh);
        let records = faillog::load(p).expect("loads").len();
        assert_eq!(want[0], format!("  counter filter.records_in = {records}"));
        assert!(want[1].starts_with("  counter filter.records_kept = "), "{}", want[1]);

        // A long-lived engine filters the view its unfiltered query parsed.
        let engine = QueryEngine::new();
        engine.execute(&plain).expect("executes");
        let second = engine.execute(&filtered).expect("executes");
        assert!(!second.cached);
        assert_eq!(filter_lines(&second.output), want);

        // A warm report filters the decoded snapshot.
        assert_eq!(engine.persist_dirty(), 1);
        let warm = QueryEngine::new()
            .execute(&filtered.clone().index(IndexMode::Require))
            .expect("executes")
            .output;
        assert_eq!(filter_lines(&warm), want);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&spath).ok();
    }

    #[test]
    fn negative_time_bounds_filter_like_the_spelled_out_expression() {
        let engine = QueryEngine::new();
        let base = QueryRequest::report(QuerySource::model("tsubame2", 42)).sections("header");
        let run = |req: QueryRequest| engine.execute(&req).expect("executes").output;
        let all = run(base.clone());
        assert_eq!(run(base.clone().since("-5")), run(base.clone().where_expr("time >= -5")));
        assert_eq!(run(base.clone().since("-5")).lines().nth(1), all.lines().nth(1));
        let none = run(base.clone().until("-0.5"));
        assert_eq!(none, run(base.clone().where_expr("time < -0.5")));
        assert!(none.lines().nth(1).is_some_and(|l| l.starts_with("0 failures")), "{none}");
    }

    #[test]
    fn validation_errors_match_the_cli_wording() {
        let engine = QueryEngine::new();
        let err = engine
            .execute(
                &QueryRequest::report(QuerySource::model("tsubame2", 42))
                    .index(IndexMode::Auto),
            )
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("--index auto only applies to file input"),
            "{err}"
        );
        let err = engine
            .execute(&QueryRequest::report(QuerySource::model("cray", 1)))
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown model `cray`"), "{err}");
        let err = engine
            .execute(
                &QueryRequest::report(QuerySource::model("tsubame2", 1)).where_expr("bananas == 1"),
            )
            .unwrap_err()
            .to_string();
        assert!(err.starts_with("--where: unknown field `bananas`"), "{err}");
    }
}

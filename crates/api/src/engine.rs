//! [`QueryEngine`]: the one execution path behind `failctl report`,
//! `failctl compare`, and every `faild` query.
//!
//! # One path, two lifetimes
//!
//! The CLI constructs a fresh engine per invocation, so its caches are
//! always cold and execution is exactly the old in-CLI pipeline. The
//! server keeps one engine alive across clients; that engine memoizes
//!
//! * **indexed logs** — the [`StreamView`] of every parsed or generated
//!   log, built once by value from the records, keyed by source identity
//!   *and content fingerprint* (`(path, bytes, crc32, chunk size, filter)` for
//!   files, `(name, seed)` for models). Each entry stores the
//!   [`Collector`] that recorded the original parse/generation, and a
//!   cache hit replays those instruments into the new query's collector
//!   ([`Collector::merge_from`]), so the `metrics` section and `--trace`
//!   exports stay byte-identical to an uncached run.
//! * **rendered outputs** — keyed by the full query shape (command,
//!   source fingerprints, filters, sections, format, chunk size, index
//!   policy, and — when snapshots are in play — the snapshot freshness
//!   state). The thread count is deliberately **excluded**: output is
//!   byte-identical at every `--threads` value, so all thread counts
//!   share one entry. A log that grows on disk changes its fingerprint,
//!   which invalidates every dependent entry without any watcher
//!   machinery.
//!
//! Only successful outputs are cached; errors always re-execute.
//!
//! # Dirty snapshots
//!
//! Every unfiltered cold parse of a file (index mode `off`, where the
//! CLI would never write a snapshot) is remembered together with the
//! [`failindex::SourceInfo`] fingerprint of the bytes it parsed.
//! [`QueryEngine::persist_dirty`] — called by the server on graceful
//! shutdown — writes those cached indexes to disk so the next process
//! starts warm. Auto-mode cold parses refresh their snapshot immediately,
//! exactly like the CLI always has.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use failfilter::CompiledPredicate;
use failindex::{Freshness, IndexMode, IndexedLoad, SourceInfo};
use faillog::ParseOptions;
use failscope::{SectionCtx, StreamView};
use failsim::{Simulator, SystemModel};
use failtrace::Collector;
use failtypes::{Error, FailureLog, JsonValue, Result};

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
    /// Catalog grouping id: the file path, or `model:{name}:{seed}`.
    /// Several cache entries (chunk-size or filter variants) share one
    /// id; `logs`/`evict` operate on the id, not the entry key.
    catalog_id: String,
    /// The file fingerprint at parse time (`None` for models).
    source_info: Option<SourceInfo>,
}

/// An unfiltered cold-parsed file log eligible for snapshot
/// persistence at shutdown.
struct DirtyLog {
    view: Arc<StreamView>,
    source: SourceInfo,
}

struct RenderEntry {
    output: String,
    trace: Collector,
    /// Catalog ids of every source this output depends on, so a
    /// catalog `evict` can drop dependent renders.
    sources: Vec<String>,
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

    /// Drops every entry depending on `catalog_id`; returns the count.
    fn remove_source(&mut self, catalog_id: &str) -> usize {
        let doomed: Vec<String> = self
            .map
            .iter()
            .filter(|(_, e)| e.sources.iter().any(|s| s == catalog_id))
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
    logs: Mutex<HashMap<String, CachedLog>>,
    renders: Mutex<RenderCache>,
    dirty: Mutex<HashMap<String, DirtyLog>>,
    metrics: Collector,
    /// Render-cache byte budget (key + output bytes per entry).
    cache_bytes: usize,
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

/// A source's resolved on-disk identity: the raw bytes fingerprint
/// (also reused as the dirty-snapshot `SourceInfo`). `None` when the
/// file could not be read — execution then bypasses every cache and
/// lets the parser report the canonical error.
type FilePrint = Option<SourceInfo>;

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
            dirty: Mutex::new(HashMap::new()),
            metrics: Collector::new(),
            cache_bytes,
        }
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
        let key = self.render_key(req)?;
        if let Some((key, _)) = &key {
            let mut renders = self.renders.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(entry) = renders.map.get(key) {
                self.metrics.incr("cache.hits", 1);
                let trace = Collector::new();
                trace.merge_from(&entry.trace);
                let output = entry.output.clone();
                renders.touch(key);
                return Ok(QueryOutcome {
                    output,
                    trace,
                    cached: true,
                });
            }
        }
        self.metrics.incr("cache.misses", 1);
        let trace = Collector::new();
        let output = match &req.cmd {
            QueryCmd::Report(source) => self.run_report(req, source, &filter, &trace)?,
            QueryCmd::Compare { old, new } => self.run_compare(req, old, new, &filter, &trace)?,
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

    /// Writes a `.fsidx` snapshot for every unfiltered cold-parsed file
    /// log the engine is still holding, skipping logs whose snapshot is
    /// already exact. Returns the number of snapshots written. Called
    /// by the server on graceful shutdown.
    pub fn persist_dirty(&self) -> usize {
        let drained: Vec<(String, DirtyLog)> = {
            let mut dirty = self.dirty.lock().unwrap_or_else(|e| e.into_inner());
            dirty.drain().collect()
        };
        let mut written = 0;
        for (path, entry) in drained {
            if matches!(failindex::probe(&path), Ok(Freshness::Exact)) {
                continue;
            }
            let saved =
                failindex::save(failindex::snapshot_path(&path), entry.view.as_ref(), entry.source);
            if saved.is_ok() {
                written += 1;
                self.metrics.incr("engine.snapshots_persisted", 1);
            }
        }
        written
    }

    /// The number of file logs currently awaiting snapshot persistence.
    pub fn dirty_count(&self) -> usize {
        self.dirty.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Builds the render-cache key for a request — plus the catalog
    /// ids of the sources it depends on, recorded in the entry so a
    /// catalog `evict` can drop dependent renders — or `None` when the
    /// request must not be cached (a source file is unreadable — let
    /// execution surface the canonical error — or a warm-mode probe
    /// failed).
    fn render_key(&self, req: &QueryRequest) -> Result<Option<(String, Vec<String>)>> {
        let mut sources = Vec::new();
        let mut catalog_ids = Vec::new();
        let paths: Vec<&str> = match &req.cmd {
            QueryCmd::Report(QuerySource::Model { name, seed }) => {
                sources.push(format!("model:{name}:{seed}"));
                catalog_ids.push(format!("model:{name}:{seed}"));
                Vec::new()
            }
            QueryCmd::Report(QuerySource::File(path)) => vec![path.as_str()],
            QueryCmd::Compare { old, new } => vec![old.as_str(), new.as_str()],
        };
        for path in paths {
            let Some(info) = fingerprint(path) else {
                return Ok(None);
            };
            catalog_ids.push(path.to_string());
            let mut id = format!("file:{path}:{}:{:08x}", info.bytes, info.crc32);
            if req.opts.index_mode() != IndexMode::Off {
                // Warm queries also depend on the snapshot's state: a
                // cold auto run that leaves a snapshot behind must not
                // be replayed for the (now warm) next run, whose
                // `metrics` section truthfully differs.
                let Ok(freshness) = failindex::probe(path) else {
                    return Ok(None);
                };
                let tag = match freshness {
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
            .field("chunk_bytes", opts.chunk_bytes as u64)
            .field("index", opts.index_mode().to_string())
            .build()
            .render();
        Ok(Some((key, catalog_ids)))
    }

    /// Lists every source the engine has memoized, grouped by catalog
    /// id (the file path, or `model:{name}:{seed}`) and sorted for
    /// deterministic output. Snapshot freshness is probed live, so the
    /// listing reflects the disk as of this call.
    pub fn catalog(&self) -> Vec<CatalogEntry> {
        struct Group {
            records: usize,
            info: Option<SourceInfo>,
            log_entries: usize,
        }
        let mut groups: HashMap<String, Group> = HashMap::new();
        {
            let logs = self.logs.lock().unwrap_or_else(|e| e.into_inner());
            for entry in logs.values() {
                let group = groups
                    .entry(entry.catalog_id.clone())
                    .or_insert_with(|| Group {
                        records: 0,
                        info: None,
                        log_entries: 0,
                    });
                group.log_entries += 1;
                // Filtered variants parse fewer records; report the
                // fullest parse the engine holds.
                group.records = group.records.max(entry.view.len());
                if let Some(info) = &entry.source_info {
                    let wider = group.info.as_ref().is_none_or(|g| info.bytes >= g.bytes);
                    if wider {
                        group.info = Some(*info);
                    }
                }
            }
        }
        let render_counts: HashMap<String, usize> = {
            let renders = self.renders.lock().unwrap_or_else(|e| e.into_inner());
            let mut counts = HashMap::new();
            for entry in renders.map.values() {
                for source in &entry.sources {
                    *counts.entry(source.clone()).or_insert(0) += 1;
                }
            }
            counts
        };
        let dirty: Vec<String> = {
            let dirty = self.dirty.lock().unwrap_or_else(|e| e.into_inner());
            dirty.keys().cloned().collect()
        };
        let mut entries: Vec<CatalogEntry> = groups
            .into_iter()
            .map(|(source, group)| {
                let is_model = group.info.is_none();
                let snapshot = if is_model {
                    None
                } else {
                    Some(match failindex::probe(&source) {
                        Ok(Freshness::Exact) => "exact".to_string(),
                        Ok(Freshness::Prefix { .. }) => "prefix".to_string(),
                        Ok(Freshness::Stale { .. }) => "stale".to_string(),
                        Ok(Freshness::Missing) | Err(_) => "missing".to_string(),
                    })
                };
                CatalogEntry {
                    records: group.records,
                    bytes: group.info.as_ref().map(|i| i.bytes),
                    crc32: group.info.as_ref().map(|i| i.crc32),
                    snapshot,
                    log_entries: group.log_entries,
                    render_entries: render_counts.get(&source).copied().unwrap_or(0),
                    dirty: dirty.contains(&source),
                    source,
                }
            })
            .collect();
        entries.sort_by(|a, b| a.source.cmp(&b.source));
        entries
    }

    /// Drops every memoized state for one source: parsed-log cache
    /// entries, render-cache entries depending on it, and its pending
    /// dirty snapshot. The next query re-parses from disk (or
    /// regenerates the model). Render drops count as cache evictions.
    pub fn evict(&self, source: &QuerySource) -> EvictOutcome {
        let catalog_id = catalog_id(source);
        let logs = {
            let mut logs = self.logs.lock().unwrap_or_else(|e| e.into_inner());
            let before = logs.len();
            logs.retain(|_, entry| entry.catalog_id != catalog_id);
            before - logs.len()
        };
        let renders = {
            let mut renders = self.renders.lock().unwrap_or_else(|e| e.into_inner());
            renders.remove_source(&catalog_id)
        };
        let dirty = {
            let mut dirty = self.dirty.lock().unwrap_or_else(|e| e.into_inner());
            usize::from(dirty.remove(&catalog_id).is_some())
        };
        if renders > 0 {
            self.metrics.incr("cache.evictions", renders as u64);
        }
        self.metrics.incr("engine.catalog.evict", 1);
        EvictOutcome {
            source: catalog_id,
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
        filter: &Option<CompiledPredicate>,
        trace: &Collector,
    ) -> Result<String> {
        let opts = &req.opts;
        validate_chunk(opts)?;
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
                // The model path never touches the parser; the
                // predicate applies directly to the generated records.
                let view = self.model_view(name, *seed, trace)?;
                (filter_view(view, filter), false)
            }
            QuerySource::File(path) => self.load_file_view(req, path, trace, filter)?,
        };
        if !warm {
            view.trace_index(trace);
        }
        let ctx = SectionCtx::with_trace(view.as_ref(), trace);
        let body = match opts.format {
            OutputFormat::Text => failscope::render_text_sections(&sections, &ctx, opts.threads),
            OutputFormat::Json => failscope::render_json_sections(&sections, &ctx, opts.threads),
        };
        Ok(version_header(opts.format, "report") + &body)
    }

    /// Ported from the CLI `compare` command.
    fn run_compare(
        &self,
        req: &QueryRequest,
        old: &str,
        new: &str,
        filter: &Option<CompiledPredicate>,
        trace: &Collector,
    ) -> Result<String> {
        let opts = &req.opts;
        validate_chunk(opts)?;
        let (older, _) = self.load_file_view(req, old, trace, filter)?;
        let (newer, _) = self.load_file_view(req, new, trace, filter)?;
        let body = trace.time("compare.render", || match opts.format {
            OutputFormat::Text => failscope::render_comparison_index(&older, &newer, opts.threads),
            OutputFormat::Json => failscope::render_comparison_json(&older, &newer, opts.threads),
        });
        Ok(version_header(opts.format, "compare") + &body)
    }

    /// Loads a file input's index honouring the index policy and the
    /// query's filter: a warm snapshot is served without parsing the
    /// log (exact hit) or by parsing only its appended tail (prefix
    /// hit), with the predicate applied to the decoded view; otherwise
    /// the log is parsed cold with the predicate pushed into the
    /// parser. Auto mode refreshes the snapshot best-effort after an
    /// *unfiltered* cold parse only — a filtered parse never sees the
    /// whole log, and snapshots must. Returns the view and whether it
    /// came from a snapshot.
    fn load_file_view(
        &self,
        req: &QueryRequest,
        path: &str,
        trace: &Collector,
        filter: &Option<CompiledPredicate>,
    ) -> Result<(Arc<StreamView>, bool)> {
        let opts = &req.opts;
        let mode = opts.index_mode();
        if mode == IndexMode::Off {
            return Ok((self.file_view(path, opts, filter, trace)?, false));
        }
        let warm = |view: StreamView| Ok((filter_view(Arc::new(view), filter), true));
        match failindex::open_indexed(path, Some(trace))? {
            IndexedLoad::Exact(snap) => warm(snap.into_view()),
            IndexedLoad::Extended { snapshot, .. } => warm(snapshot.into_view()),
            IndexedLoad::Cold { source } => {
                if mode == IndexMode::Require {
                    return Err(require_warm_err(path, opts));
                }
                if filter.is_some() {
                    return Ok((self.file_view(path, opts, filter, trace)?, false));
                }
                let view = self.file_view(path, opts, &None, trace)?;
                failindex::save_traced(
                    failindex::snapshot_path(path),
                    view.as_ref(),
                    source,
                    Some(trace),
                )
                .ok();
                Ok((view, false))
            }
        }
    }

    /// A memoized in-process model generation, indexed. The stored load
    /// trace is replayed into `trace` so a cache hit's metrics are
    /// identical to a fresh generation.
    fn model_view(&self, name: &str, seed: u64, trace: &Collector) -> Result<Arc<StreamView>> {
        let model = model_by_name(name)?;
        let key = format!("model:{name}:{seed}");
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
        logs.entry(key.clone()).or_insert(CachedLog {
            view: Arc::clone(&view),
            load_trace,
            catalog_id: key,
            source_info: None,
        });
        Ok(view)
    }

    /// A memoized, indexed cold file parse (with the query's filter
    /// pushed into the parser), keyed by content fingerprint so a grown
    /// or rewritten log re-parses. Unfiltered parses are remembered for
    /// snapshot persistence at shutdown.
    fn file_view(
        &self,
        path: &str,
        opts: &QueryOptions,
        filter: &Option<CompiledPredicate>,
        trace: &Collector,
    ) -> Result<Arc<StreamView>> {
        let parse_opts = {
            let mut p = ParseOptions::new()
                .threads(opts.threads)
                .chunk_bytes(opts.chunk_bytes);
            p.filter.clone_from(filter);
            p
        };
        let Some(info) = fingerprint(path) else {
            // Unreadable input: parse uncached so the loader reports
            // the canonical error (and never poisons a cache entry).
            let load_trace = Collector::new();
            let log = load_traced(path, &load_trace, &parse_opts)?;
            trace.merge_from(&load_trace);
            return Ok(Arc::new(StreamView::from(log)));
        };
        let filter_tag = match (&filter, opts) {
            (None, _) => String::from("-"),
            (Some(_), o) => format!(
                "w={:?};s={:?};u={:?}",
                o.where_expr, o.since, o.until
            ),
        };
        let key = format!(
            "file:{path}:{}:{:08x}:c{}:{filter_tag}",
            info.bytes, info.crc32, opts.chunk_bytes
        );
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
        let log = load_traced(path, &load_trace, &parse_opts)?;
        let view = Arc::new(StreamView::from(log));
        trace.merge_from(&load_trace);
        if filter.is_none() {
            let mut dirty = self.dirty.lock().unwrap_or_else(|e| e.into_inner());
            dirty.insert(
                path.to_string(),
                DirtyLog {
                    view: Arc::clone(&view),
                    source: info,
                },
            );
        }
        let mut logs = self.logs.lock().unwrap_or_else(|e| e.into_inner());
        logs.entry(key).or_insert(CachedLog {
            view: Arc::clone(&view),
            load_trace,
            catalog_id: path.to_string(),
            source_info: Some(info),
        });
        Ok(view)
    }
}

/// One source in the engine's catalog: everything `faild` remembers
/// about a log it has served, grouped across chunk-size and filter
/// variants. Produced by [`QueryEngine::catalog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogEntry {
    /// The grouping id: the file path, or `model:{name}:{seed}`.
    pub source: String,
    /// Records in the fullest cached parse of this source.
    pub records: usize,
    /// File bytes at parse time (`None` for in-process models).
    pub bytes: Option<u64>,
    /// CRC-32 of the file bytes at parse time (`None` for models).
    pub crc32: Option<u32>,
    /// Live `.fsidx` freshness — `exact`, `prefix`, `stale`, or
    /// `missing` — probed at listing time (`None` for models).
    pub snapshot: Option<String>,
    /// Parsed-log cache entries held for this source.
    pub log_entries: usize,
    /// Render-cache entries whose output depends on this source.
    pub render_entries: usize,
    /// Whether an unfiltered cold parse awaits snapshot persistence.
    pub dirty: bool,
}

/// What one [`QueryEngine::evict`] dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictOutcome {
    /// The catalog id the eviction targeted.
    pub source: String,
    /// Parsed-log cache entries dropped.
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

/// The catalog id a source groups under: the file path, or
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
            " entries={} renders={} dirty={}",
            e.log_entries,
            e.render_entries,
            if e.dirty { "yes" } else { "no" }
        );
    }
    out
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

/// Raw-bytes fingerprint of a source file (`None` when unreadable).
fn fingerprint(path: &str) -> FilePrint {
    std::fs::read(path).ok().map(|raw| SourceInfo::of_bytes(&raw))
}

fn validate_chunk(opts: &QueryOptions) -> Result<()> {
    if opts.chunk_bytes == 0 {
        return Err(Error::args("--parse-chunk must be at least 1 byte"));
    }
    Ok(())
}

fn load_traced(path: &str, trace: &Collector, opts: &ParseOptions) -> Result<FailureLog> {
    // Parse errors carry their 1-based line number and offending field;
    // prefixing the path makes the message directly actionable.
    faillog::load_traced_with(path, Some(trace), opts)
        .map_err(|e| Error::run(format!("{path}: {e}")))
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
                    .expect("desugared time bound compiles"),
            );
        }
    }
    Ok(pred)
}

/// Filters an unparsed view — a decoded snapshot or a generated model —
/// through the query's predicate (identity without one). Snapshots
/// always persist unfiltered state; this is where a `--where` composes
/// with a warm index — still with zero parsing.
fn filter_view(view: Arc<StreamView>, filter: &Option<CompiledPredicate>) -> Arc<StreamView> {
    match filter {
        Some(p) => {
            let (spec, window) = (view.spec(), view.window());
            Arc::new(view.filtered(|r| p.matches(r, spec, window)))
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
        // Filtered parses never mark the log dirty: the parse did not
        // see the whole log, and snapshots must.
        let _ = std::fs::remove_file(&spath);
        let filtered = QueryRequest::report(QuerySource::file(p))
            .sections("header")
            .where_expr("category == gpu");
        engine.execute(&filtered).expect("executes");
        assert_eq!(engine.dirty_count(), 0);

        std::fs::remove_file(&path).expect("cleanup");
        let _ = std::fs::remove_file(&spath);
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
        let err = engine
            .execute(&QueryRequest::report(QuerySource::model("tsubame2", 1)).chunk_bytes(0))
            .unwrap_err()
            .to_string();
        assert!(err.contains("--parse-chunk must be at least 1 byte"), "{err}");
    }
}

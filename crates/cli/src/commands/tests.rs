use super::*;

use failsim::{Simulator, SystemModel};
use failtypes::Result;

use crate::args::ParsedArgs;

fn parse(words: &[&str]) -> ParsedArgs {
    ParsedArgs::parse(words.iter().map(|s| s.to_string())).expect("parses")
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("failctl-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn generate_to_stdout_and_file() {
    let text = generate(&parse(&["generate", "--system", "tsubame3", "--seed", "7"]))
        .expect("generates");
    assert!(text.starts_with("# failscope-log v1"));
    let path = temp_path("gen.fslog");
    let msg = generate(&parse(&[
        "generate",
        "--out",
        path.to_str().expect("utf8 path"),
    ]))
    .expect("generates");
    assert!(msg.contains("338 failures"));
    std::fs::remove_file(&path).expect("cleanup");
}

#[test]
fn generate_rejects_unknown_system_and_flags() {
    assert!(generate(&parse(&["generate", "--system", "cray"])).is_err());
    assert!(generate(&parse(&["generate", "--sytem", "tsubame2"])).is_err());
}

#[test]
fn full_pipeline_through_files() {
    let log_path = temp_path("pipeline.fslog");
    let path = log_path.to_str().expect("utf8 path");
    generate(&parse(&["generate", "--system", "tsubame2", "--out", path]))
        .expect("generates");

    let s = summary(&parse(&["summary", path])).expect("summarizes");
    assert!(s.contains("failures:          897"));
    assert!(s.contains("mtbf:"));

    let r = report(&parse(&["report", path])).expect("reports");
    assert!(r.contains("Failure categories"));
    let r1 = report(&parse(&["report", path, "--threads", "1"])).expect("reports");
    let r4 = report(&parse(&["report", path, "--threads", "4"])).expect("reports");
    assert_eq!(r, r1, "default thread count changes nothing");
    assert_eq!(r1, r4, "thread count changes the report");
    assert!(report(&parse(&["report", path, "--thread", "4"])).is_err());

    let c = checkpoint(&parse(&["checkpoint", path, "--cost", "0.1"])).expect("plans");
    assert!(c.contains("daly interval"));

    let sp = spares(&parse(&["spares", path, "--class", "gpu"])).expect("sizes");
    assert!(sp.contains("required spares"));

    let av = availability(&parse(&["availability", path])).expect("analyzes");
    assert!(av.contains("repair overlap"));

    let sv = survival(&parse(&["survival", path])).expect("fits");
    assert!(sv.contains("nodes that failed"));

    let st = staffing(&parse(&["staffing", path])).expect("simulates");
    assert!(st.contains("queueing overhead"));
    let st = staffing(&parse(&["staffing", path, "--crews", "2"])).expect("simulates");
    assert!(st.contains("effective mttr"));
    assert!(staffing(&parse(&["staffing", path, "--target", "0.5"])).is_err());

    let pl = plan(&parse(&["plan", path])).expect("plans");
    assert!(pl.contains("Operations plan"));
    assert!(pl.contains("repair crews"));

    let rk = racks(&parse(&["racks", path])).expect("analyzes");
    assert!(rk.contains("uniformity"));
    assert!(rk.contains("non-uniform"));

    let anon_path = temp_path("pipeline-anon.fslog");
    let anon = anonymize(&parse(&[
        "anonymize",
        path,
        anon_path.to_str().expect("utf8 path"),
        "--key",
        "9",
    ]))
    .expect("anonymizes");
    assert!(anon.contains("897 records"));

    std::fs::remove_file(&log_path).expect("cleanup");
    std::fs::remove_file(&anon_path).expect("cleanup");
}

#[test]
fn compare_two_generations() {
    let p2 = temp_path("cmp2.fslog");
    let p3 = temp_path("cmp3.fslog");
    generate(&parse(&["generate", "--system", "tsubame2", "--out", p2.to_str().unwrap()]))
        .expect("generates");
    generate(&parse(&["generate", "--system", "tsubame3", "--out", p3.to_str().unwrap()]))
        .expect("generates");
    let out = compare(&parse(&[
        "compare",
        p2.to_str().unwrap(),
        p3.to_str().unwrap(),
    ]))
    .expect("compares");
    assert!(out.contains("MTBF"));
    std::fs::remove_file(&p2).expect("cleanup");
    std::fs::remove_file(&p3).expect("cleanup");
}

#[test]
fn scenario_generation() {
    let out = scenario(&parse(&[
        "scenario", "--nodes", "64", "--gpus", "8", "--mtbf", "30", "--days", "120",
    ]))
    .expect("generates");
    assert!(out.contains("gpus-per-node: 8"));
    // Out-of-range parameters fail cleanly.
    assert!(scenario(&parse(&["scenario", "--gpus", "9"])).is_err());
    assert!(scenario(&parse(&["scenario", "--multi", "1.5"])).is_err());
    assert!(scenario(&parse(&["scenario", "--trend-start", "0"])).is_err());
    // A wear-out trend generates successfully.
    assert!(scenario(&parse(&[
        "scenario", "--trend-start", "0.5", "--trend-end", "2.0",
    ]))
    .is_ok());
}

#[test]
fn spares_flag_validation() {
    let path = temp_path("spares.fslog");
    generate(&parse(&["generate", "--out", path.to_str().unwrap()])).expect("generates");
    assert!(spares(&parse(&["spares", path.to_str().unwrap(), "--class", "quantum"]))
        .is_err());
    assert!(spares(&parse(&["spares", path.to_str().unwrap(), "--risk", "2.0"])).is_err());
    std::fs::remove_file(&path).expect("cleanup");
}

#[test]
fn dispatch_routes_and_rejects() {
    assert!(dispatch(&parse(&["help"])).expect("help").contains("USAGE"));
    assert!(dispatch(&parse(&["frobnicate"])).is_err());
    // Missing file errors are reported, not panicked.
    assert!(dispatch(&parse(&["report", "/no/such/file"])).is_err());
}

#[test]
fn serve_and_query_validate_their_transport_flags() {
    let msg = |r: Result<String>| r.unwrap_err().to_string();
    let m = msg(serve(&parse(&["serve"])));
    assert!(m.contains("serve needs --socket PATH or --listen ADDR"), "{m}");
    let m = msg(serve(&parse(&["serve", "--socket", "a", "--listen", "b"])));
    assert!(m.contains("not both"), "{m}");
    let m = msg(serve(&parse(&["serve", "--socket", "a", "--max-inflight", "0"])));
    assert!(m.contains("--max-inflight must be at least 1"), "{m}");
    let m = msg(query(&parse(&["query"])));
    assert!(
        m.contains("report|compare|watch|logs|evict|metrics|ping|shutdown"),
        "{m}"
    );
    let m = msg(query(&parse(&["query", "frobnicate", "--socket", "a"])));
    assert!(m.contains("unknown query sub-command `frobnicate`"), "{m}");
    let m = msg(query(&parse(&["query", "ping"])));
    assert!(m.contains("query needs --socket PATH or --connect ADDR"), "{m}");
    // Flags that cannot travel over the protocol are rejected before
    // any connection is attempted.
    let m = msg(query(&parse(&[
        "query", "report", "x.fslog", "--socket", "a", "--trace", "t.ndjson",
    ])));
    assert!(m.contains("unknown flag --trace"), "{m}");
    let m = msg(query(&parse(&[
        "query", "watch", "sim:tsubame3", "--socket", "a", "--follow",
    ])));
    assert!(m.contains("--follow does not apply over the protocol"), "{m}");
    let m = msg(query(&parse(&[
        "query", "watch", "sim:tsubame3", "--socket", "a", "--threads", "4",
    ])));
    assert!(m.contains("unknown flag --threads"), "{m}");
}

#[test]
fn load_errors_carry_path_line_and_field() {
    let path = temp_path("broken.fslog");
    std::fs::write(
        &path,
        "# failscope-log v1\n# generation: Tsubame-3\n# name: Tsubame-3\n# nodes: 540\n\
         # gpus-per-node: 4\n# window: 2017-05-09..2020-02-22\n\
         id,time_h,ttr_h,category,node,gpus,locus\n0,12.0,oops,GPU,5,0,\n",
    )
    .expect("write");
    let err = load(path.to_str().unwrap()).unwrap_err().to_string();
    assert!(err.contains("broken.fslog"), "{err}");
    assert!(err.contains("line 8"), "{err}");
    assert!(err.contains("ttr_h"), "{err}");

    // An unreadable log gives one error whatever the index mode, in
    // report and compare alike: the path, then the i/o error.
    let missing = temp_path("nope.fslog");
    let _ = std::fs::remove_file(&missing);
    let (m, b) = (missing.to_str().unwrap(), path.to_str().unwrap());
    let expected = load(m).unwrap_err().to_string();
    assert!(expected.starts_with(&format!("{m}: i/o error: ")), "{expected}");
    for mode in ["off", "auto", "require"] {
        let err = report(&parse(&["report", m, "--index", mode])).unwrap_err().to_string();
        assert_eq!(err, expected, "report --index {mode}");
        let err = compare(&parse(&["compare", m, b, "--index", mode]))
            .unwrap_err()
            .to_string();
        assert_eq!(err, expected, "compare --index {mode}");
    }
    std::fs::remove_file(&path).expect("cleanup");
}

#[test]
fn report_formats_and_section_selection() {
    let path = temp_path("fmt.fslog");
    let p = path.to_str().unwrap();
    generate(&parse(&["generate", "--system", "tsubame3", "--out", p])).expect("generates");

    // JSON report: the v1 header line, then one NDJSON line per
    // section, thread-identical.
    let j1 = report(&parse(&["report", p, "--format", "json", "--threads", "1"]))
        .expect("reports");
    let j4 = report(&parse(&["report", p, "--format", "json", "--threads", "4"]))
        .expect("reports");
    assert_eq!(j1, j4);
    assert_eq!(j1.lines().count(), failscope::SECTIONS.len() + 1);
    assert!(j1.starts_with("{\"v\":1,\"kind\":\"report\"}\n"), "{j1}");
    assert!(
        j1.lines().nth(1).unwrap().starts_with(r#"{"id":"header""#),
        "{j1}"
    );
    assert!(j1.contains(r#""system":"Tsubame-3""#), "{j1}");
    // Text output too: the analysis sections, and the full report with
    // its metrics section (parse counters included), are the same at
    // every thread count; so is a comparison.
    let analysis = "header,categories,spatial,involvement,tbf,ttr,availability,survival,seasonal";
    let at = |ids: &str, threads: &str| {
        let words = ["report", p, "--sections", ids, "--threads", threads];
        report(&parse(&words)).expect("reports")
    };
    for ids in [analysis, "metrics"] {
        assert_eq!(at(ids, "1"), at(ids, "4"), "--sections {ids}");
    }
    let full1 = report(&parse(&["report", p, "--threads", "1"])).expect("reports");
    let full4 = report(&parse(&["report", p, "--threads", "4"])).expect("reports");
    assert_eq!(full1, full4, "metrics must stay thread-invariant");
    assert!(full1.contains("parse.chunks"), "{full1}");
    let c1 = compare(&parse(&["compare", p, p, "--threads", "1"])).expect("compares");
    let c4 = compare(&parse(&["compare", p, p, "--threads", "4"])).expect("compares");
    assert_eq!(c1, c4);
    assert!(c1.contains("MTBF"));

    // Section selection works for both formats and rejects unknowns.
    let picked = report(&parse(&["report", p, "--sections", "tbf,ttr"])).expect("reports");
    assert!(picked.contains("Time between failures"));
    assert!(!picked.contains("Failure categories"));
    let picked_json = report(&parse(&[
        "report", p, "--sections", "tbf,ttr", "--format", "json",
    ]))
    .expect("reports");
    assert_eq!(picked_json.lines().count(), 3);
    let err = report(&parse(&["report", p, "--sections", "tbf,bogus"])).unwrap_err();
    assert!(err.to_string().contains("unknown section `bogus`"), "{err}");
    assert!(report(&parse(&["report", p, "--format", "yaml"])).is_err());

    // Comparison JSON is the v1 header line plus a single document.
    let cj = compare(&parse(&["compare", p, p, "--format", "json"])).expect("compares");
    assert_eq!(cj.lines().count(), 2);
    assert!(cj.starts_with("{\"v\":1,\"kind\":\"compare\"}\n"), "{cj}");
    assert!(cj.contains(r#""mttr_hours":{"older":"#), "{cj}");

    std::fs::remove_file(&path).expect("cleanup");
}

#[test]
fn gzip_report_matches_plain_end_to_end() {
    let plain = temp_path("gzcmp.fslog");
    let packed = temp_path("gzcmp.fslog.gz");
    let p = plain.to_str().unwrap();
    let g = packed.to_str().unwrap();
    generate(&parse(&["generate", "--system", "tsubame3", "--out", p])).expect("generates");
    generate(&parse(&["generate", "--system", "tsubame3", "--out", g])).expect("generates");
    // The .gz output really is gzip (magic bytes) and smaller.
    let raw = std::fs::read(&packed).expect("read gz");
    assert_eq!(&raw[..2], &[0x1F, 0x8B], "not gzip output");
    let plain_len = std::fs::metadata(&plain).expect("stat").len() as usize;
    assert!(raw.len() * 10 < plain_len * 8, "{} vs {plain_len}", raw.len());
    // Same report from compressed and plain input, both formats.
    let rp = report(&parse(&["report", p])).expect("reports plain");
    let rg = report(&parse(&["report", g])).expect("reports gzip");
    assert_eq!(rp, rg, "gzip input changed the report");
    let jp = report(&parse(&["report", p, "--format", "json"])).expect("reports");
    let jg = report(&parse(&["report", g, "--format", "json"])).expect("reports");
    assert_eq!(jp, jg);
    // compare accepts compressed input too.
    let c = compare(&parse(&["compare", g, p])).expect("compares");
    assert!(c.contains("MTBF"));
    std::fs::remove_file(&plain).expect("cleanup");
    std::fs::remove_file(&packed).expect("cleanup");
}

#[test]
fn watch_reads_gzip_replay_but_rejects_follow_on_it() {
    let packed = temp_path("watch-replay.fslog.gz");
    let g = packed.to_str().unwrap();
    generate(&parse(&["generate", "--system", "tsubame2", "--out", g])).expect("generates");
    let out = watch(&parse(&["watch", g, "--baseline", "tsubame2"])).expect("watches");
    assert!(out.contains("897 records"), "{out}");
    let err = watch(&parse(&["watch", g, "--follow"])).unwrap_err();
    assert!(err.to_string().contains("--follow requires plain text"), "{err}");
    std::fs::remove_file(&packed).expect("cleanup");
}

#[test]
fn watch_json_format_and_sections() {
    let out = watch(&parse(&[
        "watch", "sim:tsubame3", "--format", "json", "--max-records", "50",
    ]))
    .expect("watches");
    // Pure NDJSON: the v1 header first, then every line an object.
    assert!(out.starts_with("{\"v\":1,\"kind\":\"watch\"}\n"), "{out}");
    assert!(out.lines().all(|l| l.starts_with('{')), "{out}");
    assert!(out.contains(r#"{"id":"overview","title":"Stream overview","data":{"#));

    let picked = watch(&parse(&[
        "watch", "sim:tsubame3", "--sections", "overview", "--max-records", "50",
    ]))
    .expect("watches");
    assert!(picked.contains("# summary @"));
    assert!(!picked.contains("#   categories:"));
    assert!(watch(&parse(&["watch", "sim:tsubame3", "--sections", "nope"])).is_err());
}

/// The analysis sections (everything except `metrics`, whose
/// counters truthfully differ between a parse and a snapshot hit).
const ANALYSIS: &str =
    "header,categories,spatial,involvement,tbf,ttr,availability,survival,seasonal";

#[test]
fn index_lifecycle_and_warm_reports_match_cold_byte_for_byte() {
    let path = temp_path("idx.fslog");
    let p = path.to_str().unwrap();
    let spath = format!("{p}.fsidx");
    // A run that failed midway leaves its snapshot behind.
    std::fs::remove_file(&spath).ok();
    generate(&parse(&["generate", "--system", "tsubame2", "--out", p])).expect("generates");

    // No snapshot yet: require refuses, verify reports it missing.
    let err = report(&parse(&["report", p, "--index", "require"])).unwrap_err();
    assert!(err.to_string().contains("no warm .fsidx snapshot"), "{err}");
    let err = index_cmd(&parse(&["index", "verify", p])).unwrap_err();
    assert!(err.to_string().contains("no .fsidx snapshot"), "{err}");
    assert!(report(&parse(&["report", p, "--index", "sometimes"])).is_err());

    // Build, then inspect.
    let built = index_cmd(&parse(&["index", "build", p])).expect("builds");
    assert!(built.contains("indexed 897 records"), "{built}");
    let v = index_cmd(&parse(&["index", "verify", p])).expect("verifies");
    assert!(v.contains("exact match"), "{v}");
    let st = index_cmd(&parse(&["index", "stat", p])).expect("stats");
    assert!(st.contains("records:  897"), "{st}");
    assert!(st.contains("Tsubame-2"), "{st}");
    assert!(st.contains("format:   fsidx v5\n"), "{st}");
    assert!(st.contains("identity: device "), "{st}");
    assert!(st.contains("vouched:  "), "{st}");
    let st2 = index_cmd(&parse(&["index", "stat", &spath])).expect("stats");
    assert_eq!(st, st2, "stat accepts the .fsidx path directly");
    assert!(index_cmd(&parse(&["index", "rebuild", p])).is_err());

    // Warm report output is byte-identical to cold, at 1 and 4
    // threads, for text and JSON.
    let cold = report(&parse(&["report", p, "--sections", ANALYSIS, "--index", "off"]))
        .expect("reports");
    for threads in ["1", "4"] {
        let warm = report(&parse(&[
            "report", p, "--sections", ANALYSIS, "--index", "require", "--threads", threads,
        ]))
        .expect("reports");
        assert_eq!(warm, cold, "--threads {threads}");
    }
    let cold_json = report(&parse(&[
        "report", p, "--sections", ANALYSIS, "--format", "json",
    ]))
    .expect("reports");
    let warm_json = report(&parse(&[
        "report", p, "--sections", ANALYSIS, "--format", "json", "--index", "require",
    ]))
    .expect("reports");
    assert_eq!(warm_json, cold_json);

    // The warm run parsed zero records: its trace has the snapshot
    // hit and no parse counters at all.
    let tp = temp_path("idx-warm.ndjson");
    report(&parse(&[
        "report", p, "--index", "require", "--trace", tp.to_str().unwrap(),
    ]))
    .expect("reports");
    let trace = std::fs::read_to_string(&tp).expect("trace written");
    assert!(
        trace.contains(r#""stage":"index.snapshot_hit","value":1"#),
        "{trace}"
    );
    assert!(!trace.contains("parse.records"), "{trace}");

    // Clipping composes with a warm snapshot (zero parsing there too).
    let cold_clip = report(&parse(&[
        "report", p, "--until", "1000", "--sections", ANALYSIS,
    ]))
    .expect("reports");
    let warm_clip = report(&parse(&[
        "report", p, "--until", "1000", "--sections", ANALYSIS, "--index", "require",
    ]))
    .expect("reports");
    assert_eq!(warm_clip, cold_clip);

    // compare accepts --index and matches the cold comparison.
    let c_cold = compare(&parse(&["compare", p, p])).expect("compares");
    let c_warm = compare(&parse(&["compare", p, p, "--index", "require"])).expect("compares");
    assert_eq!(c_warm, c_cold);

    // --index is rejected where it cannot apply.
    assert!(report(&parse(&["report", "--model", "tsubame2", "--index", "auto"])).is_err());

    std::fs::remove_file(&path).expect("cleanup");
    std::fs::remove_file(&spath).expect("cleanup");
}

#[test]
fn index_auto_cold_builds_then_extends_over_growth() {
    let path = temp_path("idx-grow.fslog");
    let p = path.to_str().unwrap();
    let spath = format!("{p}.fsidx");
    let log = Simulator::new(SystemModel::tsubame2(), 42).generate().expect("simulates");
    let text = faillog::to_string(&log).expect("serializes");
    let cut = text[..text.len() / 2].rfind('\n').expect("has lines") + 1;
    std::fs::write(&path, &text[..cut]).expect("write prefix");

    // First auto run parses cold and leaves a snapshot behind.
    let first = report(&parse(&["report", p, "--sections", ANALYSIS, "--index", "auto"]))
        .expect("reports");
    let v = index_cmd(&parse(&["index", "verify", p])).expect("verifies");
    assert!(v.contains("exact match"), "{v}");

    // The log grows; verify sees a usable prefix, and the next auto
    // run extends instead of re-parsing, matching a cold rebuild.
    std::fs::write(&path, &text).expect("write full");
    let v = index_cmd(&parse(&["index", "verify", p])).expect("verifies");
    assert!(v.contains("prefix match"), "{v}");
    let tp = temp_path("idx-grow.ndjson");
    let warm = report(&parse(&[
        "report", p, "--sections", ANALYSIS, "--index", "auto",
        "--trace", tp.to_str().unwrap(),
    ]))
    .expect("reports");
    let cold = report(&parse(&["report", p, "--sections", ANALYSIS, "--index", "off"]))
        .expect("reports");
    assert_eq!(warm, cold);
    assert_ne!(warm, first, "growth must change the report");
    let trace = std::fs::read_to_string(&tp).expect("trace written");
    assert!(
        trace.contains(r#""stage":"index.snapshot_extend","value":1"#),
        "{trace}"
    );
    assert!(!trace.contains("parse.records"), "{trace}");
    // ... and the rewritten snapshot now covers the whole log.
    let v = index_cmd(&parse(&["index", "verify", p])).expect("verifies");
    assert!(v.contains("exact match"), "{v}");

    std::fs::remove_file(&path).expect("cleanup");
    std::fs::remove_file(&spath).expect("cleanup");
}

#[test]
fn watch_index_auto_persists_a_snapshot_on_clean_shutdown() {
    let path = temp_path("watch-idx.fslog");
    let p = path.to_str().unwrap();
    let spath = format!("{p}.fsidx");
    generate(&parse(&["generate", "--system", "tsubame2", "--out", p])).expect("generates");

    let out = watch(&parse(&[
        "watch", p, "--baseline", "tsubame2", "--index", "auto",
    ]))
    .expect("watches");
    assert!(out.contains("897 records"), "{out}");
    let v = index_cmd(&parse(&["index", "verify", p])).expect("verifies");
    assert!(v.contains("exact match"), "{v}");

    // The watch-built snapshot serves a warm report identical to cold.
    let warm = report(&parse(&["report", p, "--sections", ANALYSIS, "--index", "require"]))
        .expect("reports");
    let cold = report(&parse(&["report", p, "--sections", ANALYSIS])).expect("reports");
    assert_eq!(warm, cold);

    // Sim sources and require mode are rejected; gzip input writes
    // no snapshot (progress counts decoded bytes, not raw ones).
    assert!(watch(&parse(&["watch", "sim:tsubame3", "--index", "auto"])).is_err());
    assert!(watch(&parse(&["watch", p, "--index", "require"])).is_err());
    let packed = temp_path("watch-idx.fslog.gz");
    let g = packed.to_str().unwrap();
    generate(&parse(&["generate", "--system", "tsubame2", "--out", g])).expect("generates");
    watch(&parse(&["watch", g, "--baseline", "tsubame2", "--index", "auto"]))
        .expect("watches");
    assert!(!std::path::Path::new(&format!("{g}.fsidx")).exists());

    std::fs::remove_file(&path).expect("cleanup");
    std::fs::remove_file(&spath).expect("cleanup");
    std::fs::remove_file(&packed).expect("cleanup");
}

#[test]
fn report_from_model_emits_deterministic_trace() {
    let t1 = temp_path("model-t1.ndjson");
    let t4 = temp_path("model-t4.ndjson");
    let base = ["report", "--model", "tsubame2", "--seed", "42"];
    let with = |trace: &str, threads: &str| {
        let mut words: Vec<&str> = base.to_vec();
        words.extend(["--trace", trace, "--threads", threads]);
        report(&parse(&words)).expect("reports")
    };
    let r1 = with(t1.to_str().unwrap(), "1");
    let r4 = with(t4.to_str().unwrap(), "4");
    assert_eq!(r1, r4, "report must be thread-identical");
    assert!(r1.contains("Failure categories"));
    let trace1 = std::fs::read_to_string(&t1).expect("trace written");
    let trace4 = std::fs::read_to_string(&t4).expect("trace written");
    assert_eq!(trace1, trace4, "trace must be thread-identical");
    assert!(trace1.lines().count() > 3, "{trace1}");
    for line in trace1.lines() {
        assert!(line.starts_with(r#"{"kind":""#), "{line}");
    }
    assert!(trace1.contains(r#""stage":"sim.generate""#), "{trace1}");
    assert!(trace1.contains(r#""stage":"index.ttr_hours""#), "{trace1}");
    assert!(trace1.contains(r#""stage":"render.header""#), "{trace1}");
    // The metrics section surfaces the same collector as JSON, after
    // the v1 header line.
    let m = report(&parse(&[
        "report", "--model", "tsubame2", "--sections", "metrics", "--format", "json",
    ]))
    .expect("reports");
    assert_eq!(m.lines().count(), 2);
    assert!(m.starts_with("{\"v\":1,\"kind\":\"report\"}\n"), "{m}");
    assert!(
        m.lines()
            .nth(1)
            .unwrap()
            .starts_with(r#"{"id":"metrics","title":"Runtime metrics","data":{"#),
        "{m}"
    );
    assert!(m.contains(r#""counters":"#), "{m}");
    // Mixing the two input modes (or --seed without --model) fails.
    assert!(report(&parse(&["report", "x.fslog", "--model", "tsubame2"])).is_err());
    assert!(report(&parse(&["report", "x.fslog", "--seed", "7"])).is_err());
    std::fs::remove_file(&t1).expect("cleanup");
    std::fs::remove_file(&t4).expect("cleanup");
}

#[test]
fn watch_trace_counts_ingested_records() {
    let tp = temp_path("watch-trace.ndjson");
    let out = watch(&parse(&[
        "watch", "sim:tsubame3", "--max-records", "40",
        "--trace", tp.to_str().unwrap(),
    ]))
    .expect("watches");
    assert!(out.contains("# watch done:"));
    let trace = std::fs::read_to_string(&tp).expect("trace written");
    assert!(
        trace.contains(r#""stage":"watch.records_ingested","value":40"#),
        "{trace}"
    );
    std::fs::remove_file(&tp).expect("cleanup");
}

#[test]
fn report_since_until_filters_the_window() {
    let path = temp_path("clip.fslog");
    let p = path.to_str().unwrap();
    generate(&parse(&["generate", "--system", "tsubame3", "--out", p])).expect("generates");
    let full = report(&parse(&["report", p])).expect("reports");
    let early = report(&parse(&["report", p, "--until", "1000"])).expect("reports");
    assert_ne!(full, early, "clipping must change the report");
    // A date bound resolves against the window (T3 starts 2017-08-01).
    let dated =
        report(&parse(&["report", p, "--since", "2017-10-01"])).expect("reports");
    assert_ne!(full, dated);
    // An empty clip errors cleanly rather than panicking.
    assert!(report(&parse(&["report", p, "--since", "banana"])).is_err());
    let c = compare(&parse(&["compare", p, p, "--until", "2000"])).expect("compares");
    assert!(c.contains("MTBF"));
    std::fs::remove_file(&path).expect("cleanup");
}

#[test]
fn watch_replays_a_simulation_and_alerts_on_injected_regression() {
    let out = watch(&parse(&[
        "watch",
        "sim:tsubame3",
        "--accel",
        "max",
        "--inject-mttr",
        "5.0",
    ]))
    .expect("watches");
    assert!(out.contains("# failwatch: sim:"), "{out}");
    assert!(out.contains("\"kind\":\"mttr_regression\""), "{out}");
    assert!(out.contains("# watch done:"), "{out}");
    // Summaries render on the calling thread: watch has no --threads.
    let err = watch(&parse(&[
        "watch", "sim:tsubame3", "--inject-mttr", "5.0", "--threads", "4",
    ]))
    .unwrap_err();
    assert_eq!(err.kind(), "args");
    assert!(err.to_string().contains("unknown flag --threads"), "{err}");
}

#[test]
fn watch_reads_a_log_file() {
    let path = temp_path("watch.fslog");
    let p = path.to_str().unwrap();
    generate(&parse(&["generate", "--system", "tsubame2", "--out", p])).expect("generates");
    let out = watch(&parse(&["watch", p, "--baseline", "tsubame2"])).expect("watches");
    assert!(out.contains("897 records"), "{out}");
    // File sources reject sim-only flags; sim baseline name checked.
    assert!(watch(&parse(&["watch", p, "--inject-mttr", "2.0"])).is_err());
    assert!(watch(&parse(&["watch", "sim:cray"])).is_err());
    assert!(watch(&parse(&["watch", p, "--baseline", "cray"])).is_err());
    std::fs::remove_file(&path).expect("cleanup");
}

/// The ISSUE's acceptance predicate, end to end on both canonical
/// seed logs: byte-identical across thread counts, warm vs cold,
/// and against a post-hoc filtered baseline.
#[test]
fn report_where_is_byte_identical_across_threads_index_and_post_hoc() {
    const EXPR: &str = "category == gpu && ttr > 24";
    for system in ["tsubame2", "tsubame3"] {
        let path = temp_path(&format!("where-{system}.fslog"));
        let p = path.to_str().unwrap();
        let spath = format!("{p}.fsidx");
        generate(&parse(&["generate", "--system", system, "--out", p]))
            .expect("generates");

        let cold = report(&parse(&[
            "report", p, "--sections", ANALYSIS, "--where", EXPR, "--threads", "1",
        ]))
        .expect("reports");
        for threads in ["2", "4"] {
            let r = report(&parse(&[
                "report", p, "--sections", ANALYSIS, "--where", EXPR, "--threads", threads,
            ]))
            .expect("reports");
            assert_eq!(r, cold, "--threads {threads} on {system}");
        }

        // A filtered cold report in auto mode matches too, and leaves
        // a snapshot behind: the parse saw the whole log, and the
        // predicate filtered the view afterwards.
        let auto = report(&parse(&[
            "report", p, "--sections", ANALYSIS, "--where", EXPR, "--index", "auto",
        ]))
        .expect("reports");
        assert_eq!(auto, cold);
        assert!(
            std::path::Path::new(&spath).exists(),
            "auto + --where must persist a snapshot"
        );
        // That snapshot is the whole log's: it serves filtered and
        // unfiltered reports alike.
        let cold_plain = report(&parse(&["report", p, "--sections", ANALYSIS, "--index", "off"]))
            .expect("reports");
        for (words, want) in [(vec!["--where", EXPR], &cold), (vec![], &cold_plain)] {
            let mut args = vec!["report", p, "--sections", ANALYSIS, "--index", "require"];
            args.extend(words);
            assert_eq!(&report(&parse(&args)).expect("reports"), want, "{args:?}");
        }

        // Warm snapshots compose: the .fsidx stores unfiltered
        // state and the predicate filters the decoded view.
        index_cmd(&parse(&["index", "build", p])).expect("builds");
        for mode in ["auto", "require"] {
            for threads in ["1", "4"] {
                let warm = report(&parse(&[
                    "report", p, "--sections", ANALYSIS, "--where", EXPR,
                    "--index", mode, "--threads", threads,
                ]))
                .expect("reports");
                assert_eq!(warm, cold, "--index {mode} --threads {threads} on {system}");
            }
        }

        // Post-hoc baseline: filter the same records outside the
        // pipeline, save them as a log, report that log unfiltered.
        let log = load(p).expect("loads");
        let posthoc_log = log.filtered(|r| r.category().is_gpu() && r.ttr().get() > 24.0);
        assert!(!posthoc_log.is_empty() && posthoc_log.len() < log.len());
        let bpath = temp_path(&format!("where-{system}-posthoc.fslog"));
        let b = bpath.to_str().unwrap();
        faillog::save(b, &posthoc_log).expect("saves");
        let posthoc = report(&parse(&["report", b, "--sections", ANALYSIS]))
            .expect("reports");
        assert_eq!(cold, posthoc, "pushdown must equal the post-hoc filter on {system}");

        // compare under the same filter matches an unfiltered
        // comparison of the post-hoc logs.
        let c_pushdown = compare(&parse(&["compare", p, p, "--where", EXPR]))
            .expect("compares");
        let c_posthoc = compare(&parse(&["compare", b, b])).expect("compares");
        assert_eq!(c_pushdown, c_posthoc);

        std::fs::remove_file(&path).expect("cleanup");
        std::fs::remove_file(&spath).expect("cleanup");
        std::fs::remove_file(&bpath).expect("cleanup");
    }
}

#[test]
fn where_errors_are_span_annotated_and_name_the_flag() {
    let path = temp_path("where-err.fslog");
    let p = path.to_str().unwrap();
    generate(&parse(&["generate", "--out", p])).expect("generates");
    let err = report(&parse(&["report", p, "--where", "bananas == 1"]))
        .unwrap_err()
        .to_string();
    assert!(err.starts_with("--where: unknown field `bananas`"), "{err}");
    assert!(err.contains("bananas == 1"), "{err}");
    assert!(err.contains("^^^^^^^"), "source span must be underlined: {err}");
    let err = report(&parse(&["report", p, "--where", "ttr >"]))
        .unwrap_err()
        .to_string();
    assert!(err.starts_with("--where: ") && err.contains('^'), "{err}");
    // compare and watch route through the same compiler.
    let err = compare(&parse(&["compare", p, p, "--where", "ttr = 1"]))
        .unwrap_err()
        .to_string();
    assert!(err.starts_with("--where: ") && err.contains('^'), "{err}");
    let err = watch(&parse(&["watch", p, "--where", "category == banana"]))
        .unwrap_err()
        .to_string();
    assert!(err.starts_with("--where: ") && err.contains('^'), "{err}");
    // The sugar flags name themselves, not --where.
    let err = report(&parse(&["report", p, "--since", "banana"]))
        .unwrap_err()
        .to_string();
    assert!(err.starts_with("--since: "), "{err}");
    let err = report(&parse(&["report", p, "--until", "2017-13-01"]))
        .unwrap_err()
        .to_string();
    assert!(err.starts_with("--until: "), "{err}");
    std::fs::remove_file(&path).expect("cleanup");
}

#[test]
fn since_until_are_sugar_for_where_time_bounds() {
    let path = temp_path("sugar.fslog");
    let p = path.to_str().unwrap();
    generate(&parse(&["generate", "--system", "tsubame3", "--out", p]))
        .expect("generates");
    let sugar = report(&parse(&["report", p, "--since", "500", "--until", "1000"]))
        .expect("reports");
    let spelled = report(&parse(&[
        "report", p, "--where", "time >= 500 && time < 1000",
    ]))
    .expect("reports");
    assert_eq!(sugar, spelled, "--since/--until must desugar to time bounds");
    // The sugar conjoins with an explicit --where.
    let both = report(&parse(&[
        "report", p, "--where", "category == gpu", "--until", "1000",
    ]))
    .expect("reports");
    let spelled = report(&parse(&[
        "report", p, "--where", "category == gpu && time < 1000",
    ]))
    .expect("reports");
    assert_eq!(both, spelled);
    // Date bounds desugar through the same literal path.
    let dated = report(&parse(&["report", p, "--since", "2017-10-01"])).expect("reports");
    let spelled = report(&parse(&[
        "report", p, "--where", "time >= \"2017-10-01\"",
    ]))
    .expect("reports");
    assert_eq!(dated, spelled);
    // A negative bound is a number like any other: all records lie at
    // or after it.
    let negative = report(&parse(&["report", p, "--since", "-5"])).expect("reports");
    let spelled = report(&parse(&["report", p, "--where", "time >= -5"])).expect("reports");
    assert_eq!(negative, spelled);
    let analysis = |extra: &[&str]| {
        let args = [&["report", p, "--sections", ANALYSIS][..], extra].concat();
        report(&parse(&args)).expect("reports")
    };
    assert_eq!(analysis(&["--since", "-5"]), analysis(&[]));
    let before = report(&parse(&["report", p, "--until", "-5", "--sections", "header"]))
        .expect("reports");
    assert!(before.contains("\n0 failures over"), "{before}");
    // The model path honours the same filter flags.
    let m = report(&parse(&[
        "report", "--model", "tsubame3", "--sections", ANALYSIS, "--where", "category == gpu",
    ]))
    .expect("reports");
    let full = report(&parse(&["report", "--model", "tsubame3", "--sections", ANALYSIS]))
        .expect("reports");
    assert_ne!(m, full, "the filter must scope the generated log");
    std::fs::remove_file(&path).expect("cleanup");
}

#[test]
fn watch_where_scopes_the_monitor_and_tags_alerts() {
    let path = temp_path("watch-where.fslog");
    let p = path.to_str().unwrap();
    generate(&parse(&["generate", "--system", "tsubame2", "--out", p]))
        .expect("generates");
    let out = watch(&parse(&[
        "watch", p, "--baseline", "tsubame2", "--where", "category == gpu",
    ]))
    .expect("watches");
    assert!(out.contains("# filter: category == gpu"), "{out}");
    assert!(
        !out.contains("897 records"),
        "the monitor must see only the filtered stream: {out}"
    );
    let alerts: Vec<&str> = out.lines().filter(|l| l.starts_with('{')).collect();
    for line in &alerts {
        assert!(
            line.ends_with("\"filter\":\"category == gpu\"}"),
            "every alert must carry the filter expression: {line}"
        );
    }
    // JSON mode stays pure NDJSON (the banner is text-only).
    let json = watch(&parse(&[
        "watch", p, "--baseline", "tsubame2", "--where", "category == gpu",
        "--format", "json",
    ]))
    .expect("watches");
    for line in json.lines() {
        assert!(line.starts_with('{'), "{line}");
    }
    // A filtered watch must never persist its (filtered) index.
    let err = watch(&parse(&[
        "watch", p, "--where", "category == gpu", "--index", "auto",
    ]))
    .unwrap_err()
    .to_string();
    assert!(err.contains("--index auto"), "{err}");
    assert!(err.contains("--where category == gpu"), "{err}");
    assert!(!std::path::Path::new(&format!("{p}.fsidx")).exists());
    std::fs::remove_file(&path).expect("cleanup");
}

/// Satellite: every invalid flag combination names the offending
/// flag and its value.
#[test]
fn flag_rejections_name_the_flag_and_value() {
    let path = temp_path("reject.fslog");
    let p = path.to_str().unwrap();
    generate(&parse(&["generate", "--out", p])).expect("generates");
    let msg = |r: Result<String>| r.unwrap_err().to_string();
    let m = msg(watch(&parse(&["watch", "sim:tsubame3", "--index", "off"])));
    assert!(m.contains("--index off") && m.contains("sim:tsubame3"), "{m}");
    let m = msg(watch(&parse(&["watch", p, "--inject-mttr", "2.0"])));
    assert!(m.contains("--inject-mttr 2.0") && m.contains(p), "{m}");
    let m = msg(watch(&parse(&["watch", p, "--accel", "3"])));
    assert!(m.contains("--accel 3"), "{m}");
    let m = msg(report(&parse(&["report", "--model", "tsubame2", "--index", "auto"])));
    assert!(m.contains("--index auto") && m.contains("tsubame2"), "{m}");
    let m = msg(report(&parse(&["report", p, "--seed", "7"])));
    assert!(m.contains("--seed 7"), "{m}");
    // --index require on a snapshotless log while --where is active
    // names both flags (and the fix is still an unfiltered build).
    let m = msg(report(&parse(&["report", p, "--index", "require", "--where", "ttr > 1"])));
    assert!(m.contains("--index require"), "{m}");
    assert!(m.contains("--where ttr > 1"), "{m}");
    assert!(m.contains("failctl index build"), "{m}");
    std::fs::remove_file(&path).expect("cleanup");
}

/// How long a log sits unchanged before a vouching `index build`: well
/// past the racy bound `failindex` allows for timestamp granularity
/// (100 ms on a filesystem with nanosecond timestamps).
const AGED: std::time::Duration = std::time::Duration::from_millis(300);

/// `failctl report WORDS...` exactly as [`report`] runs it, on a fresh
/// engine whose metrics then say how many sources it served from a
/// snapshot that vouched for its log, without reading the log.
fn report_counting_vouched(words: &[&str]) -> Result<(String, u64)> {
    let args = parse(words);
    let common = common::CommonQueryArgs::from_args(&args);
    let req = common.apply_query(failapi::QueryRequest::report(
        report::report_source_at(&args, 0)?,
    ))?;
    let engine = failapi::QueryEngine::new();
    let outcome = engine.execute(&req)?;
    common.write_trace(&outcome.trace)?;
    Ok((
        outcome.output,
        engine.metrics().counter("engine.snapshots_vouched"),
    ))
}

/// `text` with the last digit of its first record's TTR changed: the
/// same length, other bytes, and still a valid log.
fn same_length_edit(text: &str) -> String {
    let body = text.find("\nid,").expect("column header") + 1;
    let row = body + text[body..].find('\n').expect("first row") + 1;
    let ttr_end = row
        + text[row..]
            .match_indices(',')
            .nth(2)
            .expect("a ttr field")
            .0;
    let mut bytes = text.as_bytes().to_vec();
    let digit = &mut bytes[ttr_end - 1];
    *digit = if *digit == b'9' { b'8' } else { *digit + 1 };
    String::from_utf8(bytes).expect("still text")
}

#[test]
fn vouched_warm_reports_follow_every_change_to_the_log() {
    use std::time::{Duration, Instant};

    let dir = temp_path("vouch-matrix");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("matrix dir");
    let log = Simulator::new(SystemModel::tsubame2(), 42).generate().expect("simulates");
    let text = faillog::to_string(&log).expect("serializes");
    let cut = text[..text.len() / 2].rfind('\n').expect("has lines") + 1;
    let (prefix, tail) = text.split_at(cut);
    let edited = same_length_edit(prefix);
    assert_eq!(edited.len(), prefix.len());
    assert_ne!(edited, prefix);
    assert!(faillog::from_str(&edited).is_ok());

    let log_path = dir.join("log.fslog");
    let p = log_path.to_str().expect("utf8 path");
    let spath = format!("{p}.fsidx");
    let stat = || index_cmd(&parse(&["index", "stat", p])).expect("stats");
    // An aged log and a fresh build: the snapshot vouches for it.
    let build_aged = || {
        std::thread::sleep(AGED);
        index_cmd(&parse(&["index", "build", p])).expect("builds");
        let st = stat();
        assert!(st.contains("vouched:  yes"), "{st}");
    };
    let reset = || {
        std::fs::remove_file(&log_path).ok();
        std::fs::remove_file(&spath).ok();
        std::fs::write(&log_path, prefix).expect("writes the log");
    };
    // After a change: `require` never vouches, and serves the current
    // bytes or refuses as it always has; `auto` serves the current bytes.
    let check = |case: &str, require_serves: bool| {
        let cold = report(&parse(&["report", p, "--sections", ANALYSIS, "--index", "off"]))
            .expect("reports cold");
        match report_counting_vouched(&["report", p, "--sections", ANALYSIS, "--index", "require"])
        {
            Ok((out, vouched)) => {
                assert!(require_serves, "{case}: require served a stale snapshot");
                assert_eq!(vouched, 0, "{case}");
                assert_eq!(out, cold, "{case}: require");
            }
            Err(e) => {
                assert!(!require_serves, "{case}: {e}");
                assert!(e.to_string().contains("no warm .fsidx snapshot"), "{case}: {e}");
            }
        }
        let auto = report(&parse(&["report", p, "--sections", ANALYSIS, "--index", "auto"]))
            .expect("reports auto");
        assert_eq!(auto, cold, "{case}: auto");
    };

    // The positive control: an unchanged log is served without a read.
    reset();
    build_aged();
    let (out, vouched) =
        report_counting_vouched(&["report", p, "--sections", ANALYSIS, "--index", "require"])
            .expect("reports");
    assert_eq!(vouched, 1);
    let cold = report(&parse(&["report", p, "--sections", ANALYSIS, "--index", "off"]))
        .expect("reports cold");
    assert_eq!(out, cold);

    // Append: the snapshot extends over the tail.
    reset();
    build_aged();
    let mut f = std::fs::OpenOptions::new().append(true).open(&log_path).expect("opens");
    std::io::Write::write_all(&mut f, tail.as_bytes()).expect("appends");
    drop(f);
    check("append", true);

    // Same-length rewrite in place.
    reset();
    build_aged();
    std::fs::write(&log_path, &edited).expect("rewrites");
    check("same-length rewrite", false);

    // The rewrite, then `touch -r` back to the old mtime: the ctime
    // still moves.
    reset();
    build_aged();
    let mtime = std::fs::metadata(&log_path).and_then(|m| m.modified()).expect("mtime");
    std::fs::write(&log_path, &edited).expect("rewrites");
    std::fs::File::options()
        .write(true)
        .open(&log_path)
        .and_then(|f| f.set_modified(mtime))
        .expect("sets the mtime back");
    assert_eq!(
        std::fs::metadata(&log_path).and_then(|m| m.modified()).expect("mtime"),
        mtime
    );
    check("rewrite + touch -r", false);

    // Rename over the path.
    reset();
    build_aged();
    let staged = dir.join("staged.fslog");
    std::fs::write(&staged, &edited).expect("stages");
    std::fs::rename(&staged, &log_path).expect("renames over");
    check("rename-over", false);

    // Unlink and re-create.
    reset();
    build_aged();
    std::fs::remove_file(&log_path).expect("unlinks");
    std::fs::write(&log_path, &edited).expect("re-creates");
    check("unlink + re-create", false);

    // The path is a symlink, and its target is swapped.
    #[cfg(unix)]
    {
        reset();
        let (a, b) = (dir.join("a.fslog"), dir.join("b.fslog"));
        std::fs::write(&a, prefix).expect("writes a");
        std::fs::write(&b, &edited).expect("writes b");
        std::fs::remove_file(&log_path).expect("unlinks");
        std::os::unix::fs::symlink(&a, &log_path).expect("links to a");
        build_aged();
        std::fs::remove_file(&log_path).expect("unlinks the link");
        std::os::unix::fs::symlink(&b, &log_path).expect("links to b");
        check("symlink swap", false);
    }

    // A racy build: the log was written just before the build read it,
    // so the snapshot does not vouch, and a same-length rewrite right
    // after the build is read like any other change.
    reset();
    let started = Instant::now();
    std::fs::write(&log_path, prefix).expect("writes the log");
    index_cmd(&parse(&["index", "build", p])).expect("builds");
    if started.elapsed() < Duration::from_millis(50) {
        let st = stat();
        assert!(st.contains("vouched:  racy"), "{st}");
        let (out, vouched) =
            report_counting_vouched(&["report", p, "--sections", ANALYSIS, "--index", "require"])
                .expect("reports");
        assert_eq!(vouched, 0, "a racy snapshot is checked against the bytes");
        assert_eq!(out, cold);
    }
    std::fs::write(&log_path, &edited).expect("rewrites");
    check("racy build + rewrite", false);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_vouched_warm_report_equals_the_hashed_one_byte_for_byte() {
    let path = temp_path("vouch-bytes.fslog");
    let p = path.to_str().unwrap();
    let spath = format!("{p}.fsidx");
    generate(&parse(&["generate", "--system", "tsubame3", "--out", p])).expect("generates");
    std::thread::sleep(AGED);
    index_cmd(&parse(&["index", "build", p])).expect("builds");
    let st = index_cmd(&parse(&["index", "stat", p])).expect("stats");
    assert!(st.contains("identity: device "), "{st}");
    assert!(st.contains("read at:  "), "{st}");
    assert!(st.contains("vouched:  yes"), "{st}");

    // Every section, metrics included, and the trace export.
    let tp = temp_path("vouch-bytes.ndjson");
    let tp = tp.to_str().unwrap();
    let run = |threads: &str, expect_vouched: u64| {
        let (out, vouched) = report_counting_vouched(&[
            "report", p, "--index", "require", "--threads", threads, "--trace", tp,
        ])
        .expect("reports");
        assert_eq!(vouched, expect_vouched, "--threads {threads}");
        (out, std::fs::read_to_string(tp).expect("trace written"))
    };
    let vouched: Vec<_> = ["1", "4"].iter().map(|t| run(t, 1)).collect();
    assert_eq!(vouched[0], vouched[1]);
    assert!(vouched[0].0.contains("counter index.snapshot_hit = 1"), "{}", vouched[0].0);

    // The same snapshot without an identity takes the hashed path.
    let snap = failindex::load(&spath).expect("loads");
    failindex::save(&spath, snap.view(), snap.source()).expect("saves");
    let st = index_cmd(&parse(&["index", "stat", p])).expect("stats");
    assert!(st.contains("identity: none\n"), "{st}");
    assert!(st.contains("vouched:  no identity\n"), "{st}");
    for (threads, expected) in ["1", "4"].iter().zip(&vouched) {
        assert_eq!(&run(threads, 0), expected, "--threads {threads}");
    }
    // The CLI entry point gives the same bytes.
    let cli = report(&parse(&["report", p, "--index", "require"])).expect("reports");
    assert_eq!(cli, vouched[0].0);

    // Analysis sections equal a cold parse's.
    let cold = report(&parse(&["report", p, "--sections", ANALYSIS, "--index", "off"]))
        .expect("reports");
    let warm = report(&parse(&["report", p, "--sections", ANALYSIS, "--index", "auto"]))
        .expect("reports");
    assert_eq!(warm, cold);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&spath).ok();
    std::fs::remove_file(tp).ok();
}

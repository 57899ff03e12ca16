//! Property-based integration tests (proptest) spanning the workspace:
//! serialization round trips, generator invariants, statistics
//! invariants, and the two text decoders a client can reach — the
//! `faild` wire codec and the `--where` filter language — on arbitrary
//! and mutated input.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use failsim::{ScenarioBuilder, Simulator};
use failstats::{Ecdf, Summary};
use failtypes::{
    Category, Date, FailureLog, FailureRecord, Generation, GpuSlot, Hours, NodeId,
    ObservationWindow, SoftwareLocus, SystemSpec, T3Category,
};

fn t3_window() -> ObservationWindow {
    ObservationWindow::new(
        Date::new(2017, 5, 9).expect("valid"),
        Date::new(2020, 2, 22).expect("valid"),
    )
    .expect("valid window")
}

/// Strategy for an arbitrary valid Tsubame-3 failure record.
fn arb_t3_record(id: u32) -> impl Strategy<Value = FailureRecord> {
    let window_hours = t3_window().duration().get();
    (
        0.0..window_hours,
        0.0..500.0f64,
        0..T3Category::ALL.len(),
        0u32..540,
        proptest::collection::btree_set(0u8..4, 0..=3),
        proptest::option::of(0..SoftwareLocus::ALL.len()),
    )
        .prop_map(move |(time, ttr, cat_idx, node, slots, locus_idx)| {
            let category = Category::T3(T3Category::ALL[cat_idx]);
            let mut rec = FailureRecord::new(
                id,
                Hours::new(time),
                Hours::new(ttr),
                category,
                NodeId::new(node),
            );
            if category.is_gpu() && !slots.is_empty() {
                rec = rec.with_gpus(slots.into_iter().map(GpuSlot::new));
            }
            if category.is_software() {
                if let Some(i) = locus_idx {
                    rec = rec.with_locus(SoftwareLocus::ALL[i]);
                }
            }
            rec
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csv_roundtrip_arbitrary_records(
        recs in proptest::collection::vec((0u32..10_000).prop_flat_map(arb_t3_record), 0..40)
    ) {
        // Deduplicate ids to keep records distinguishable after sorting.
        let recs: Vec<FailureRecord> = recs
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let mut out = FailureRecord::new(
                    i as u32, r.time(), r.ttr(), r.category(), r.node(),
                );
                if !r.gpus().is_empty() {
                    out = out.with_gpus(r.gpus().iter().copied());
                }
                if let Some(l) = r.locus() {
                    out = out.with_locus(l);
                }
                out
            })
            .collect();
        let log = FailureLog::new(Generation::Tsubame3, t3_window(), recs)
            .expect("strategy yields valid records");
        let text = faillog::to_string(&log).expect("serializes");
        let parsed = faillog::from_str(&text).expect("parses");
        prop_assert_eq!(parsed, log);
    }

    #[test]
    fn generated_logs_always_satisfy_invariants(
        seed in any::<u64>(),
        nodes in 2u32..200,
        gpus in 1u8..=8,
        mtbf in 5.0..200.0f64,
        days in 30u32..400,
    ) {
        let model = ScenarioBuilder::new("prop")
            .nodes(nodes)
            .gpus_per_node(gpus)
            .system_mtbf_hours(mtbf)
            .window_days(days)
            .build()
            .expect("strategy stays in the valid range");
        let expected = model.total_failures();
        let log = Simulator::new(model, seed).generate().expect("valid model");
        prop_assert_eq!(log.len() as u32, expected);
        let horizon = log.window().duration().get();
        let mut last = 0.0f64;
        for rec in log.iter() {
            let t = rec.time().get();
            prop_assert!(t >= 0.0 && t < horizon);
            prop_assert!(t >= last, "times must ascend");
            last = t;
            prop_assert!(rec.ttr().get() > 0.0);
            prop_assert!(rec.node().index() < nodes);
            for slot in rec.gpus() {
                prop_assert!(slot.index() < gpus);
            }
            // Slots are strictly ascending (distinct).
            for pair in rec.gpus().windows(2) {
                prop_assert!(pair[0] < pair[1]);
            }
        }
    }

    #[test]
    fn anonymization_is_bijective_for_any_key(key in any::<u64>()) {
        let model = ScenarioBuilder::new("anon")
            .nodes(50)
            .window_days(120)
            .system_mtbf_hours(20.0)
            .build()
            .expect("valid scenario");
        let log = Simulator::new(model, 3).generate().expect("valid model");
        let anon = faillog::anonymize_nodes(&log, key);
        // Node multiset preserved.
        let multiset = |l: &FailureLog| {
            let mut m = std::collections::HashMap::new();
            for r in l.iter() {
                *m.entry(r.node()).or_insert(0u32) += 1;
            }
            let mut v: Vec<u32> = m.into_values().collect();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(multiset(&log), multiset(&anon));
        // Double anonymization with the same key is deterministic.
        prop_assert_eq!(faillog::anonymize_nodes(&log, key), anon);
    }

    #[test]
    fn ecdf_quantile_and_eval_are_inverse_ish(
        mut data in proptest::collection::vec(-1e6..1e6f64, 1..200),
        p in 0.0..=1.0f64,
    ) {
        let ecdf = Ecdf::new(data.clone()).expect("non-empty, no NaN");
        let q = ecdf.quantile(p);
        data.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        // Quantiles stay inside the observed range.
        prop_assert!(q >= data[0] && q <= data[data.len() - 1]);
        // eval is monotone and bounded.
        prop_assert!(ecdf.eval(f64::NEG_INFINITY) == 0.0);
        prop_assert!((ecdf.eval(f64::INFINITY) - 1.0).abs() < 1e-12);
        prop_assert!(ecdf.eval(q) >= p - 1.0 / data.len() as f64 - 1e-9);
    }

    #[test]
    fn summary_orderings_hold(
        data in proptest::collection::vec(0.0..1e6f64, 1..200),
    ) {
        let s = Summary::from_data(&data).expect("non-empty");
        prop_assert!(s.min() <= s.q1());
        prop_assert!(s.q1() <= s.median());
        prop_assert!(s.median() <= s.q3());
        prop_assert!(s.q3() <= s.max());
        prop_assert!(s.mean() >= s.min() && s.mean() <= s.max());
        prop_assert!(s.iqr() >= 0.0);
        prop_assert!(s.std_dev() >= 0.0);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(input in ".{0,400}") {
        // Malformed input must produce an error, never a panic.
        let _ = faillog::from_str(&input);
    }

    #[test]
    fn parser_never_panics_on_mutated_valid_logs(
        seed in any::<u64>(),
        cut in 0usize..2000,
        insert in ".{0,30}",
    ) {
        let model = ScenarioBuilder::new("fuzz")
            .nodes(16)
            .window_days(60)
            .system_mtbf_hours(50.0)
            .build()
            .expect("valid scenario");
        let log = Simulator::new(model, seed).generate().expect("valid model");
        let mut text = faillog::to_string(&log).expect("serializes");
        // Mutate: truncate at a byte boundary and splice arbitrary text.
        let cut = text
            .char_indices()
            .map(|(i, _)| i)
            .take(cut + 1)
            .last()
            .unwrap_or(0)
            .min(text.len());
        text.truncate(cut);
        text.push_str(&insert);
        let _ = faillog::from_str(&text); // must not panic
    }

    #[test]
    fn kaplan_meier_is_monotone_for_any_sample(
        lifetimes in proptest::collection::vec((0.0..1e4f64, any::<bool>()), 1..100),
    ) {
        use failstats::{KaplanMeier, Lifetime};
        let data: Vec<Lifetime> = lifetimes
            .into_iter()
            .map(|(d, obs)| Lifetime { duration: d, observed: obs })
            .collect();
        let km = KaplanMeier::fit(&data).expect("valid lifetimes");
        let mut prev = 1.0;
        for step in km.steps() {
            prop_assert!(step.survival <= prev + 1e-12);
            prop_assert!((0.0..=1.0).contains(&step.survival));
            prev = step.survival;
        }
    }

    #[test]
    fn tbf_mtbf_equals_window_over_count(seed in any::<u64>()) {
        let model = ScenarioBuilder::new("mtbf")
            .nodes(64)
            .window_days(200)
            .system_mtbf_hours(25.0)
            .build()
            .expect("valid scenario");
        let log = Simulator::new(model, seed).generate().expect("valid model");
        let view = failscope::StreamView::new(&log);
        let tbf = failscope::TbfAnalysis::from_index(&view).expect("enough failures");
        let expected = log.window().duration().get() / log.len() as f64;
        prop_assert!((tbf.mtbf_hours() - expected).abs() < 1e-9);
    }
}

/// Valid request lines covering every command and most query fields.
fn request_corpus() -> Vec<String> {
    use failapi::{wire, OutputFormat, QueryRequest, QuerySource, WatchRequest};
    let report = QueryRequest::report(QuerySource::file("fleet.fslog"))
        .sections("tbf,ttr")
        .where_expr("category == gpu && ttr > 24")
        .since("100")
        .format(OutputFormat::Json)
        .threads(4)
        .index(failindex::IndexMode::Auto);
    let mut watch = WatchRequest::new("sim:tsubame3");
    watch.max_records = Some("50".to_string());
    vec![
        wire::encode_query(7, &report),
        wire::encode_query(8, &QueryRequest::report(QuerySource::model("tsubame2", 42))),
        wire::encode_query(
            9,
            &QueryRequest::compare("a.fslog", "b.fslog").until("1000"),
        ),
        wire::encode_watch(10, &watch),
        wire::encode_evict(11, &QuerySource::file("fleet.fslog")),
        wire::encode_simple(12, "metrics"),
        wire::encode_simple(13, "logs"),
        wire::encode_simple(14, "ping"),
        wire::encode_simple(15, "shutdown"),
    ]
}

/// Valid response lines: successes with escapes, and error envelopes.
fn response_corpus() -> Vec<String> {
    use failapi::wire;
    vec![
        wire::encode_ok(1, "report", false, "line one\n\"two\"\t\\three\n"),
        wire::encode_ok(2, "ping", true, "pong\n"),
        wire::encode_err(3, &failtypes::Error::args("unknown section `bogus`")),
        wire::encode_err(4, &failtypes::Error::internal("query panicked")),
    ]
}

/// Applies byte edits (overwrite, delete, insert) and, for even `cut`,
/// a truncation to `line`, then makes the bytes valid UTF-8 the way a lossy reader
/// would.
fn mutate(line: &str, edits: &[(usize, u8, u8)], cut: usize) -> String {
    let mut bytes = line.as_bytes().to_vec();
    for &(at, op, byte) in edits {
        let at = at % (bytes.len() + 1);
        match op % 3 {
            0 if at < bytes.len() => bytes[at] = byte,
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, byte),
        }
    }
    if cut.is_multiple_of(2) {
        bytes.truncate(cut / 2 % (bytes.len() + 1));
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Whatever `parse_request` accepts re-encodes to a line it decodes to
/// the same command.
fn request_round_trips(id: u64, cmd: &failapi::wire::Command) -> Result<(), TestCaseError> {
    use failapi::wire::{self, Command};
    let line = match cmd {
        Command::Query(req) => wire::encode_query(id, req),
        Command::Watch(req) => wire::encode_watch(id, req),
        Command::Evict(source) => wire::encode_evict(id, source),
        other => wire::encode_simple(id, other.name()),
    };
    let (again_id, again) = wire::parse_request(&line);
    prop_assert_eq!(again_id, id);
    prop_assert_eq!(again.as_ref().ok(), Some(cmd), "re-encoded as {}", line);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn wire_requests_from_arbitrary_bytes_parse_or_fail_typed(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let line = String::from_utf8_lossy(&bytes);
        if let (id, Ok(cmd)) = failapi::wire::parse_request(&line) {
            request_round_trips(id, &cmd)?;
        }
    }

    #[test]
    fn mutated_wire_requests_parse_or_fail_typed(
        pick in any::<usize>(),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>(), any::<u8>()), 0..4),
        cut in any::<usize>(),
    ) {
        let corpus = request_corpus();
        let line = mutate(&corpus[pick % corpus.len()], &edits, cut);
        match failapi::wire::parse_request(&line) {
            (id, Ok(cmd)) => request_round_trips(id, &cmd)?,
            (_, Err(e)) => prop_assert!(!e.kind().is_empty()),
        }
    }

    #[test]
    fn wire_responses_from_arbitrary_or_mutated_bytes_parse_or_fail_typed(
        bytes in proptest::collection::vec(any::<u8>(), 0..120),
        pick in any::<usize>(),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>(), any::<u8>()), 0..4),
        cut in any::<usize>(),
    ) {
        let corpus = response_corpus();
        let mutated = mutate(&corpus[pick % corpus.len()], &edits, cut);
        for line in [String::from_utf8_lossy(&bytes).into_owned(), mutated] {
            if let Ok(resp) = failapi::wire::parse_response(&line) {
                let again = failapi::wire::encode_ok(resp.id, &resp.cmd, resp.cached, &resp.output);
                prop_assert_eq!(failapi::wire::parse_response(&again).ok(), Some(resp));
            }
        }
    }

    #[test]
    fn unmutated_wire_corpora_decode(pick in any::<usize>()) {
        let requests = request_corpus();
        let (id, cmd) = failapi::wire::parse_request(&requests[pick % requests.len()]);
        prop_assert!(cmd.is_ok(), "{:?}", cmd);
        request_round_trips(id, &cmd.expect("decodes"))?;
        let responses = response_corpus();
        let _ = failapi::wire::parse_response(&responses[pick % responses.len()]);
    }
}

/// Valid `--where` expressions covering every operator family: the
/// `failctl help` example, `in (...)` sets, `~` substring matches, a
/// `YYYY-MM-DD` time literal, `!`, and parentheses.
const FILTER_CORPUS: &[&str] = &[
    "category == gpu && ttr > 24",
    "category in (gpu, memory) || node in (1, 2, 3)",
    "node ~ \"rack12\" && gpus >= 2",
    "time >= \"2018-03-01\" && time < 1000",
    "!(month == 12 || rack != 4) && slot <= 1",
    "recovery > 100 && category != software",
];

/// Whitespace-separated tokens of the `--where` language (and a few
/// near-misses), for token soups that reach deeper into the parser than
/// random text.
const FILTER_TOKENS: &str = "category ttr recovery time node slot rack gpus month ttrs \
    == != < <= > >= ~ in && || ! ( ) , = & gpu memory software \"System_Board\" \"rack12\" \
    \"2018-03-01\" \"2018-13-40\" \" 24 -1 1e308 0.5 13 4294967296";

/// `failfilter::parse` and `failfilter::compile` are total on `src`:
/// each returns `Ok` or a typed `args` error, the two stages agree with
/// the one-shot `compile`, and a compiled predicate evaluates `rec`
/// without panicking.
fn filter_is_total(src: &str, rec: &FailureRecord) -> Result<(), TestCaseError> {
    let oneshot = failfilter::compile(src);
    let staged = match failfilter::parse(src) {
        Ok(expr) => {
            prop_assert_eq!(expr.source(), src);
            expr.compile()
        }
        Err(e) => Err(e),
    };
    prop_assert_eq!(staged.is_ok(), oneshot.is_ok(), "{:?}", src);
    match oneshot {
        Ok(pred) => {
            let _ = pred.matches(rec, &SystemSpec::tsubame3(), t3_window());
        }
        Err(e) => prop_assert_eq!(e.kind(), "args", "{:?}: {}", src, e),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn filters_from_arbitrary_strings_compile_or_fail_typed(
        any_text in ".{0,80}",
        picks in proptest::collection::vec(any::<usize>(), 0..12),
        rec in arb_t3_record(0),
    ) {
        filter_is_total(&any_text, &rec)?;
        let tokens: Vec<&str> = FILTER_TOKENS.split_whitespace().collect();
        let soup: Vec<&str> = picks.iter().map(|&i| tokens[i % tokens.len()]).collect();
        filter_is_total(&soup.join(" "), &rec)?;
    }

    #[test]
    fn mutated_filters_compile_or_fail_typed(
        pick in any::<usize>(),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>(), any::<u8>()), 0..4),
        cut in any::<usize>(),
        rec in arb_t3_record(0),
    ) {
        let src = mutate(FILTER_CORPUS[pick % FILTER_CORPUS.len()], &edits, cut);
        filter_is_total(&src, &rec)?;
    }

    #[test]
    fn unmutated_filter_corpus_compiles_and_evaluates(
        pick in any::<usize>(),
        rec in arb_t3_record(0),
    ) {
        let src = FILTER_CORPUS[pick % FILTER_CORPUS.len()];
        prop_assert!(failfilter::compile(src).is_ok(), "{}", src);
        filter_is_total(src, &rec)?;
    }
}

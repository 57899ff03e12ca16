//! A file and a model never share a held view, whatever the file is
//! called. A relative log path is taken verbatim, so a log named like a
//! model's catalog id (`model:tsubame2:1`) is a legal file; the engine
//! must still answer the model with the model's records.
//!
//! This binary holds a single test because it changes the process's
//! working directory, so the log can be named by that bare relative
//! path.

use failapi::{QueryEngine, QueryRequest, QuerySource};
use failsim::{Simulator, SystemModel};

#[test]
fn a_file_named_like_a_model_id_never_serves_that_model() {
    let dir = std::env::temp_dir().join(format!("failsuite-catalog-keys-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::env::set_current_dir(&dir).expect("enters the temp dir");
    // The file holds other records than the model it is named after.
    let name = "model:tsubame2:1";
    let log = Simulator::new(SystemModel::tsubame3(), 7).generate().expect("simulates");
    faillog::save(name, &log).expect("saves");

    let file = QueryRequest::report(QuerySource::file(name));
    let model = QueryRequest::report(QuerySource::model("tsubame2", 1));
    let fresh = |req: &QueryRequest| QueryEngine::new().execute(req).expect("query").output;

    let engine = QueryEngine::new();
    let run = |req: &QueryRequest| engine.execute(req).expect("query").output;
    assert_eq!(run(&file), fresh(&file));
    assert_ne!(fresh(&model), fresh(&file), "the file must differ from the model");
    assert_eq!(run(&model), fresh(&model), "the model was answered from the file");
    // Once both are held, each still answers for itself.
    assert_eq!(run(&file), fresh(&file));

    // One catalog line each, the file's listed first.
    let catalog = engine.catalog();
    assert_eq!(catalog.len(), 2, "{catalog:?}");
    assert!(catalog.iter().all(|entry| entry.source == name));
    assert_eq!(catalog[0].records, log.len());
    assert!(catalog[0].bytes.is_some() && catalog[1].bytes.is_none());

    // Evicting the model keeps the file's view and renders.
    let evicted = engine.evict(&QuerySource::model("tsubame2", 1));
    assert_eq!((evicted.logs, evicted.renders, evicted.dirty), (1, 1, 0));
    let catalog = engine.catalog();
    assert_eq!(catalog.len(), 1);
    assert!(catalog[0].bytes.is_some() && catalog[0].render_entries == 1 && catalog[0].dirty);
    assert_eq!(run(&model), fresh(&model));

    std::fs::remove_dir_all(&dir).ok();
}

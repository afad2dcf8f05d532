//! Self-test against the real workspace: the shipped tree must lint
//! clean, and the two failure modes the registry exists to catch —
//! removing a NAMES.md entry, and renaming a span call site — must turn
//! the build red. This is the executable proof behind the "renames fail
//! lint" claim in `crates/obs/NAMES.md`.

use hetesim_lint::report::Pass;
use hetesim_lint::{load_workspace, run_with, Config, SourceFile, ALLOWLIST_PATH, REGISTRY_PATH};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}

fn load() -> (Config, Vec<SourceFile>, String, String) {
    let root = workspace_root();
    let registry = std::fs::read_to_string(root.join(REGISTRY_PATH)).expect("NAMES.md readable");
    let allow = std::fs::read_to_string(root.join(ALLOWLIST_PATH)).expect("allowlist readable");
    let cfg = Config::for_workspace(&root);
    let files = load_workspace(&root).expect("workspace readable");
    (cfg, files, registry, allow)
}

#[test]
fn shipped_workspace_is_clean() {
    let (cfg, files, registry, allow) = load();
    let report = run_with(&cfg, &files, &registry, &allow);
    assert!(
        report.is_clean(),
        "the shipped tree must lint clean:\n{}",
        report.render_tree()
    );
    assert!(
        report.files_scanned > 50,
        "scanned {}",
        report.files_scanned
    );
    assert!(
        report.names_in_source >= 100,
        "only {} names found — did name collection break?",
        report.names_in_source
    );
    assert_eq!(report.registry_entries, report.names_in_source);
    assert_eq!(report.allowlist_dead, 0);
    assert!(report.allowlist_matched > 0);
}

#[test]
fn removing_a_registry_entry_fails_lint() {
    let (cfg, files, registry, allow) = load();
    // Drop the bullet registering the CI-asserted cache-hit counter.
    let removed: String = registry
        .lines()
        .filter(|l| !l.contains("`core.cache.halves.hits`"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_ne!(removed, registry, "the entry being removed must exist");
    let report = run_with(&cfg, &files, &removed, &allow);
    assert!(
        report
            .of(Pass::ObsNames)
            .any(|f| f.message.contains("core.cache.halves.hits")
                && f.message.contains("not registered")),
        "unregistering a live name must fail:\n{}",
        report.render_tree()
    );
}

#[test]
fn renaming_a_span_site_fails_lint() {
    let (cfg, mut files, registry, allow) = load();
    // Simulate a rename at one call site: the engine's top_k span becomes
    // top_kk in source while the registry still lists top_k.
    let victim = files
        .iter_mut()
        .find(|f| f.rel == "crates/core/src/engine.rs")
        .expect("engine.rs present");
    let renamed = victim
        .lines
        .join("\n")
        .replace("\"core.engine.top_k\"", "\"core.engine.top_kk\"");
    assert!(
        renamed.contains("core.engine.top_kk"),
        "span site not found"
    );
    *victim = SourceFile::from_source("crates/core/src/engine.rs", "core", &renamed);

    let report = run_with(&cfg, &files, &registry, &allow);
    // Both directions fire: the new name is unregistered AND the old
    // registry entry went dead.
    assert!(
        report
            .of(Pass::ObsNames)
            .any(|f| f.message.contains("core.engine.top_kk")
                && f.message.contains("not registered")),
        "{}",
        report.render_tree()
    );
    assert!(
        report.of(Pass::ObsNames).any(|f| f
            .message
            .contains("dead registry entry `core.engine.top_k`")),
        "{}",
        report.render_tree()
    );
}

#[test]
fn every_allow_entry_counts_suppressions_in_json() {
    let (cfg, files, registry, allow) = load();
    let report = run_with(&cfg, &files, &registry, &allow);
    let json = report.to_json();
    assert!(json.contains("\"status\": \"clean\""));
    // The allowlist block reports entry/matched/dead so reviews can
    // verify the ratchet only shrinks.
    assert!(
        json.contains(&format!(
            "\"allowlist\": {{\"entries\": {}, \"matched_findings\": {}, \"dead\": 0}}",
            report.allowlist_entries, report.allowlist_matched
        )),
        "{json}"
    );
}

//! The regression corpus: every `tests/corpus/*.campaign` is a minimal
//! input on which the engine-diff oracle once failed, named in its
//! header comment, and replays clean through the oracle. Its first
//! entry predates the oracle and stays a hand-written test:
//! `tests/concurrent_cascades.rs`.

mod oracle;

#[test]
fn corpus_campaigns_replay_clean() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/corpus exists")
        .map(|entry| entry.expect("readable corpus entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "campaign"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "empty corpus");
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable campaign");
        if let Err(e) = oracle::check_campaign(&text) {
            panic!("{}: {e:?}", path.display());
        }
    }
}

//! Byte-for-byte pins of `rcctl` output on the Figure-1 fixture.
//!
//! Every other CLI test checks substrings; these compare the whole
//! stdout of `info`, `classify`, `correlate`, `diff`, a two-window
//! `explain`, and `stability` (text and `--json`) with the expected
//! files under `tests/golden/`. Commands that write files are run
//! without their output paths in the pinned text.

use role_classification::cli::run;
use role_classification::flow::textlog;
use role_classification::synthnet::{scenarios, trace};
use std::path::{Path, PathBuf};

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// A fresh scratch directory holding the two days of Figure-1 flows:
/// `flows.txt` is `cli_workflows`' fixture (3 sales + 3 engineering
/// hosts), `flows2.txt` adds a fourth engineering host.
fn fixture(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rcctl-golden-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    for (file, eng, seed) in [("flows.txt", 3, 5), ("flows2.txt", 4, 6)] {
        let net = scenarios::figure1(3, eng);
        let records = trace::expand(&net.connsets, trace::TraceOptions::default(), seed);
        std::fs::write(dir.join(file), textlog::render(&records)).unwrap();
    }
    dir
}

fn path(dir: &Path, file: &str) -> String {
    dir.join(file).to_string_lossy().into_owned()
}

/// Runs `argv` and compares its stdout with `tests/golden/<golden>`.
fn assert_golden(golden: &str, argv: &[&str]) {
    let out = run(&args(argv)).unwrap_or_else(|e| panic!("{argv:?}: {}", e.message));
    let file = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(golden);
    let expected = std::fs::read_to_string(&file)
        .unwrap_or_else(|e| panic!("{argv:?}: {}: {e}", file.display()));
    assert!(
        out == expected,
        "{argv:?} differs from {}:\n--- expected\n{expected}\n--- actual\n{out}",
        file.display()
    );
}

const THRESHOLDS: [&str; 4] = ["--s-lo", "90", "--s-hi", "95"];

fn with_thresholds<'a>(argv: &[&'a str]) -> Vec<&'a str> {
    let mut v = argv.to_vec();
    v.extend_from_slice(&THRESHOLDS);
    v
}

#[test]
fn info_and_classify_are_pinned() {
    let dir = fixture("classify");
    let flows = path(&dir, "flows.txt");
    assert_golden("info.txt", &["info", "--input", &flows]);
    assert_golden(
        "classify.txt",
        &with_thresholds(&["classify", "--input", &flows]),
    );
}

#[test]
fn correlate_and_diff_are_pinned() {
    let dir = fixture("correlate");
    let (flows, flows2) = (path(&dir, "flows.txt"), path(&dir, "flows2.txt"));
    let (day1, day2) = (path(&dir, "day1.json"), path(&dir, "day2.json"));
    run(&args(&with_thresholds(&[
        "classify",
        "--input",
        &flows,
        "--snapshot",
        &day1,
    ])))
    .unwrap();
    let correlate = with_thresholds(&["correlate", "--prev", &day1, "--input", &flows2]);
    assert_golden("correlate.txt", &correlate);
    let mut save = correlate.clone();
    save.extend_from_slice(&["--snapshot", &day2]);
    run(&args(&save)).unwrap();
    assert_golden("diff.txt", &["diff", "--prev", &day1, "--curr", &day2]);
}

#[test]
fn two_window_explain_is_pinned() {
    let dir = fixture("explain");
    let flows = path(&dir, "flows.txt");
    let host = scenarios::figure1(3, 3).role_hosts("sales")[0].to_string();
    let argv = with_thresholds(&[
        "explain",
        "--input",
        &flows,
        "--host",
        &host,
        "--window-ms",
        "43200000",
    ]);
    assert_golden("explain.txt", &argv);
    // --workers reaches the explain engine and changes no byte.
    for workers in ["1", "2"] {
        let mut argv = argv.clone();
        argv.extend_from_slice(&["--workers", workers]);
        assert_golden("explain.txt", &argv);
    }
}

#[test]
fn stability_text_and_json_are_pinned() {
    let dir = fixture("stability");
    let flows = path(&dir, "flows.txt");
    let argv = with_thresholds(&["stability", "--input", &flows, "--window-ms", "43200000"]);
    assert_golden("stability.txt", &argv);
    let mut json = argv.clone();
    json.push("--json");
    assert_golden("stability.json", &json);
}

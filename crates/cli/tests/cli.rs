//! End-to-end tests of the `hetesim-cli` binary: generate → save → query
//! through a real process, exactly as a user would.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_hetesim-cli")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("binary runs")
}

fn temp_net(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hetesim-cli-{tag}-{}", std::process::id()))
}

fn generate(dir: &std::path::Path) {
    let out = run(&[
        "generate",
        "--dataset",
        "acm",
        "--scale",
        "tiny",
        "--seed",
        "3",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn help_prints_usage() {
    let out = run(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in ["generate", "stats", "paths", "query", "pair", "join"] {
        assert!(text.contains(cmd), "help should mention {cmd}");
    }
    // No args behaves like help.
    assert!(run(&[]).status.success());
}

#[test]
fn generate_stats_query_pair_join_roundtrip() {
    let dir = temp_net("roundtrip");
    generate(&dir);

    let stats = run(&["stats", dir.to_str().unwrap()]);
    assert!(stats.status.success());
    let text = String::from_utf8_lossy(&stats.stdout);
    assert!(text.contains("author"));
    assert!(text.contains("conference"));

    let query = run(&[
        "query",
        dir.to_str().unwrap(),
        "--path",
        "APVC",
        "--source",
        "star_concentrated",
        "--k",
        "3",
    ]);
    assert!(query.status.success());
    let text = String::from_utf8_lossy(&query.stdout);
    assert!(text.contains("KDD"), "star's top conference: {text}");

    let pair = run(&[
        "pair",
        dir.to_str().unwrap(),
        "--path",
        "APVC",
        "--source",
        "star_concentrated",
        "--target",
        "KDD",
    ]);
    assert!(pair.status.success());
    let text = String::from_utf8_lossy(&pair.stdout);
    assert!(text.contains("normalized"));
    assert!(text.contains("PCRW"));

    let explained = run(&[
        "pair",
        dir.to_str().unwrap(),
        "--path",
        "APVC",
        "--source",
        "star_concentrated",
        "--target",
        "KDD",
        "--explain",
        "3",
    ]);
    assert!(explained.status.success());
    let text = String::from_utf8_lossy(&explained.stdout);
    assert!(text.contains("meeting points"));
    assert!(text.contains("published_in"));

    let join = run(&["join", dir.to_str().unwrap(), "--path", "APA", "--k", "5"]);
    assert!(join.status.success());
    let text = String::from_utf8_lossy(&join.stdout);
    assert!(text.contains("top 5 pairs"));

    let paths = run(&[
        "paths",
        dir.to_str().unwrap(),
        "--from",
        "A",
        "--to",
        "C",
        "--max-len",
        "3",
    ]);
    assert!(paths.status.success());
    assert!(String::from_utf8_lossy(&paths.stdout).contains("A-P-V-C"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn measure_selection_works() {
    let dir = temp_net("measures");
    generate(&dir);
    for measure in ["hetesim", "pcrw"] {
        let out = run(&[
            "query",
            dir.to_str().unwrap(),
            "--path",
            "APVC",
            "--source",
            "star_concentrated",
            "--measure",
            measure,
        ]);
        assert!(out.status.success(), "measure {measure} failed");
        assert!(String::from_utf8_lossy(&out.stdout).contains(measure));
    }
    // PathSim on an asymmetric path is a user error, reported not panicked.
    let out = run(&[
        "query",
        dir.to_str().unwrap(),
        "--path",
        "APVC",
        "--source",
        "star_concentrated",
        "--measure",
        "pathsim",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("symmetric"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Minimal JSON well-formedness check (no serde in the workspace): walks the
/// document with a recursive-descent scanner and fails on trailing garbage.
fn assert_parses_as_json(text: &str) {
    fn skip_ws(b: &[u8], mut i: usize) -> usize {
        while i < b.len() && (b[i] as char).is_ascii_whitespace() {
            i += 1;
        }
        i
    }
    fn value(b: &[u8], i: usize) -> Result<usize, String> {
        let i = skip_ws(b, i);
        match b.get(i) {
            Some(b'{') => seq(b, i, b'}', true),
            Some(b'[') => seq(b, i, b']', false),
            Some(b'"') => string(b, i),
            Some(b't') => lit(b, i, "true"),
            Some(b'f') => lit(b, i, "false"),
            Some(b'n') => lit(b, i, "null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let mut j = i + 1;
                while j < b.len() && matches!(b[j], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                {
                    j += 1;
                }
                Ok(j)
            }
            other => Err(format!("unexpected {other:?} at byte {i}")),
        }
    }
    fn lit(b: &[u8], i: usize, word: &str) -> Result<usize, String> {
        b[i..]
            .starts_with(word.as_bytes())
            .then(|| i + word.len())
            .ok_or_else(|| format!("bad literal at byte {i}"))
    }
    fn string(b: &[u8], i: usize) -> Result<usize, String> {
        let mut j = i + 1;
        while j < b.len() {
            match b[j] {
                b'"' => return Ok(j + 1),
                b'\\' => j += 2,
                _ => j += 1,
            }
        }
        Err(format!("unterminated string at byte {i}"))
    }
    fn seq(b: &[u8], i: usize, close: u8, keyed: bool) -> Result<usize, String> {
        let mut j = skip_ws(b, i + 1);
        if b.get(j) == Some(&close) {
            return Ok(j + 1);
        }
        loop {
            if keyed {
                j = string(b, skip_ws(b, j))?;
                j = skip_ws(b, j);
                if b.get(j) != Some(&b':') {
                    return Err(format!("expected ':' at byte {j}"));
                }
                j += 1;
            }
            j = skip_ws(b, value(b, j)?);
            match b.get(j) {
                Some(b',') => j = skip_ws(b, j + 1),
                Some(c) if *c == close => return Ok(j + 1),
                other => return Err(format!("expected ',' or close, got {other:?} at byte {j}")),
            }
        }
    }
    let b = text.as_bytes();
    let end = value(b, 0).unwrap_or_else(|e| panic!("metrics JSON malformed: {e}\n{text}"));
    assert!(
        skip_ws(b, end) == b.len(),
        "trailing garbage after JSON document"
    );
}

/// Extracts the integer value of `"key": N` from a flat JSON counters map.
fn json_counter(text: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = text
        .find(&needle)
        .unwrap_or_else(|| panic!("key {key:?} missing from metrics JSON:\n{text}"));
    text[at + needle.len()..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("counter value is an integer")
}

#[test]
fn metrics_json_reports_cache_hits_on_repeated_query() {
    let dir = temp_net("metrics");
    generate(&dir);

    // Two identical top-k queries in one process: the first populates the
    // half-path cache, the second must hit it.
    let out = run(&[
        "top-k",
        dir.to_str().unwrap(),
        "--path",
        "APVC",
        "--source",
        "star_concentrated",
        "--k",
        "3",
        "--repeat",
        "2",
        "--metrics=json",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The snapshot is the last thing printed; it starts at the first '{'
    // after the human-readable ranking.
    let json = &stdout[stdout.find('{').expect("JSON snapshot on stdout")..];
    assert_parses_as_json(json);
    assert!(
        json_counter(json, "core.cache.halves.hits") > 0,
        "second identical query must hit the half-path cache:\n{json}"
    );
    assert_eq!(json_counter(json, "core.cache.halves.misses"), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_out_writes_snapshot_file_and_tree_goes_to_stderr() {
    let dir = temp_net("metrics-out");
    generate(&dir);
    let file = std::env::temp_dir().join(format!("hetesim-metrics-{}.json", std::process::id()));

    let out = run(&[
        "query",
        dir.to_str().unwrap(),
        "--path",
        "APVC",
        "--source",
        "star_concentrated",
        "--metrics",
        "--metrics-out",
        file.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Default `--metrics` format is the human tree, on stderr, so stdout
    // stays machine-consumable.
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("cli.query"),
        "tree names the command span: {err}"
    );

    let written = std::fs::read_to_string(&file).expect("metrics file written");
    assert_parses_as_json(&written);
    assert!(written.contains("core.engine.top_k"));
    std::fs::remove_file(&file).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_rejects_unknown_format() {
    let out = run(&["paths", "--metrics=xml"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("metrics"));
}

#[test]
fn threads_flag_is_output_invariant() {
    let dir = temp_net("threads");
    generate(&dir);
    let d = dir.to_str().unwrap();
    // help documents the flag
    let help = run(&["help"]);
    assert!(String::from_utf8_lossy(&help.stdout).contains("--threads"));
    // query / join outputs are byte-identical across thread counts
    // (0 = auto, 1 = serial).
    let base_query = &[
        "query",
        d,
        "--path",
        "APVC",
        "--source",
        "star_concentrated",
        "--k",
        "5",
    ];
    let base_join = &["join", d, "--path", "APA", "--k", "5"];
    for base in [&base_query[..], &base_join[..]] {
        let serial = run(&[base, &["--threads", "1"][..]].concat());
        assert!(
            serial.status.success(),
            "{}",
            String::from_utf8_lossy(&serial.stderr)
        );
        for threads in ["0", "2", "7"] {
            let par = run(&[base, &["--threads", threads][..]].concat());
            assert!(par.status.success());
            assert_eq!(
                par.stdout, serial.stdout,
                "--threads {threads} changed output of {base:?}"
            );
        }
    }
    // Non-numeric thread counts are rejected up front.
    let bad = run(&[&base_query[..], &["--threads", "many"][..]].concat());
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("--threads"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_invocations_fail_cleanly() {
    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = run(&["stats", "/nonexistent/hetesim-net"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot load"));

    let out = run(&["generate", "--dataset", "imdb", "--out", "/tmp/x"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown dataset"));

    let dir = temp_net("badpath");
    generate(&dir);
    let out = run(&[
        "query",
        dir.to_str().unwrap(),
        "--path",
        "AXQ",
        "--source",
        "star_concentrated",
    ]);
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn watch_renders_a_live_frame_from_a_served_network() {
    use std::io::{BufRead, BufReader, Read};
    let dir = temp_net("watch");
    generate(&dir);

    // Serve on an ephemeral port with a fast sampler tick; the resolved
    // address is announced on stderr.
    let mut server = Command::new(bin())
        .args([
            "serve",
            dir.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--history-tick-ms",
            "25",
            "--slo-latency-ms",
            "250",
        ])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("server starts");
    let mut stderr = BufReader::new(server.stderr.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        assert!(
            stderr.read_line(&mut line).unwrap() > 0,
            "server exited before announcing its address"
        );
        if let Some(rest) = line.split("http://").nth(1) {
            break rest
                .split_whitespace()
                .next()
                .unwrap()
                .trim_end_matches("/dashboard")
                .to_string();
        }
    };
    // Drain stderr in the background so the server never blocks on a
    // full pipe.
    std::thread::spawn(move || {
        let mut sink = Vec::new();
        let _ = stderr.read_to_end(&mut sink);
    });

    // Let a few sampler ticks land, then take two plain (finite) frames.
    std::thread::sleep(std::time::Duration::from_millis(200));
    let watch = run(&[
        "watch",
        &format!("http://{addr}/"),
        "--iterations",
        "2",
        "--interval-ms",
        "50",
    ]);
    server.kill().ok();
    server.wait().ok();
    assert!(
        watch.status.success(),
        "{}",
        String::from_utf8_lossy(&watch.stderr)
    );
    let text = String::from_utf8_lossy(&watch.stdout);
    assert!(text.contains("state:"), "{text}");
    assert!(text.contains("availability"), "{text}");
    assert!(text.contains("latency"), "{text}");
    assert!(text.contains("requests/s"), "{text}");
    assert!(text.contains("p99 ms"), "{text}");
    // Finite runs print plain frames: no ANSI clear-screen codes.
    assert!(!text.contains('\x1b'), "{text:?}");

    // A server without history answers 404 and watch reports it plainly.
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_build_info_and_bit_identical_query() {
    let dir = temp_net("snap");
    generate(&dir);
    let snap = std::env::temp_dir().join(format!("hetesim-cli-snap-{}.snap", std::process::id()));
    let warm_file =
        std::env::temp_dir().join(format!("hetesim-cli-snap-warm-{}.txt", std::process::id()));
    std::fs::write(&warm_file, "# warmed offline\nAPVC\nAPA\n").unwrap();

    let build = run(&[
        "snapshot",
        "build",
        dir.to_str().unwrap(),
        "--out",
        snap.to_str().unwrap(),
        "--warm-paths",
        warm_file.to_str().unwrap(),
    ]);
    assert!(
        build.status.success(),
        "{}",
        String::from_utf8_lossy(&build.stderr)
    );
    let text = String::from_utf8_lossy(&build.stdout);
    assert!(text.contains("2 warmed path(s)"), "{text}");

    let info = run(&["snapshot", "info", snap.to_str().unwrap()]);
    assert!(info.status.success());
    let text = String::from_utf8_lossy(&info.stdout);
    assert!(text.contains("format v2"), "{text}");
    assert!(text.contains("A-P-V-C"), "{text}");
    assert!(text.contains("schema"), "{text}");

    // The same query from TSV and from the snapshot must print the same
    // ranking, byte for byte.
    let q = |source: &[&str]| {
        let mut args = source.to_vec();
        args.extend_from_slice(&[
            "--path",
            "APVC",
            "--source",
            "star_concentrated",
            "--k",
            "5",
        ]);
        let out = run(&["query"]
            .iter()
            .chain(args.iter())
            .copied()
            .collect::<Vec<_>>()
            .as_slice());
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let from_tsv = q(&[dir.to_str().unwrap()]);
    let from_snap = q(&["--snapshot", snap.to_str().unwrap()]);
    assert_eq!(from_tsv, from_snap);

    // Directory and snapshot together are ambiguous.
    let both = run(&[
        "query",
        dir.to_str().unwrap(),
        "--snapshot",
        snap.to_str().unwrap(),
        "--path",
        "APVC",
        "--source",
        "star_concentrated",
    ]);
    assert!(!both.status.success());
    assert!(String::from_utf8_lossy(&both.stderr).contains("not both"));

    // A flipped byte makes `snapshot info` fail with a nonzero exit.
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&snap, &bytes).unwrap();
    let corrupt = run(&["snapshot", "info", snap.to_str().unwrap()]);
    assert!(!corrupt.status.success());
    let err = String::from_utf8_lossy(&corrupt.stderr);
    assert!(err.contains("failed verification"), "{err}");

    std::fs::remove_file(&snap).ok();
    std::fs::remove_file(&warm_file).ok();
    std::fs::remove_dir_all(&dir).ok();
}

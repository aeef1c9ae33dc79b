//! End-to-end tests of the `crono` binary.

use std::process::Command;

fn crono() -> Command {
    Command::new(env!("CARGO_BIN_EXE_crono"))
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = crono().output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("USAGE"));
    assert!(stderr.contains("fig1"));
}

#[test]
fn unknown_command_is_rejected() {
    let out = crono().arg("fig99").output().expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn unknown_scale_is_rejected() {
    let out = crono()
        .args(["table1", "--scale", "enormous"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown scale"));
}

#[test]
fn table1_prints_all_benchmarks() {
    let out = crono().arg("table1").output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for label in [
        "SSSP_DIJK",
        "APSP",
        "BETW_CENT",
        "BFS",
        "DFS",
        "TSP",
        "CONN_COMP",
        "TRI_CNT",
        "PageRank",
        "COMM",
    ] {
        assert!(stdout.contains(label), "missing {label}");
    }
}

#[test]
fn table2_reflects_table_ii() {
    let out = crono().arg("table2").output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("256 @ 1 GHz"));
    assert!(stdout.contains("ACKWise4"));
}

#[test]
fn out_flag_writes_tsv_files() {
    let dir = std::env::temp_dir().join(format!("crono-cli-test-{}", std::process::id()));
    let out = crono()
        .args(["table3", "--out"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let tsv = std::fs::read_to_string(dir.join("table_iii.tsv")).expect("tsv written");
    assert!(tsv.starts_with("Dataset\t"));
    assert!(tsv.contains("1048576"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_requires_a_benchmark() {
    let out = crono().arg("trace").output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--bench"));
}

#[test]
fn trace_rejects_unknown_benchmark() {
    let out = crono()
        .args(["trace", "--bench", "quicksort"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown benchmark"));
}

#[test]
fn trace_rejects_more_threads_than_simulated_cores() {
    let out = crono()
        .args(["trace", "--bench", "bfs", "--threads", "1000000"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cores"));
}

/// The PR's acceptance criterion: `crono trace --bench bfs --threads 16
/// --scale test --out trace.json` emits valid Chrome trace JSON with at
/// least one span per thread, and a second invocation is byte-identical.
#[test]
fn trace_bfs_is_valid_and_byte_identical_across_runs() {
    let dir = std::env::temp_dir().join(format!("crono-trace-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run = |file: &str| {
        let path = dir.join(file);
        let out = crono()
            .args([
                "trace",
                "--bench",
                "bfs",
                "--threads",
                "16",
                "--scale",
                "test",
                "--quiet",
            ])
            .arg("--out")
            .arg(&path)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("trace: BFS on sim (16 threads"), "{stdout}");
        std::fs::read_to_string(&path).expect("trace written")
    };
    let a = run("a.json");
    let b = run("b.json");
    assert_eq!(a, b, "traced sim runs must serialize byte-identically");

    // Structural validity: balanced braces/brackets, the Chrome keys, and
    // per-thread span coverage (each of the 16 tracks opens a span).
    assert!(a.trim_start().starts_with('{') && a.trim_end().ends_with('}'));
    assert_eq!(a.matches('{').count(), a.matches('}').count());
    assert_eq!(a.matches('[').count(), a.matches(']').count());
    for needle in [
        "\"traceEvents\"",
        "\"bfs:level\"",
        "\"barrier_wait\"",
        "\"clock_unit\": \"cycles\"",
        "\"threads\": 16",
    ] {
        assert!(a.contains(needle), "missing {needle}");
    }
    for tid in 0..16 {
        let span = format!("{{\"ph\":\"B\",\"pid\":0,\"tid\":{tid},\"ts\":");
        assert!(a.contains(&span), "thread {tid} recorded no span");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_native_backend_runs() {
    let dir = std::env::temp_dir().join(format!("crono-trace-native-{}", std::process::id()));
    let path = dir.join("native.json");
    let out = crono()
        .args([
            "trace",
            "--bench",
            "conn_comp",
            "--threads",
            "2",
            "--backend",
            "native",
            "--quiet",
        ])
        .arg("--out")
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&path).expect("trace written");
    assert!(json.contains("\"clock_unit\": \"ns\""));
    assert!(json.contains("conncomp:iter"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_flag_writes_per_benchmark_traces_for_sweeps() {
    let dir = std::env::temp_dir().join(format!("crono-trace-sweep-{}", std::process::id()));
    let out = crono()
        .args(["fig2", "--scale", "test", "--quiet", "--trace"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("trace dir created")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
        .collect();
    assert_eq!(files.len(), 10, "one trace per benchmark: {files:?}");
    assert!(files.iter().any(|f| f.starts_with("BFS_")), "{files:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_flag_rejected_without_a_sweep_command() {
    let out = crono()
        .args(["table1", "--trace", "/tmp/nowhere"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("sweep-based"));
}

/// Any CLI failure must be a one-line diagnostic + nonzero exit — never
/// a panic backtrace.
fn assert_clean_failure(out: &std::process::Output) {
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked") && !stderr.contains("RUST_BACKTRACE"),
        "CLI failure leaked a panic:\n{stderr}"
    );
    assert!(!stderr.trim().is_empty(), "failure with no diagnostic");
}

#[test]
fn faults_quick_is_deterministic_and_counts_events() {
    let dir = std::env::temp_dir().join(format!("crono-faults-cli-{}", std::process::id()));
    let run = |sub: &str| {
        let out_dir = dir.join(sub);
        let out = crono()
            .args(["faults", "--quick", "--quiet", "--out"])
            .arg(&out_dir)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(out_dir.join("faults.tsv")).expect("tsv written")
    };
    let a = run("a");
    let b = run("b");
    assert_eq!(a, b, "seeded fault sweeps must be byte-identical");
    let mut lines = a.lines();
    let header = lines.next().expect("header row");
    assert!(
        header.contains("NocRetx") && header.contains("Slowdown"),
        "{header}"
    );
    // Row order is baseline (rate 0, no events) then rate 0.05, which
    // must have injected visible NoC retransmits.
    let base: Vec<&str> = lines.next().expect("baseline row").split('\t').collect();
    let faulty: Vec<&str> = lines.next().expect("faulty row").split('\t').collect();
    assert_eq!(base[1], "0");
    assert_eq!(
        base[4], "0",
        "fault-free baseline injected events: {base:?}"
    );
    let retx: u64 = faulty[4].parse().expect("NocRetx column");
    assert!(retx > 0, "rate 0.05 injected nothing: {faulty:?}");
    // The checkpoint is removed once the sweep completes.
    assert!(!dir.join("a").join("faults.resume.tsv").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn faults_resume_reuses_checkpointed_points() {
    let dir = std::env::temp_dir().join(format!("crono-faults-resume-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    // Plant a checkpoint for the quick sweep's rate-0.05 point (key
    // format pinned by experiments::faults). --resume must trust it,
    // proving the simulation for that point was skipped.
    std::fs::write(
        dir.join("faults.resume.tsv"),
        "BFS|v512|c16|s42|t8|r0.05\t@1048576 999999 7 1 2 3 4\n",
    )
    .expect("plant checkpoint");
    let out = crono()
        .args(["faults", "--quick", "--resume", "--quiet", "--out"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let tsv = std::fs::read_to_string(dir.join("faults.tsv")).expect("tsv written");
    let faulty: Vec<&str> = tsv
        .lines()
        .nth(2)
        .expect("rate 0.05 row")
        .split('\t')
        .collect();
    assert_eq!(faulty[2], "999999", "planted completion not reused: {tsv}");
    assert_eq!(faulty[4], "7", "planted counters not reused: {tsv}");
    assert!(
        !dir.join("faults.resume.tsv").exists(),
        "checkpoint kept after success"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn faults_resume_requires_out() {
    let out = crono()
        .args(["faults", "--quick", "--resume"])
        .output()
        .expect("binary runs");
    assert_clean_failure(&out);
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));
}

#[test]
fn faults_rejects_bad_arguments_cleanly() {
    for bad in [
        vec!["faults", "--seed", "notanumber"],
        vec!["faults", "--threads", "0"],
        vec!["faults", "--scale", "enormous"],
        vec!["faults", "--frobnicate"],
    ] {
        let out = crono().args(&bad).output().expect("binary runs");
        assert_clean_failure(&out);
    }
}

#[test]
fn unwritable_out_directory_fails_cleanly() {
    // /proc/1/nope cannot be created; both the generic table path and
    // the faults path must report it as a one-line error.
    let out = crono()
        .args(["table1", "--quiet", "--out", "/proc/1/nope"])
        .output()
        .expect("binary runs");
    assert_clean_failure(&out);
    let out = crono()
        .args(["faults", "--quick", "--quiet", "--out", "/proc/1/nope"])
        .output()
        .expect("binary runs");
    assert_clean_failure(&out);
}

/// An unknown `--ablation` name must fail with a one-line diagnostic
/// that lists every valid name, for both the `ablation` and `trace`
/// subcommands — new ablation variants surface automatically because
/// the message is built from `Ablation::ALL`.
#[test]
fn unknown_ablation_lists_valid_names() {
    for args in [
        vec!["ablation", "--ablation", "frobnicate", "--scale", "test"],
        vec![
            "trace",
            "--bench",
            "bfs",
            "--ablation",
            "frobnicate",
            "--scale",
            "test",
        ],
    ] {
        let out = crono().args(&args).output().expect("binary runs");
        assert_clean_failure(&out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown ablation"), "{stderr}");
        for name in [
            "frontier_repr",
            "pagerank_update",
            "task_steal",
            "lockfree_bound",
            "dirop_bfs",
            "delta_sssp",
            "afforest_cc",
        ] {
            assert!(stderr.contains(name), "missing {name} in: {stderr}");
        }
    }
}

/// `frontier_repr` covers BFS and SSSP_DIJK only; tracing it on another
/// benchmark fails with one line that names the two it applies to.
#[test]
fn frontier_repr_rejects_conn_comp() {
    let out = crono()
        .args([
            "trace",
            "--bench",
            "conn_comp",
            "--ablation",
            "frontier_repr",
            "--scale",
            "test",
        ])
        .output()
        .expect("binary runs");
    assert_clean_failure(&out);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("BFS, SSSP_DIJK"), "{stderr}");
}

#[test]
fn ablation_resume_requires_out() {
    let out = crono()
        .args(["ablation", "--resume", "--scale", "test"])
        .output()
        .expect("binary runs");
    assert_clean_failure(&out);
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));
}

/// `crono ablation --backend` parses its value as `crono trace` does, so
/// the letter case of the backend name does not matter.
#[test]
fn ablation_backend_name_ignores_case() {
    let out = crono()
        .args([
            "ablation",
            "--backend",
            "Native",
            "--ablation",
            "lockfree_bound",
            "--scale",
            "test",
            "--quiet",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn serve_replays_a_mixed_workload_and_writes_serve_tsv() {
    let dir = std::env::temp_dir().join(format!("crono-serve-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let wl = dir.join("workload.txt");
    std::fs::write(
        &wl,
        "# mixed point queries\n\
         bfs 17\n\
         sssp 40\n\
         pagerank 12\n\
         centrality 3\n\
         bfs 17          # duplicate: shares one unit of work\n\
         bfs 9999        # out of range: per-query error\n",
    )
    .expect("write workload");
    let out = crono()
        .args([
            "serve",
            "--scale",
            "test",
            "--threads",
            "4",
            "--quiet",
            "--workload",
        ])
        .arg(&wl)
        .arg("--out")
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let tsv = std::fs::read_to_string(dir.join("serve.tsv")).expect("serve.tsv written");
    let lines: Vec<&str> = tsv.lines().collect();
    assert!(
        lines[0].contains("p50_us") && lines[0].contains("QPS"),
        "{tsv}"
    );
    let width = lines[0].split('\t').count();
    assert!(
        lines.iter().all(|l| l.split('\t').count() == width),
        "ragged serve.tsv:\n{tsv}"
    );
    // bfs + sssp + pagerank + centrality + TOTAL.
    assert_eq!(lines.len(), 6, "{tsv}");
    let total: Vec<&str> = lines[5].split('\t').collect();
    assert_eq!(total[0], "TOTAL");
    assert_eq!(total[1], "6", "six queries issued: {tsv}");
    assert_eq!(total[2], "5", "five succeed: {tsv}");
    assert_eq!(total[5], "1", "the out-of-range query errors: {tsv}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_requires_workload_and_reports_parse_errors_cleanly() {
    let out = crono()
        .args(["serve", "--scale", "test", "--quiet"])
        .output()
        .expect("binary runs");
    assert_clean_failure(&out);
    assert!(String::from_utf8_lossy(&out.stderr).contains("--workload"));

    let dir = std::env::temp_dir().join(format!("crono-serve-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let wl = dir.join("bad.txt");
    std::fs::write(&wl, "bfs 1\nfrobnicate 2\n").expect("write workload");
    let out = crono()
        .args(["serve", "--scale", "test", "--quiet", "--workload"])
        .arg(&wl)
        .output()
        .expect("binary runs");
    assert_clean_failure(&out);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("line 2"),
        "parse error must name the line"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The PR's acceptance criterion: repeated seeded `crono bombard` runs
/// produce byte-identical serve.tsv files — latency and throughput are
/// modeled, so the report is independent of wall-clock jitter.
#[test]
fn bombard_is_byte_identical_across_processes() {
    let dir = std::env::temp_dir().join(format!("crono-bombard-cli-{}", std::process::id()));
    let run = |sub: &str| {
        let out_dir = dir.join(sub);
        let out = crono()
            .args([
                "bombard",
                "--scale",
                "test",
                "--threads",
                "4",
                "--queries",
                "96",
                "--clients",
                "8",
                "--seed",
                "11",
                "--quiet",
                "--out",
            ])
            .arg(&out_dir)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(out_dir.join("serve.tsv")).expect("tsv written")
    };
    let a = run("a");
    let b = run("b");
    assert_eq!(a, b, "seeded bombard runs must be byte-identical");
    let total = a.lines().last().expect("TOTAL row");
    let cells: Vec<&str> = total.split('\t').collect();
    assert_eq!(cells[0], "TOTAL");
    assert_eq!(cells[1], "96", "every issued query reported: {a}");
    assert_eq!(cells[1], cells[2], "all succeed on a mixed stream: {a}");
    let hits: u64 = cells[3].parse().expect("CacheHits column");
    assert!(hits > 0, "hot set produced no cache reuse: {a}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bombard_rejects_bad_arguments_cleanly() {
    for bad in [
        vec!["bombard", "--queries", "0"],
        vec!["bombard", "--clients", "none"],
        vec!["bombard", "--seed", "notanumber"],
        vec!["bombard", "--workload", "/tmp/x"],
        vec!["serve", "--threads", "0"],
    ] {
        let out = crono().args(&bad).output().expect("binary runs");
        assert_clean_failure(&out);
    }
}

#[test]
fn fig3_runs_at_test_scale() {
    let out = crono()
        .args(["fig3", "--scale", "test", "--quiet"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Cold%"));
    assert!(stdout.contains("SSSP_DIJK"));
}

#[test]
fn scale_is_byte_identical_across_processes() {
    let dir = std::env::temp_dir().join(format!("crono-scale-cli-{}", std::process::id()));
    let run = |sub: &str| {
        let out_dir = dir.join(sub);
        let out = crono()
            .args([
                "scale",
                "--graph-scale",
                "9",
                "--degree",
                "8",
                "--shards",
                "2",
                "--threads",
                "2",
                "--quiet",
                "--out",
            ])
            .arg(&out_dir)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(out_dir.join("scale.tsv")).expect("tsv written")
    };
    let a = run("a");
    let b = run("b");
    assert_eq!(a, b, "seeded scale runs must be byte-identical");
    // Sim placement rows: block placement must beat hashed on flits.
    let flits = |tag: &str| -> u64 {
        a.lines()
            .find(|l| l.starts_with("sim-bfs\t") && l.contains(tag))
            .expect("sim row")
            .split('\t')
            .nth(9)
            .expect("NocFlits column")
            .parse()
            .expect("numeric flits")
    };
    assert!(
        flits("block") < flits("hashed"),
        "block placement should move fewer NoC flits"
    );
    // The sim rows run first in a fresh process, so their counters are
    // exact: pin both (broadcasts, then flits).
    let sim_rows: Vec<&str> = a.lines().filter(|l| l.starts_with("sim-bfs\t")).collect();
    assert_eq!(
        sim_rows,
        [
            "sim-bfs\tblock\t-\t256\t818\t-\t-\t-\t380\t146784",
            "sim-bfs\thashed\t-\t256\t818\t-\t-\t-\t427\t177762",
        ]
    );
    // The checkpoint is removed after a successful run.
    assert!(!dir.join("a").join("scale.resume.tsv").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scale_resume_replays_planted_rows() {
    let dir = std::env::temp_dir().join(format!("crono-scale-resume-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    // Plant a bfs row group under the exact key `crono scale` derives
    // for this configuration; --resume must emit it verbatim.
    let label = "rmat-s9-d8-b2-1d-compressed-t2-seed42";
    std::fs::write(
        dir.join("scale.resume.tsv"),
        format!("{label}|bfs\t@1048576 bfs|{label}|0|-|424242|-|1.00|424.24|-|-\n"),
    )
    .expect("plant checkpoint");
    let out = crono()
        .args([
            "scale",
            "--graph-scale",
            "9",
            "--degree",
            "8",
            "--shards",
            "2",
            "--threads",
            "2",
            "--resume",
            "--quiet",
            "--out",
        ])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let tsv = std::fs::read_to_string(dir.join("scale.tsv")).expect("tsv written");
    assert!(
        tsv.lines().any(|l| l.contains("424242")),
        "planted bfs row not replayed: {tsv}"
    );
    assert!(
        !dir.join("scale.resume.tsv").exists(),
        "checkpoint kept after success"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scale_rejects_bad_arguments_cleanly() {
    for bad in [
        vec!["scale", "--graph", "mystery"],
        vec!["scale", "--graph-scale", "0"],
        vec!["scale", "--partition", "3d"],
        vec!["scale", "--repr", "zip"],
        vec!["scale", "--shards", "0"],
        vec!["scale", "--resume"],
    ] {
        let out = crono().args(&bad).output().expect("binary runs");
        assert_clean_failure(&out);
    }
}

#[test]
fn gen_streams_an_edge_list_the_scale_build_accepts() {
    let dir = std::env::temp_dir().join(format!("crono-gen-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("edges.txt");
    let out = crono()
        .args([
            "gen",
            "--graph",
            "uniform",
            "--graph-scale",
            "8",
            "--degree",
            "4",
            "--quiet",
            "--out",
        ])
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("edge list written");
    let lines: Vec<&str> = text.lines().collect();
    // Self-loop draws are skipped by the stream, so the line count is
    // at most one per draw but never collapses.
    assert!(
        lines.len() <= 256 * 4 && lines.len() > 256 * 3,
        "unexpected line count {}",
        lines.len()
    );
    for line in &lines {
        let cells: Vec<&str> = line.split_ascii_whitespace().collect();
        assert_eq!(cells.len(), 3, "src dst weight: {line}");
        cells.iter().for_each(|c| {
            c.parse::<u32>().expect("numeric cell");
        });
    }
    // Identical seeds stream identical bytes.
    let path2 = dir.join("edges2.txt");
    let out2 = crono()
        .args([
            "gen",
            "--graph",
            "uniform",
            "--graph-scale",
            "8",
            "--degree",
            "4",
            "--quiet",
            "--out",
        ])
        .arg(&path2)
        .output()
        .expect("binary runs");
    assert!(out2.status.success());
    assert_eq!(text, std::fs::read_to_string(&path2).expect("second list"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_flag_fails_before_any_table_is_written() {
    let dir = std::env::temp_dir().join(format!("crono-trace-early-{}", std::process::id()));
    let out = crono()
        .args(["table1", "--quiet", "--trace"])
        .arg(dir.join("traces"))
        .arg("--out")
        .arg(dir.join("out"))
        .output()
        .expect("binary runs");
    assert_clean_failure(&out);
    assert!(String::from_utf8_lossy(&out.stderr).contains("sweep-based"));
    assert!(
        !dir.join("out").exists(),
        "table written before --trace was rejected"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn degraded_xy_routing_fails_with_the_typed_route_error_only() {
    let out = crono()
        .args(["faults", "--degraded", "--routing", "xy", "--quiet"])
        .output()
        .expect("binary runs");
    assert_clean_failure(&out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("dead east link"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
}

#[test]
fn degraded_sweep_keeps_departing_cores_off_stderr() {
    let out = crono()
        .args(["faults", "--degraded", "--quiet"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Every command reads only the flags its signature lists: anything
/// else is a one-line error that names the command.
#[test]
fn every_command_rejects_flags_it_does_not_read() {
    let commands = "table1 table2 table3 table4 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 \
                    compare all ablation trace trace-diff heatmap faults serve bombard scale gen";
    for command in commands.split_whitespace() {
        let out = crono()
            .args([command, "--frobnicate"])
            .output()
            .expect("binary runs");
        assert_clean_failure(&out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{command}: {stderr}");
        assert!(stderr.contains(&format!("`crono {command}`")), "{stderr}");
    }

    let dir = std::env::temp_dir().join(format!("crono-flag-table-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let wl = dir.join("workload.txt");
    std::fs::write(&wl, "bfs 1\n").expect("write workload");
    let wl = wl.to_str().expect("utf8 temp path");
    let gen = ["gen", "--graph", "uniform", "--graph-scale", "6", "--quiet"];
    let serve = ["serve", "--scale", "test", "--quiet", "--workload", wl];
    let cases: Vec<(&[&str], &[&str])> = vec![
        (&gen, &["--shards", "9"]),
        (&gen, &["--partition", "2d"]),
        (&gen, &["--repr", "plain"]),
        (&gen, &["--threads", "2"]),
        (&gen, &["--sort-buffer", "64"]),
        (&gen, &["--spill", "/tmp"]),
        (&gen, &["--iters", "3"]),
        (
            &["scale", "--graph-scale", "6", "--quiet"],
            &["--chunk", "8"],
        ),
        (&serve, &["--queries", "5"]),
        (&serve, &["--clients", "2"]),
        (&serve, &["--seed", "3"]),
        (&serve, &["--mix", "sssp-heavy"]),
        (&["faults", "--quick", "--quiet"], &["--routing", "xy"]),
        (&["faults", "--degraded", "--quiet"], &["--scale", "test"]),
        (&["faults", "--degraded", "--quiet"], &["--quick"]),
    ];
    for (base, flag) in cases {
        let out = crono().args(base).args(flag).output().expect("binary runs");
        assert_clean_failure(&out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag[0]), "{base:?} {flag:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();

    let out = crono().output().expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
    let out = crono().arg("fig99").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

//! End-to-end CLI contract for the observability surface added with the
//! run ledger (docs/OBSERVABILITY.md): `--help` documents every new
//! flag, missing values die with targeted exit-2 errors, and the
//! ledger → `repro report` loop closes — two runs make two queryable
//! records, and `report` on a missing ledger fails without creating it.
//! Unknown commands (serve mode's `serve`/`submit`/`jobs`/`catalog` are
//! gone) exit 2 with a one-line error and the usage. I/O failures in
//! `repro trace-roundtrip` exit 1 with an `error:` line rather than a
//! panic.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

#[test]
fn help_documents_the_observability_flags() {
    let out = repro(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "--hud SECS",
        "--ledger PATH",
        "--no-ledger",
        "repro report",
        "--last N",
        "--metric NAME",
        "--diff A:B",
    ] {
        assert!(stdout.contains(needle), "help documents `{needle}`");
    }
    for gone in ["serve", "submit", "repro jobs", "catalog", "--spool"] {
        assert!(!stdout.contains(gone), "help no longer mentions `{gone}`");
    }
}

#[test]
fn unknown_commands_exit_2_with_one_error_line_and_usage() {
    for args in [
        &["serve"][..],
        &["submit", "LL:ALL", "pipelined", "quick"][..],
        &["jobs"][..],
        &["catalog", "query"][..],
        &["bogus", "--quick"][..],
    ] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "`repro {}` exits 2:\n{stderr}",
            args.join(" ")
        );
        let mut lines = stderr.lines();
        assert_eq!(
            lines.next(),
            Some(format!("error: unknown command `{}`", args[0]).as_str()),
            "`repro {}` names the command first:\n{stderr}",
            args.join(" ")
        );
        assert!(
            lines.next().is_some_and(|l| l.starts_with("usage: repro")),
            "then the usage:\n{stderr}"
        );
    }
}

#[test]
fn missing_flag_values_die_with_targeted_errors() {
    for (args, needle) in [
        (&["fig9a", "--trace-sample", "0"][..], "--trace-sample"),
        (&["fig9a", "--profile"][..], "unknown argument"),
        (&["fig9a", "--hud"][..], "missing value for --hud"),
        (&["fig9a", "--ledger"][..], "missing value for --ledger"),
        (&["report", "--metric"][..], "missing value for --metric"),
        (&["report", "--last"][..], "missing value for --last"),
        (&["report", "--diff"][..], "missing value for --diff"),
        (&["fig9a", "--hud", "0"][..], "--hud expects a positive"),
        (&["report", "--last", "x"][..], "bad value `x` for --last"),
        (&["report", "--diff", "1"][..], "bad value `1` for --diff"),
        (
            &["crash-sweep", "--max-points", "0"][..],
            "--max-points expects a positive",
        ),
        (
            &["crash-sweep", "--workload", "LL:ALL", "--replay", "0:7"][..],
            "--replay POINT is 1-based",
        ),
    ] {
        let out = repro(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "`repro {}` exits 2",
            args.join(" ")
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(needle),
            "`repro {}` error mentions `{needle}`",
            args.join(" ")
        );
    }
}

#[test]
fn two_runs_make_two_ledger_records() {
    let dir = std::env::temp_dir().join("poat_args_smoke");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ledger = dir.join("ledger.poatlgr");

    for _ in 0..2 {
        let out = repro(&["fig9a", "--quick", "--ledger", ledger.to_str().unwrap()]);
        assert!(
            out.status.success(),
            "repro failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let out = repro(&["report", "--ledger", ledger.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "repro report failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("2 records in"),
        "report sees both runs:\n{stdout}"
    );
    assert!(stdout.contains("run000001") && stdout.contains("run000002"));

    // A named metric is queryable and diffable across the two runs.
    let out = repro(&[
        "report",
        "--ledger",
        ledger.to_str().unwrap(),
        "--metric",
        "sim.result.polb_misses",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("delta run000001 -> run000002"),
        "metric view diffs the last two runs:\n{stdout}"
    );
}

#[test]
fn report_on_a_missing_ledger_fails_and_creates_nothing() {
    let dir = std::env::temp_dir().join(format!("poat_args_no_ledger_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ledger = dir.join("sub").join("none.poatlgr");
    let out = repro(&["report", "--ledger", ledger.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(
        stderr.contains(&format!("error: opening ledger {}", ledger.display())),
        "names the path:\n{stderr}"
    );
    assert!(!ledger.exists(), "report created the ledger");
    assert!(!dir.exists(), "report created the ledger's directory");
}

#[test]
fn trace_roundtrip_reports_an_unusable_dir() {
    // A directory nested under a regular file can never be created.
    let file = std::env::temp_dir().join(format!("poat_args_not_a_dir_{}", std::process::id()));
    std::fs::write(&file, b"").unwrap();
    let dir = file.join("x");
    let out = repro(&["trace-roundtrip", "--dir", dir.to_str().unwrap()]);
    let _ = std::fs::remove_file(&file);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(
        stderr.contains("error:") && stderr.contains(dir.to_str().unwrap()),
        "names the path:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic:\n{stderr}");
}

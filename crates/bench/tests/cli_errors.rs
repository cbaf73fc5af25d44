//! Error-path contract of the `scm` binary: a misspelled subcommand must
//! print usage plus a did-you-mean hint on stderr and exit non-zero —
//! asserted on the real process, not just the library layer.

use std::process::Command;

fn scm(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_scm"))
        .args(args)
        .output()
        .expect("scm binary runs")
}

#[test]
fn misspelled_subcommand_exits_nonzero_with_a_hint() {
    let out = scm(&["sytem"]);
    assert_eq!(out.status.code(), Some(2), "misspellings must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown subcommand 'sytem'"),
        "stderr: {stderr}"
    );
    assert!(
        stderr.contains("did you mean 'system'?"),
        "stderr: {stderr}"
    );
    assert!(
        stderr.contains("subcommands:"),
        "usage must follow the hint"
    );
    assert!(out.stdout.is_empty(), "errors go to stderr only");
}

#[test]
fn close_typos_of_other_subcommands_are_suggested() {
    for (typo, suggestion) in [
        ("tabel1", "table1"),
        ("pareo", "pareto"),
        ("campain", "campaign"),
        ("explor", "explore"),
    ] {
        let out = scm(&[typo]);
        assert_eq!(out.status.code(), Some(2), "{typo}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("did you mean '{suggestion}'?")),
            "{typo}: {stderr}"
        );
    }
}

#[test]
fn distant_garbage_gets_usage_but_no_bogus_hint() {
    let out = scm(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown subcommand 'frobnicate'"));
    assert!(
        !stderr.contains("did you mean"),
        "no hint for unrelated input: {stderr}"
    );
}

#[test]
fn misspelled_workloads_exit_two_with_a_hint() {
    // The real binary, not just the library layer: `--workload unifrm`
    // must exit 2 and point at the model the user meant.
    for (subcommand, typo, suggestion) in [
        ("campaign", "unifrm", "uniform"),
        ("campaign", "hotpsot", "hotspot"),
        ("system", "sequental", "sequential"),
        ("system", "read-mostl", "read-mostly"),
    ] {
        let out = scm(&[subcommand, "--workload", typo]);
        assert_eq!(out.status.code(), Some(2), "{subcommand} {typo}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown workload '{typo}'")),
            "{subcommand} {typo}: {stderr}"
        );
        assert!(
            stderr.contains(&format!("did you mean '{suggestion}'?")),
            "{subcommand} {typo}: {stderr}"
        );
        assert!(
            stderr.contains("one of:"),
            "the full model list must follow the hint: {stderr}"
        );
        assert!(out.stdout.is_empty(), "errors go to stderr only");
    }
}

#[test]
fn distant_workload_garbage_lists_models_without_a_bogus_hint() {
    let out = scm(&["campaign", "--workload", "adversarial"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown workload 'adversarial'"));
    assert!(!stderr.contains("did you mean"), "{stderr}");
    assert!(stderr.contains("one of:"), "{stderr}");
}

#[test]
fn retired_executor_flags_are_unrecognised_arguments() {
    // The slab executor runs every subcommand; which executor or lane
    // width it uses is not a setting, so the old flags are typos now.
    for subcommand in ["campaign", "system", "diag", "explore", "fleet"] {
        for (flag, value) in [("--engine", "scalar"), ("--lane-width", "64")] {
            let out = scm(&[subcommand, flag, value]);
            assert_eq!(out.status.code(), Some(2), "{subcommand} {flag}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!("unrecognised argument '{flag}'")),
                "{subcommand} {flag}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "errors go to stderr only");
        }
    }
}

#[test]
fn misspelled_fault_models_exit_two_with_a_hint() {
    for (subcommand, typo, suggestion) in [
        ("campaign", "transiet", "transient"),
        ("campaign", "intermitent", "intermittent"),
        ("campaign", "permanet", "permanent"),
        ("system", "transent", "transient"),
        ("diag", "permanant", "permanent"),
    ] {
        let out = scm(&[subcommand, "--fault-model", typo]);
        assert_eq!(out.status.code(), Some(2), "{subcommand} {typo}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown fault model '{typo}'")),
            "{subcommand} {typo}: {stderr}"
        );
        assert!(
            stderr.contains(&format!("did you mean '{suggestion}'?")),
            "{subcommand} {typo}: {stderr}"
        );
        assert!(
            stderr.contains("one of:"),
            "the model list must follow the hint: {stderr}"
        );
        assert!(out.stdout.is_empty(), "errors go to stderr only");
    }
}

#[test]
fn misspelled_guided_space_exits_two_with_a_hint() {
    let out = scm(&["explore", "--guided", "--space", "millon"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown space 'millon'"), "{stderr}");
    assert!(stderr.contains("did you mean 'million'?"), "{stderr}");
}

#[test]
fn version_flag_exits_zero_with_crate_version_and_toolchain() {
    for flag in ["--version", "-V"] {
        let out = scm(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        // Shape: `scm <semver> (rust toolchain <channel>)\n` — one line.
        assert_eq!(stdout.lines().count(), 1, "{flag}: {stdout}");
        let expected = format!("scm {} (rust toolchain ", env!("CARGO_PKG_VERSION"));
        assert!(stdout.starts_with(&expected), "{flag}: {stdout}");
        assert!(stdout.trim_end().ends_with(')'), "{flag}: {stdout}");
        assert!(out.stderr.is_empty(), "{flag}: version is not an error");
    }
}

#[test]
fn empty_trace_value_is_rejected_not_treated_as_stdout() {
    let out = scm(&["campaign", "--trace="]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unrecognised argument"), "{stderr}");
}

#[test]
fn thread_counts_above_the_ceiling_are_refused_before_any_work() {
    // Each worker is an OS thread, so the value is capped (256). Only
    // refused values run here: the huge trial counts would take minutes
    // if any work started, and an accepted huge thread count would ask
    // the host for that many threads.
    for (subcommand, work) in [
        ("campaign", "--trials"),
        ("system", "--trials"),
        ("diag", "--trials"),
        ("explore", "--trials"),
        ("fleet", "--devices"),
    ] {
        for threads in ["257", "100000"] {
            let out = scm(&[subcommand, "--threads", threads, work, "100000"]);
            assert_eq!(out.status.code(), Some(2), "{subcommand} {threads}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!("--threads: {threads} is above the ceiling of 256")),
                "{subcommand} {threads}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "errors go to stderr only");
        }
    }
}

#[test]
fn repeated_flags_are_refused_not_resolved_silently() {
    for args in [
        &["campaign", "--trials", "2", "--trials", "3"][..],
        &["system", "--metrics", "--cycles", "8", "--metrics"],
        &["campaign", "--trace", "--trials", "1", "--trace=-"],
        &["fleet", "--threads", "1", "--threads", "2"],
    ] {
        let flag = args[1];
        let out = scm(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("flag {flag} is given more than once")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "errors go to stderr only");
    }
}

#[test]
fn a_tampered_fleet_checkpoint_is_refused_on_resume() {
    let ckpt = std::env::temp_dir().join(format!("scm-cli-tamper-{}.ckpt", std::process::id()));
    let path = ckpt.display().to_string();
    let fleet = ["fleet", "--preset", "small", "--devices", "200"];
    let halt = [
        "--checkpoint-every",
        "32",
        "--checkpoint",
        &path,
        "--halt-after",
        "64",
    ];
    let out = scm(&[&fleet[..], &halt].concat());
    assert_eq!(out.status.code(), Some(0), "halting run: {out:?}");
    // Inflate one cohort counter; the row still parses.
    let text = std::fs::read_to_string(&ckpt).expect("halt leaves a checkpoint");
    let row = text
        .lines()
        .find(|l| l.starts_with("cohort edge "))
        .expect("edge cohort row");
    let mut fields: Vec<&str> = row.split(' ').collect();
    let inflated = format!("{}9", fields[4]);
    fields[4] = &inflated;
    std::fs::write(&ckpt, text.replacen(row, &fields.join(" "), 1)).unwrap();
    let out = scm(&[&fleet[..], &["--resume", &path]].concat());
    let _ = std::fs::remove_file(&ckpt);
    assert_eq!(out.status.code(), Some(2), "a tampered checkpoint resumed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("checksum mismatch"), "{stderr}");
    assert!(out.stdout.is_empty(), "no report from a refused resume");
}

#[test]
fn hostile_fleet_specs_exit_two_instead_of_panicking() {
    let file = std::env::temp_dir().join(format!("scm-cli-spec-{}.txt", std::process::id()));
    let path = file.display().to_string();
    for (line, error) in [
        ("bank 63 8 4 9", "word count must be a power of two"),
        ("bank 64 8 3 9", "mux factor must be a power of two"),
        ("bank 64 8 64 9", "mux factor exceeds word count"),
        ("bank 64 0 4 9", "word width must be at least 1"),
        ("bank 64 4294967304 4 9", "4294967304 exceeds 4294967295"),
        // A power-of-two bank past the cell cap is refused while the
        // spec is parsed, before any slab is allocated.
        (
            "bank 4294967296 8 4 9",
            "line 5: cohort 'a': bank geometry: 4294967296 words × 9 cells",
        ),
        (
            "write_fraction_ppm 4295067296",
            "4295067296 exceeds 4294967295",
        ),
    ] {
        let spec = format!(
            "scm-fleet-spec v1\ncycles_per_hour 3600\ncohort a\n  bank 64 8 4 9\n  {line}\n  devices 2\nend\n"
        );
        std::fs::write(&file, spec).unwrap();
        let out = scm(&["fleet", "--spec", &path]);
        assert_eq!(out.status.code(), Some(2), "{line}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(error), "{line}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{line}: no report from a refused spec"
        );
    }
    let _ = std::fs::remove_file(&file);
}

#[test]
fn valid_subcommand_exits_zero() {
    let out = scm(&["help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("subcommands:"));
}

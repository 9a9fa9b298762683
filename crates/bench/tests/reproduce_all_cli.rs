//! `reproduce_all` rejects input it cannot run before it writes or runs
//! anything: a filter matching no experiment exits 2, an unknown flag or
//! a positional argument is a usage error (exit 64).

use std::path::PathBuf;
use std::process::Command;

/// Run `reproduce_all` with `args` in a fresh empty working directory;
/// returns the exit code and whether the run left any file behind.
fn run_in_empty_dir(tag: &str, args: &[&str]) -> (Option<i32>, bool) {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "dirtree-reproduce-all-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_reproduce_all"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn reproduce_all")
        .status;
    let wrote = std::fs::read_dir(&dir).unwrap().next().is_some();
    let _ = std::fs::remove_dir_all(&dir);
    (status.code(), wrote)
}

#[test]
fn filter_matching_nothing_exits_2_before_writing() {
    let (code, wrote) = run_in_empty_dir(
        "nomatch",
        &["--filter", "no_such_experiment", "--out-dir", "out"],
    );
    assert_eq!(code, Some(2));
    assert!(!wrote, "no report, records or cache may be written");
}

#[test]
fn stray_positional_and_unknown_flag_exit_64() {
    for (tag, args) in [
        ("positional", &["fig8_mp3d"][..]),
        ("unknown", &["--filter", "table", "--fast"][..]),
    ] {
        let (code, wrote) = run_in_empty_dir(tag, args);
        assert_eq!(code, Some(64), "{args:?}");
        assert!(!wrote, "{args:?} must not run anything");
    }
}

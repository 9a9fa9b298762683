//! Shared command-line parsing for the experiment binaries
//! (`reproduce_all`, `scale_up`, `adaptive_ablation`, `scaling`).
//!
//! Every binary accepts the sweep-runner flags:
//!
//! - `--jobs N` — worker threads (default: available parallelism)
//! - `--no-cache` — ignore cached results, re-simulate everything
//! - `--out-dir PATH` — sweep output root (default `target/sweep`):
//!   records, cache, Chrome traces and figure CSVs all go under it
//! - `--trace` — dump a Chrome-trace-format event timeline per config
//!   under `<out-dir>/trace/` (forces re-simulation; cached records
//!   carry no timeline)
//! - `--full` — the paper's exact workload sizes instead of scaled-down
//! - `--filter PATTERN` — a substring, with one grammar per binary:
//!   `reproduce_all` runs the experiments whose *name* contains it
//!   (`--filter fig10_floyd`, `--filter table`); `scale_up` and
//!   `adaptive_ablation` run the machine sizes whose `P=<nodes>` label
//!   contains it (`--filter P=64`); `scaling` ignores it
//!
//! Flags may be written `--flag value` or `--flag=value`. Anything else —
//! an unknown flag or a positional argument — is a usage error (exit 64).

use crate::runner::SweepOptions;
use std::path::PathBuf;

const FLAGS: &str =
    "[--jobs N] [--no-cache] [--out-dir PATH] [--trace] [--full] [--filter PATTERN]";

#[derive(Clone, Debug, Default)]
pub struct Cli {
    pub jobs: Option<usize>,
    pub no_cache: bool,
    pub trace: bool,
    pub full: bool,
    pub filter: Option<String>,
    pub out_dir: Option<PathBuf>,
}

impl Cli {
    /// Parse the process arguments; on a usage error, print it with the
    /// usage line and exit 64.
    pub fn parse() -> Self {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        Self::from_args(args).unwrap_or_else(|e| {
            eprintln!("error: {e}\nusage: {program} {FLAGS}");
            std::process::exit(64);
        })
    }

    /// Parse `args`. An unknown flag or a positional argument is an
    /// error; a bad `--jobs` value only warns and keeps the default.
    pub fn from_args(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut cli = Cli::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f.to_string(), Some(v.to_string())),
                None => (arg.clone(), None),
            };
            match flag.as_str() {
                "--jobs" => {
                    cli.jobs = take_value(&flag, inline.clone(), &mut args)
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1);
                    if cli.jobs.is_none() {
                        eprintln!("warning: --jobs needs a positive integer");
                    }
                }
                "--no-cache" => cli.no_cache = true,
                "--trace" => cli.trace = true,
                "--full" => cli.full = true,
                "--filter" => cli.filter = take_value(&flag, inline.clone(), &mut args),
                "--out-dir" => {
                    cli.out_dir = take_value(&flag, inline.clone(), &mut args).map(PathBuf::from)
                }
                other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
                _ => return Err(format!("unexpected argument {arg:?}")),
            }
        }
        Ok(cli)
    }

    /// The runner options implied by the parsed flags.
    pub fn sweep_options(&self) -> SweepOptions {
        let mut opts = SweepOptions::default();
        if let Some(jobs) = self.jobs {
            opts.jobs = jobs;
        }
        opts.no_cache = self.no_cache;
        opts.trace = self.trace;
        if let Some(dir) = &self.out_dir {
            opts.out_dir = dir.clone();
        }
        opts
    }
}

fn take_value(
    flag: &str,
    inline: Option<String>,
    args: &mut std::iter::Peekable<impl Iterator<Item = String>>,
) -> Option<String> {
    let v = inline.or_else(|| args.next());
    if v.is_none() {
        eprintln!("warning: {flag} needs a value");
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_parse(args: &[&str]) -> Result<Cli, String> {
        Cli::from_args(args.iter().map(|s| s.to_string()))
    }

    fn parse(args: &[&str]) -> Cli {
        try_parse(args).expect("valid arguments")
    }

    #[test]
    fn parses_all_flags() {
        let cli = parse(&[
            "--jobs",
            "4",
            "--no-cache",
            "--trace",
            "--full",
            "--filter=fig",
            "--out-dir",
            "/tmp/x",
        ]);
        assert_eq!(cli.jobs, Some(4));
        assert!(cli.no_cache);
        assert!(cli.trace);
        assert!(cli.full);
        assert_eq!(cli.filter.as_deref(), Some("fig"));
        assert_eq!(cli.out_dir.as_deref(), Some(std::path::Path::new("/tmp/x")));
        let opts = cli.sweep_options();
        assert_eq!(opts.jobs, 4);
        assert!(opts.no_cache);
        assert!(opts.trace);
    }

    #[test]
    fn equals_form_and_defaults() {
        let cli = parse(&["--jobs=2"]);
        assert_eq!(cli.jobs, Some(2));
        assert!(!cli.no_cache && !cli.trace && !cli.full && cli.filter.is_none());
        let cli = parse(&[]);
        assert!(cli.jobs.is_none());
        assert!(cli.sweep_options().jobs >= 1);
    }

    #[test]
    fn bad_jobs_is_ignored_with_warning() {
        assert_eq!(parse(&["--jobs", "zero"]).jobs, None);
        assert_eq!(parse(&["--jobs", "0"]).jobs, None);
    }

    #[test]
    fn unknown_flag_is_a_usage_error() {
        let err = try_parse(&["--no-cache", "--fast"]).unwrap_err();
        assert!(err.contains("--fast"), "{err}");
        assert!(try_parse(&["--filter", "table", "--jobz=2"]).is_err());
    }

    #[test]
    fn stray_positional_is_a_usage_error() {
        // `reproduce_all fig8_mp3d` must not silently run every experiment.
        let err = try_parse(&["fig8_mp3d"]).unwrap_err();
        assert!(err.contains("fig8_mp3d"), "{err}");
        assert!(try_parse(&["--jobs", "2", "extra"]).is_err());
    }
}

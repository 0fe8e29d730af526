//! Shared pieces of the sockscope benchmark: the `sockscope run` argument
//! vector a workload is defined by, the output checks every run must
//! pass, and the small measurement helpers (peak RSS, directory sizes,
//! percentiles, one-line JSON) both benchmark binaries use.
//!
//! The benchmark drives the pipeline only through public entry points:
//! `sockscope_cli::parse` + `execute_with_status` for the untraced runs,
//! and the public crate APIs `Study::run` itself is built from for the
//! traced ones.

pub mod allocs;
pub mod layers;

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use sockscope::StudyConfig;
use sockscope_cli::Command;

pub use sockscope_journal::crc32;

/// One `sockscope run` invocation, decoded by the CLI's own parser.
pub struct RunSpec {
    /// The full argument vector (starting with `run`).
    pub args: Vec<String>,
    /// The study configuration the CLI derived from `args`.
    pub config: StudyConfig,
    /// `--save` destination (every workload saves a snapshot).
    pub save: String,
    /// `--checkpoint-dir`, when the workload journals.
    pub checkpoint_dir: Option<String>,
    /// `--lineage-dir`, when the workload writes a lineage.
    pub lineage_dir: Option<String>,
}

impl RunSpec {
    /// Parses a `sockscope run ...` argument vector with
    /// [`sockscope_cli::parse`]. The benchmark needs a snapshot to check,
    /// so `--save` is mandatory here.
    pub fn parse(args: &[String]) -> Result<RunSpec, String> {
        match sockscope_cli::parse(args).map_err(|e| format!("bad run arguments: {e}"))? {
            Command::Run {
                config,
                save,
                checkpoint_dir,
                lineage_dir,
                ..
            } => Ok(RunSpec {
                args: args.to_vec(),
                config,
                save: save.ok_or("the benchmark needs --save")?,
                checkpoint_dir,
                lineage_dir,
            }),
            other => Err(format!("expected a `run` command, got {other:?}")),
        }
    }

    /// Site visits one run attempts: sites × eras.
    pub fn visits(&self) -> u64 {
        (self.config.n_sites * self.config.timeline.len()) as u64
    }

    /// Whether the CLI derives the longitudinal products (drift report and
    /// snapshot lineage) for this run — the same condition
    /// `execute_with_status` applies.
    pub fn longitudinal(&self) -> bool {
        self.lineage_dir.is_some() || !self.config.timeline.is_paper()
    }
}

/// Runs one CLI command in-process; returns the rendered text and the exit
/// status the binary would report.
pub fn cli(args: &[String]) -> Result<(String, i32), String> {
    let command = sockscope_cli::parse(args).map_err(|e| format!("parse {args:?}: {e}"))?;
    sockscope_cli::execute_with_status(command).map_err(|e| format!("{}: {e}", args[0]))
}

/// Checks snapshot bytes against a recorded CRC32 and length.
pub fn check_snapshot(bytes: &[u8], crc: u32, len: usize) -> Result<(), String> {
    let got = crc32(bytes);
    if got != crc || bytes.len() != len {
        return Err(format!(
            "snapshot crc32 {got:#010X} / {} bytes, expected {crc:#010X} / {len} bytes",
            bytes.len()
        ));
    }
    Ok(())
}

/// Sections `sockscope run` appends to its report that a snapshot cannot
/// carry (drift is derived from the universe, provenance from the journal).
const RUN_ONLY_SECTIONS: [&str; 2] = ["Era drift", "Resume provenance"];

/// Checks that `report --from SNAPSHOT` re-rendered the run's report: the
/// reloaded text must be the run's text up to the run-only sections.
pub fn check_reload(run_text: &str, reloaded: &str) -> Result<(), String> {
    let rest = run_text
        .strip_prefix(reloaded)
        .ok_or("reloaded snapshot renders a different report")?;
    let run_only = rest.is_empty()
        || RUN_ONLY_SECTIONS
            .iter()
            .any(|s| rest.strip_prefix('\n').is_some_and(|r| r.starts_with(s)));
    if run_only {
        Ok(())
    } else {
        Err("reloaded report is missing a section of the run's report".into())
    }
}

/// Reads a count from a report line such as `  shards re-crawled:    0`.
pub fn report_count(text: &str, label: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.trim_start().strip_prefix(label))
        .and_then(|v| v.trim().parse().ok())
}

/// Peak resident set (`VmHWM`) of this process, in KiB.
pub fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Number of regular files under `dir` (recursively) and their total size.
pub fn dir_stats(dir: &Path) -> (u64, u64) {
    let mut files = 0;
    let mut bytes = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let Ok(meta) = entry.metadata() else { continue };
            if meta.is_dir() {
                let (f, b) = dir_stats(&entry.path());
                files += f;
                bytes += b;
            } else {
                files += 1;
                bytes += meta.len();
            }
        }
    }
    (files, bytes)
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; 0 if empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Times `f`, returning its result and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, secs(t))
}

/// A one-line JSON object of numbers plus `ok`/`error`, the protocol the
/// benchmark binaries speak to `run.py`.
#[derive(Default)]
pub struct Line {
    fields: Vec<(String, String)>,
}

impl Line {
    /// Adds a numeric field, printed with every digit Rust keeps.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Line {
        let v = if value.is_finite() {
            format!("{value:?}")
        } else {
            "null".into()
        };
        self.fields.push((key.into(), v));
        self
    }

    /// Prints `{"ok": .., "error": .., <fields>}` on one line of stdout.
    pub fn print(&self, result: &Result<(), String>) {
        let mut out = String::from("{");
        let _ = write!(out, "\"ok\": {}", result.is_ok());
        if let Err(e) = result {
            let escaped: String = e
                .chars()
                .map(|c| {
                    if c == '"' || c == '\\' || c.is_control() {
                        '\''
                    } else {
                        c
                    }
                })
                .collect();
            let _ = write!(out, ", \"error\": \"{escaped}\"");
        }
        for (k, v) in &self.fields {
            let _ = write!(out, ", \"{k}\": {v}");
        }
        out.push('}');
        println!("{out}");
    }
}

/// `--flag value` pairs given before `--`.
pub type Flags = Vec<(String, String)>;

/// Splits `perfbench-* [flags] -- <sockscope args>` into the flag pairs
/// and the CLI argument vector.
pub fn split_args(args: &[String]) -> Result<(Flags, Vec<String>), String> {
    let sep = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: [--flag value]... -- run <sockscope args>")?;
    let flags = args[..sep]
        .chunks(2)
        .map(|pair| match pair {
            [k, v] => Ok((k.clone(), v.clone())),
            _ => Err(format!("flag {} needs a value", pair[0])),
        })
        .collect::<Result<_, _>>()?;
    Ok((flags, args[sep + 1..].to_vec()))
}

/// Looks up a flag value from [`split_args`] output.
pub fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// Parses a hex (`0x`-prefixed or bare) or decimal flag value.
pub fn parse_u64(value: &str) -> Result<u64, String> {
    match value
        .strip_prefix("0x")
        .or_else(|| value.strip_prefix("0X"))
    {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => value.parse(),
    }
    .map_err(|_| format!("not a number: {value}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn a_corrupted_snapshot_fails_the_output_check() {
        let bytes = b"{\"version\":3,\"reductions\":[]}".to_vec();
        let (crc, len) = (crc32(&bytes), bytes.len());
        assert!(check_snapshot(&bytes, crc, len).is_ok());
        let mut flipped = bytes.clone();
        flipped[5] ^= 0x01;
        assert!(check_snapshot(&flipped, crc, len).is_err());
        assert!(check_snapshot(&bytes[..len - 1], crc, len).is_err());
    }

    #[test]
    fn reload_check_accepts_only_run_only_suffixes() {
        let base = "Table 1\nrows\n";
        assert!(check_reload(base, base).is_ok());
        let drift = format!("{base}\nEra drift (longitudinal run)\n...");
        assert!(check_reload(&drift, base).is_ok());
        let resumed = format!("{base}\nResume provenance (crash-safe)\n");
        assert!(check_reload(&resumed, base).is_ok());
        assert!(check_reload(&format!("{base}\nTable 9\n"), base).is_err());
        assert!(check_reload(base, "Table 2\n").is_err());
    }

    #[test]
    fn report_counts_parse() {
        let text = "Resume provenance\n  shards recovered:     12\n  shards re-crawled:    0\n";
        assert_eq!(report_count(text, "shards recovered:"), Some(12));
        assert_eq!(report_count(text, "shards re-crawled:"), Some(0));
        assert_eq!(report_count(text, "segments quarantined:"), None);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn run_spec_follows_the_cli_parser() {
        let spec = RunSpec::parse(&args(&[
            "run",
            "--sites",
            "30",
            "--eras",
            "5",
            "--workers",
            "2",
            "--save",
            "s.json",
            "--lineage-dir",
            "lin",
        ]))
        .unwrap();
        assert_eq!(spec.config.n_sites, 30);
        assert_eq!(spec.visits(), 150);
        assert!(spec.longitudinal());
        assert_eq!(spec.save, "s.json");
        assert!(RunSpec::parse(&args(&["run", "--sites", "30"])).is_err());
        assert!(RunSpec::parse(&args(&["report", "--from", "x"])).is_err());
    }

    #[test]
    fn split_args_separates_flags_from_cli_args() {
        let (flags, cli) =
            split_args(&args(&["--expect-crc", "0x1", "--", "run", "--sites", "3"])).unwrap();
        assert_eq!(flag(&flags, "--expect-crc"), Some("0x1"));
        assert_eq!(cli, args(&["run", "--sites", "3"]));
        assert!(split_args(&args(&["run"])).is_err());
        assert!(split_args(&args(&["--odd", "--"])).is_err());
        assert_eq!(parse_u64("0x57ECC8D3"), Ok(0x57EC_C8D3));
        assert_eq!(parse_u64("254074"), Ok(254_074));
    }
}

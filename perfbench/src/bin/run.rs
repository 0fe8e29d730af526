//! One untraced benchmark run, in its own process:
//!
//! ```text
//! perfbench-run [--expect-crc HEX --expect-len N] [--expect-quarantined N] \
//!     -- run <sockscope run arguments, including --save>
//! ```
//!
//! Times set-up (universe synthesis plus `Study::engine_for` on every
//! era's lists), then the run itself through `sockscope_cli::parse` +
//! `execute_with_status`, reads the process's peak RSS, and checks every
//! output: the snapshot against its recorded CRC32/length when given, the
//! quarantine count when given, and each read-path round trip (snapshot
//! reload re-renders the report, `--resume` recovers the whole journal,
//! the lineage reconstructs every era). Prints one JSON line and exits 1
//! when any check fails.

use std::path::Path;

use sockscope::analysis::snapshot::StudySnapshot;
use sockscope::{SnapshotLineage, Study};
use sockscope_perfbench::{
    check_reload, check_snapshot, cli, dir_stats, flag, parse_u64, report_count, split_args, timed,
    vm_hwm_kib, Line, RunSpec,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut line = Line::default();
    let result = run(&args, &mut line);
    line.print(&result);
    if result.is_err() {
        std::process::exit(1);
    }
}

fn run(args: &[String], line: &mut Line) -> Result<(), String> {
    let (flags, cli_args) = split_args(args)?;
    let spec = RunSpec::parse(&cli_args)?;

    let (_, setup_s) = timed(|| {
        let web = Study::universe(&spec.config);
        for era in spec.config.timeline.eras() {
            std::hint::black_box(Study::engine_for(&web.for_era(era.clone())));
        }
    });

    let (outcome, run_s) = timed(|| cli(&spec.args));
    let peak_kib = vm_hwm_kib().ok_or("cannot read VmHWM")?;
    let (run_text, status) = outcome?;
    line.num("sites_per_s", spec.visits() as f64 / run_s)
        .num("run_s", run_s)
        .num("setup_s", setup_s)
        .num("peak_rss_mib", peak_kib as f64 / 1024.0)
        .num("visits", spec.visits() as f64);

    let snapshot = std::fs::read(&spec.save).map_err(|e| format!("reading snapshot: {e}"))?;
    let study = StudySnapshot::load(Path::new(&spec.save))
        .and_then(StudySnapshot::restore)
        .map_err(|e| format!("reloading snapshot: {e}"))?;
    let quarantined: usize = study
        .reductions
        .iter()
        .filter_map(|r| r.quarantine.as_ref())
        .map(|q| q.len())
        .sum();
    line.num(
        "snapshot_crc32",
        f64::from(sockscope_perfbench::crc32(&snapshot)),
    )
    .num("snapshot_len", snapshot.len() as f64)
    .num("quarantined", quarantined as f64);
    let mut output_bytes = snapshot.len() as u64;

    let expected_status = if quarantined > 0 { 5 } else { 0 };
    if status != expected_status {
        return Err(format!(
            "exit status {status} with {quarantined} quarantined"
        ));
    }
    if let (Some(crc), Some(len)) = (flag(&flags, "--expect-crc"), flag(&flags, "--expect-len")) {
        check_snapshot(&snapshot, parse_u64(crc)? as u32, parse_u64(len)? as usize)?;
    }
    if let Some(q) = flag(&flags, "--expect-quarantined") {
        if quarantined as u64 != parse_u64(q)? {
            return Err(format!("{quarantined} sites quarantined, expected {q}"));
        }
    }

    let (reloaded, _) = cli(&["report".into(), "--from".into(), spec.save.clone()])?;
    check_reload(&run_text, &reloaded)?;

    if let Some(dir) = &spec.checkpoint_dir {
        let (segments, bytes) = dir_stats(Path::new(dir));
        output_bytes += bytes;
        line.num("journal_segments", segments as f64)
            .num("journal_bytes", bytes as f64);
        let resumed_path = format!("{}.resumed", spec.save);
        let mut resume_args = spec.args.clone();
        let at = resume_args
            .iter()
            .position(|a| a == "--save")
            .expect("spec has --save");
        resume_args[at + 1] = resumed_path.clone();
        resume_args.push("--resume".into());
        let (outcome, resume_s) = timed(|| cli(&resume_args));
        let (text, _) = outcome?;
        line.num("resume_s", resume_s);
        let recovered = report_count(&text, "shards recovered:").unwrap_or(0);
        let recrawled = report_count(&text, "shards re-crawled:");
        let torn = report_count(&text, "segments quarantined:");
        if recovered == 0 || recrawled != Some(0) || torn != Some(0) {
            return Err(format!(
                "resume recovered {recovered} shards, re-crawled {recrawled:?}, \
                 quarantined {torn:?} segments"
            ));
        }
        let resumed = std::fs::read(&resumed_path).map_err(|e| format!("resumed: {e}"))?;
        if resumed != snapshot {
            return Err("resumed snapshot differs from the run's".into());
        }
    }

    if let Some(dir) = &spec.lineage_dir {
        let (_, bytes) = dir_stats(Path::new(dir));
        output_bytes += bytes;
        line.num("lineage_bytes", bytes as f64);
        let eras = SnapshotLineage::load(Path::new(dir))
            .map_err(|e| format!("loading lineage: {e}"))?
            .reconstruct_all()
            .map_err(|e| format!("reconstructing lineage: {e}"))?;
        if eras.len() != spec.config.timeline.len() {
            return Err(format!("lineage holds {} eras", eras.len()));
        }
        if eras.last() != Some(&snapshot) {
            return Err("lineage's last era differs from the saved snapshot".into());
        }
    }

    line.num("output_bytes", output_bytes as f64);
    Ok(())
}

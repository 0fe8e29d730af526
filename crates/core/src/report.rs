//! One-call study report: run the configured timeline (the paper's four
//! crawls by default) and compute every artifact.

use sockscope_analysis::categories::CategoryBreakdown;
use sockscope_analysis::checkpoint::ResumeReport;
use sockscope_analysis::churn::Churn;
use sockscope_analysis::figures::Figure3;
use sockscope_analysis::longitudinal::EraDelta;
use sockscope_analysis::study::{Study, StudyConfig};
use sockscope_analysis::tables::{Table1, Table2, Table3, Table4, Table5};
use sockscope_analysis::textstats::TextStats;

/// Every table, figure, and prose statistic of the paper, computed from one
/// simulated study.
pub struct StudyReport {
    /// The underlying study (reductions + `D'`), for further digging.
    pub study: Study,
    /// Table 1 — high-level crawl statistics.
    pub table1: Table1,
    /// Table 2 — top initiators.
    pub table2: Table2,
    /// Table 3 — top A&A receivers.
    pub table3: Table3,
    /// Table 4 — top initiator/receiver pairs.
    pub table4: Table4,
    /// Table 5 — sent/received content, WS vs HTTP/S.
    pub table5: Table5,
    /// Figure 3 — sockets by Alexa rank.
    pub figure3: Figure3,
    /// §4.1/§4.2/§4.3 prose statistics.
    pub textstats: TextStats,
    /// Extension: per-Alexa-category breakdown.
    pub categories: CategoryBreakdown,
    /// Extension: crawl-over-crawl churn matrix.
    pub churn: Churn,
    /// Resume provenance when the study ran on the checkpointed driver
    /// (`None` for plain in-memory runs and snapshot reloads).
    pub provenance: Option<ResumeReport>,
    /// Era-over-era drift reports when the study ran longitudinally
    /// (`None` for plain runs).
    pub era_drift: Option<Vec<EraDelta>>,
}

impl StudyReport {
    /// Runs the study and computes everything.
    pub fn run(config: &StudyConfig) -> StudyReport {
        let study = Study::run(config);
        StudyReport::from_study(study)
    }

    /// Computes the report from a study produced by the checkpointed
    /// driver, attaching its resume provenance to the rendered output.
    pub fn from_checkpointed(study: Study, provenance: ResumeReport) -> StudyReport {
        StudyReport {
            provenance: Some(provenance),
            ..StudyReport::from_study(study)
        }
    }

    /// Runs the timeline longitudinally
    /// ([`sockscope_analysis::run_longitudinal`]) and attaches the
    /// era-drift reports to the rendered output. Returns the report plus
    /// the delta-compressed snapshot lineage for the caller to persist.
    pub fn run_longitudinal(
        config: &StudyConfig,
    ) -> (StudyReport, sockscope_analysis::SnapshotLineage) {
        let run = sockscope_analysis::run_longitudinal(config);
        let report = StudyReport {
            era_drift: Some(run.deltas),
            ..StudyReport::from_study(run.study)
        };
        (report, run.lineage)
    }

    /// Computes the report from an existing study.
    pub fn from_study(study: Study) -> StudyReport {
        let table1 = Table1::compute(&study);
        let table2 = Table2::compute(&study, 15);
        let table3 = Table3::compute(&study, 15);
        let table4 = Table4::compute(&study, 15);
        let table5 = Table5::compute(&study);
        let figure3 = Figure3::compute(&study, None, 10_000);
        let textstats = TextStats::compute(&study);
        let categories = CategoryBreakdown::compute(&study);
        let churn = Churn::compute(&study);
        StudyReport {
            study,
            table1,
            table2,
            table3,
            table4,
            table5,
            figure3,
            textstats,
            categories,
            churn,
            provenance: None,
            era_drift: None,
        }
    }

    /// Renders the fault-injection failure accounting — one row per crawl
    /// plus a pooled error taxonomy. `None` when the study ran fault-free
    /// (the fault-free report is unchanged by the fault subsystem).
    pub fn render_failures(&self) -> Option<String> {
        use std::fmt::Write as _;
        if self.study.reductions.iter().all(|r| r.failures.is_none()) {
            return None;
        }
        let mut out = String::from("Failure accounting (seeded fault injection)\n");
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>8} {:>9} {:>9} {:>7} {:>9} {:>7} {:>9}",
            "crawl",
            "sites",
            "degraded",
            "abandoned",
            "attempts",
            "failed",
            "timed-out",
            "retries",
            "ticks"
        );
        let mut errors: std::collections::BTreeMap<&str, u64> = Default::default();
        for red in &self.study.reductions {
            let Some(f) = &red.failures else { continue };
            let _ = writeln!(
                out,
                "{:<16} {:>6} {:>8} {:>9} {:>9} {:>7} {:>9} {:>7} {:>9}",
                red.label,
                f.sites_attempted,
                f.sites_degraded,
                f.sites_abandoned,
                f.pages_attempted,
                f.pages_failed,
                f.pages_timed_out,
                f.retries,
                f.ticks
            );
            for (kind, n) in &f.errors {
                *errors.entry(kind.as_str()).or_insert(0) += n;
            }
        }
        out.push_str("error taxonomy (all crawls):\n");
        for (kind, n) in errors {
            let _ = writeln!(out, "  {kind:<22} {n:>8}");
        }
        Some(out)
    }

    /// Total sites quarantined across every crawl of the study (`0` for
    /// unsupervised or hazard-free runs). The CLI keys its exit status off
    /// this number.
    pub fn total_quarantined(&self) -> usize {
        self.study
            .reductions
            .iter()
            .filter_map(|r| r.quarantine.as_ref())
            .map(|q| q.len())
            .sum()
    }

    /// Renders the supervised-execution quarantine accounting — one row per
    /// crawl plus a pooled reason taxonomy. `None` when no crawl carries a
    /// quarantine table (unsupervised or hazard-free runs: the clean report
    /// is unchanged by the supervision subsystem).
    pub fn render_quarantine(&self) -> Option<String> {
        use std::fmt::Write as _;
        if self.study.reductions.iter().all(|r| r.quarantine.is_none()) {
            return None;
        }
        let mut out = String::from("Quarantine accounting (supervised execution)\n");
        let _ = writeln!(
            out,
            "{:<16} {:>11} {:>9}",
            "crawl", "quarantined", "attempts"
        );
        let mut reasons: std::collections::BTreeMap<String, u64> = Default::default();
        for red in &self.study.reductions {
            let Some(q) = &red.quarantine else { continue };
            let attempts: u64 = q.sites.iter().map(|s| u64::from(s.attempts)).sum();
            let _ = writeln!(out, "{:<16} {:>11} {:>9}", red.label, q.len(), attempts);
            for (reason, n) in q.reason_counts() {
                *reasons.entry(reason.to_string()).or_insert(0) += n;
            }
        }
        out.push_str("quarantine reasons (all crawls):\n");
        for (reason, n) in reasons {
            let _ = writeln!(out, "  {reason:<22} {n:>8}");
        }
        Some(out)
    }

    /// Renders the era-over-era drift table — one row per timeline era
    /// with evader arrivals/departures, filter-list churn, and blocklist
    /// lag. `None` when the study did not run longitudinally.
    pub fn render_era_drift(&self) -> Option<String> {
        use std::fmt::Write as _;
        let deltas = self.era_drift.as_ref()?;
        let mut out = String::from("Era drift (longitudinal run)\n");
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>7} {:>6} {:>6} {:>9} {:>9} {:>6} {:>7}",
            "era", "sockets", "drift", "new", "gone", "rules+", "rules-", "lag", "sites"
        );
        for d in deltas {
            let _ = writeln!(
                out,
                "{:<16} {:>8} {:>+7} {:>6} {:>6} {:>9} {:>9} {:>6} {:>7}",
                d.label,
                d.sockets,
                d.socket_drift,
                d.new_evaders.len(),
                d.gone_evaders.len(),
                d.newly_covered_rules,
                d.retired_rules,
                d.blocklist_lag.len(),
                d.sites_with_sockets
            );
        }
        Some(out)
    }

    /// Renders the full report (all tables + figure + stats + timeline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&crate::timeline::render_timeline());
        out.push('\n');
        out.push_str(&self.table1.render());
        out.push('\n');
        out.push_str(&self.table2.render());
        out.push('\n');
        out.push_str(&self.table3.render());
        out.push('\n');
        out.push_str(&self.table4.render());
        out.push('\n');
        out.push_str(&self.table5.render());
        out.push('\n');
        out.push_str(&self.figure3.render());
        out.push('\n');
        out.push_str(&self.textstats.render());
        out.push('\n');
        out.push_str(&self.categories.render());
        out.push('\n');
        out.push_str(&self.churn.render(30));
        if let Some(failures) = self.render_failures() {
            out.push('\n');
            out.push_str(&failures);
        }
        if let Some(quarantine) = self.render_quarantine() {
            out.push('\n');
            out.push_str(&quarantine);
        }
        if let Some(drift) = self.render_era_drift() {
            out.push('\n');
            out.push_str(&drift);
        }
        if let Some(provenance) = &self.provenance {
            out.push('\n');
            out.push_str(&provenance.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_runs_at_small_scale() {
        let report = StudyReport::run(&StudyConfig {
            n_sites: 250,
            threads: 4,
            ..StudyConfig::default()
        });
        assert_eq!(report.table1.rows.len(), 4);
        let text = report.render();
        assert!(text.contains("Table 1"));
        assert!(text.contains("Table 5"));
        assert!(text.contains("Figure 3"));
        assert!(text.contains("129353"));
        assert!(
            report.render_failures().is_none(),
            "fault-free report must carry no failure table"
        );
        assert!(
            report.render_quarantine().is_none(),
            "fault-free report must carry no quarantine table"
        );
        assert_eq!(report.total_quarantined(), 0);
    }

    #[test]
    fn faulted_report_carries_the_failure_table() {
        let report = StudyReport::run(&StudyConfig {
            n_sites: 120,
            threads: 4,
            faults: Some(sockscope_faults::FaultProfile::heavy()),
            ..StudyConfig::default()
        });
        let failures = report.render_failures().expect("failure table present");
        assert!(failures.contains("Failure accounting"));
        assert!(failures.contains("error taxonomy"));
        assert!(report.render().contains("Failure accounting"));
        assert!(
            report.render_quarantine().is_none(),
            "hazard-free faulted report must carry no quarantine table"
        );
    }

    #[test]
    fn poisoned_report_carries_the_quarantine_table() {
        let report = StudyReport::run(&StudyConfig {
            n_sites: 120,
            threads: 4,
            faults: Some(sockscope_faults::FaultProfile::poison()),
            ..StudyConfig::default()
        });
        let quarantine = report
            .render_quarantine()
            .expect("quarantine table present");
        assert!(quarantine.contains("Quarantine accounting"));
        assert!(quarantine.contains("quarantine reasons"));
        assert!(report.total_quarantined() > 0);
        assert!(report.render().contains("Quarantine accounting"));
    }
}

//! Generator configuration.

use crate::timeline::Era;

/// Which of the four crawls is being simulated (§3.3 / Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrawlEra {
    /// April 02–05, 2017 — before the Chrome 58 patch.
    AprilEarly,
    /// April 11–16, 2017 — before the patch.
    AprilLate,
    /// May 07–12, 2017 — right after the patch.
    May,
    /// October 12–16, 2017 — five months after the patch.
    October,
}

impl CrawlEra {
    /// All four crawls, in study order.
    pub const ALL: [CrawlEra; 4] = [
        CrawlEra::AprilEarly,
        CrawlEra::AprilLate,
        CrawlEra::May,
        CrawlEra::October,
    ];

    /// `true` for the two crawls that ran while the WRB was still live.
    pub fn pre_patch(self) -> bool {
        matches!(self, CrawlEra::AprilEarly | CrawlEra::AprilLate)
    }

    /// Index 0–3, used as a deterministic jitter stream.
    pub fn index(self) -> u64 {
        match self {
            CrawlEra::AprilEarly => 0,
            CrawlEra::AprilLate => 1,
            CrawlEra::May => 2,
            CrawlEra::October => 3,
        }
    }

    /// The date label used in Table 1.
    pub fn label(self) -> &'static str {
        match self {
            CrawlEra::AprilEarly => "Apr 02-05, 2017",
            CrawlEra::AprilLate => "Apr 11-16, 2017",
            CrawlEra::May => "May 07-12, 2017",
            CrawlEra::October => "Oct 12-16, 2017",
        }
    }

    /// Per-crawl activity multiplier for socket-bearing services. The four
    /// crawls saw mildly different site-level socket incidence (2.1%, 2.4%,
    /// 1.6%, 2.5%); this jitter reproduces that spread on top of the link-
    /// sampling noise.
    pub fn activity_factor(self) -> f64 {
        match self {
            CrawlEra::AprilEarly => 0.68,
            CrawlEra::AprilLate => 0.78,
            CrawlEra::May => 0.76,
            CrawlEra::October => 1.10,
        }
    }
}

/// Full generator configuration.
#[derive(Debug, Clone)]
pub struct WebGenConfig {
    /// Master seed for the universe (site identities, adoption choices).
    pub seed: u64,
    /// Number of publisher sites. The paper's sample is ~100K; tests and
    /// quick runs use smaller universes — all incidence parameters are
    /// per-site probabilities, so shapes are scale-free.
    pub n_sites: usize,
    /// Which crawl is being generated (affects era-dependent behaviour and
    /// per-crawl jitter). Any [`Era`] of a timeline; the four paper crawls
    /// convert via `CrawlEra::into()`.
    pub era: Era,
    /// Pages per site the generator exposes (the crawler visits the
    /// homepage plus up to 15 links, §3.3).
    pub pages_per_site: usize,
}

impl Default for WebGenConfig {
    fn default() -> Self {
        WebGenConfig {
            seed: 0x50C2_5C0F,
            n_sites: 10_000,
            era: CrawlEra::AprilEarly.into(),
            pages_per_site: 15,
        }
    }
}

impl WebGenConfig {
    /// Same universe, different crawl — the seed (and thus the site
    /// universe and service adoption) is untouched, only era-dependent
    /// behaviour changes, exactly like re-crawling the same web later.
    pub fn for_era(&self, era: impl Into<Era>) -> WebGenConfig {
        WebGenConfig {
            era: era.into(),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn era_patch_boundaries() {
        assert!(CrawlEra::AprilEarly.pre_patch());
        assert!(CrawlEra::AprilLate.pre_patch());
        assert!(!CrawlEra::May.pre_patch());
        assert!(!CrawlEra::October.pre_patch());
    }

    #[test]
    fn for_era_keeps_universe() {
        let base = WebGenConfig {
            pages_per_site: 4,
            ..WebGenConfig::default()
        };
        let oct = base.for_era(CrawlEra::October);
        assert_eq!(base.seed, oct.seed);
        assert_eq!(base.n_sites, oct.n_sites);
        assert_eq!(oct.era, CrawlEra::October.into());
        assert_eq!(oct.pages_per_site, 4);
    }
}

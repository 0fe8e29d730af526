//! Embedded public-suffix list and second-level-domain extraction.
//!
//! §3.2 of the paper aggregates every fully-qualified hostname to its
//! *2nd-level domain* before A&A labeling: `x.doubleclick.net` and
//! `y.doubleclick.net` both count toward `doubleclick.net`. Getting this
//! right requires knowing that e.g. `co.uk` is a *public suffix*, so the
//! second-level domain of `ads.example.co.uk` is `example.co.uk`, not
//! `co.uk`.
//!
//! We embed the slice of the public-suffix list that covers the synthetic
//! web universe plus the common real-world suffixes exercised by tests. The
//! list is tiny by design; [`second_level_domain`] falls back to "last two
//! labels" for unknown suffixes, which matches how the paper's dataset was
//! built (Alexa domains are overwhelmingly under well-known suffixes).

/// Public suffixes with exactly one label.
const SINGLE_LABEL_SUFFIXES: &[&str] = &[
    "com", "net", "org", "io", "co", "biz", "info", "tv", "me", "us", "uk", "de", "fr", "jp", "ru",
    "cn", "br", "in", "au", "ca", "it", "es", "nl", "pl", "se", "ch", "edu", "gov", "mil", "xyz",
    "site", "online", "club", "app", "dev", "ws", "cc", "eu", "kr", "mx", "ar", "tr", "ir", "gr",
    "cz", "ro", "hu", "pt", "dk", "no", "fi", "be", "at", "sk", "ua", "il", "za", "nz", "id", "th",
    "vn", "my", "sg", "hk", "tw", "cl", "pe", "ve",
];

/// Public suffixes with two labels (country-code second-level registries and
/// "private" suffixes like shared hosting platforms, which the real PSL also
/// carries).
const DOUBLE_LABEL_SUFFIXES: &[&str] = &[
    "co.uk",
    "org.uk",
    "ac.uk",
    "gov.uk",
    "me.uk",
    "net.uk",
    "com.au",
    "net.au",
    "org.au",
    "edu.au",
    "gov.au",
    "co.jp",
    "ne.jp",
    "or.jp",
    "ac.jp",
    "go.jp",
    "com.br",
    "net.br",
    "org.br",
    "gov.br",
    "co.in",
    "net.in",
    "org.in",
    "gen.in",
    "firm.in",
    "com.cn",
    "net.cn",
    "org.cn",
    "gov.cn",
    "co.kr",
    "or.kr",
    "ne.kr",
    "com.mx",
    "org.mx",
    "net.mx",
    "com.ar",
    "com.tr",
    "com.sg",
    "com.hk",
    "com.tw",
    "com.my",
    "com.vn",
    "co.za",
    "org.za",
    "co.nz",
    "net.nz",
    "org.nz",
    "co.il",
    "org.il",
    "com.pl",
    "net.pl",
    "org.pl",
    "com.ru",
    "net.ru",
    "org.ru",
    // Private-section suffixes: every direct child is a separate "site".
    "github.io",
    "gitlab.io",
    "herokuapp.com",
    "appspot.com",
    "blogspot.com",
    "s3.amazonaws.com",
    "azurewebsites.net",
    "netlify.app",
];

/// Returns `true` if `domain` (already lower-case, no trailing dot) is
/// itself a public suffix.
///
/// ```
/// use sockscope_urlkit::is_public_suffix;
/// assert!(is_public_suffix("com"));
/// assert!(is_public_suffix("co.uk"));
/// assert!(!is_public_suffix("doubleclick.net"));
/// ```
pub fn is_public_suffix(domain: &str) -> bool {
    let labels = domain.matches('.').count() + 1;
    match labels {
        1 => SINGLE_LABEL_SUFFIXES.contains(&domain),
        2 => DOUBLE_LABEL_SUFFIXES.contains(&domain),
        3 => DOUBLE_LABEL_SUFFIXES.contains(&domain), // s3.amazonaws.com
        _ => false,
    }
}

/// Extracts the second-level (registrable) domain of a hostname.
///
/// This is the `d ∈ D` aggregation key of §3.2: the public suffix plus one
/// label. Hostnames that *are* a public suffix, or unknown single-label
/// hosts, are returned unchanged.
///
/// ```
/// use sockscope_urlkit::second_level_domain;
/// assert_eq!(second_level_domain("x.doubleclick.net"), "doubleclick.net");
/// assert_eq!(second_level_domain("y.doubleclick.net"), "doubleclick.net");
/// assert_eq!(second_level_domain("ads.example.co.uk"), "example.co.uk");
/// assert_eq!(second_level_domain("d10lpsik1i8c69.cloudfront.net"), "cloudfront.net");
/// ```
pub fn second_level_domain(host: &str) -> &str {
    let host = host.strip_suffix('.').unwrap_or(host);
    // Start offsets of the last (up to) four labels, right to left. No
    // public suffix is longer than three labels, so the registrable
    // domain — the longest matching suffix plus one label — never reaches
    // further left than the fourth label from the right.
    let mut starts = [0usize; 4];
    let mut labels = 0;
    let mut end = host.len();
    while labels < starts.len() {
        let start = host[..end].rfind('.').map_or(0, |dot| dot + 1);
        starts[labels] = start;
        labels += 1;
        if start == 0 {
            break;
        }
        end = start - 1;
    }
    // Suffix candidates from longest (three labels) to shortest.
    for k in (1..=labels.min(3)).rev() {
        if is_public_suffix(&host[starts[k - 1]..]) {
            if starts[k - 1] == 0 {
                // The whole host is a public suffix.
                return host;
            }
            return &host[starts[k]..];
        }
    }
    // Unknown suffix: fall back to the last two labels.
    if labels >= 2 {
        &host[starts[1]..]
    } else {
        host
    }
}

/// `true` when `domain` and every DNS name under it (ending in
/// `.{domain}`) share one second-level domain: `domain` has at least two
/// labels, is not itself a public suffix, and no public suffix lies below
/// it. `doubleclick.net` qualifies; `localhost` (`a.localhost` registers
/// as itself), `co.uk` and `amazonaws.com` (`b.s3.amazonaws.com` registers
/// under the suffix `s3.amazonaws.com`) do not.
///
/// ```
/// use sockscope_urlkit::psl::shares_second_level_domain;
/// assert!(shares_second_level_domain("ads.doubleclick.net"));
/// assert!(shares_second_level_domain("x.example.unknowntld"));
/// assert!(!shares_second_level_domain("localhost"));
/// assert!(!shares_second_level_domain("co.uk"));
/// assert!(!shares_second_level_domain("github.io"));
/// assert!(!shares_second_level_domain("amazonaws.com"));
/// ```
pub fn shares_second_level_domain(domain: &str) -> bool {
    domain.contains('.')
        && !is_public_suffix(domain)
        && !DOUBLE_LABEL_SUFFIXES.iter().any(|suffix| {
            suffix
                .strip_suffix(domain)
                .is_some_and(|above| above.ends_with('.'))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_com() {
        assert_eq!(second_level_domain("www.example.com"), "example.com");
        assert_eq!(second_level_domain("example.com"), "example.com");
        assert_eq!(second_level_domain("a.b.c.example.com"), "example.com");
    }

    #[test]
    fn cc_sld() {
        assert_eq!(second_level_domain("shop.example.co.uk"), "example.co.uk");
        assert_eq!(second_level_domain("example.co.uk"), "example.co.uk");
    }

    #[test]
    fn bare_suffix_is_identity() {
        assert_eq!(second_level_domain("com"), "com");
        assert_eq!(second_level_domain("co.uk"), "co.uk");
    }

    #[test]
    fn unknown_tld_falls_back_to_two_labels() {
        assert_eq!(
            second_level_domain("a.b.example.unknowntld"),
            "example.unknowntld"
        );
    }

    #[test]
    fn single_unknown_label() {
        assert_eq!(second_level_domain("localhost"), "localhost");
    }

    #[test]
    fn trailing_dot_stripped() {
        assert_eq!(second_level_domain("www.example.com."), "example.com");
    }

    #[test]
    fn private_suffixes() {
        assert_eq!(second_level_domain("user.github.io"), "user.github.io");
        assert_eq!(second_level_domain("deep.user.github.io"), "user.github.io");
    }

    #[test]
    fn walks_only_the_trailing_labels() {
        assert_eq!(
            second_level_domain("a.b.c.d.e.example.co.uk"),
            "example.co.uk"
        );
        assert_eq!(
            second_level_domain("x.y.bucket.s3.amazonaws.com"),
            "bucket.s3.amazonaws.com"
        );
        assert_eq!(second_level_domain("s3.amazonaws.com"), "s3.amazonaws.com");
        assert_eq!(second_level_domain(""), "");
        assert_eq!(second_level_domain("."), "");
        assert_eq!(second_level_domain("a..com"), ".com");
        assert_eq!(second_level_domain(".com"), ".com");
    }

    #[test]
    fn paper_examples() {
        // The exact example from §3.2 of the paper.
        assert_eq!(second_level_domain("x.doubleclick.net"), "doubleclick.net");
        assert_eq!(second_level_domain("y.doubleclick.net"), "doubleclick.net");
        // Cloudfront hostnames aggregate to cloudfront.net — which is why
        // the paper needed the manual per-subdomain mapping (handled in
        // sockscope-filterlist).
        assert_eq!(
            second_level_domain("dkpklk99llpj0.cloudfront.net"),
            "cloudfront.net"
        );
    }
}

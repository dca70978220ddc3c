//! The generator's word stock — domain, TLD, host and directory names —
//! and the phrase vocabulary's text.

/// Word stock for domain labels.
pub(crate) const DOMAIN_WORDS: &[&str] = &[
    "stanford",
    "acme",
    "berkeley",
    "globex",
    "initech",
    "umbrella",
    "hooli",
    "wayne",
    "stark",
    "wonka",
    "tyrell",
    "cyberdyne",
    "aperture",
    "blackmesa",
    "oscorp",
    "gringotts",
    "duff",
    "vandelay",
    "dunder",
    "pied",
    "sterling",
    "nakatomi",
    "weyland",
    "yoyodyne",
    "zorg",
    "massive",
    "virtucon",
    "monarch",
    "octan",
    "soylent",
    "omni",
    "lexcorp",
    "gekko",
    "prestige",
    "ingen",
    "biffco",
    "chotchkie",
    "strickland",
    "callahan",
    "kruger",
];

/// TLDs with sampling weights; .edu is guaranteed at least a handful of
/// domains because the paper's queries predicate on it.
pub(crate) const TLDS: &[(&str, u32)] = &[
    ("com", 45),
    ("edu", 20),
    ("org", 15),
    ("net", 12),
    ("gov", 8),
];

/// Host labels beyond `www`.
pub(crate) const HOST_WORDS: &[&str] = &[
    "www", "cs", "ee", "physics", "math", "lib", "news", "mail", "shop", "blog", "dev", "docs",
    "research", "labs", "media", "support", "forum", "wiki", "archive", "portal",
];

/// Directory-name stock.
pub(crate) const DIR_WORDS: &[&str] = &[
    "students",
    "grad",
    "undergrad",
    "admin",
    "people",
    "projects",
    "papers",
    "courses",
    "about",
    "products",
    "services",
    "press",
    "events",
    "software",
    "data",
    "reports",
    "archive",
    "misc",
    "community",
    "resources",
    "help",
    "api",
    "images",
    "staff",
    "alumni",
    "research",
    "groups",
    "teams",
    "notes",
    "public",
];

/// Deterministic synthetic phrase text for phrase id `i`.
pub fn phrase_text(i: u32) -> String {
    const ADJ: &[&str] = &[
        "mobile",
        "quantum",
        "internet",
        "optical",
        "neural",
        "parallel",
        "semantic",
        "visual",
        "stochastic",
        "modern",
        "classical",
        "digital",
        "analog",
        "hybrid",
        "adaptive",
        "secure",
    ];
    const NOUN: &[&str] = &[
        "networking",
        "cryptography",
        "censorship",
        "interferometry",
        "synthesis",
        "rendering",
        "databases",
        "compilers",
        "painters",
        "music",
        "robotics",
        "genomics",
        "markets",
        "logic",
        "topology",
        "imaging",
    ];
    let a = ADJ[(i as usize) % ADJ.len()];
    let n = NOUN[(i as usize / ADJ.len()) % NOUN.len()];
    let gen = i as usize / (ADJ.len() * NOUN.len());
    if gen == 0 {
        format!("{a} {n}")
    } else {
        format!("{a} {n} {gen}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phrase_text_is_unique_per_id() {
        let texts: Vec<String> = (0..1000).map(phrase_text).collect();
        let mut sorted = texts.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), texts.len());
    }
}

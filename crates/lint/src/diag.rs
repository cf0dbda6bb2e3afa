//! Diagnostics: rule identities, severities, and the text/JSON renderings
//! consumed by humans, CI logs, and the uploaded report artifact.

use std::fmt;

/// How bad an un-waived violation is by default. `--deny all` (or
/// `--deny <rule>`) promotes matching warnings to errors at report time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported, but does not fail the run unless denied.
    Warn,
    /// Fails the run (non-zero exit).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warn => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One rule's identity: stable code, allow-name, default severity, and the
/// invariant it protects (shown by `--list-rules`).
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable short code, e.g. `D001`.
    pub code: &'static str,
    /// Name used in diagnostics and `lint:allow(<name>)` markers.
    pub name: &'static str,
    /// Severity when not denied.
    pub default_severity: Severity,
    /// One-line statement of the invariant.
    pub rationale: &'static str,
}

/// Every rule this tool knows, in report order.
pub static RULES: &[RuleInfo] = &[
    RuleInfo {
        code: "D001",
        name: "det-map",
        default_severity: Severity::Warn,
        rationale: "no HashMap/HashSet in deterministic crates: iteration order varies run-to-run \
                    and silently breaks bit-identical goldens — use BTreeMap/BTreeSet or a sorted \
                    Vec (lookup-only uses may be lint:allow'd with a justification)",
    },
    RuleInfo {
        code: "D002",
        name: "det-clock",
        default_severity: Severity::Error,
        rationale: "no Instant::now/SystemTime::now in library code: wall-clock reads make seeded \
                    runs non-reproducible — timing belongs in bench/bin targets",
    },
    RuleInfo {
        code: "D003",
        name: "det-rng",
        default_severity: Severity::Error,
        rationale: "no ambient RNG (thread_rng/rand::random/from_entropy): every stochastic draw \
                    must come from a seeded constructor so reruns are bit-identical",
    },
    RuleInfo {
        code: "U001",
        name: "unsafe-scope",
        default_severity: Severity::Error,
        rationale: "unsafe is only legal in the audited allowlist (tensor/src/simd.rs and the \
                    net crate's allocation-probe test); a new file growing unsafe must be added \
                    there deliberately, with review",
    },
    RuleInfo {
        code: "U002",
        name: "unsafe-safety",
        default_severity: Severity::Error,
        rationale: "every unsafe block/fn carries a `// SAFETY:` comment stating the CPU-feature \
                    precondition and pointer/length validity argument",
    },
    RuleInfo {
        code: "P001",
        name: "panic",
        default_severity: Severity::Warn,
        rationale: "no unwrap()/expect()/panic! in fl/core library code: hot paths return errors; \
                    a panic kept as a documented invariant is lint:allow'd per line",
    },
    RuleInfo {
        code: "M001",
        name: "meter-field",
        default_severity: Severity::Error,
        rationale: "every CommTotals field is accumulated by the CommLedger and rendered by the \
                    report — a counter added but never summed or printed is a silent metering \
                    hole",
    },
];

/// Looks a rule up by its allow-name.
pub fn rule_by_name(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

/// One violation at one line.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Path as reported (workspace-relative when walking the workspace).
    pub path: String,
    /// 1-based line of the offending token.
    pub line: usize,
    /// The violated rule.
    pub rule: &'static RuleInfo,
    /// Effective severity after `--deny` promotion.
    pub severity: Severity,
    /// Human-readable specifics.
    pub message: String,
}

impl Diagnostic {
    /// rustc-style single-line rendering:
    /// `path:line: error[D001(det-map)]: message`.
    pub fn render_text(&self) -> String {
        format!(
            "{}:{}: {}[{}({})]: {}",
            self.path, self.line, self.severity, self.rule.code, self.rule.name, self.message
        )
    }

    /// One JSON object (hand-rolled; the lint is std-only by design).
    pub fn render_json(&self) -> String {
        format!(
            r#"{{"path":{},"line":{},"rule":{},"name":{},"severity":{},"message":{}}}"#,
            json_str(&self.path),
            self.line,
            json_str(self.rule.code),
            json_str(self.rule.name),
            json_str(&self.severity.to_string()),
            json_str(&self.message),
        )
    }
}

/// Renders a full report as a JSON document with a summary header.
pub fn render_json_report(diags: &[Diagnostic]) -> String {
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let body: Vec<String> = diags
        .iter()
        .map(|d| format!("  {}", d.render_json()))
        .collect();
    format!(
        "{{\"errors\":{},\"warnings\":{},\"diagnostics\":[\n{}\n]}}\n",
        errors,
        diags.len() - errors,
        body.join(",\n")
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_are_unique_and_resolvable() {
        for r in RULES {
            assert!(std::ptr::eq(rule_by_name(r.name).unwrap(), r));
        }
        let mut names: Vec<_> = RULES.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), RULES.len());
    }

    #[test]
    fn json_escapes_quotes() {
        let d = Diagnostic {
            path: "a\"b.rs".into(),
            line: 3,
            rule: &RULES[0],
            severity: Severity::Warn,
            message: "uses \"HashMap\"".into(),
        };
        let j = d.render_json();
        assert!(j.contains(r#""path":"a\"b.rs""#));
        assert!(j.contains(r#""severity":"warning""#));
    }
}

//! Diagnostic types and rendering.
//!
//! Diagnostics carry stable codes (`E001`…, `W101`…) so CI and editors can
//! filter on them; rendering mimics rustc's `severity[code]: message` shape
//! with `-->` location lines. The JSON and SARIF forms are
//! [`mutsvc_desim::json::Json`] values.

use std::fmt::Write as _;

use mutsvc_desim::json::Json;

/// Diagnostic severity. Errors fail the build (`mutsvc-analyze` exits
/// nonzero); warnings are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Violates a hard §4 invariant or makes the deployment unrunnable.
    Error,
    /// A wide-area performance or staleness hazard.
    Warning,
}

impl Severity {
    /// The rustc-style label.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// Where a diagnostic was found: the page (if page-scoped) and the
/// invocation path within its call tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Span {
    /// Page name, when the diagnostic is tied to one page's tree.
    pub page: Option<String>,
    /// Invocation path (`web.doGet > Catalog.getItem`), or a descriptor
    /// location for deployment-level findings.
    pub path: String,
}

impl Span {
    /// A descriptor-level span (no page).
    pub fn descriptor(path: impl Into<String>) -> Self {
        Span {
            page: None,
            path: path.into(),
        }
    }

    /// A page-scoped span.
    pub fn page(page: impl Into<String>, path: impl Into<String>) -> Self {
        Span {
            page: Some(page.into()),
            path: path.into(),
        }
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`E001`, `W105`, …).
    pub code: &'static str,
    /// Severity.
    pub severity: Severity,
    /// The component involved, if one.
    pub component: Option<String>,
    /// The node involved, if one.
    pub node: Option<String>,
    /// Human-readable explanation.
    pub message: String,
    /// Location.
    pub span: Span,
}

/// One recorded node crossing, rendered with node names.
#[derive(Debug, Clone)]
pub struct CrossingNote {
    /// Originating node name.
    pub from: String,
    /// Destination node name.
    pub to: String,
    /// Interaction kind label (`rmi`, `jndi`, `fetch`, `jdbc`).
    pub kind: String,
    /// Round trips this crossing costs.
    pub trips: u32,
    /// Whether the crossing traverses the wide area at all.
    pub wan: bool,
    /// Wide-area hops on the crossing's shortest path (0 = LAN-only; 2 or
    /// more means the crossing relays through multiple WAN legs, W112).
    pub wan_hops: u32,
}

/// The wide-area cost summary of one page.
#[derive(Debug, Clone)]
pub struct PageWanCost {
    /// Page name.
    pub page: String,
    /// Entry server name for the analyzed (remote) client.
    pub entry: String,
    /// Hop-weighted wide-area round trips in the call tree (HTTP envelope
    /// excluded); on a one-hop star this equals the plain WAN trip count.
    pub wan_round_trips: u32,
    /// The §4.2 budget that applies to this page.
    pub limit: u32,
    /// The page's staleness bound: the lattice join over its cached read
    /// sites (`fresh` when nothing is served from caches).
    pub staleness: String,
    /// Every node crossing on the synchronous path.
    pub crossings: Vec<CrossingNote>,
}

/// One row of the predicted fault-availability table.
#[derive(Debug, Clone)]
pub struct AvailabilityRow {
    /// Episode name (`main-link-partition`, …).
    pub episode: String,
    /// Predicted availability of the remote edge-1 group.
    pub availability: f64,
}

/// The result of analyzing one application × configuration.
#[derive(Debug, Clone)]
pub struct Report {
    /// Application name.
    pub app: String,
    /// Configuration name.
    pub config: String,
    /// Per-page wide-area cost summaries.
    pub pages: Vec<PageWanCost>,
    /// Findings, errors first.
    pub diagnostics: Vec<Diagnostic>,
    /// Predicted per-episode availability (empty without a fault context).
    pub availability: Vec<AvailabilityRow>,
    /// Worklist sweeps until the staleness dataflow reached fixpoint.
    pub staleness_iterations: u32,
    /// Whether the staleness dataflow converged within its iteration cap.
    pub staleness_converged: bool,
}

impl Report {
    /// Whether any error-severity diagnostic was found.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// The codes of all diagnostics, in report order.
    pub fn codes(&self) -> Vec<&'static str> {
        self.diagnostics.iter().map(|d| d.code).collect()
    }

    /// Sorts diagnostics into a byte-stable order — errors first, then by
    /// (code, node, page, path, component, message) — and drops exact
    /// duplicates, so repeated runs render identical output.
    pub fn sort_diagnostics(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            (
                a.severity,
                a.code,
                &a.node,
                &a.span.page,
                &a.span.path,
                &a.component,
                &a.message,
            )
                .cmp(&(
                    b.severity,
                    b.code,
                    &b.node,
                    &b.span.page,
                    &b.span.path,
                    &b.component,
                    &b.message,
                ))
        });
        self.diagnostics.dedup();
    }

    /// Renders the report in rustc-style plain text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "analyzing {} / {}", self.app, self.config);
        for d in &self.diagnostics {
            let _ = writeln!(out, "{}[{}]: {}", d.severity.label(), d.code, d.message);
            let loc = match &d.span.page {
                Some(page) if d.span.path.is_empty() => page.clone(),
                Some(page) => format!("{page}: {}", d.span.path),
                None => d.span.path.clone(),
            };
            let _ = writeln!(out, "  --> {}/{}: {loc}", self.app, self.config);
            if let Some(c) = &d.component {
                let _ = writeln!(out, "   = component: {c}");
            }
            if let Some(n) = &d.node {
                let _ = writeln!(out, "   = node: {n}");
            }
        }
        let errors = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        let warnings = self.diagnostics.len() - errors;
        let _ = writeln!(
            out,
            "{} page(s) analyzed, {errors} error(s), {warnings} warning(s)",
            self.pages.len()
        );
        for p in &self.pages {
            let _ = writeln!(
                out,
                "  {:<16} entry {:<6} WAN round trips {}/{}  staleness {}",
                p.page, p.entry, p.wan_round_trips, p.limit, p.staleness
            );
        }
        if !self.pages.is_empty() {
            let _ = writeln!(
                out,
                "staleness fixpoint: {} sweep(s){}",
                self.staleness_iterations,
                if self.staleness_converged {
                    ""
                } else {
                    " (DID NOT CONVERGE)"
                }
            );
        }
        for row in &self.availability {
            let _ = writeln!(
                out,
                "  predicted availability {:<20} {:.4}",
                row.episode, row.availability
            );
        }
        out
    }

    /// The report as a JSON object.
    pub fn to_json(&self) -> Json {
        let pages = self.pages.iter().map(|p| {
            let crossings = p.crossings.iter().map(|c| {
                Json::object([
                    ("from", c.from.as_str().into()),
                    ("to", c.to.as_str().into()),
                    ("kind", c.kind.as_str().into()),
                    ("trips", c.trips.into()),
                    ("wan", c.wan.into()),
                    ("wan_hops", c.wan_hops.into()),
                ])
            });
            Json::object([
                ("page", p.page.as_str().into()),
                ("entry", p.entry.as_str().into()),
                ("wan_round_trips", p.wan_round_trips.into()),
                ("limit", p.limit.into()),
                ("staleness", p.staleness.as_str().into()),
                ("crossings", Json::Array(crossings.collect())),
            ])
        });
        let availability = self.availability.iter().map(|row| {
            Json::object([
                ("episode", row.episode.as_str().into()),
                ("availability", Json::fixed(row.availability, 4)),
            ])
        });
        let diagnostics = self.diagnostics.iter().map(|d| {
            Json::object([
                ("code", d.code.into()),
                ("severity", d.severity.label().into()),
                ("message", d.message.as_str().into()),
                ("component", d.component.as_deref().into()),
                ("node", d.node.as_deref().into()),
                ("page", d.span.page.as_deref().into()),
                ("path", d.span.path.as_str().into()),
            ])
        });
        Json::object([
            ("app", self.app.as_str().into()),
            ("config", self.config.as_str().into()),
            ("pages", Json::Array(pages.collect())),
            ("availability", Json::Array(availability.collect())),
            ("staleness_iterations", self.staleness_iterations.into()),
            ("staleness_converged", self.staleness_converged.into()),
            ("diagnostics", Json::Array(diagnostics.collect())),
        ])
    }

    /// This report as a single-run SARIF 2.1.0 document.
    pub fn to_sarif(&self) -> Json {
        sarif_document(std::slice::from_ref(self))
    }

    /// This report's findings as a SARIF `run` object.
    fn sarif_run(&self) -> Json {
        let text = |text: &str| Json::object([("text", text.into())]);
        let rules = crate::explain::CODES.iter().map(|doc| {
            Json::object([
                ("id", doc.code.into()),
                ("shortDescription", text(doc.summary)),
                ("fullDescription", text(doc.explain)),
                ("helpUri", format!("paper:{}", doc.section).into()),
            ])
        });
        let results = self.diagnostics.iter().map(|d| {
            let location = match &d.span.page {
                Some(page) if d.span.path.is_empty() => {
                    format!("{}/{}/{page}", self.app, self.config)
                }
                Some(page) => format!("{}/{}/{page}: {}", self.app, self.config, d.span.path),
                None => format!("{}/{}: {}", self.app, self.config, d.span.path),
            };
            let logical = Json::object([("fullyQualifiedName", location.into())]);
            Json::object([
                ("ruleId", d.code.into()),
                ("level", d.severity.label().into()),
                ("message", text(&d.message)),
                (
                    "locations",
                    Json::Array(vec![Json::object([(
                        "logicalLocations",
                        Json::Array(vec![logical]),
                    )])]),
                ),
            ])
        });
        let driver = Json::object([
            ("name", "mutsvc-analyze".into()),
            ("informationUri", "https://github.com/mutsvc/mutsvc".into()),
            ("rules", Json::Array(rules.collect())),
        ]);
        Json::object([
            ("tool", Json::object([("driver", driver)])),
            ("results", Json::Array(results.collect())),
        ])
    }
}

/// A set of reports as one SARIF 2.1.0 document, one run per report — the
/// shape GitHub code-scanning ingests for PR annotations.
pub fn sarif_document(reports: &[Report]) -> Json {
    Json::object([
        (
            "$schema",
            "https://json.schemastore.org/sarif-2.1.0.json".into(),
        ),
        ("version", "2.1.0".into()),
        (
            "runs",
            Json::Array(reports.iter().map(Report::sarif_run).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            app: "petstore".into(),
            config: "remote-facade".into(),
            pages: vec![PageWanCost {
                page: "Item".into(),
                entry: "edge1".into(),
                wan_round_trips: 1,
                limit: 1,
                staleness: "fresh".into(),
                crossings: vec![CrossingNote {
                    from: "edge1".into(),
                    to: "main".into(),
                    kind: "rmi".into(),
                    trips: 1,
                    wan: true,
                    wan_hops: 1,
                }],
            }],
            diagnostics: vec![Diagnostic {
                code: "W103",
                severity: Severity::Warning,
                component: None,
                node: None,
                message: "stub \"caching\" disabled".into(),
                span: Span::descriptor("descriptor.stub_caching"),
            }],
            availability: vec![AvailabilityRow {
                episode: "main-link-partition".into(),
                availability: 0.9876,
            }],
            staleness_iterations: 2,
            staleness_converged: true,
        }
    }

    #[test]
    fn text_rendering_is_rustc_shaped() {
        let text = sample().render_text();
        assert!(text.contains("warning[W103]:"), "{text}");
        assert!(text.contains("--> petstore/remote-facade"), "{text}");
        assert!(
            text.contains("1 error(s)") || text.contains("0 error(s)"),
            "{text}"
        );
    }

    #[test]
    fn json_escapes_and_nests() {
        let json = sample().to_json().render();
        assert_eq!(Json::parse(&json).unwrap().render(), json);
        assert!(json.contains("\"code\":\"W103\""), "{json}");
        assert!(json.contains("stub \\\"caching\\\" disabled"), "{json}");
        assert!(json.contains("\"wan\":true"), "{json}");
        assert!(json.contains("\"component\":null"), "{json}");
    }

    #[test]
    fn sort_puts_errors_first() {
        let mut r = sample();
        r.diagnostics.push(Diagnostic {
            code: "E001",
            severity: Severity::Error,
            component: None,
            node: None,
            message: "x".into(),
            span: Span::default(),
        });
        r.sort_diagnostics();
        assert_eq!(r.diagnostics[0].code, "E001");
        assert!(r.has_errors());
        assert_eq!(r.codes(), vec!["E001", "W103"]);
    }

    #[test]
    fn sort_is_total_and_dedupes() {
        let mk = |code: &'static str, node: Option<&str>, page: Option<&str>| Diagnostic {
            code,
            severity: Severity::Warning,
            component: None,
            node: node.map(String::from),
            message: "m".into(),
            span: Span {
                page: page.map(String::from),
                path: String::new(),
            },
        };
        let mut r = sample();
        r.diagnostics = vec![
            mk("W105", Some("edge2"), Some("Item")),
            mk("W101", Some("edge1"), Some("Main")),
            mk("W101", Some("edge1"), Some("Main")), // exact duplicate
            mk("W101", Some("edge1"), Some("Item")),
        ];
        r.sort_diagnostics();
        let keys: Vec<_> = r
            .diagnostics
            .iter()
            .map(|d| (d.code, d.span.page.clone().unwrap()))
            .collect();
        assert_eq!(
            keys,
            vec![
                ("W101", "Item".to_string()),
                ("W101", "Main".to_string()),
                ("W105", "Item".to_string()),
            ],
            "sorted by (code, node, page) with duplicates dropped"
        );
        // Idempotent: a second sort changes nothing (byte stability).
        let before = r.render_text();
        r.sort_diagnostics();
        assert_eq!(before, r.render_text());
    }

    /// The value at a `/`-separated path of object keys and array indices.
    fn at<'a>(v: &'a Json, path: &str) -> &'a Json {
        path.split('/')
            .fold(v, |v, step| match step.parse::<usize>() {
                Ok(i) => &v.as_array().unwrap()[i],
                Err(_) => v.get(step).unwrap(),
            })
    }

    #[test]
    fn sarif_has_2_1_0_shape() {
        let sarif = sample().to_sarif();
        let text = sarif.render();
        assert_eq!(Json::parse(&text).unwrap().render(), text);
        // Document envelope.
        assert_eq!(
            at(&sarif, "$schema"),
            &Json::from("https://json.schemastore.org/sarif-2.1.0.json")
        );
        assert_eq!(at(&sarif, "version"), &Json::from("2.1.0"));
        // Tool driver with the full rule registry.
        assert_eq!(
            at(&sarif, "runs/0/tool/driver/name"),
            &Json::from("mutsvc-analyze")
        );
        let rules = at(&sarif, "runs/0/tool/driver/rules").as_array().unwrap();
        assert_eq!(rules.len(), crate::explain::CODES.len());
        for (rule, doc) in rules.iter().zip(crate::explain::CODES) {
            assert_eq!(at(rule, "id"), &Json::from(doc.code));
        }
        // Results reference rules by id with level and logical location.
        let result = at(&sarif, "runs/0/results/0");
        assert_eq!(at(result, "ruleId"), &Json::from("W103"));
        assert_eq!(at(result, "level"), &Json::from("warning"));
        assert_eq!(
            at(result, "locations/0/logicalLocations/0/fullyQualifiedName"),
            &Json::from("petstore/remote-facade: descriptor.stub_caching")
        );
        // Multi-report documents hold one run per report.
        let two = sarif_document(&[sample(), sample()]);
        assert_eq!(at(&two, "runs").as_array().unwrap().len(), 2);
    }

    #[test]
    fn text_renders_staleness_and_availability() {
        let text = sample().render_text();
        assert!(text.contains("staleness fresh"), "{text}");
        assert!(text.contains("staleness fixpoint: 2 sweep(s)"), "{text}");
        assert!(
            text.contains("predicted availability main-link-partition"),
            "{text}"
        );
        assert!(text.contains("0.9876"), "{text}");
        let json = sample().to_json();
        assert_eq!(at(&json, "pages/0/staleness"), &Json::from("fresh"));
        assert_eq!(at(&json, "pages/0/crossings/0/wan_hops"), &Json::from(1u32));
        assert_eq!(
            at(&json, "availability"),
            &Json::parse("[{\"episode\":\"main-link-partition\",\"availability\":0.9876}]")
                .unwrap()
        );
        assert_eq!(at(&json, "staleness_converged"), &Json::Bool(true));
    }
}

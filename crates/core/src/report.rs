//! Report generation: regenerates the paper's Tables 6/7 and Figures 7/8
//! from measured runs, renders side-by-side comparisons against the paper's
//! numbers, and validates the qualitative *shape* criteria listed in
//! `DESIGN.md` §5.

use mutsvc_desim::Summary;
use mutsvc_workload::ExperimentReport;

use crate::configs::Config;
use crate::experiment::AppKind;
use crate::paper::{paper_mean, PaperRow, PETSTORE_COLUMNS, RUBIS_COLUMNS, TABLE6, TABLE7};

/// The two remote client groups aggregated into the paper's single
/// "Remote" row.
pub const REMOTE_GROUPS: [&str; 2] = ["remote1", "remote2"];

/// Table metadata for an application.
pub fn columns_of(app: AppKind) -> &'static [(&'static str, &'static str)] {
    match app {
        AppKind::PetStore => &PETSTORE_COLUMNS,
        AppKind::Rubis => &RUBIS_COLUMNS,
    }
}

/// The paper reference table for an application.
pub fn paper_table_of(app: AppKind) -> &'static [PaperRow; 5] {
    match app {
        AppKind::PetStore => &TABLE6,
        AppKind::Rubis => &TABLE7,
    }
}

/// The table number an application's sweep reproduces.
pub fn table_number(app: AppKind) -> u32 {
    match app {
        AppKind::PetStore => 6,
        AppKind::Rubis => 7,
    }
}

/// The measured mean of one table cell (remote = both edge groups pooled).
pub fn measured_mean(
    report: &ExperimentReport,
    remote: bool,
    pattern: &str,
    page: &str,
) -> Option<f64> {
    if remote {
        report
            .stats
            .mean_ms_over_groups(&REMOTE_GROUPS, pattern, page)
    } else {
        report.stats.mean_ms("local", pattern, page)
    }
}

/// The summary behind one table cell: the local group's series, or both
/// edge groups' series merged — the population [`measured_mean`] pools.
fn measured_summary(
    report: &ExperimentReport,
    remote: bool,
    pattern: &str,
    page: &str,
) -> Option<Summary> {
    let groups: &[&str] = if remote { &REMOTE_GROUPS } else { &["local"] };
    groups
        .iter()
        .filter_map(|g| report.stats.series(g, pattern, page))
        .fold(None, |pooled: Option<Summary>, s| {
            let mut pooled = pooled.unwrap_or_default();
            pooled.merge(s);
            Some(pooled)
        })
}

/// The p95 of one table cell's samples (remote = both edge groups merged).
pub fn measured_p95(
    report: &ExperimentReport,
    remote: bool,
    pattern: &str,
    page: &str,
) -> Option<f64> {
    measured_summary(report, remote, pattern, page).map(|s| s.p95())
}

/// The cells of Table 6/7 or its p95 companion, in print order: per
/// configuration (in [`Config::all`] order) the local row then the remote
/// row, each column left to right. `value` reads one cell, as
/// [`measured_mean`] and [`measured_p95`] do.
///
/// `reports` must hold the five configurations in [`Config::all`] order.
pub fn table_cells(
    app: AppKind,
    reports: &[ExperimentReport],
    value: impl Fn(&ExperimentReport, bool, &str, &str) -> Option<f64>,
) -> Vec<Option<f64>> {
    let mut cells = Vec::new();
    for report in reports.iter().take(Config::all().len()) {
        for remote in [false, true] {
            for (pattern, page) in columns_of(app) {
                cells.push(value(report, remote, pattern, page));
            }
        }
    }
    cells
}

/// Renders [`table_cells`] as fixed-width text under `title`.
fn render_cells(app: AppKind, title: &str, cells: &[Option<f64>]) -> String {
    let columns = columns_of(app);
    let mut out = format!("{title}\n{:<18}{:>3}", "configuration", "");
    for (_, page) in columns {
        out.push_str(&format!("{:>9}", truncate(page, 8)));
    }
    out.push('\n');
    let rows = Config::all().into_iter().flat_map(|c| [(c, "L"), (c, "R")]);
    for ((config, side), row) in rows.zip(cells.chunks(columns.len())) {
        out.push_str(&format!("{:<18}{side:>3}", config.name()));
        for cell in row {
            match cell {
                Some(v) => out.push_str(&format!("{:>9.0}", v)),
                None => out.push_str(&format!("{:>9}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Renders the measured table (the paper's Table 6 or 7) as fixed-width text.
///
/// `reports` must hold the five configurations in [`Config::all`] order.
pub fn render_table(app: AppKind, reports: &[ExperimentReport]) -> String {
    let title = format!(
        "Table {}: average response times (ms), {} — measured",
        table_number(app),
        app.name()
    );
    render_cells(app, &title, &table_cells(app, reports, measured_mean))
}

/// Renders measured vs paper, cell by cell, with the measured/paper ratio.
pub fn render_comparison(app: AppKind, reports: &[ExperimentReport]) -> String {
    let columns = columns_of(app);
    let paper = paper_table_of(app);
    let mut out = String::new();
    out.push_str(&format!(
        "Table {} comparison ({}): measured ms / paper ms (ratio)\n",
        table_number(app),
        app.name()
    ));
    for (config, report) in Config::all().iter().zip(reports) {
        out.push_str(&format!("-- {} (§{})\n", config.name(), config.section()));
        for remote in [false, true] {
            out.push_str(&format!("  {:<7}", if remote { "remote" } else { "local" }));
            for (pattern, page) in columns {
                let measured = measured_mean(report, remote, pattern, page);
                let reference = paper_mean(paper, columns, *config, remote, pattern, page);
                match (measured, reference) {
                    (Some(m), Some(p)) if p > 0.0 => {
                        out.push_str(&format!(" {page}={m:.0}/{p:.0}({:.2})", m / p));
                    }
                    _ => out.push_str(&format!(" {page}=-")),
                }
            }
            out.push('\n');
        }
    }
    out
}

/// Renders the tail-latency companion to Table 6/7: per-page p95 response
/// times, the remote rows over both edge groups' merged summaries. The
/// paper reports means only; percentiles expose the blocking-push tail that
/// means smooth over.
pub fn render_percentiles(app: AppKind, reports: &[ExperimentReport]) -> String {
    let title = format!(
        "Table {}-p95: 95th-percentile response times (ms), {} — measured",
        table_number(app),
        app.name()
    );
    render_cells(app, &title, &table_cells(app, reports, measured_p95))
}

/// One bar of Figure 7/8: session-average response time of a client group.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureBar {
    /// Configuration.
    pub config: Config,
    /// "Local" or "Remote".
    pub locality: &'static str,
    /// "Browser", "Buyer" or "Bidder".
    pub pattern: String,
    /// Session-average response time in milliseconds.
    pub mean_ms: f64,
}

/// Computes the Figure 7 (Pet Store) or Figure 8 (RUBiS) series: for each
/// configuration, session-average response times of the four client groups.
pub fn figure_series(app: AppKind, reports: &[ExperimentReport]) -> Vec<FigureBar> {
    let transactional = match app {
        AppKind::PetStore => "Buyer",
        AppKind::Rubis => "Bidder",
    };
    let mut bars = Vec::new();
    for (config, report) in Config::all().iter().zip(reports) {
        for pattern in ["Browser", transactional] {
            if let Some(m) = report.stats.session_summary("local", pattern) {
                bars.push(FigureBar {
                    config: *config,
                    locality: "Local",
                    pattern: pattern.to_string(),
                    mean_ms: m.mean(),
                });
            }
            if let Some(m) = report
                .stats
                .session_mean_over_groups(&REMOTE_GROUPS, pattern)
            {
                bars.push(FigureBar {
                    config: *config,
                    locality: "Remote",
                    pattern: pattern.to_string(),
                    mean_ms: m,
                });
            }
        }
    }
    bars
}

/// Renders Figure 7/8 as a text bar chart.
pub fn render_figure(app: AppKind, reports: &[ExperimentReport]) -> String {
    let figure = match app {
        AppKind::PetStore => 7,
        AppKind::Rubis => 8,
    };
    let bars = figure_series(app, reports);
    let max = bars.iter().map(|b| b.mean_ms).fold(1.0, f64::max);
    let mut out = format!(
        "Figure {figure}: {} session average response times (ms)\n",
        app.name()
    );
    let groups: Vec<(&str, String)> = {
        let mut seen = Vec::new();
        for b in &bars {
            let key = (b.locality, b.pattern.clone());
            if !seen.contains(&key) {
                seen.push(key);
            }
        }
        seen
    };
    for (locality, pattern) in groups {
        out.push_str(&format!("{locality} {pattern}:\n"));
        for b in bars
            .iter()
            .filter(|b| b.locality == locality && b.pattern == pattern)
        {
            let width = ((b.mean_ms / max) * 50.0).round() as usize;
            out.push_str(&format!(
                "  {:<18} {:>6.0} |{}\n",
                b.config.name(),
                b.mean_ms,
                "#".repeat(width.max(1))
            ));
        }
    }
    out
}

fn truncate(s: &str, n: usize) -> &str {
    &s[..s.len().min(n)]
}

/// Fetches a cell, panicking with context when it was not measured.
fn cell(report: &ExperimentReport, remote: bool, pattern: &str, page: &str) -> f64 {
    measured_mean(report, remote, pattern, page).unwrap_or_else(|| {
        panic!(
            "no samples for {pattern}/{page} ({})",
            if remote { "remote" } else { "local" }
        )
    })
}

/// Validates the qualitative shape criteria of `DESIGN.md` §5 against a
/// five-configuration sweep. Returns human-readable violations (empty =
/// every criterion holds).
pub fn validate_shapes(app: AppKind, reports: &[ExperimentReport]) -> Vec<String> {
    assert_eq!(reports.len(), 5, "expected one report per configuration");
    let mut violations = Vec::new();
    let mut check = |ok: bool, msg: String| {
        if !ok {
            violations.push(msg);
        }
    };
    let (centralized, facade, caching, query, asynch) = (
        &reports[0],
        &reports[1],
        &reports[2],
        &reports[3],
        &reports[4],
    );

    match app {
        AppKind::PetStore => {
            // §4.1: the WAN adds ~400 ms (two round trips) to every page.
            let gap = cell(centralized, true, "Browser", "Item")
                - cell(centralized, false, "Browser", "Item");
            check(
                (330.0..520.0).contains(&gap),
                format!("centralized WAN gap {gap:.0}ms not ~400ms"),
            );
            // Redirect pages pay an extra WAN trip.
            let commit_gap = cell(centralized, true, "Buyer", "Commit")
                - cell(centralized, false, "Buyer", "Commit");
            check(
                commit_gap > 500.0,
                format!("centralized Commit gap {commit_gap:.0}ms not ~600ms"),
            );
            // §4.2: pure-session buyer pages become local.
            for page in ["SignIn", "Checkout", "PlaceOrder", "Billing", "SignOut"] {
                let v = cell(facade, true, "Buyer", page);
                check(
                    v < 120.0,
                    format!("facade remote {page} {v:.0}ms not local"),
                );
            }
            // §4.2: one-RMI pages sit well below centralized.
            check(
                cell(facade, true, "Browser", "Category")
                    < cell(centralized, true, "Browser", "Category"),
                "facade Category not better than centralized".into(),
            );
            // §4.2: VerifySignIn pays two RMIs.
            let verify = cell(facade, true, "Buyer", "VerifySignIn");
            check(
                verify > 400.0,
                format!("facade VerifySignIn {verify:.0}ms should stay ~2 RMIs"),
            );
            // §4.3: Item and Cart become local; writers start blocking.
            check(
                cell(caching, true, "Browser", "Item") < 120.0,
                "caching remote Item not local".into(),
            );
            check(
                cell(caching, true, "Buyer", "Cart") < 160.0,
                "caching remote Cart not local".into(),
            );
            check(
                cell(caching, true, "Buyer", "Commit") > cell(facade, true, "Buyer", "Commit"),
                "caching remote Commit should exceed facade (blocking push)".into(),
            );
            check(
                cell(caching, false, "Buyer", "Commit")
                    > cell(facade, false, "Buyer", "Commit") * 1.5,
                "caching local Commit should blow up (blocking push)".into(),
            );
            // §4.4: category/product become local; keyword search stays remote.
            check(
                cell(query, true, "Browser", "Category") < 120.0,
                "query-caching remote Category not local".into(),
            );
            check(
                cell(query, true, "Browser", "Product") < 120.0,
                "query-caching remote Product not local".into(),
            );
            check(
                cell(query, true, "Browser", "Search") > 300.0,
                "query-caching remote Search should stay remote".into(),
            );
            // §4.5: async recovers the writers.
            check(
                cell(asynch, true, "Buyer", "Commit") < cell(query, true, "Buyer", "Commit") / 1.4,
                "async remote Commit should undercut sync push".into(),
            );
            check(
                cell(asynch, false, "Buyer", "Commit")
                    < cell(query, false, "Buyer", "Commit") / 1.8,
                "async local Commit should undercut sync push".into(),
            );
            // Figures 7: remote browser collapses across the sweep.
            let remote_browser_start = centralized
                .stats
                .session_mean_over_groups(&REMOTE_GROUPS, "Browser")
                .unwrap();
            let remote_browser_end = asynch
                .stats
                .session_mean_over_groups(&REMOTE_GROUPS, "Browser")
                .unwrap();
            check(
                remote_browser_start > 400.0 && remote_browser_end < 130.0,
                format!(
                    "remote browser session {remote_browser_start:.0} -> {remote_browser_end:.0}"
                ),
            );
        }
        AppKind::Rubis => {
            // §4.1: the WAN gap.
            let gap = cell(centralized, true, "Browser", "Item")
                - cell(centralized, false, "Browser", "Item");
            check(
                (330.0..520.0).contains(&gap),
                format!("centralized WAN gap {gap:.0}ms"),
            );
            // §4.2: static pages become local at the edges.
            for (pattern, page) in [
                ("Browser", "Main"),
                ("Browser", "Browse"),
                ("Bidder", "PutBidAuth"),
                ("Bidder", "PutCommentAuth"),
            ] {
                let v = cell(facade, true, pattern, page);
                check(v < 30.0, format!("facade remote {page} {v:.0}ms not local"));
            }
            // §4.3: Item local; bidder writes degrade.
            check(
                cell(caching, true, "Browser", "Item") < 40.0,
                "caching remote Item not local".into(),
            );
            check(
                cell(caching, true, "Bidder", "StoreBid")
                    > cell(facade, true, "Bidder", "StoreBid"),
                "caching remote StoreBid should exceed facade".into(),
            );
            let bidder_facade = facade
                .stats
                .session_mean_over_groups(&REMOTE_GROUPS, "Bidder")
                .unwrap();
            let bidder_caching = caching
                .stats
                .session_mean_over_groups(&REMOTE_GROUPS, "Bidder")
                .unwrap();
            check(
                bidder_caching > bidder_facade,
                format!("bidder session should degrade with blocking push ({bidder_facade:.0} -> {bidder_caching:.0})"),
            );
            // §4.4: the "triumphal" result — every remote browse page local.
            for page in [
                "AllCategories",
                "AllRegions",
                "Region",
                "Category",
                "Category&Region",
                "Item",
                "Bids",
                "UserInfo",
            ] {
                let v = cell(query, true, "Browser", page);
                check(
                    v < 40.0,
                    format!("query-caching remote {page} {v:.0}ms not local"),
                );
            }
            // Forms served locally too.
            check(
                cell(query, true, "Bidder", "PutBidForm") < 40.0,
                "query-caching remote PutBidForm not local".into(),
            );
            // Writers still blocked.
            check(
                cell(query, true, "Bidder", "StoreBid") > 400.0,
                "query-caching remote StoreBid should block".into(),
            );
            // §4.5: async recovers the writers.
            check(
                cell(asynch, true, "Bidder", "StoreBid")
                    < cell(query, true, "Bidder", "StoreBid") / 1.3,
                "async remote StoreBid should undercut sync push".into(),
            );
            check(
                cell(asynch, false, "Bidder", "StoreBid")
                    < cell(query, false, "Bidder", "StoreBid") / 2.0,
                "async local StoreBid should undercut sync push".into(),
            );
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutsvc_desim::SimDuration;
    use mutsvc_workload::driver::BindCacheStats;
    use mutsvc_workload::WorkloadStats;

    /// A report carrying nothing but measured series.
    fn report_with(stats: WorkloadStats) -> ExperimentReport {
        ExperimentReport {
            config: Config::all()[0].name().to_string(),
            stats,
            bind_totals: Default::default(),
            staleness_ms: Summary::new(),
            cpu_utilization: Vec::new(),
            completed: 0,
            events_fired: 0,
            bind_cache: BindCacheStats::default(),
            shard_events: Vec::new(),
            trace: None,
            metrics: None,
            adaptive: None,
        }
    }

    #[test]
    fn percentile_table_pools_the_remote_groups() {
        let ms = SimDuration::from_millis;
        let mut stats = WorkloadStats::new();
        // One fast edge group, one whose tail is slow.
        for _ in 0..100 {
            stats.record("remote1", "Browser", "Main", ms(100));
        }
        for i in 0..100 {
            let v = if i < 90 { 200 } else { 1000 };
            stats.record("remote2", "Browser", "Main", ms(v));
        }
        let report = report_with(stats);
        let slow = report
            .stats
            .series("remote2", "Browser", "Main")
            .unwrap()
            .p95();
        let pooled = measured_summary(&report, true, "Browser", "Main").unwrap();
        assert_eq!(pooled.count(), 200);
        assert!(pooled.p95() < slow, "{} vs {slow}", pooled.p95());

        let table = render_percentiles(AppKind::PetStore, std::slice::from_ref(&report));
        let prefix = format!("{:<18}{:>3}", Config::all()[0].name(), "R");
        let row = table.lines().find(|l| l.starts_with(&prefix)).unwrap();
        // First column is Browser/Main; the rest were not measured.
        let cells: Vec<&str> = row[prefix.len()..].split_whitespace().collect();
        assert_eq!(cells[0], format!("{:.0}", pooled.p95()));
        assert!(cells[1..].iter().all(|&c| c == "-"), "{row}");
    }
}

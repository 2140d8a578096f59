//! Trace artifacts: per-page critical-path aggregation and exporters.
//!
//! The driver collects raw [`CompletedTrace`]s (desim layer, index-based
//! node ids). This module resolves them against the run's topology into
//! human-readable artifacts:
//!
//! * [`jsonl`] — the compact span log: one JSON object per span, traces in
//!   commit order, spans in creation order. Byte-identical across runs with
//!   the same seed and configuration (the determinism artifact).
//! * [`chrome_trace_json`] — Chrome `trace_event` JSON, loadable in
//!   Perfetto / `chrome://tracing`. Each request gets its own lane; each
//!   `Parallel` arm gets a sub-lane so `B`/`E` pairs nest properly.
//! * [`page_breakdown`] — the paper-table artifact: mean response time per
//!   page × client group, decomposed along the critical path into WAN
//!   propagation, serialization, queueing, server service and DB time, with
//!   both logical (binder-derived) and critical-path WAN round trips.

use mutsvc_desim::trace::{critical_path, CompletedTrace, PathBreakdown, Span, SpanKind};

/// A run's trace payload, resolved enough to export without the world.
#[derive(Debug)]
pub struct TraceData {
    /// Committed span trees in completion order.
    pub traces: Vec<CompletedTrace>,
    /// Node names by node index.
    pub node_names: Vec<String>,
    /// Link names by link index ("main->router", …).
    pub link_names: Vec<String>,
    /// Client-group names by group index.
    pub group_names: Vec<String>,
    /// Node index hosting the database.
    pub db_node: u32,
}

/// Mean critical-path decomposition of one page for one client group.
#[derive(Debug, Clone, PartialEq)]
pub struct PageTraceRow {
    /// Client group name.
    pub group: String,
    /// Page label.
    pub page: &'static str,
    /// Measured traces aggregated.
    pub count: u64,
    /// Mean response time (ms).
    pub mean_ms: f64,
    /// Mean WAN round trips per the binder's crossing list (static
    /// accounting; excludes sampled protocol chatter such as DGC pings).
    pub wan_rts_logical: f64,
    /// Mean WAN round trips observed on the critical path (includes
    /// protocol chatter; excludes off-path `Parallel` arms and forks).
    pub wan_rts_critical: f64,
    /// Mean WAN propagation on the critical path (ms).
    pub wan_propagation_ms: f64,
    /// Mean serialization time on the critical path (ms).
    pub serialization_ms: f64,
    /// Mean queueing (links + non-DB CPUs) on the critical path (ms).
    pub queueing_ms: f64,
    /// Mean non-DB CPU service on the critical path (ms).
    pub service_ms: f64,
    /// Mean DB time (service + queueing) on the critical path (ms).
    pub db_ms: f64,
    /// Mean pure-delay time on the critical path (ms).
    pub delay_ms: f64,
}

/// Aggregates measured traces into per-(group, page) critical-path rows,
/// sorted by group then page for deterministic output.
pub fn page_breakdown(data: &TraceData) -> Vec<PageTraceRow> {
    struct Acc {
        count: u64,
        duration_ms: f64,
        logical: f64,
        path: PathBreakdown,
    }
    let db = data.db_node;
    let mut keys: Vec<(u32, &'static str)> = Vec::new();
    let mut accs: Vec<Acc> = Vec::new();
    for trace in &data.traces {
        if !trace.meta.measured {
            continue;
        }
        let key = (trace.meta.group, trace.meta.label);
        let idx = match keys.iter().position(|&k| k == key) {
            Some(i) => i,
            None => {
                keys.push(key);
                accs.push(Acc {
                    count: 0,
                    duration_ms: 0.0,
                    logical: 0.0,
                    path: PathBreakdown::default(),
                });
                keys.len() - 1
            }
        };
        let bd = critical_path(trace, |n| n == db);
        let acc = &mut accs[idx];
        acc.count += 1;
        acc.duration_ms += trace.duration.as_millis_f64();
        acc.logical += if trace.meta.wan_rts_logical.is_finite() {
            trace.meta.wan_rts_logical
        } else {
            0.0
        };
        acc.path.accumulate(&bd);
    }
    let mut rows: Vec<PageTraceRow> = keys
        .iter()
        .zip(accs.iter())
        .map(|(&(group, page), acc)| {
            let n = acc.count as f64;
            PageTraceRow {
                group: data
                    .group_names
                    .get(group as usize)
                    .cloned()
                    .unwrap_or_else(|| format!("group{group}")),
                page,
                count: acc.count,
                mean_ms: acc.duration_ms / n,
                wan_rts_logical: acc.logical / n,
                wan_rts_critical: acc.path.wan_round_trips / n,
                wan_propagation_ms: acc.path.wan_propagation.as_millis_f64() / n,
                serialization_ms: acc.path.serialization.as_millis_f64() / n,
                queueing_ms: (acc.path.link_queueing + acc.path.cpu_queueing).as_millis_f64() / n,
                service_ms: acc.path.service.as_millis_f64() / n,
                db_ms: acc.path.db_time.as_millis_f64() / n,
                delay_ms: acc.path.delay.as_millis_f64() / n,
            }
        })
        .collect();
    rows.sort_by(|a, b| (&a.group, a.page).cmp(&(&b.group, b.page)));
    rows
}

fn esc(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn node_name(data: &TraceData, id: u32) -> String {
    data.node_names
        .get(id as usize)
        .cloned()
        .unwrap_or_else(|| format!("node{id}"))
}

fn link_name(data: &TraceData, id: u32) -> String {
    data.link_names
        .get(id as usize)
        .cloned()
        .unwrap_or_else(|| format!("link{id}"))
}

/// Renders the compact JSONL span log: one line per span, `\n`-terminated.
///
/// The request span's line carries the trace metadata (page, group, client
/// and entry nodes, logical WAN round trips); leaf lines carry their
/// kind-specific payload. Output is a pure function of the committed
/// traces, so identical seeds and configurations produce byte-identical
/// logs.
pub fn jsonl(data: &TraceData) -> String {
    let mut out = String::new();
    for trace in &data.traces {
        for span in &trace.spans {
            render_span_line(data, trace, span, &mut out);
            out.push('\n');
        }
    }
    out
}

fn render_span_line(data: &TraceData, trace: &CompletedTrace, span: &Span, out: &mut String) {
    out.push_str(&format!(
        "{{\"trace\":\"{:016x}\",\"span\":{},\"parent\":{},\"kind\":\"{}\",\"start_us\":{},\"end_us\":{}",
        trace.trace_id,
        span.id,
        span.parent as i64 as i32, // NO_PARENT (u32::MAX) prints as -1
        span.kind.label(),
        span.start.as_micros(),
        span.end.as_micros(),
    ));
    match span.kind {
        SpanKind::Request => {
            let meta = &trace.meta;
            out.push_str(&format!(
                ",\"page\":\"{}\",\"group\":\"",
                meta.label // page labels are static identifiers, no escaping needed
            ));
            esc(
                data.group_names
                    .get(meta.group as usize)
                    .map_or("?", String::as_str),
                out,
            );
            out.push_str(&format!(
                "\",\"client\":\"{}\",\"entry\":\"{}\",\"measured\":{},\"wan_rts_logical\":{}",
                node_name(data, meta.client),
                node_name(data, meta.entry),
                meta.measured,
                fmt_f64(meta.wan_rts_logical),
            ));
        }
        SpanKind::Cpu { node, service_us } => {
            out.push_str(&format!(
                ",\"node\":\"{}\",\"service_us\":{service_us}",
                node_name(data, node)
            ));
        }
        SpanKind::Hop {
            link,
            bytes,
            propagation_us,
            serialization_us,
            wan,
        } => {
            out.push_str(&format!(
                ",\"link\":\"{}\",\"bytes\":{bytes},\"prop_us\":{propagation_us},\"ser_us\":{serialization_us},\"wan\":{wan}",
                link_name(data, link)
            ));
        }
        SpanKind::Note { name, value } => {
            out.push_str(&format!(",\"note\":\"{name}\",\"value\":{value}"));
        }
        SpanKind::Fault { link, node } => {
            // u32::MAX marks "not the failing element" — a fault names either
            // the downed link or the crashed node, never both.
            if link != u32::MAX {
                out.push_str(&format!(",\"link\":\"{}\"", link_name(data, link)));
            }
            if node != u32::MAX {
                out.push_str(&format!(",\"node\":\"{}\"", node_name(data, node)));
            }
        }
        SpanKind::Retry { attempt, failover } => {
            out.push_str(&format!(",\"attempt\":{attempt},\"failover\":{failover}"));
        }
        SpanKind::Program | SpanKind::Branch | SpanKind::Delay => {}
    }
    out.push('}');
}

/// Renders Chrome `trace_event` JSON (the object form, `traceEvents` key),
/// loadable in Perfetto and `chrome://tracing`.
///
/// Lane assignment: each traced request gets its own `tid`, and each
/// `Parallel` arm (`Branch` span) gets a fresh sub-lane `tid`, so every
/// lane's `B`/`E` events are strictly nested. Timestamps are simulated
/// microseconds. At most `max_traces` traces are exported (0 = all) —
/// span logs stay complete via [`jsonl`]; the Chrome view is for eyeballs.
pub fn chrome_trace_json(data: &TraceData, max_traces: usize) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"mutsvc-sim\"}}",
    );
    let mut next_tid: u64 = 1;
    let take = if max_traces == 0 {
        data.traces.len()
    } else {
        max_traces.min(data.traces.len())
    };
    for trace in &data.traces[..take] {
        // children[i]: child span ids of span i, in creation order.
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); trace.spans.len()];
        for span in &trace.spans[1..] {
            children[span.parent as usize].push(span.id);
        }
        let lane = next_tid;
        next_tid += 1;
        out.push_str(&format!(
            ",\n{{\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\"name\":\"thread_name\",\"args\":{{\"name\":\"{} @",
            trace.meta.label
        ));
        esc(
            data.group_names
                .get(trace.meta.group as usize)
                .map_or("?", String::as_str),
            &mut out,
        );
        out.push_str("\"}}");
        emit_span(data, trace, &children, 0, lane, &mut next_tid, &mut out);
    }
    out.push_str("\n]}\n");
    out
}

fn span_display_name(data: &TraceData, trace: &CompletedTrace, span: &Span) -> String {
    match span.kind {
        SpanKind::Request => format!("{:016x} {}", trace.trace_id, trace.meta.label),
        SpanKind::Program => "program".to_string(),
        SpanKind::Branch => "branch".to_string(),
        SpanKind::Cpu { node, .. } => format!("cpu {}", node_name(data, node)),
        SpanKind::Hop { link, wan, .. } => format!(
            "{} {}",
            if wan { "wan hop" } else { "hop" },
            link_name(data, link)
        ),
        SpanKind::Delay => "delay".to_string(),
        SpanKind::Note { name, .. } => name.to_string(),
        SpanKind::Fault { link, node } => {
            if node != u32::MAX {
                format!("fault node {}", node_name(data, node))
            } else {
                format!("fault link {}", link_name(data, link))
            }
        }
        SpanKind::Retry { attempt, .. } => format!("retry #{attempt}"),
    }
}

fn emit_span(
    data: &TraceData,
    trace: &CompletedTrace,
    children: &[Vec<u32>],
    span_id: u32,
    tid: u64,
    next_tid: &mut u64,
    out: &mut String,
) {
    let span = &trace.spans[span_id as usize];
    if let SpanKind::Note { name, value } = span.kind {
        out.push_str(&format!(
            ",\n{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"name\":\"{name}\",\"args\":{{\"value\":{value}}}}}",
            span.start.as_micros()
        ));
        return;
    }
    let name = span_display_name(data, trace, span);
    out.push_str(&format!(
        ",\n{{\"ph\":\"B\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"name\":\"",
        span.start.as_micros()
    ));
    esc(&name, out);
    out.push('"');
    match span.kind {
        SpanKind::Request => {
            out.push_str(&format!(
                ",\"args\":{{\"wan_rts_logical\":{}}}",
                fmt_f64(trace.meta.wan_rts_logical)
            ));
        }
        SpanKind::Cpu { service_us, .. } => {
            out.push_str(&format!(",\"args\":{{\"service_us\":{service_us}}}"));
        }
        SpanKind::Hop {
            bytes,
            propagation_us,
            serialization_us,
            wan,
            ..
        } => {
            out.push_str(&format!(
                ",\"args\":{{\"bytes\":{bytes},\"prop_us\":{propagation_us},\"ser_us\":{serialization_us},\"wan\":{wan}}}"
            ));
        }
        SpanKind::Retry { attempt, failover } => {
            out.push_str(&format!(
                ",\"args\":{{\"attempt\":{attempt},\"failover\":{failover}}}"
            ));
        }
        _ => {}
    }
    out.push('}');
    for &child in &children[span_id as usize] {
        let child_span = &trace.spans[child as usize];
        let child_tid = if matches!(child_span.kind, SpanKind::Branch) {
            let t = *next_tid;
            *next_tid += 1;
            t
        } else {
            tid
        };
        emit_span(data, trace, children, child, child_tid, next_tid, out);
    }
    out.push_str(&format!(
        ",\n{{\"ph\":\"E\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"name\":\"",
        span.end.as_micros()
    ));
    esc(&name, out);
    out.push_str("\"}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutsvc_desim::trace::{TraceConfig, TraceMeta, Tracer};
    use mutsvc_desim::SimTime;

    fn sample_data() -> TraceData {
        let mut t = Tracer::new(TraceConfig::full());
        let us = SimTime::from_micros;
        let meta = TraceMeta {
            label: "Item",
            group: 1,
            client: 4,
            entry: 2,
            measured: true,
            wan_rts_logical: f64::NAN,
        };
        let root = t.start_request(us(10), meta).unwrap();
        let prog = t.open_span(root, us(10), SpanKind::Program);
        t.leaf(
            prog,
            us(10),
            us(20),
            SpanKind::Cpu {
                node: 2,
                service_us: 8,
            },
        );
        t.leaf(
            prog,
            us(20),
            us(120),
            SpanKind::Hop {
                link: 0,
                bytes: 512,
                propagation_us: 90,
                serialization_us: 5,
                wan: true,
            },
        );
        let b1 = t.open_span(prog, us(120), SpanKind::Branch);
        t.leaf(b1, us(120), us(130), SpanKind::Delay);
        t.close_span(b1, us(130));
        let b2 = t.open_span(prog, us(120), SpanKind::Branch);
        t.leaf(
            b2,
            us(120),
            us(145),
            SpanKind::Cpu {
                node: 7,
                service_us: 25,
            },
        );
        t.close_span(b2, us(145));
        t.note(prog, us(145), "fork", 3);
        t.close_span(prog, us(145));
        t.set_logical_wan(root, 1.0);
        t.finish_request(root, us(150));
        TraceData {
            traces: t.take_finished(),
            node_names: vec![
                "main".into(),
                "router".into(),
                "edge1".into(),
                "db".into(),
                "client-edge1".into(),
                "x5".into(),
                "x6".into(),
                "dbn".into(),
            ],
            link_names: vec!["edge1->router".into()],
            group_names: vec!["local".into(), "remote1".into()],
            db_node: 7,
        }
    }

    #[test]
    fn jsonl_is_one_line_per_span_with_meta() {
        let data = sample_data();
        let log = jsonl(&data);
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), data.traces[0].spans.len());
        assert!(lines[0].contains("\"kind\":\"request\""));
        assert!(lines[0].contains("\"page\":\"Item\""));
        assert!(lines[0].contains("\"group\":\"remote1\""));
        assert!(lines[0].contains("\"wan_rts_logical\":1"));
        assert!(lines[0].contains("\"parent\":-1"));
        assert!(log.contains("\"link\":\"edge1->router\""));
        assert!(log.contains("\"wan\":true"));
        assert!(log.contains("\"note\":\"fork\""));
        // Determinism: rendering is a pure function of the data.
        assert_eq!(log, jsonl(&data));
    }

    #[test]
    fn chrome_json_has_balanced_nested_be_pairs() {
        let data = sample_data();
        let json = chrome_trace_json(&data, 0);
        // Minimal structural check without a JSON parser: equal numbers of
        // B and E events, and per-tid nesting validated by a scan.
        let b_count = json.matches("\"ph\":\"B\"").count();
        let e_count = json.matches("\"ph\":\"E\"").count();
        assert_eq!(b_count, e_count);
        // request + program + cpu + hop + 2 branches + delay + branch-cpu
        assert_eq!(b_count, 8);
        assert!(json.contains("\"ph\":\"i\""), "fork note exported");
        assert!(json.contains("wan hop edge1->router"));
        assert!(json.ends_with("]}\n"));
        // Branch arms live on their own lanes.
        assert!(json.contains("\"tid\":2"));
        assert!(json.contains("\"tid\":3"));
    }

    #[test]
    fn page_breakdown_aggregates_measured_traces() {
        let data = sample_data();
        let rows = page_breakdown(&data);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.group, "remote1");
        assert_eq!(row.page, "Item");
        assert_eq!(row.count, 1);
        assert_eq!(row.wan_rts_logical, 1.0);
        assert_eq!(row.wan_rts_critical, 0.5);
        // db node is 7: the long branch's cpu is DB time.
        assert!((row.db_ms - 0.025).abs() < 1e-9);
        assert!((row.wan_propagation_ms - 0.09).abs() < 1e-9);
        assert!((row.mean_ms - 0.14).abs() < 1e-9);
    }
}

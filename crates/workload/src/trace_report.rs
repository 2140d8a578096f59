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
//!   `Parallel` arm gets a sub-lane so `B`/`E` pairs nest properly, which
//!   [`validate_chrome_trace`] checks on the parsed document.
//! * [`page_breakdown`] — the paper-table artifact: mean response time per
//!   page × client group, decomposed along the critical path into WAN
//!   propagation, serialization, queueing, server service and DB time, with
//!   both logical (binder-derived) and critical-path WAN round trips.

use std::collections::HashMap;

use mutsvc_desim::json::Json;
use mutsvc_desim::time::SimTime;
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

fn group_name(data: &TraceData, id: u32) -> &str {
    data.group_names
        .get(id as usize)
        .map_or("?", String::as_str)
}

/// Renders the compact JSONL span log: one line per span, `\n`-terminated.
///
/// The request span's line carries the trace metadata (page, group, client
/// and entry nodes, logical WAN round trips); leaf lines carry their
/// kind-specific payload. Output is a pure function of the committed
/// traces, so identical seeds and configurations produce byte-identical
/// logs.
pub fn jsonl(data: &TraceData) -> String {
    data.traces
        .iter()
        .flat_map(|trace| {
            trace
                .spans
                .iter()
                .map(move |span| span_json(data, trace, span).render())
        })
        .collect()
}

fn span_json(data: &TraceData, trace: &CompletedTrace, span: &Span) -> Json {
    let mut members = vec![
        ("trace", format!("{:016x}", trace.trace_id).into()),
        ("span", span.id.into()),
        ("parent", (span.parent as i64 as i32).into()), // NO_PARENT (u32::MAX) prints as -1
        ("kind", span.kind.label().into()),
        ("start_us", span.start.as_micros().into()),
        ("end_us", span.end.as_micros().into()),
    ];
    match span.kind {
        SpanKind::Request => {
            let meta = &trace.meta;
            members.extend([
                ("page", meta.label.into()),
                ("group", group_name(data, meta.group).into()),
                ("client", node_name(data, meta.client).into()),
                ("entry", node_name(data, meta.entry).into()),
                ("measured", meta.measured.into()),
            ]);
        }
        SpanKind::Cpu { node, .. } => members.push(("node", node_name(data, node).into())),
        SpanKind::Hop { link, .. } => members.push(("link", link_name(data, link).into())),
        SpanKind::Note { name, .. } => members.push(("note", name.into())),
        SpanKind::Fault { link, node } => {
            // u32::MAX marks "not the failing element" — a fault names either
            // the downed link or the crashed node, never both.
            if link != u32::MAX {
                members.push(("link", link_name(data, link).into()));
            }
            if node != u32::MAX {
                members.push(("node", node_name(data, node).into()));
            }
        }
        _ => {}
    }
    members.extend(payload(trace, span.kind));
    Json::object(members)
}

/// A span's measured payload: the last members of its span line, and the
/// `args` of its Chrome event.
fn payload(trace: &CompletedTrace, kind: SpanKind) -> Vec<(&'static str, Json)> {
    match kind {
        SpanKind::Request => vec![("wan_rts_logical", Json::float(trace.meta.wan_rts_logical))],
        SpanKind::Cpu { service_us, .. } => vec![("service_us", service_us.into())],
        SpanKind::Hop {
            bytes,
            propagation_us,
            serialization_us,
            wan,
            ..
        } => vec![
            ("bytes", bytes.into()),
            ("prop_us", propagation_us.into()),
            ("ser_us", serialization_us.into()),
            ("wan", wan.into()),
        ],
        SpanKind::Note { value, .. } => vec![("value", value.into())],
        SpanKind::Retry { attempt, failover } => {
            vec![("attempt", attempt.into()), ("failover", failover.into())]
        }
        SpanKind::Program | SpanKind::Branch | SpanKind::Delay | SpanKind::Fault { .. } => {
            Vec::new()
        }
    }
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
    let mut events = vec![Json::object([
        ("ph", "M".into()),
        ("pid", 1u32.into()),
        ("name", "process_name".into()),
        ("args", Json::object([("name", "mutsvc-sim".into())])),
    ])];
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
        let lane_name = format!(
            "{} @{}",
            trace.meta.label,
            group_name(data, trace.meta.group)
        );
        events.push(Json::object([
            ("ph", "M".into()),
            ("pid", 1u32.into()),
            ("tid", lane.into()),
            ("name", "thread_name".into()),
            ("args", Json::object([("name", lane_name.into())])),
        ]));
        emit_span(data, trace, &children, 0, lane, &mut next_tid, &mut events);
    }
    Json::object([
        ("displayTimeUnit", "ms".into()),
        ("traceEvents", Json::Array(events)),
    ])
    .render()
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

/// The members of a Chrome event of phase `ph` on lane `tid`.
fn lane_event(ph: &str, tid: u64, ts: SimTime, name: &str) -> Vec<(&'static str, Json)> {
    let mut event = vec![
        ("ph", ph.into()),
        ("pid", 1u32.into()),
        ("tid", tid.into()),
        ("ts", ts.as_micros().into()),
        ("name", name.into()),
    ];
    if ph == "i" {
        // Instant events are thread-scoped.
        event.insert(1, ("s", "t".into()));
    }
    event
}

fn emit_span(
    data: &TraceData,
    trace: &CompletedTrace,
    children: &[Vec<u32>],
    span_id: u32,
    tid: u64,
    next_tid: &mut u64,
    events: &mut Vec<Json>,
) {
    let span = &trace.spans[span_id as usize];
    let name = span_display_name(data, trace, span);
    let args = payload(trace, span.kind);
    // A note is an instant on its parent's lane; every other span opens a
    // `B`/`E` pair around its children.
    let note = matches!(span.kind, SpanKind::Note { .. });
    let mut begin = lane_event(if note { "i" } else { "B" }, tid, span.start, &name);
    if !args.is_empty() {
        begin.push(("args", Json::object(args)));
    }
    events.push(Json::object(begin));
    if note {
        return;
    }
    for &child in &children[span_id as usize] {
        let child_span = &trace.spans[child as usize];
        let child_tid = if matches!(child_span.kind, SpanKind::Branch) {
            let t = *next_tid;
            *next_tid += 1;
            t
        } else {
            tid
        };
        emit_span(data, trace, children, child, child_tid, next_tid, events);
    }
    events.push(Json::object(lane_event("E", tid, span.end, &name)));
}

/// Validates a Chrome `trace_event` document such as
/// [`chrome_trace_json`] renders, by parsing it: every instant and duration
/// event carries `ts`, and each lane's `B`/`E` events are balanced and
/// properly nested (matched by name, LIFO). Returns the number of `B`/`E`
/// pairs checked.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let doc = Json::parse(json)?;
    let mut stacks: HashMap<u64, Vec<&str>> = HashMap::new();
    let mut pairs = 0usize;
    for event in doc.get("traceEvents")?.as_array()? {
        let ph = event.get("ph")?.as_str()?;
        match ph {
            "M" => continue,
            "i" | "B" | "E" => event.get("ts")?.as_f64()?,
            other => return Err(format!("unknown ph {other:?}")),
        };
        if ph == "i" {
            continue;
        }
        let tid = event.get("tid")?.as_u64()?;
        let name = event.get("name")?.as_str()?;
        let stack = stacks.entry(tid).or_default();
        if ph == "B" {
            stack.push(name);
            continue;
        }
        match stack.pop() {
            Some(open) if open == name => pairs += 1,
            Some(open) => return Err(format!("E {name:?} closes B {open:?} on tid {tid}")),
            None => return Err(format!("E {name:?} with empty stack on tid {tid}")),
        }
    }
    if let Some((tid, stack)) = stacks.iter().find(|(_, stack)| !stack.is_empty()) {
        return Err(format!("tid {tid} left {} span(s) open", stack.len()));
    }
    if pairs == 0 {
        return Err("no B/E pairs found".into());
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutsvc_desim::trace::{TraceMeta, Tracer};

    fn sample_data() -> TraceData {
        let mut t = Tracer::new(1);
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
        let line = format!("{}\n", lines[0]);
        assert_eq!(Json::parse(&line).unwrap().render(), line);
        // Determinism: rendering is a pure function of the data.
        assert_eq!(log, jsonl(&data));
    }

    #[test]
    fn chrome_json_has_balanced_nested_be_pairs() {
        let data = sample_data();
        let json = chrome_trace_json(&data, 0);
        // request + program + cpu + hop + 2 branches + delay + branch-cpu
        assert_eq!(validate_chrome_trace(&json), Ok(8));
        assert_eq!(Json::parse(&json).unwrap().render(), json);
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

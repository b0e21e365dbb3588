//! Trace export: JSONL (one event per line) and Chrome-trace JSON readable
//! by `chrome://tracing` / Perfetto.  Hand-rolled like the rest of the
//! workspace's JSON output — every emitted string is a path, a phase name,
//! or a fixed key, so no escaping is required.

use std::fmt::Write as _;

use crate::event::{EventKind, LinkDownReason, ObsPath, TraceEvent};

fn push_common(out: &mut String, e: &TraceEvent) {
    let _ = write!(out, "{{\"party\":{},\"clock\":{},\"wall_ns\":{}", e.party, e.clock, e.wall_ns);
    if let Some(cause) = e.cause {
        let _ = write!(out, ",\"cause\":{cause}");
    }
}

fn push_kind(out: &mut String, kind: &EventKind) {
    match kind {
        EventKind::Activated { path } => {
            let _ = write!(out, ",\"ev\":\"activated\",\"path\":\"{path}\"");
        }
        EventKind::Decided { path } => {
            let _ = write!(out, ",\"ev\":\"decided\",\"path\":\"{path}\"");
        }
        EventKind::Phase { path, phase, info } => {
            let _ = write!(
                out,
                ",\"ev\":\"phase\",\"phase\":\"{}\",\"info\":{info},\"path\":\"{path}\"",
                phase.name()
            );
        }
        EventKind::Send { seq, from, to, bytes, path } => {
            let _ = write!(
                out,
                ",\"ev\":\"send\",\"seq\":{seq},\"from\":{from},\"to\":{to},\"bytes\":{bytes},\
                 \"path\":\"{path}\""
            );
        }
        EventKind::Deliver { seq, from, to } => {
            let _ = write!(out, ",\"ev\":\"deliver\",\"seq\":{seq},\"from\":{from},\"to\":{to}");
        }
        EventKind::Purge { seq } => {
            let _ = write!(out, ",\"ev\":\"purge\"");
            if let Some(seq) = seq {
                let _ = write!(out, ",\"seq\":{seq}");
            }
        }
        EventKind::Admission { session, admitted, forced, tokens, live } => {
            let _ = write!(
                out,
                ",\"ev\":\"admission\",\"session\":{session},\"admitted\":{admitted},\
                 \"forced\":{forced},\"live\":{live}"
            );
            if let Some(t) = tokens {
                let _ = write!(out, ",\"tokens\":{t}");
            }
        }
        EventKind::LinkUp { from, to } => {
            let _ = write!(out, ",\"ev\":\"link_up\",\"from\":{from},\"to\":{to}");
        }
        EventKind::LinkDown { from, to, reason } => {
            let reason = match reason {
                LinkDownReason::Cut => "cut",
                LinkDownReason::Error => "error",
            };
            let _ = write!(
                out,
                ",\"ev\":\"link_down\",\"from\":{from},\"to\":{to},\"reason\":\"{reason}\""
            );
        }
        EventKind::Redial { from, to } => {
            let _ = write!(out, ",\"ev\":\"redial\",\"from\":{from},\"to\":{to}");
        }
        EventKind::Fault { from, to, fault, seq } => {
            let _ = write!(
                out,
                ",\"ev\":\"fault\",\"from\":{from},\"to\":{to},\"fault\":\"{}\",\"seq\":{seq}",
                fault.name()
            );
        }
        EventKind::LinkSummary { from, to, sent, retransmitted, drops, redials, partitioned_ms } => {
            let _ = write!(
                out,
                ",\"ev\":\"link_summary\",\"from\":{from},\"to\":{to},\"sent\":{sent},\
                 \"retransmitted\":{retransmitted},\"drops\":{drops},\"redials\":{redials},\
                 \"partitioned_ms\":{partitioned_ms}"
            );
        }
    }
}

/// Renders a stream as JSONL: one self-contained JSON object per line, in
/// stream order.
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for e in events {
        push_common(&mut out, e);
        push_kind(&mut out, &e.kind);
        out.push_str("}\n");
    }
    out
}

/// The Chrome-trace timestamp of an event: wall microseconds when wall
/// stamping was on, else the delivery clock (deterministic traces render on
/// the delivery-clock timeline, which is the meaningful one anyway).
fn ts(e: &TraceEvent) -> u64 {
    if e.wall_ns > 0 { e.wall_ns / 1_000 } else { e.clock }
}

fn chrome_name(kind: &EventKind) -> String {
    match kind {
        EventKind::Activated { path } => format!("activate {path}"),
        EventKind::Decided { path } => format!("decide {path}"),
        EventKind::Phase { path, phase, info } => format!("{} #{info} {path}", phase.name()),
        EventKind::Send { .. } => "send".to_string(),
        EventKind::Deliver { .. } => "deliver".to_string(),
        EventKind::Purge { .. } => "purge".to_string(),
        EventKind::Admission { session, .. } => format!("admission #{session}"),
        EventKind::LinkUp { .. } => "link_up".to_string(),
        EventKind::LinkDown { .. } => "link_down".to_string(),
        EventKind::Redial { .. } => "redial".to_string(),
        EventKind::Fault { fault, .. } => format!("fault:{}", fault.name()),
        EventKind::LinkSummary { .. } => "link_summary".to_string(),
    }
}

fn chrome_track(kind: &EventKind) -> (&'static str, u64) {
    // tid groups a party's events into lanes: protocol spans, network flow,
    // transport links.
    match kind {
        EventKind::Activated { .. } | EventKind::Decided { .. } | EventKind::Phase { .. } => {
            ("protocol", 0)
        }
        EventKind::Send { .. } | EventKind::Deliver { .. } | EventKind::Purge { .. } => ("net", 1),
        EventKind::Admission { .. } => ("runtime", 2),
        _ => ("transport", 3),
    }
}

/// Renders a stream as a Chrome-trace JSON document (the "trace events"
/// array format): every trace event becomes an instant event on the owning
/// party's process track, with protocol / net / transport lanes as threads.
pub fn to_chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 128 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (lane, tid) = chrome_track(&e.kind);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{lane}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
             \"pid\":{},\"tid\":{tid}",
            chrome_name(&e.kind),
            ts(e),
            e.party,
        );
        out.push_str(",\"args\":{");
        let mut args = String::new();
        push_common(&mut args, e);
        push_kind(&mut args, &e.kind);
        // push_common opens an object; reuse its fields as the args body.
        out.push_str(&args[1..]);
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Renders the decided spans of a stream as Chrome-trace *complete* events
/// (`ph:"X"`), one per `(party, path)` with both an activation and a decide
/// marker — the span-level view of the same data [`to_chrome_trace`] shows
/// as instants.
pub fn spans_to_chrome_trace(events: &[TraceEvent]) -> String {
    use std::collections::BTreeMap;
    let mut opened: BTreeMap<(u16, ObsPath), u64> = BTreeMap::new();
    let mut out = String::with_capacity(256);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for e in events {
        match &e.kind {
            EventKind::Activated { path } => {
                opened.entry((e.party, *path)).or_insert_with(|| ts(e));
            }
            EventKind::Decided { path } => {
                if let Some(start) = opened.get(&(e.party, *path)) {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let end = ts(e);
                    let _ = write!(
                        out,
                        "{{\"name\":\"{path}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{start},\
                         \"dur\":{},\"pid\":{},\"tid\":{}}}",
                        end.saturating_sub(*start),
                        e.party,
                        path.depth(),
                    );
                }
            }
            _ => {}
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;

    fn sample() -> Vec<TraceEvent> {
        let path = ObsPath::from_segments(&[(0xFE, 0), (1, 2)]);
        vec![
            TraceEvent {
                party: 0,
                clock: 0,
                wall_ns: 0,
                cause: None,
                kind: EventKind::Activated { path },
            },
            TraceEvent {
                party: 0,
                clock: 3,
                wall_ns: 0,
                cause: Some(7),
                kind: EventKind::Phase { path, phase: Phase::AbaRound, info: 1 },
            },
            TraceEvent {
                party: 0,
                clock: 9,
                wall_ns: 0,
                cause: Some(11),
                kind: EventKind::Decided { path },
            },
        ]
    }

    #[test]
    fn jsonl_emits_one_valid_object_per_line() {
        let text = to_jsonl(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with('{') && lines[0].ends_with('}'));
        assert!(lines[1].contains("\"phase\":\"aba_round\""));
        assert!(lines[1].contains("\"cause\":7"));
        assert!(lines[1].contains("\"path\":\"/254:0/1:2\""));
        assert!(lines[2].contains("\"ev\":\"decided\""));
        // Balanced braces on every line (no strings contain braces).
        for line in lines {
            let open = line.matches('{').count();
            let close = line.matches('}').count();
            assert_eq!(open, close, "unbalanced line: {line}");
        }
    }

    #[test]
    fn chrome_trace_is_one_document_with_instants_and_spans() {
        let doc = to_chrome_trace(&sample());
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.ends_with("]}"));
        assert!(doc.contains("\"ph\":\"i\""));
        assert!(doc.contains("aba_round #1"));
        let spans = spans_to_chrome_trace(&sample());
        assert!(spans.contains("\"ph\":\"X\""));
        assert!(spans.contains("\"dur\":9"), "decide at clock 9, activate at 0: {spans}");
    }
}

//! Wall-clock span recording and chrome-tracing export.
//!
//! A [`SpanRecorder`] is owned by one thread (master or worker), stamps
//! events against a shared epoch `Instant`, and is folded into the run
//! snapshot when the thread finishes.  A recorder is unbounded, or — for
//! threads that live across many jobs — a ring of fixed capacity that
//! evicts its oldest event and counts the eviction.  [`write_chrome_trace`] serializes
//! a set of events in the Trace Event Format ("complete" events,
//! `ph: "X"`) readable by `chrome://tracing` and Perfetto.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::time::Instant;

use crate::json::Json;

/// One completed wall-clock interval.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Event name (e.g. `mode`, `assign`, `idle`).
    pub name: String,
    /// Category (e.g. `worker`, `master`, `comm`).
    pub cat: String,
    /// Process id to display under (0 for the master process).
    pub pid: u64,
    /// Thread/track id (worker rank).
    pub tid: u64,
    /// Start, microseconds since the run epoch.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Extra key/value arguments (e.g. `ik`, `k`).
    pub args: Vec<(String, String)>,
}

impl SpanEvent {
    /// The event as a chrome-tracing JSON object.
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("cat".into(), Json::Str(self.cat.clone())),
            ("ph".into(), Json::Str("X".into())),
            ("pid".into(), Json::Num(self.pid as f64)),
            ("tid".into(), Json::Num(self.tid as f64)),
            ("ts".into(), Json::Num(self.ts_us as f64)),
            ("dur".into(), Json::Num(self.dur_us as f64)),
        ];
        if !self.args.is_empty() {
            let args = self
                .args
                .iter()
                .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                .collect();
            obj.push(("args".into(), Json::Obj(args)));
        }
        Json::Obj(obj)
    }
}

/// Per-thread span collector stamping against a common epoch.
#[derive(Debug, Clone)]
pub struct SpanRecorder {
    epoch: Instant,
    pid: u64,
    tid: u64,
    events: VecDeque<SpanEvent>,
    /// Ring capacity; `None` keeps every event.
    capacity: Option<usize>,
    /// Events evicted from a full ring.
    dropped: u64,
}

impl SpanRecorder {
    /// A recorder for track (`pid`, `tid`) stamping against `epoch`.
    /// All recorders in a run must share the same epoch so their tracks
    /// align in the viewer.
    pub fn new(epoch: Instant, pid: u64, tid: u64) -> Self {
        Self {
            epoch,
            pid,
            tid,
            events: VecDeque::new(),
            capacity: None,
            dropped: 0,
        }
    }

    /// [`SpanRecorder::new`] as a ring keeping only the latest
    /// `capacity` events (at least one): recording into a full ring
    /// evicts the oldest event in O(1) and counts it in
    /// [`SpanRecorder::dropped`].
    pub fn bounded(epoch: Instant, pid: u64, tid: u64, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            events: VecDeque::with_capacity(capacity),
            capacity: Some(capacity),
            ..Self::new(epoch, pid, tid)
        }
    }

    /// Microseconds from the epoch to `t` (0 if `t` precedes it).
    fn us_since_epoch(&self, t: Instant) -> u64 {
        t.checked_duration_since(self.epoch)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0)
    }

    /// Record a completed interval `[start, end]`.  Recording is a no-op
    /// while telemetry is disabled.
    pub fn record(
        &mut self,
        name: &str,
        cat: &str,
        start: Instant,
        end: Instant,
        args: &[(&str, String)],
    ) {
        if !crate::enabled() {
            return;
        }
        let ts_us = self.us_since_epoch(start);
        let end_us = self.us_since_epoch(end);
        if self.capacity == Some(self.events.len()) {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(SpanEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            pid: self.pid,
            tid: self.tid,
            ts_us,
            dur_us: end_us.saturating_sub(ts_us),
            args: args
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        });
    }

    /// Number of events held (at most the capacity of a bounded ring).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events a bounded ring evicted to make room (always 0 for an
    /// unbounded recorder).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consume the recorder, yielding its events oldest first.
    pub fn into_events(self) -> Vec<SpanEvent> {
        self.events.into()
    }
}

/// Write `events` to `w` as a chrome-tracing JSON array of `ph: "X"`
/// complete events.  Load the resulting file in `chrome://tracing` or
/// `ui.perfetto.dev`.
pub fn write_chrome_trace<W: Write>(w: &mut W, events: &[SpanEvent]) -> io::Result<()> {
    writeln!(w, "[")?;
    for (i, ev) in events.iter().enumerate() {
        let sep = if i + 1 == events.len() { "" } else { "," };
        writeln!(w, "  {}{}", ev.to_json(), sep)?;
    }
    writeln!(w, "]")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn recorder_stamps_relative_to_epoch() {
        let epoch = Instant::now();
        let mut r = SpanRecorder::new(epoch, 0, 3);
        let start = epoch + Duration::from_micros(100);
        let end = epoch + Duration::from_micros(350);
        r.record("mode", "worker", start, end, &[("ik", "5".into())]);
        assert_eq!(r.len(), 1);
        let ev = &r.into_events()[0];
        assert_eq!(ev.ts_us, 100);
        assert_eq!(ev.dur_us, 250);
        assert_eq!(ev.tid, 3);
        assert_eq!(ev.args, vec![("ik".to_string(), "5".to_string())]);
    }

    #[test]
    fn bounded_ring_keeps_the_latest_events_in_order_and_counts_drops() {
        let epoch = Instant::now();
        let mut r = SpanRecorder::bounded(epoch, 0, 1, 4);
        for i in 0..10u64 {
            let start = epoch + Duration::from_micros(i);
            r.record("mode", "worker", start, start, &[("ik", i.to_string())]);
            assert_eq!(r.len(), (i as usize + 1).min(4));
            assert_eq!(r.dropped(), i.saturating_sub(3));
        }
        let ts: Vec<u64> = r.into_events().iter().map(|e| e.ts_us).collect();
        assert_eq!(ts, vec![6, 7, 8, 9], "oldest evicted first, order kept");

        // an unbounded recorder never drops
        let mut u = SpanRecorder::new(epoch, 0, 0);
        for _ in 0..100 {
            u.record("x", "test", epoch, epoch, &[]);
        }
        assert_eq!((u.len(), u.dropped()), (100, 0));
    }

    #[test]
    fn pre_epoch_start_saturates_to_zero() {
        let start = Instant::now();
        let epoch = start + Duration::from_micros(500);
        let mut r = SpanRecorder::new(epoch, 0, 0);
        r.record(
            "early",
            "test",
            start,
            epoch + Duration::from_micros(10),
            &[],
        );
        let ev = &r.into_events()[0];
        assert_eq!(ev.ts_us, 0);
        assert_eq!(ev.dur_us, 10);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_complete_events() {
        let events = vec![
            SpanEvent {
                name: "a".into(),
                cat: "worker".into(),
                pid: 0,
                tid: 1,
                ts_us: 0,
                dur_us: 10,
                args: vec![("k".into(), "0.01".into())],
            },
            SpanEvent {
                name: "b \"quoted\"".into(),
                cat: "master".into(),
                pid: 0,
                tid: 0,
                ts_us: 10,
                dur_us: 5,
                args: Vec::new(),
            },
        ];
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &events).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed = crate::json::parse(&text).unwrap();
        let arr = match parsed {
            Json::Arr(a) => a,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(arr.len(), 2);
        for ev in &arr {
            assert_eq!(ev.get("ph").and_then(Json::as_str), Some("X"));
            assert!(ev.get("pid").is_some());
            assert!(ev.get("tid").is_some());
            assert!(ev.get("ts").is_some());
            assert!(ev.get("dur").is_some());
        }
        assert_eq!(
            arr[1].get("name").and_then(Json::as_str),
            Some("b \"quoted\"")
        );
    }

    #[test]
    fn empty_trace_is_an_empty_array() {
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &[]).unwrap();
        let parsed = crate::json::parse(&String::from_utf8(buf).unwrap()).unwrap();
        assert_eq!(parsed, Json::Arr(Vec::new()));
    }
}

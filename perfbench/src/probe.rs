//! Layer probes placed around the program's public seams.
//!
//! [`Timed`] wraps one party's [`ProtocolInstance`].  Untraced, it records
//! only the decision's first activation and each party's decision instant.
//! Traced, it also times every `on_activation`, `on_message` and `output`
//! call and charges `on_message` to the crate the delivered envelope's
//! [`InstancePath`] routes to (mux routing, leaf decode and any crypto the
//! handler calls included).  [`TimedScheduler`] times the scheduler calls
//! the simulator makes.  What remains of a decision's wall time is the
//! simulator's own work (wire encoding and decoding, slab, metrics).

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use setupfree_net::{
    Envelope, InstancePath, PartyId, PendingInfo, ProtocolInstance, Scheduler, Step,
};

use crate::report::Metric;
use crate::stats;

/// The protocol crates handler time is charged to.
pub const CRATES: [&str; 9] = [
    "aba",
    "avss",
    "seeding",
    "wcs",
    "core.coin",
    "core.election",
    "rbc",
    "vba",
    "app.beacon",
];
pub const ABA: usize = 0;
const AVSS: usize = 1;
const SEEDING: usize = 2;
const WCS: usize = 3;
const COIN: usize = 4;
const ELECTION: usize = 5;
const RBC: usize = 6;
pub const VBA: usize = 7;
pub const BEACON: usize = 8;

/// The crate an envelope addressed to `path` is handled by, starting from
/// the crate of the party's root machine and following the public `K_*`
/// path kinds; segments below a leaf protocol stay in that leaf's crate.
pub fn classify(root: usize, path: &InstancePath) -> usize {
    use setupfree_core::{coin, election};
    let mut at = root;
    for seg in path.segments() {
        at = match (at, seg.kind) {
            (ABA, setupfree_aba::K_COIN) => COIN,
            (COIN, coin::K_SEEDING) => SEEDING,
            (COIN, coin::K_AVSS) => AVSS,
            (COIN, coin::K_WCS) => WCS,
            (COIN, coin::K_GATHER) => RBC,
            (ELECTION, election::K_COIN) => COIN,
            (ELECTION, election::K_RBC) => RBC,
            (ELECTION, election::K_ABA) => ABA,
            (VBA, setupfree_vba::K_ELECTION) => ELECTION,
            (VBA, setupfree_vba::K_VOTE_ABA) => ABA,
            (BEACON, setupfree_app::beacon::K_ELECTION) => ELECTION,
            _ => return at,
        };
    }
    at
}

/// Everything observed about one decision (one simulator instance).
#[derive(Debug, Clone, Default)]
pub struct Probe {
    pub decision: u64,
    /// Honest parties awaited; the decision is done when all have output.
    pub honest: usize,
    pub decided: usize,
    pub first_activation: Option<Instant>,
    /// The last awaited party's decision, and the process CPU time then.
    pub done: Option<Instant>,
    pub done_cpu_ms: Option<f64>,
    pub handler_ns: [u64; 9],
    pub handler_msgs: [u64; 9],
    /// First entry into and last exit from each crate's handlers.
    pub handler_span: [Option<(Instant, Instant)>; 9],
    pub poll_ns: u64,
    pub sched_ns: u64,
    pub picks: u64,
    /// When the simulator holding this decision was dropped, and the
    /// dropping thread's schedstat then (sharded runs only).
    pub closed: Option<(Instant, (u64, u64))>,
}

impl Probe {
    fn charge(&mut self, krate: usize, start: Instant, end: Instant, msgs: u64) {
        self.handler_ns[krate] += (end - start).as_nanos() as u64;
        self.handler_msgs[krate] += msgs;
        let span = self.handler_span[krate].get_or_insert((start, end));
        span.1 = end;
    }

    /// Decide latency: first activation to the last awaited decision.
    pub fn latency_ms(&self) -> Option<f64> {
        Some(stats::ms(self.done? - self.first_activation?))
    }
}

/// Where a sharded session's probe goes when its simulator is dropped on
/// the worker thread.
#[derive(Clone)]
pub struct Sink {
    pub closed: Arc<Mutex<Vec<Probe>>>,
    /// Set when decision 0 completes: the end of set-up.
    pub first_done: Arc<OnceLock<Instant>>,
}

/// A decision's probe, shared by its parties and scheduler.
pub struct ProbeRef {
    inner: Rc<RefCell<Probe>>,
    sink: Option<Sink>,
}

impl ProbeRef {
    pub fn new(decision: u64, honest: usize, sink: Option<Sink>) -> Self {
        let probe = Probe {
            decision,
            honest,
            ..Probe::default()
        };
        ProbeRef {
            inner: Rc::new(RefCell::new(probe)),
            sink,
        }
    }

    pub fn share(&self) -> Self {
        ProbeRef {
            inner: Rc::clone(&self.inner),
            sink: self.sink.clone(),
        }
    }

    pub fn snapshot(&self) -> Probe {
        self.inner.borrow().clone()
    }
}

impl Drop for ProbeRef {
    fn drop(&mut self) {
        if Rc::strong_count(&self.inner) != 1 {
            return;
        }
        if let Some(sink) = &self.sink {
            let mut probe = std::mem::take(&mut *self.inner.borrow_mut());
            probe.closed = Some((Instant::now(), stats::thread_schedstat()));
            // Never panic in drop: a poisoned sink only loses this probe.
            if let Ok(mut closed) = sink.closed.lock() {
                closed.push(probe);
            }
        }
    }
}

/// One party's machine with its timing probe around it.
pub struct Timed<P> {
    inner: P,
    root: usize,
    traced: bool,
    decided: Cell<bool>,
    probe: ProbeRef,
}

impl<P> Timed<P> {
    pub fn new(inner: P, root: usize, traced: bool, probe: ProbeRef) -> Self {
        Timed {
            inner,
            root,
            traced,
            decided: Cell::new(false),
            probe,
        }
    }
}

impl<P: ProtocolInstance<Message = Envelope>> ProtocolInstance for Timed<P> {
    type Message = Envelope;
    type Output = P::Output;

    fn on_activation(&mut self) -> Step<Envelope> {
        let start = Instant::now();
        self.probe
            .inner
            .borrow_mut()
            .first_activation
            .get_or_insert(start);
        let step = self.inner.on_activation();
        if self.traced {
            self.probe
                .inner
                .borrow_mut()
                .charge(self.root, start, Instant::now(), 0);
        }
        step
    }

    fn on_message(&mut self, from: PartyId, msg: Envelope) -> Step<Envelope> {
        if !self.traced {
            return self.inner.on_message(from, msg);
        }
        let krate = classify(self.root, &msg.path);
        let start = Instant::now();
        let step = self.inner.on_message(from, msg);
        self.probe
            .inner
            .borrow_mut()
            .charge(krate, start, Instant::now(), 1);
        step
    }

    fn output(&self) -> Option<P::Output> {
        let start = self.traced.then(Instant::now);
        let out = self.inner.output();
        if out.is_some() && !self.decided.get() {
            self.decided.set(true);
            let now = Instant::now();
            let mut p = self.probe.inner.borrow_mut();
            p.decided += 1;
            if p.decided == p.honest {
                p.done = Some(now);
                let (user, sys) = stats::process_cpu_ms();
                p.done_cpu_ms = Some(user + sys);
                if p.decision == 0 {
                    if let Some(sink) = &self.probe.sink {
                        let _ = sink.first_done.set(now);
                    }
                }
            }
        }
        if let Some(start) = start {
            self.probe.inner.borrow_mut().poll_ns += start.elapsed().as_nanos() as u64;
        }
        out
    }

    fn pre_activation_stats(&self) -> setupfree_net::BufferStats {
        self.inner.pre_activation_stats()
    }
}

/// The simulator's scheduler with its calls timed (traced pass only).
pub struct TimedScheduler<S> {
    inner: S,
    probe: ProbeRef,
}

impl<S> TimedScheduler<S> {
    pub fn new(inner: S, probe: ProbeRef) -> Self {
        TimedScheduler { inner, probe }
    }
}

impl<S: Scheduler> Scheduler for TimedScheduler<S> {
    fn on_enqueue(&mut self, info: PendingInfo) {
        let start = Instant::now();
        self.inner.on_enqueue(info);
        self.probe.inner.borrow_mut().sched_ns += start.elapsed().as_nanos() as u64;
    }

    fn select_next(&mut self) -> u64 {
        let start = Instant::now();
        let seq = self.inner.select_next();
        let mut p = self.probe.inner.borrow_mut();
        p.sched_ns += start.elapsed().as_nanos() as u64;
        p.picks += 1;
        seq
    }

    fn on_remove(&mut self, seq: u64) {
        let start = Instant::now();
        self.inner.on_remove(seq);
        self.probe.inner.borrow_mut().sched_ns += start.elapsed().as_nanos() as u64;
    }
}

/// One recorded span: a decision, or one layer's activity inside it (from
/// its first entry to its last exit, with the time actually spent inside
/// and the messages handled).  `decision` is `None` for a span covering a
/// whole run.
pub struct Span {
    pub decision: Option<u64>,
    pub name: String,
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub count: u64,
}

/// Per-layer totals over the decisions of a traced pass.
#[derive(Default)]
pub struct LayerTotals {
    pub decisions: u64,
    /// Sum of the decisions' decide spans.
    pub wall_ns: u64,
    pub deliveries: u64,
    pub handler_ns: [u64; 9],
    pub handler_msgs: [u64; 9],
    pub poll_ns: u64,
    pub sched_ns: u64,
    pub picks: u64,
    pub spans: Vec<Span>,
}

impl LayerTotals {
    /// Adds one decision; `origin` anchors the span timestamps.
    pub fn add(&mut self, p: &Probe, deliveries: u64, origin: Instant) {
        let (Some(start), Some(end)) = (p.first_activation, p.done) else {
            return;
        };
        let rel = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
        let wall = (end - start).as_nanos() as u64;
        self.decisions += 1;
        self.wall_ns += wall;
        self.deliveries += deliveries;
        for k in 0..CRATES.len() {
            self.handler_ns[k] += p.handler_ns[k];
            self.handler_msgs[k] += p.handler_msgs[k];
        }
        self.poll_ns += p.poll_ns;
        self.sched_ns += p.sched_ns;
        self.picks += p.picks;
        self.spans.push(Span {
            decision: Some(p.decision),
            name: "decide".into(),
            parent: "",
            start_ns: rel(start),
            end_ns: rel(end),
            busy_ns: wall,
            count: deliveries,
        });
        for (k, span) in p.handler_span.iter().enumerate() {
            if let Some((s, e)) = span {
                self.spans.push(Span {
                    decision: Some(p.decision),
                    name: CRATES[k].into(),
                    parent: "decide",
                    start_ns: rel(*s),
                    end_ns: rel(*e),
                    busy_ns: p.handler_ns[k],
                    count: p.handler_msgs[k],
                });
            }
        }
    }

    fn handler_total(&self) -> u64 {
        self.handler_ns.iter().sum()
    }

    /// Simulator self time: decide wall minus everything timed inside it.
    pub fn sim_self_ns(&self) -> i64 {
        self.wall_ns as i64 - (self.handler_total() + self.poll_ns + self.sched_ns) as i64
    }

    /// `X.us_per_msg` and `X.share` for every protocol crate, the share
    /// taken of `denominator_ns`; a crate no message was routed to is n/a.
    pub fn crate_metrics(&self, denominator_ns: f64, out: &mut Vec<Metric>) {
        for (k, name) in CRATES.iter().enumerate() {
            let msgs = self.handler_msgs[k];
            let active = msgs > 0;
            let per_msg = active.then(|| self.handler_ns[k] as f64 / msgs as f64 / 1e3);
            let share = active.then(|| self.handler_ns[k] as f64 / denominator_ns);
            out.push(crate::report::metric(
                format!("{name}.us_per_msg"),
                per_msg,
                "us",
            ));
            out.push(crate::report::metric(
                format!("{name}.share"),
                share,
                "ratio",
            ));
        }
    }

    /// The simulator and scheduler metrics of a simulator workload.
    pub fn sim_metrics(&self, out: &mut Vec<Metric>) {
        let wall = self.wall_ns as f64;
        let d = self.decisions.max(1) as f64;
        let sim_self = self.sim_self_ns() as f64;
        let m = crate::report::metric;
        out.push(m(
            "net.sim.deliveries_per_decision",
            Some(self.deliveries as f64 / d),
            "count",
        ));
        out.push(m(
            "net.sim.self_ns_per_delivery",
            Some(sim_self / self.deliveries.max(1) as f64),
            "ns",
        ));
        out.push(m("net.sim.self_share", Some(sim_self / wall), "ratio"));
        out.push(m(
            "net.sim.output_poll_share",
            Some(self.poll_ns as f64 / wall),
            "ratio",
        ));
        out.push(m(
            "net.scheduler.ns_per_pick",
            Some(self.sched_ns as f64 / self.picks.max(1) as f64),
            "ns",
        ));
        out.push(m(
            "net.scheduler.share",
            Some(self.sched_ns as f64 / wall),
            "ratio",
        ));
    }

    /// Layer-sum check: handler, output-poll, scheduler and simulator self
    /// time against the traced wall.  The simulator's share is what is left,
    /// so the check is that nothing was counted twice (it is never negative).
    pub fn sum_line(&self) -> String {
        let wall = self.wall_ns.max(1) as f64;
        let handlers = self.handler_total() as f64 / wall;
        let poll = self.poll_ns as f64 / wall;
        let sched = self.sched_ns as f64 / wall;
        let sim = self.sim_self_ns() as f64 / wall;
        format!(
            "layer sum over {} traced decisions: handlers {handlers:.4} + output poll {poll:.4} + \
             scheduler {sched:.4} + simulator self {sim:.4} = {:.4} of traced wall {:.1} ms",
            self.decisions,
            handlers + poll + sched + sim,
            self.wall_ns as f64 / 1e6
        )
    }

    pub fn write_spans(&self, path: Option<&str>, origin_label: &str) -> Option<String> {
        let path = path?;
        let mut text = format!(
            "# spans of the traced pass ({origin_label}); times in ns from the pass start\n\
             # decision\tname\tparent\tstart_ns\tend_ns\tbusy_ns\tcount\n"
        );
        for s in &self.spans {
            let decision = s
                .decision
                .map_or_else(|| "-".to_string(), |d| d.to_string());
            text.push_str(&format!(
                "{decision}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                s.name, s.parent, s.start_ns, s.end_ns, s.busy_ns, s.count
            ));
        }
        match std::fs::write(path, text) {
            Ok(()) => Some(format!("spans: {} written to {path}", self.spans.len())),
            Err(e) => Some(format!("spans: could not write {path}: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setupfree_net::PathSeg;

    #[test]
    fn paths_route_to_their_crates() {
        let p = |segs: &[(u8, usize)]| {
            let mut path = InstancePath::root();
            for &(k, i) in segs.iter().rev() {
                path.push_front(PathSeg::new(k, i));
            }
            path
        };
        assert_eq!(classify(ABA, &p(&[])), ABA);
        assert_eq!(classify(ABA, &p(&[(0, 1)])), COIN);
        assert_eq!(classify(ABA, &p(&[(0, 1), (1, 3)])), AVSS);
        assert_eq!(classify(ABA, &p(&[(0, 1), (0, 3)])), SEEDING);
        assert_eq!(classify(ABA, &p(&[(0, 1), (2, 0)])), WCS);
        assert_eq!(classify(VBA, &p(&[(1, 2), (0, 2)])), COIN);
        assert_eq!(classify(VBA, &p(&[(0, 2)])), ELECTION);
        assert_eq!(classify(BEACON, &p(&[(0, 5), (1, 2)])), RBC);
        assert_eq!(classify(BEACON, &p(&[(0, 5), (2, 0)])), ABA);
        assert_eq!(classify(BEACON, &p(&[(0, 5), (0, 0), (1, 4)])), AVSS);
    }
}

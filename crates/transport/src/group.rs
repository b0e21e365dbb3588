//! The loopback peer group: every party of a protocol run as a real
//! socket-backed peer — now with a hostile network underneath, if asked.
//!
//! [`TcpPeerGroup::run`] boots `n` peers inside one process, fully
//! connected over TCP loopback (one duplex connection per unordered pair),
//! and drives an unmodified [`ProtocolInstance`] per peer until the run
//! resolves — success, degraded success, structured failure — never a hang.
//!
//! # Thread model (mirrors the sharded runtime's worker seam)
//!
//! Per peer:
//!
//! * **one driver thread** owns the state machine for its whole life — the
//!   machines are deliberately not `Send`, so the factory closure is called
//!   *on* the driver thread, exactly like
//!   [`setupfree_runtime::SessionFactory`] sessions are built on their
//!   worker shard.  The driver takes everything queued in its bounded
//!   [`ShardQueue`] inbox under one lock ([`ShardQueue::pop_all`]), steps
//!   the machine on each `(from, envelope)` pair in turn, and offers the
//!   resulting envelopes to its per-destination [`Link`]s — encoding each
//!   multicast **once**.  Only when the batch is used up, just before it
//!   would block again, does it write: one socket write per link, carrying
//!   every frame offered since the last flush and the link's due ack;
//! * **one accept thread** owns the peer's listener for the whole run and
//!   completes the resume handshake for every inbound (re)connection;
//! * **one redial thread** dials every peer this one is the *dialer* for
//!   (the lower id always dials, so a redial never races an accept for the
//!   same pair) with exponential backoff, and reaps accept-side links
//!   whose dialer has been gone too long.  The accept and redial threads
//!   poll only while one of their links is not up; otherwise they sleep
//!   until a link goes down or the run ends;
//! * **one reader thread per live connection** turns the byte stream back
//!   into envelopes, enforces per-link sequencing (duplicates dropped, a
//!   gap ends the connection), applies the fault plan's receive delay, and
//!   pushes every frame already in its read buffer into the inbox under
//!   one lock ([`ShardQueue::push_all`]); a full inbox blocks the reader,
//!   which backpressures the sender through TCP.  Readers never write: the
//!   acks they make due ride the driver's next flush.
//!
//! Self-addressed messages never touch a socket: the driver loops them
//! through a local queue, sharing the payload just like the simulator,
//! and hands each message's self-addressed output to the machine before
//! the next message of the batch.
//!
//! # Resilience semantics
//!
//! Every ordered link runs the [`reconnect`](crate::reconnect) state
//! machine: a failed or fault-injected write severs the connection and
//! parks traffic in a bounded outbox; the redial loop re-establishes it
//! (resume hello + cumulative acks guarantee exactly-once, in-order
//! delivery across the cut); a link whose retry budget or death timer
//! expires goes `Dead`, and further traffic to it is *dropped* — the
//! asynchronous model's "messages to a crashed party are lost", observed
//! for real.  A [`LinkFaultPlan`] makes the hostility deterministic and
//! replayable.
//!
//! # Termination and degradation
//!
//! The coordinator (the calling thread) sleeps until a driver decides or
//! exits, or the deadline passes, and resolves the run as:
//!
//! * **success** — every peer decided;
//! * **degraded success** — every *surviving* peer decided, and the peers
//!   that died undecided number at most the crash budget (default
//!   `f = (n−1)/3`, the model's fault tolerance).  The dead are listed in
//!   [`SocketRunReport::degraded`];
//! * [`TransportFailure::PeerStopped`] — more peers died than the budget
//!   tolerates (a budget of 0 restores PR 6's fail-fast);
//! * [`TransportFailure::Timeout`] — the deadline passed, undecided peers
//!   named.
//!
//! Teardown then closes all inboxes and shuts down every socket ever
//! created, which provably unwedges each blocked thread: `pop_all` returns
//! `false`, reads return EOF, writes error out, the handshake runs on a
//! short timeout, and the accept and redial threads are woken to see the
//! shutdown.  No path waits on a peer that will never speak again.

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use setupfree_net::{BoxedParty, Dest, Envelope, PartyId, ProtocolInstance, Step};
use setupfree_obs::{EventKind, FaultKind, LinkDownReason, SharedCollector, TraceEvent};
use setupfree_runtime::ShardQueue;

use crate::chaos::LinkFaultPlan;
use crate::framing::{
    encode_envelope, holds_frame, read_frame, read_hello, read_hello_ack, write_hello,
    write_hello_ack, Frame, Hello,
};
use crate::reconnect::{DownSignal, Link, LinkStats, LinkStatus};

/// The per-peer inbox bound.  Large enough that transient bursts ride
/// in memory, small enough that a stalled peer backpressures its senders
/// through TCP instead of ballooning the heap.
pub const DEFAULT_INBOX_CAPACITY: usize = 4096;

/// Default wall-clock deadline for a run.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(60);

/// Read timeout covering the resume handshake only — long enough for a
/// loaded loopback exchange, short enough that a half-open dial (a crashed
/// peer's backlog, a stray connection) cannot wedge an accept or redial
/// thread past teardown.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_millis(500);

/// Poll interval of the accept and redial loops while one of their links
/// is not up.
const POLL: Duration = Duration::from_millis(1);

/// Why a socket run failed (success — possibly degraded — is the absence
/// of a failure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportFailure {
    /// The deadline passed with peers still undecided.  The run was torn
    /// down; nobody is left blocked.
    Timeout {
        /// How long the coordinator waited.
        waited_ms: u64,
        /// The peers that had not produced an output.
        undecided: Vec<usize>,
    },
    /// More peers stopped undecided than the crash budget tolerates — a
    /// disconnect beyond `f`, a poisoned machine (panic payload in
    /// `message`), or fail-fast mode (`crash_budget(0)`) observing its
    /// first death.
    PeerStopped {
        /// The first peer over budget.
        peer: usize,
        /// The driver's panic payload, when it panicked rather than exited.
        message: Option<String>,
    },
}

impl fmt::Display for TransportFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportFailure::Timeout { waited_ms, undecided } => {
                write!(f, "timed out after {waited_ms} ms with peers {undecided:?} undecided")
            }
            TransportFailure::PeerStopped { peer, message: Some(m) } => {
                write!(f, "peer {peer} died: {m}")
            }
            TransportFailure::PeerStopped { peer, message: None } => {
                write!(f, "peer {peer} stopped without deciding")
            }
        }
    }
}

/// A peer's health at teardown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerHealth {
    /// Decided (or still running) with every link up.
    Alive,
    /// At least one of the peer's links was mid-recovery when the run
    /// ended (severed, redialing, or given up) — typical for survivors of
    /// a degraded run, whose links to the dead peer never come back.
    Reconnecting,
    /// The peer's driver exited without deciding — crash-stopped.
    Dead,
}

/// Per-peer traffic counters (socket traffic only — self-deliveries bypass
/// the sockets by design and are not counted).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PeerStats {
    /// Data frames written to peer sockets, retransmissions included (a
    /// multicast counts once per destination, matching the simulator's
    /// per-message accounting; transport-internal acks are *not* counted).
    pub sent_envelopes: u64,
    /// Data-frame bytes written (frame headers included).
    pub sent_bytes: u64,
    /// Envelopes received off the sockets and delivered to the machine.
    pub received_envelopes: u64,
    /// Frames abandoned because their link was `Dead` or its outbox
    /// overflowed — the asynchronous model's "messages to a crashed party
    /// are lost", observed for real.
    pub dropped_sends: u64,
    /// Highest occupancy the peer's inbox ever reached (capacity means the
    /// reader threads actually exercised backpressure).
    pub inbox_high_water: usize,
    /// Per-destination link counters (`links[j]` is this peer's ordered
    /// link *to* `j`; the self entry is all zeros).
    pub links: Vec<LinkStats>,
}

/// The outcome of one [`TcpPeerGroup::run`].
#[derive(Debug, Clone)]
pub struct SocketRunReport<O> {
    /// Each peer's output (`None` for peers that never decided).
    pub outputs: Vec<Option<O>>,
    /// Each peer's socket-traffic counters.
    pub peers: Vec<PeerStats>,
    /// Each peer's health at teardown.
    pub health: Vec<PeerHealth>,
    /// Peers that crash-stopped undecided on a *successful* run (at most
    /// the crash budget; empty on a clean success and on failures).
    pub degraded: Vec<usize>,
    /// Wall-clock time from first activation to teardown.
    pub wall: Duration,
    /// `None` on success; the structured reason otherwise.
    pub failure: Option<TransportFailure>,
    /// The run's trace stream ([`TcpPeerGroup::traced`] runs only; empty
    /// otherwise): link lifecycle, chaos fault injections, end-of-run
    /// [`EventKind::LinkSummary`] per active link, and every protocol-level
    /// event the driver threads emitted — all wall-stamped against one
    /// shared origin and sorted by it.
    pub trace: Vec<TraceEvent>,
}

impl<O> SocketRunReport<O> {
    /// `true` when the run succeeded and every peer decided (a degraded
    /// success is *not* `all_decided` — see
    /// [`surviving_decided`](Self::surviving_decided)).
    pub fn all_decided(&self) -> bool {
        self.failure.is_none() && self.outputs.iter().all(|o| o.is_some())
    }

    /// `true` when the run succeeded and every peer outside
    /// [`degraded`](Self::degraded) decided — the liveness the model
    /// actually promises with ≤ f crash-stops.
    pub fn surviving_decided(&self) -> bool {
        self.failure.is_none()
            && self
                .outputs
                .iter()
                .enumerate()
                .all(|(i, o)| o.is_some() || self.degraded.contains(&i))
    }

    /// `true` when every peer that decided decided the *same* value.
    pub fn agreed(&self) -> bool
    where
        O: PartialEq,
    {
        let vals: Vec<&O> = self.outputs.iter().flatten().collect();
        vals.windows(2).all(|w| w[0] == w[1])
    }

    /// Total data frames written to sockets across all peers.
    pub fn total_sent_envelopes(&self) -> u64 {
        self.peers.iter().map(|p| p.sent_envelopes).sum()
    }

    /// Total data-frame bytes written to sockets across all peers.
    pub fn total_sent_bytes(&self) -> u64 {
        self.peers.iter().map(|p| p.sent_bytes).sum()
    }

    /// Total frames replayed by the retransmission path across all links.
    pub fn total_retransmitted(&self) -> u64 {
        self.peers.iter().flat_map(|p| &p.links).map(|l| l.retransmitted).sum()
    }

    /// Total successful redials across all links.
    pub fn total_redials(&self) -> u64 {
        self.peers.iter().flat_map(|p| &p.links).map(|l| l.redials).sum()
    }

    /// Total frames eaten by the fault injector across all links.
    pub fn total_drops_injected(&self) -> u64 {
        self.peers.iter().flat_map(|p| &p.links).map(|l| l.drops_injected).sum()
    }

    /// Total data frames refused for a sequence gap across all links —
    /// zero on any run whose peers follow the resume protocol.
    pub fn total_seq_gaps(&self) -> u64 {
        self.peers.iter().flat_map(|p| &p.links).map(|l| l.seq_gaps).sum()
    }

    /// The ordered link `from → to`'s counters.
    pub fn link(&self, from: usize, to: usize) -> &LinkStats {
        &self.peers[from].links[to]
    }

    /// Asserts the per-link conservation law on a quiescent run: every
    /// frame `from` offered to `to` was delivered at `to`, abandoned
    /// (`dropped`), or still parked — nothing vanished, nothing was
    /// double-delivered.  Call this only for protocols that are silent
    /// after deciding (teardown on a chattering protocol catches frames
    /// mid-flight, which is in-flight loss, not a transport bug).
    pub fn assert_conservation(&self) {
        for from in 0..self.peers.len() {
            for to in 0..self.peers.len() {
                if from == to {
                    continue;
                }
                let out = self.link(from, to);
                let inbound = self.link(to, from);
                assert_eq!(
                    out.offered,
                    inbound.delivered + out.dropped + out.parked,
                    "conservation violated on link {from} → {to}: \
                     offered {} != delivered {} + dropped {} + parked {}",
                    out.offered,
                    inbound.delivered,
                    out.dropped,
                    out.parked
                );
            }
        }
    }
}

/// Builder/harness for an `n`-peer loopback group.
#[derive(Debug, Clone)]
pub struct TcpPeerGroup {
    n: usize,
    timeout: Duration,
    disconnect_after: Vec<Option<u64>>,
    chaos: LinkFaultPlan,
    crash_budget: Option<usize>,
    traced: bool,
}

impl TcpPeerGroup {
    /// A group of `n` peers with the default timeout, crash budget
    /// `f = (n−1)/3`, and no fault plan.  Every inbox holds
    /// [`DEFAULT_INBOX_CAPACITY`] envelopes, and every link redials and
    /// retransmits on the [`reconnect`](crate::reconnect) module's fixed
    /// schedule.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "a peer group needs at least two peers");
        TcpPeerGroup {
            n,
            timeout: DEFAULT_TIMEOUT,
            disconnect_after: vec![None; n],
            chaos: LinkFaultPlan::default(),
            crash_budget: None,
            traced: false,
        }
    }

    /// Enables trace collection for the run: link lifecycle (up / down /
    /// redial), chaos fault injections, end-of-run link summaries, and the
    /// protocol-level events each driver thread's machine emits are folded
    /// into one wall-stamped stream on [`SocketRunReport::trace`].
    pub fn traced(mut self) -> Self {
        self.traced = true;
        self
    }

    /// Replaces the run deadline.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Installs a deterministic link-fault schedule for the run.
    pub fn chaos(mut self, plan: LinkFaultPlan) -> Self {
        self.chaos = plan;
        self
    }

    /// How many peers may crash-stop undecided before the run is declared
    /// failed.  Defaults to the model's `f = (n−1)/3`; `0` restores the
    /// PR 6 fail-fast behaviour (first death → `PeerStopped`).
    pub fn crash_budget(mut self, budget: usize) -> Self {
        self.crash_budget = Some(budget);
        self
    }

    /// Fault injection: `peer` gives up all of its links and exits after
    /// delivering `deliveries` socket envelopes to its machine — a real
    /// mid-protocol crash-stop.  Within the crash budget the run proceeds
    /// degraded; beyond it, [`TransportFailure::PeerStopped`].
    pub fn disconnect_after(mut self, peer: usize, deliveries: u64) -> Self {
        self.disconnect_after[peer] = Some(deliveries);
        self
    }

    /// Boots the group and runs `factory(i)`'s machine on peer `i` until
    /// every surviving peer decides, the crash budget is exceeded, or the
    /// deadline passes.
    ///
    /// `Err` is reserved for *environment* failures binding the loopback
    /// listeners; once the peers are up, every outcome — crashes, cuts,
    /// partitions, timeouts — terminates and comes back as a
    /// [`SocketRunReport`].
    pub fn run<O, F>(&self, factory: F) -> io::Result<SocketRunReport<O>>
    where
        O: Clone + fmt::Debug + Send,
        F: Fn(usize) -> BoxedParty<Envelope, O> + Sync,
    {
        let n = self.n;
        let listeners: Vec<TcpListener> =
            (0..n).map(|_| TcpListener::bind("127.0.0.1:0")).collect::<io::Result<_>>()?;
        let addrs: Vec<SocketAddr> =
            listeners.iter().map(|l| l.local_addr()).collect::<io::Result<_>>()?;

        let down = Arc::new(DownSignal::default());
        let mesh = Mesh {
            n,
            nonce: fresh_nonce(),
            addrs,
            links: (0..n)
                .map(|i| {
                    (0..n).map(|j| (i != j).then(|| Arc::new(Link::new(down.clone())))).collect()
                })
                .collect(),
            down,
            inboxes: (0..n).map(|_| ShardQueue::new(DEFAULT_INBOX_CAPACITY)).collect(),
            plan: self.chaos.clone(),
            start: Instant::now(),
            shutdown: AtomicBool::new(false),
            peer_down: (0..n).map(|_| AtomicBool::new(false)).collect(),
            streams: Mutex::new(Vec::new()),
            collector: self.traced.then(SharedCollector::new),
        };
        let mesh = &mesh;

        let board = Board {
            standing: Mutex::new(Standing { outputs: vec![None; n], exited: vec![false; n] }),
            changed: Condvar::new(),
        };
        let factory = &factory;
        let budget = self.crash_budget.unwrap_or((n - 1) / 3);

        let mut peers: Vec<PeerStats> = vec![PeerStats::default(); n];
        let mut failure: Option<TransportFailure> = None;
        let mut degraded: Vec<usize> = Vec::new();
        let mut statuses: Vec<Vec<LinkStatus>> = vec![vec![LinkStatus::Up; n]; n];

        thread::scope(|scope| {
            // Connection plumbing: every link starts `Reconnecting`, and the
            // accept + redial threads wire the initial mesh through the same
            // resume path later recoveries use.
            for (i, listener) in listeners.into_iter().enumerate() {
                scope.spawn(move || mesh.accept_loop(scope, i, listener));
                scope.spawn(move || mesh.redial_loop(scope, i));
            }

            let mut drivers = Vec::with_capacity(n);
            for i in 0..n {
                let board = &board;
                let disconnect_after = self.disconnect_after[i];
                let stopped = move |delivered| disconnect_after.is_some_and(|l| delivered >= l);
                drivers.push(scope.spawn(move || {
                    // However the driver ends, a panic included, the
                    // coordinator hears of it at once.
                    let _exit = ExitNotice { board, peer: i };
                    // Traced runs install a handle to the shared collector on
                    // this thread, wall-stamped against the run's one origin,
                    // so the machine's own phase/decide emissions land in the
                    // same stream as the mesh's link events.
                    let traced = mesh.collector.is_some();
                    if let Some(c) = &mesh.collector {
                        setupfree_obs::install_with_wall(c.sink(), mesh.start);
                        setupfree_obs::begin_activation(i as u16, 0);
                    }
                    // The machine is built *here*, on its driver thread, and
                    // never leaves it.
                    let mut sender = PeerSender::new(mesh, i);
                    let mut machine = factory(i);
                    sender.dispatch(machine.on_activation());
                    sender.loop_back(&mut machine);
                    let mut batch = VecDeque::new();
                    let mut delivered = 0u64;
                    let mut decided = false;
                    loop {
                        // The batch is used up: write once per link before
                        // blocking for the next one.
                        sender.flush();
                        if !decided {
                            if let Some(out) = machine.output() {
                                decided = true;
                                board.update(|s| s.outputs[i] = Some(out));
                                setupfree_obs::decided();
                            }
                        }
                        if stopped(delivered) {
                            mesh.mark_peer_down(i); // crash-stop mid-run
                            break;
                        }
                        if !mesh.inboxes[i].pop_all(&mut batch) {
                            break;
                        }
                        for (from, env) in batch.drain(..) {
                            if stopped(delivered) {
                                break;
                            }
                            delivered += 1;
                            if traced {
                                // Ambient clock = socket envelopes delivered
                                // to this machine (no causal seq crosses the
                                // wire).
                                setupfree_obs::begin_activation(i as u16, delivered);
                            }
                            sender.dispatch(machine.on_message(from, env));
                            sender.loop_back(&mut machine);
                        }
                    }
                    if traced {
                        setupfree_obs::uninstall();
                    }
                    delivered
                }));
            }

            // --- coordinator: sleep until a driver decides or exits, or the
            // deadline passes; resolve the run, then tear everything down.
            let deadline = mesh.start + self.timeout;
            let mut standing = board.standing.lock().expect("board lock poisoned");
            failure = loop {
                let dead = standing.dead();
                if dead.len() > budget {
                    break Some(TransportFailure::PeerStopped { peer: dead[0], message: None });
                }
                if (0..n).all(|i| standing.outputs[i].is_some() || standing.exited[i]) {
                    degraded = dead; // ≤ budget crash-stops: degraded success
                    break None;
                }
                let now = Instant::now();
                if now >= deadline {
                    let undecided = (0..n).filter(|&i| standing.outputs[i].is_none()).collect();
                    break Some(TransportFailure::Timeout {
                        waited_ms: mesh.start.elapsed().as_millis() as u64,
                        undecided,
                    });
                }
                standing = board
                    .changed
                    .wait_timeout(standing, deadline - now)
                    .expect("board lock poisoned")
                    .0;
            };
            drop(standing);

            // Capture link health before teardown severs everything (a
            // closing socket would otherwise report every link as
            // mid-recovery).
            for (i, row) in statuses.iter_mut().enumerate() {
                for (j, status) in row.iter_mut().enumerate() {
                    if i != j {
                        *status = mesh.link(i, j).status();
                    }
                }
            }

            // --- teardown, in an order that unwedges every blocked thread:
            // the shutdown flag, with the down signal raised, stops the
            // accept and redial loops; closed inboxes release poppers AND
            // pushers; shut-down sockets turn blocked reads into EOF and
            // blocked writes into errors.  The stream registry is shut down
            // *without* taking link locks, so a thread blocked in a resume's
            // replay under its link lock is released too.
            mesh.shutdown.store(true, Ordering::Release);
            mesh.down.raise();
            for inbox in &mesh.inboxes {
                inbox.close();
            }
            mesh.shutdown_all_streams();
            let wall = mesh.start.elapsed();
            for (i, handle) in drivers.into_iter().enumerate() {
                match handle.join() {
                    Ok(delivered) => {
                        let links: Vec<LinkStats> = (0..n)
                            .map(|j| {
                                if i == j {
                                    return LinkStats::default();
                                }
                                let mut s = mesh.link(i, j).snapshot();
                                s.status = statuses[i][j];
                                s.partitioned_ms =
                                    mesh.plan.partitioned_for(i, j, wall).as_millis() as u64;
                                s
                            })
                            .collect();
                        // Fold each active link's end-of-run stats into the
                        // trace stream (quiet links are skipped — a fully
                        // connected n-peer mesh would otherwise summarise
                        // n·(n−1) silent links).
                        for (j, l) in links.iter().enumerate() {
                            if i == j
                                || (l.offered == 0
                                    && l.redials == 0
                                    && l.drops_injected == 0
                                    && l.partitioned_ms == 0)
                            {
                                continue;
                            }
                            mesh.trace(
                                i,
                                EventKind::LinkSummary {
                                    from: i as u16,
                                    to: j as u16,
                                    sent: l.sent,
                                    retransmitted: l.retransmitted,
                                    drops: l.drops_injected,
                                    redials: l.redials,
                                    partitioned_ms: l.partitioned_ms,
                                },
                            );
                        }
                        peers[i] = PeerStats {
                            sent_envelopes: links.iter().map(|l| l.sent).sum(),
                            sent_bytes: links.iter().map(|l| l.sent_bytes).sum(),
                            received_envelopes: delivered,
                            dropped_sends: links.iter().map(|l| l.dropped).sum(),
                            inbox_high_water: mesh.inboxes[i].high_water(),
                            links,
                        };
                    }
                    Err(payload) => {
                        let message = payload
                            .downcast_ref::<&str>()
                            .map(|s| (*s).to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "driver panicked".into());
                        match &mut failure {
                            Some(TransportFailure::PeerStopped { peer, message: slot })
                                if *peer == i =>
                            {
                                *slot = Some(message);
                            }
                            Some(_) => {}
                            none => {
                                *none = Some(TransportFailure::PeerStopped {
                                    peer: i,
                                    message: Some(message),
                                });
                            }
                        }
                    }
                }
            }
            // Accept/redial threads exit on the shutdown flag, readers on
            // socket EOF; the scope joins them all here.
        });

        let standing = board.standing.into_inner().expect("board lock poisoned");
        let health: Vec<PeerHealth> = (0..n)
            .map(|i| {
                if standing.exited[i] && standing.outputs[i].is_none() {
                    PeerHealth::Dead
                } else if (0..n).any(|j| j != i && statuses[i][j] != LinkStatus::Up) {
                    PeerHealth::Reconnecting
                } else {
                    PeerHealth::Alive
                }
            })
            .collect();
        if failure.is_some() {
            degraded.clear();
        }
        let outputs = standing.outputs;
        let trace = mesh.collector.as_ref().map(SharedCollector::drain_sorted).unwrap_or_default();
        Ok(SocketRunReport {
            outputs,
            peers,
            health,
            degraded,
            wall: Instant::now().duration_since(mesh.start),
            failure,
            trace,
        })
    }
}

/// How the run stands, for the coordinator: each peer's output and whether
/// its driver has exited.  Drivers update it when they decide or exit and
/// signal the coordinator, which waits for that or for the deadline.
struct Board<O> {
    standing: Mutex<Standing<O>>,
    changed: Condvar,
}

struct Standing<O> {
    outputs: Vec<Option<O>>,
    exited: Vec<bool>,
}

impl<O> Standing<O> {
    /// The peers whose driver exited without deciding.
    fn dead(&self) -> Vec<usize> {
        (0..self.exited.len()).filter(|&i| self.exited[i] && self.outputs[i].is_none()).collect()
    }
}

impl<O> Board<O> {
    /// Applies `change` and wakes the coordinator.  Every change is a single
    /// assignment, so a standing behind a poisoned lock is still whole, and
    /// `ExitNotice::drop` must not panic.
    fn update(&self, change: impl FnOnce(&mut Standing<O>)) {
        change(&mut self.standing.lock().unwrap_or_else(PoisonError::into_inner));
        self.changed.notify_one();
    }
}

/// Marks its driver exited when dropped, so the coordinator sees a driver
/// that panicked stop at once, not at the deadline.
struct ExitNotice<'a, O> {
    board: &'a Board<O>,
    peer: usize,
}

impl<O> Drop for ExitNotice<'_, O> {
    fn drop(&mut self) {
        self.board.update(|s| s.exited[self.peer] = true);
    }
}

/// A process-unique-enough session nonce: wall-clock nanos mixed with a
/// global counter, so concurrent groups in one test binary — and stray
/// dialers from a previous run reusing a port — can never complete each
/// other's handshakes.
fn fresh_nonce() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    t ^ COUNTER.fetch_add(1, Ordering::Relaxed).rotate_left(40)
}

/// The non-generic shared state of one run: addresses, link state, inboxes,
/// the fault plan, and the teardown plumbing.  Everything the accept,
/// redial, and reader threads need.
struct Mesh {
    n: usize,
    nonce: u64,
    addrs: Vec<SocketAddr>,
    /// `links[i][j]`: peer `i`'s endpoint of the `i ↔ j` connection —
    /// writer state for `i → j`, receive sequencing for `j → i`.
    links: Vec<Vec<Option<Arc<Link>>>>,
    /// Raised when any link leaves `Up`, and at shutdown: wakes the accept
    /// and redial threads that sleep while their links are all up.
    down: Arc<DownSignal>,
    inboxes: Vec<ShardQueue<(PartyId, Envelope)>>,
    plan: LinkFaultPlan,
    start: Instant,
    shutdown: AtomicBool,
    peer_down: Vec<AtomicBool>,
    /// Every connection ever established, so teardown can shut them all
    /// down without touching a single link lock.
    streams: Mutex<Vec<Arc<TcpStream>>>,
    /// Trace collector for traced runs: mesh threads (accept / redial /
    /// reader / writer paths) record into it directly, driver threads via a
    /// thread-local handle.
    collector: Option<SharedCollector>,
}

impl Mesh {
    fn link(&self, i: usize, j: usize) -> &Link {
        self.links[i][j].as_ref().expect("no self-links")
    }

    /// Records one link-layer event as observed by `party`, wall-stamped
    /// against the run origin.  No-op on untraced runs.
    fn trace(&self, party: usize, kind: EventKind) {
        if let Some(c) = &self.collector {
            c.record(TraceEvent {
                party: party as u16,
                clock: 0,
                wall_ns: self.start.elapsed().as_nanos() as u64,
                cause: None,
                kind,
            });
        }
    }

    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Offers one envelope payload to the ordered link `i → j`, applying
    /// the fault plan's verdicts for the frame's sequence number.  Only
    /// peer `i`'s driver calls this, so peeking the sequence number before
    /// offering is race-free.
    fn offer_frame(&self, i: usize, j: usize, payload: &[u8]) {
        let link = self.link(i, j);
        let (inject_drop, inject_cut) = if self.plan.is_noop() {
            (false, false)
        } else {
            let seq = link.peek_next_seq();
            let partitioned = self.plan.partitioned(i, j, self.start.elapsed());
            let dropped = self.plan.should_drop(i, j, seq);
            let cut = self.plan.cuts_at(i, j, seq);
            if self.collector.is_some() {
                let (from, to) = (i as u16, j as u16);
                if partitioned {
                    self.trace(i, EventKind::Fault { from, to, fault: FaultKind::Partition, seq });
                } else if dropped {
                    self.trace(i, EventKind::Fault { from, to, fault: FaultKind::Drop, seq });
                }
                if cut {
                    self.trace(i, EventKind::Fault { from, to, fault: FaultKind::Cut, seq });
                    self.trace(
                        i,
                        EventKind::LinkDown { from, to, reason: LinkDownReason::Cut },
                    );
                }
            }
            (dropped || partitioned, cut)
        };
        link.offer(payload, inject_drop, inject_cut);
    }

    /// Crash-stop: peer `i` abandons every link (their parked frames are
    /// lost, their sockets shut down, so remote readers see EOF), and its
    /// accept thread starts refusing inbound dials.
    fn mark_peer_down(&self, i: usize) {
        self.peer_down[i].store(true, Ordering::Release);
        for j in 0..self.n {
            if j != i {
                self.link(i, j).give_up();
            }
        }
    }

    fn shutdown_all_streams(&self) {
        for s in self.streams.lock().unwrap().iter() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Owns peer `me`'s listener: completes the resume handshake for every
    /// inbound (re)connection and spawns its reader.  Peer `me` accepts the
    /// links of the lower ids; while all of them are up the loop sleeps on
    /// the down signal, otherwise it polls the nonblocking listener.
    fn accept_loop<'s, 'e>(&'s self, scope: &'s thread::Scope<'s, 'e>, me: usize, listener: TcpListener) {
        if listener.set_nonblocking(true).is_err() {
            return;
        }
        loop {
            // Read the signal before the checks, so a link going down (or
            // the shutdown) after them still ends the wait.
            let seen = self.down.count();
            if self.stopping() {
                return;
            }
            if (0..me).all(|j| self.link(me, j).status() == LinkStatus::Up) {
                self.down.wait_past(seen);
                continue;
            }
            match listener.accept() {
                Ok((stream, _)) => self.handle_accept(scope, me, stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL),
                Err(_) => thread::sleep(POLL),
            }
        }
    }

    fn handle_accept<'s, 'e>(&'s self, scope: &'s thread::Scope<'s, 'e>, me: usize, mut stream: TcpStream) {
        // A crashed peer accepts nothing: dropping the connection makes the
        // dialer's handshake fail fast, so its retry budget burns in
        // backoffs, not read timeouts.
        if self.peer_down[me].load(Ordering::Acquire) {
            return;
        }
        if stream.set_nonblocking(false).is_err()
            || stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).is_err()
        {
            return;
        }
        let Ok(hello) = read_hello(&mut stream) else { return };
        // The dialer-role invariant (lower id dials) plus the session nonce
        // reject strays: cross-run connections, self-dials, ids out of
        // range.  A rejected dialer just sees its connection die and
        // retries into its budget.
        if hello.nonce != self.nonce || hello.peer >= self.n || hello.peer >= me {
            return;
        }
        if self.peer_down[hello.peer].load(Ordering::Acquire) {
            return;
        }
        // A scheduled partition refuses the handshake at the acceptor too,
        // so a dial launched just before the window opened cannot slip a
        // connection through it.
        if self.plan.partitioned(hello.peer, me, self.start.elapsed()) {
            return;
        }
        let link = self.link(me, hello.peer);
        if write_hello_ack(&mut stream, self.nonce, link.next_expected_in()).is_err() {
            return;
        }
        let _ = stream.set_read_timeout(None);
        let _ = stream.set_nodelay(true);
        let stream = Arc::new(stream);
        self.streams.lock().unwrap().push(stream.clone());
        if let Ok(generation) = link.resume(stream.clone(), hello.next_expected) {
            let from = hello.peer;
            // Link events name the connection dialer → acceptor; the party
            // field says which endpoint observed it.
            if generation > 1 {
                self.trace(me, EventKind::Redial { from: from as u16, to: me as u16 });
            } else {
                self.trace(me, EventKind::LinkUp { from: from as u16, to: me as u16 });
            }
            scope.spawn(move || self.reader_loop(me, from, stream, generation));
        }
    }

    /// Peer `me`'s dial side: redials every link it is the dialer for
    /// (peers `> me`) per the backoff schedule, and reaps accept-side
    /// links (peers `< me`) whose dialer has been gone past the death
    /// timer.  Scheduled partitions stall both clocks.  While all of `me`'s
    /// links are up the loop sleeps on the down signal.
    fn redial_loop<'s, 'e>(&'s self, scope: &'s thread::Scope<'s, 'e>, me: usize) {
        loop {
            let seen = self.down.count();
            if self.stopping() || self.peer_down[me].load(Ordering::Acquire) {
                return; // crashed peers don't redial
            }
            if (0..self.n).all(|j| j == me || self.link(me, j).status() == LinkStatus::Up) {
                self.down.wait_past(seen);
                continue;
            }
            let now = Instant::now();
            let elapsed = self.start.elapsed();
            for j in me + 1..self.n {
                let stalled = self.plan.partitioned(me, j, elapsed);
                if self.link(me, j).redial_due(now, stalled).is_some() {
                    self.try_dial(scope, me, j);
                }
            }
            for j in 0..me {
                let stalled = self.plan.partitioned(me, j, elapsed);
                self.link(me, j).reap_if_expired(now, stalled);
            }
            thread::sleep(POLL);
        }
    }

    /// One dial attempt `me → j` (the attempt is already charged by
    /// `redial_due`): connect, resume handshake, install the connection,
    /// spawn its reader.  Every failure path just drops the socket — the
    /// next attempt is on the backoff schedule.
    fn try_dial<'s, 'e>(&'s self, scope: &'s thread::Scope<'s, 'e>, me: usize, j: usize) {
        let link = self.link(me, j);
        let Ok(mut stream) = TcpStream::connect(self.addrs[j]) else { return };
        if stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).is_err() {
            return;
        }
        let hello = Hello { peer: me, nonce: self.nonce, next_expected: link.next_expected_in() };
        if write_hello(&mut stream, &hello).is_err() {
            return;
        }
        let Ok((nonce, peer_next_expected)) = read_hello_ack(&mut stream) else { return };
        if nonce != self.nonce {
            return;
        }
        let _ = stream.set_read_timeout(None);
        let _ = stream.set_nodelay(true);
        let stream = Arc::new(stream);
        self.streams.lock().unwrap().push(stream.clone());
        if let Ok(generation) = link.resume(stream.clone(), peer_next_expected) {
            if generation > 1 {
                self.trace(me, EventKind::Redial { from: me as u16, to: j as u16 });
            } else {
                self.trace(me, EventKind::LinkUp { from: me as u16, to: j as u16 });
            }
            scope.spawn(move || self.reader_loop(me, j, stream, generation));
        }
    }

    /// Reads one connection generation for peer `me`: data frames pass the
    /// per-link sequence check (duplicates discarded, a gap ends the
    /// connection) and enter the inbox; acks prune the writer's outbox.
    /// Every frame already in the read buffer is taken before the accepted
    /// ones are handed over, under one inbox lock, with the fault plan's
    /// receive delay.  On any stream end the reader severs its own
    /// generation — never a successor installed by a concurrent resume.
    fn reader_loop(&self, me: usize, from: usize, stream: Arc<TcpStream>, generation: u64) {
        let link = self.link(me, from);
        let mut r = BufReader::new(stream.as_ref());
        let mut batch = VecDeque::new();
        let mut last_seq = 0;
        loop {
            match read_frame(&mut r) {
                Ok(Some(Frame::Data { seq, env })) => match link.record_delivery(seq) {
                    Ok(true) => {
                        batch.push_back((PartyId(from), env));
                        last_seq = seq;
                    }
                    Ok(false) => {}
                    // A sequence gap drops the connection like a malformed
                    // frame does.
                    Err(_) => break,
                },
                Ok(Some(Frame::Ack { received })) => link.on_ack(received),
                Ok(None) | Err(_) => break,
            }
            if batch.is_empty() || holds_frame(r.buffer()) {
                continue;
            }
            // The next read would wait on the socket.  A burst pays the
            // propagation delay once: the frames buffered together rode the
            // same (simulated) wire.
            if let Some(delay) = self.plan.frame_delay(from, me, last_seq) {
                thread::sleep(delay);
            }
            if !self.inboxes[me].push_all(&mut batch) {
                break; // inbox closed: the run is over
            }
        }
        // Frames accepted before the stream ended still reach the machine.
        let _ = self.inboxes[me].push_all(&mut batch);
        // Teardown EOFs every reader; only a mid-run stream end is a real
        // link-down observation.
        if !self.stopping() {
            self.trace(
                me,
                EventKind::LinkDown {
                    from: from as u16,
                    to: me as u16,
                    reason: LinkDownReason::Error,
                },
            );
        }
        link.sever_generation(generation);
    }
}

/// A peer's sending half: encodes each multicast once, offers frames to
/// the per-destination links, loops self-addressed envelopes through a
/// local queue, and flushes every link once per batch.
struct PeerSender<'a> {
    mesh: &'a Mesh,
    me: usize,
    pending: VecDeque<Envelope>,
    /// The buffer each link's flush fills, reused across flushes.
    buf: Vec<u8>,
}

impl<'a> PeerSender<'a> {
    fn new(mesh: &'a Mesh, me: usize) -> Self {
        PeerSender { mesh, me, pending: VecDeque::new(), buf: Vec::new() }
    }

    fn dispatch(&mut self, step: Step<Envelope>) {
        for out in step.outgoing {
            match out.dest {
                Dest::All => {
                    let payload = encode_envelope(&out.msg);
                    for j in 0..self.mesh.n {
                        if j != self.me {
                            self.mesh.offer_frame(self.me, j, &payload);
                        }
                    }
                    self.pending.push_back(out.msg);
                }
                Dest::One(PartyId(p)) if p == self.me => self.pending.push_back(out.msg),
                Dest::One(PartyId(p)) => {
                    let payload = encode_envelope(&out.msg);
                    self.mesh.offer_frame(self.me, p, &payload);
                }
            }
        }
    }

    /// Hands the self-addressed envelopes to `machine`, and what they
    /// produce in turn, until none are left.  No socket is involved.
    fn loop_back<P: ProtocolInstance<Message = Envelope>>(&mut self, machine: &mut P) {
        while let Some(env) = self.pending.pop_front() {
            let step = machine.on_message(PartyId(self.me), env);
            self.dispatch(step);
        }
    }

    /// One socket write per link: the frames offered since the last flush
    /// and the link's due ack.
    fn flush(&mut self) {
        for j in (0..self.mesh.n).filter(|&j| j != self.me) {
            self.mesh.link(self.me, j).flush(&mut self.buf);
        }
    }
}

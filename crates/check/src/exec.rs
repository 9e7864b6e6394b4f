//! Serialized execution core: one schedule = one deterministic run.
//!
//! Virtual threads are real OS threads gated by a token. Exactly one
//! thread (the token holder) executes user code at any instant; every
//! shadowed atomic op is a *schedule point* where the strategy may
//! hand the token to another runnable thread. Blocking operations
//! (spin hints, join) release the token until their wake condition
//! holds. When no thread is runnable and some are unfinished, the run
//! is a deadlock — for barrier code, a lost wakeup — and the whole
//! session unwinds.
//!
//! # Spin-wait semantics
//!
//! A spinning thread re-evaluates a guard (one or more shadowed loads)
//! between hints, so each thread *watches* the locations it has read
//! since its previous hint, together with each location's write
//! version at the read. A hint blocks only when none of the watched
//! locations has been re-written since — otherwise the guard might now
//! pass and the spinner must re-check. A write to a watched location
//! wakes the blocked thread. A hint with an empty watch set (e.g. the
//! tail of a multi-hint backoff quantum) never blocks and is not a
//! schedule point; it only counts against the step bound so a
//! read-free spin loop still terminates the run.

use crate::strategy::Strategy;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Most virtual threads a single checked fixture may spawn (including
/// the main thread). Small enough that a thread id packs into a replay
/// token nibble.
pub const MAX_THREADS: usize = 16;

/// Kind of a recorded shadow operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Atomic load.
    Load,
    /// Atomic store.
    Store,
    /// Atomic read-modify-write (`fetch_*`, `swap`, `compare_exchange`).
    Rmw,
    /// A yield / spin-hint that blocked until a watched location was
    /// re-written.
    Yield,
    /// A join on another virtual thread.
    Join,
    /// Virtual thread termination.
    End,
}

/// One entry of the recorded happens-before trace.
#[derive(Debug, Clone)]
pub struct Event {
    /// Global step index at which the op executed.
    pub step: u64,
    /// Executing virtual thread.
    pub tid: usize,
    /// What the op was.
    pub access: Access,
    /// Dense location index (`None` for yield/join/end).
    pub loc: Option<usize>,
    /// Value read (loads), written (stores) or resulting (RMWs).
    pub value: u64,
    /// The thread's vector clock *after* the op.
    pub clock: Vec<u64>,
}

/// Whether trace event `a` happens-before `b` under the recorded
/// vector clocks (strictly: `a`'s knowledge is contained in `b`'s).
pub fn happens_before(a: &Event, b: &Event) -> bool {
    let at = a.clock.get(a.tid).copied().unwrap_or(0);
    let bt = b.clock.get(a.tid).copied().unwrap_or(0);
    at <= bt && (a.tid != b.tid || a.step < b.step)
}

/// Wake condition of a blocked virtual thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WaitKind {
    /// Runnable once any location in the thread's watch set has been
    /// re-written (the set lives in [`ThreadState::watch`]).
    Spin,
    /// Runnable once the target virtual thread has finished.
    Join { target: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Waiting at an op boundary (or just spawned) for the token.
    Ready,
    /// Holding the token.
    Running,
    /// Waiting for a wake condition; not schedulable.
    Blocked(WaitKind),
    /// Done (returned, or unwound after an abort).
    Finished,
}

#[derive(Debug)]
struct ThreadState {
    status: Status,
    /// Scheduled ops executed by this thread.
    steps: u64,
    /// Locations this thread has read since its previous spin hint,
    /// with each location's write version at the read: the thread's
    /// spin guard can only change if one of them is re-written.
    watch: Vec<(usize, u64)>,
}

/// How a single schedule failed.
#[derive(Debug, Clone)]
pub(crate) enum RawFailure {
    /// Every unfinished thread was blocked: a lost wakeup (or a join
    /// cycle). The detail lists each blocked thread's wait.
    Deadlock(String),
    /// A virtual thread panicked (assertion in the fixture or the code
    /// under test).
    Panic(String),
    /// A thread exceeded the per-thread step bound (livelock guard).
    StepBound(usize),
}

/// One recorded scheduling decision (a point with ≥ 2 candidates):
/// the tid the strategy picked.
#[derive(Debug, Clone)]
pub(crate) struct DecisionRec {
    /// The tid the strategy picked.
    pub chosen: usize,
}

/// Per-run configuration.
#[derive(Debug, Clone)]
pub(crate) struct RunCfg {
    pub max_steps: u64,
    pub record_trace: bool,
}

/// Everything a finished schedule reports back to the driver.
pub(crate) struct RunResult {
    pub failure: Option<RawFailure>,
    pub decisions: Vec<DecisionRec>,
    pub trace: Vec<Event>,
    /// Total scheduled ops the run executed.
    pub steps: u64,
}

struct SessionState {
    threads: Vec<ThreadState>,
    /// Current token holder.
    active: usize,
    /// Total scheduled ops across all threads.
    steps: u64,
    /// Per-location write version (bumped on every store/RMW), keyed
    /// by address; wakes spin-blocked threads watching the location.
    loc_vers: HashMap<usize, u64>,
    strategy: Box<dyn Strategy>,
    decisions: Vec<DecisionRec>,
    trace: Vec<Event>,
    /// Vector clocks: per thread, and per shadowed location.
    clocks: Vec<Vec<u64>>,
    loc_clocks: HashMap<usize, Vec<u64>>,
    /// Dense ids for shadowed locations, keyed by address.
    loc_ids: HashMap<usize, usize>,
    failure: Option<RawFailure>,
    aborted: bool,
    cfg: RunCfg,
}

pub(crate) struct Session {
    state: Mutex<SessionState>,
    cv: Condvar,
    os_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Sentinel panic payload used to unwind virtual threads when the
/// session aborts (deadlock, peer panic, step bound). Swallowed at the
/// worker boundary.
pub(crate) struct AbortToken;

thread_local! {
    static SESSION: std::cell::RefCell<Option<(Arc<Session>, usize)>> =
        const { std::cell::RefCell::new(None) };
    static IN_SESSION: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Fast path test: is the calling OS thread a registered virtual
/// thread of an active checked session?
#[inline]
pub(crate) fn tls_active() -> bool {
    IN_SESSION.with(|c| c.get())
}

fn tls_set(sess: Option<(Arc<Session>, usize)>) {
    IN_SESSION.with(|c| c.set(sess.is_some()));
    SESSION.with(|s| *s.borrow_mut() = sess);
}

pub(crate) fn with_session<R>(f: impl FnOnce(&Arc<Session>, usize) -> R) -> R {
    SESSION.with(|s| {
        let b = s.borrow();
        let (sess, tid) = b.as_ref().expect("no active checker session");
        f(sess, *tid)
    })
}

fn lock(m: &Mutex<SessionState>) -> MutexGuard<'_, SessionState> {
    // A poisoned session mutex only means some thread panicked while
    // recording; the state is still consistent enough to tear down.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl SessionState {
    fn satisfied(&self, tid: usize, kind: WaitKind) -> bool {
        match kind {
            WaitKind::Spin => self.threads[tid]
                .watch
                .iter()
                .any(|&(addr, ver)| self.loc_vers.get(&addr).copied().unwrap_or(0) > ver),
            WaitKind::Join { target } => self.threads[target].status == Status::Finished,
        }
    }

    /// All schedulable tids, decider first (when runnable) then
    /// ascending; blocked threads with satisfied wakes count.
    fn candidates(&self, decider: Option<usize>) -> Vec<usize> {
        let mut cands = Vec::new();
        if let Some(d) = decider {
            cands.push(d);
        }
        for (tid, t) in self.threads.iter().enumerate() {
            if Some(tid) == decider {
                continue;
            }
            match t.status {
                Status::Ready => cands.push(tid),
                Status::Blocked(k) if self.satisfied(tid, k) => cands.push(tid),
                _ => {}
            }
        }
        cands
    }

    fn unfinished(&self) -> Vec<usize> {
        (0..self.threads.len())
            .filter(|&t| self.threads[t].status != Status::Finished)
            .collect()
    }

    fn fail(&mut self, f: RawFailure) {
        if self.failure.is_none() {
            self.failure = Some(f);
        }
        self.aborted = true;
    }

    fn deadlock_detail(&self) -> String {
        let mut parts = Vec::new();
        for (tid, t) in self.threads.iter().enumerate() {
            match t.status {
                Status::Blocked(WaitKind::Spin) => {
                    parts.push(format!(
                        "t{tid} spinning (no further writes to its watched locations)"
                    ));
                }
                Status::Blocked(WaitKind::Join { target }) => {
                    parts.push(format!("t{tid} joining t{target}"));
                }
                Status::Ready | Status::Running => parts.push(format!("t{tid} runnable?!")),
                Status::Finished => {}
            }
        }
        parts.join("; ")
    }

    /// Pick and grant the next token holder. Returns the chosen tid,
    /// or `None` when no thread is schedulable (all-finished is fine;
    /// otherwise this records a deadlock and aborts).
    fn hand_off(&mut self, decider: Option<usize>) -> Option<usize> {
        let cands = self.candidates(decider);
        let chosen = match cands.len() {
            0 => {
                if !self.unfinished().is_empty() {
                    let detail = self.deadlock_detail();
                    self.fail(RawFailure::Deadlock(detail));
                }
                return None;
            }
            1 => cands[0],
            _ => {
                let di = self.decisions.len();
                let chosen = self.strategy.choose(di, decider, &cands, self.steps);
                debug_assert!(cands.contains(&chosen));
                self.decisions.push(DecisionRec { chosen });
                chosen
            }
        };
        self.threads[chosen].status = Status::Running;
        self.active = chosen;
        Some(chosen)
    }

    fn record(&mut self, tid: usize, access: Access, loc: Option<usize>, value: u64) {
        if !self.cfg.record_trace {
            return;
        }
        let clock = self.clocks[tid].clone();
        self.trace.push(Event {
            step: self.steps,
            tid,
            access,
            loc,
            value,
            clock,
        });
    }

    fn loc_id(&mut self, addr: usize) -> usize {
        let next = self.loc_ids.len();
        *self.loc_ids.entry(addr).or_insert(next)
    }
}

impl Session {
    pub(crate) fn new(strategy: Box<dyn Strategy>, cfg: RunCfg) -> Self {
        let main = ThreadState {
            status: Status::Running,
            steps: 0,
            watch: Vec::new(),
        };
        Session {
            state: Mutex::new(SessionState {
                threads: vec![main],
                active: 0,
                steps: 0,
                loc_vers: HashMap::new(),
                strategy,
                decisions: Vec::new(),
                trace: Vec::new(),
                clocks: vec![vec![0]],
                loc_clocks: HashMap::new(),
                loc_ids: HashMap::new(),
                failure: None,
                aborted: false,
                cfg,
            }),
            cv: Condvar::new(),
            os_handles: Mutex::new(Vec::new()),
        }
    }

    /// Block until this thread holds the token (or the session
    /// aborts). Returns `Err(())` on abort.
    #[allow(clippy::result_unit_err)]
    fn await_token(&self, mut st: MutexGuard<'_, SessionState>, me: usize) -> Result<(), ()> {
        loop {
            if st.aborted {
                return Err(());
            }
            if st.active == me && st.threads[me].status == Status::Running {
                return Ok(());
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn abort_unwind(&self) -> ! {
        panic::panic_any(AbortToken)
    }

    /// A shadowed atomic op: schedule point, execute, record.
    pub(crate) fn scheduled_op<T>(
        &self,
        me: usize,
        addr: usize,
        access: Access,
        f: impl FnOnce() -> T,
        as_u64: impl FnOnce(&T) -> u64,
    ) -> T {
        let mut st = lock(&self.state);
        if st.aborted {
            drop(st);
            self.abort_unwind();
        }
        debug_assert_eq!(st.active, me, "op from a thread without the token");
        // Schedule point: the token holder may be preempted here,
        // before its op executes.
        if let Some(next) = st.hand_off(Some(me)) {
            if next != me {
                st.threads[me].status = Status::Ready;
                self.cv.notify_all();
                if self.await_token(st, me).is_err() {
                    self.abort_unwind();
                }
                st = lock(&self.state);
            }
        } else {
            // Aborted by deadlock detection (cannot happen while `me`
            // itself is a candidate, but stay defensive).
            drop(st);
            self.abort_unwind();
        }
        st.steps += 1;
        st.threads[me].steps += 1;
        if st.threads[me].steps > st.cfg.max_steps {
            st.fail(RawFailure::StepBound(me));
            self.cv.notify_all();
            drop(st);
            self.abort_unwind();
        }
        let out = f();
        let value = as_u64(&out);
        let loc = st.loc_id(addr);
        // Vector clocks: loads acquire the location's release history;
        // writes advance this thread and publish its clock.
        let nthreads = st.threads.len();
        let lclock = st
            .loc_clocks
            .entry(addr)
            .or_insert_with(|| vec![0; nthreads])
            .clone();
        let tclock = &mut st.clocks[me];
        if tclock.len() < lclock.len() {
            tclock.resize(lclock.len(), 0);
        }
        for (i, &v) in lclock.iter().enumerate() {
            if tclock[i] < v {
                tclock[i] = v;
            }
        }
        tclock[me] += 1;
        let is_write = matches!(access, Access::Store | Access::Rmw);
        if is_write {
            let pub_clock = tclock.clone();
            st.loc_clocks.insert(addr, pub_clock);
            *st.loc_vers.entry(addr).or_insert(0) += 1;
        }
        // Loads (and RMWs, whose result is also a guard input) extend
        // this thread's watch set with the location's current version;
        // one entry per location, latest read wins.
        if matches!(access, Access::Load | Access::Rmw) {
            let ver = st.loc_vers.get(&addr).copied().unwrap_or(0);
            let watch = &mut st.threads[me].watch;
            match watch.iter_mut().find(|(a, _)| *a == addr) {
                Some(entry) => entry.1 = ver,
                None => watch.push((addr, ver)),
            }
        }
        st.record(me, access, Some(loc), value);
        drop(st);
        out
    }

    /// Scheduled ops thread `me` has executed so far in this schedule.
    pub(crate) fn steps_of(&self, me: usize) -> u64 {
        lock(&self.state).threads[me].steps
    }

    /// A yield / spin hint. Blocks until a watched location (one this
    /// thread read since its previous hint) is re-written; a no-op
    /// when one already was — the spinner's guard might now pass, so
    /// it must re-check — or when nothing is watched (the tail of a
    /// multi-hint backoff quantum). Every call consumes the watch set:
    /// the next blocking decision is based only on reads performed
    /// after this hint.
    pub(crate) fn yield_op(&self, me: usize) {
        let mut st = lock(&self.state);
        if st.aborted {
            drop(st);
            self.abort_unwind();
        }
        st.steps += 1;
        st.threads[me].steps += 1;
        if st.threads[me].steps > st.cfg.max_steps {
            st.fail(RawFailure::StepBound(me));
            self.cv.notify_all();
            drop(st);
            self.abort_unwind();
        }
        let watch = std::mem::take(&mut st.threads[me].watch);
        let fresh_write = watch
            .iter()
            .any(|&(addr, ver)| st.loc_vers.get(&addr).copied().unwrap_or(0) > ver);
        if watch.is_empty() || fresh_write {
            return;
        }
        st.record(me, Access::Yield, None, watch.len() as u64);
        st.threads[me].watch = watch;
        st.threads[me].status = Status::Blocked(WaitKind::Spin);
        st.hand_off(None);
        self.cv.notify_all();
        if self.await_token(st, me).is_err() {
            self.abort_unwind();
        }
        lock(&self.state).threads[me].watch.clear();
    }

    /// Virtual join: block until `target` finishes.
    pub(crate) fn join_op(&self, me: usize, target: usize) {
        let mut st = lock(&self.state);
        if st.aborted {
            drop(st);
            self.abort_unwind();
        }
        if st.threads[target].status == Status::Finished {
            return;
        }
        st.record(me, Access::Join, None, target as u64);
        st.threads[me].status = Status::Blocked(WaitKind::Join { target });
        st.hand_off(None);
        self.cv.notify_all();
        if self.await_token(st, me).is_err() {
            self.abort_unwind();
        }
    }

    /// Register a new virtual thread (called by the token holder).
    pub(crate) fn register_thread(&self, parent: usize) -> usize {
        let mut st = lock(&self.state);
        let tid = st.threads.len();
        assert!(
            tid < MAX_THREADS,
            "checked fixture spawned ≥{MAX_THREADS} threads"
        );
        st.threads.push(ThreadState {
            status: Status::Ready,
            steps: 0,
            watch: Vec::new(),
        });
        // The child inherits the spawner's causal knowledge.
        let mut clock = st.clocks[parent].clone();
        if clock.len() <= tid {
            clock.resize(tid + 1, 0);
        }
        st.clocks.push(clock);
        tid
    }

    pub(crate) fn adopt_os_handle(&self, h: std::thread::JoinHandle<()>) {
        self.os_handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(h);
    }

    /// First wait of a freshly spawned worker. `Err` = session aborted
    /// before the worker ever ran; it just exits.
    #[allow(clippy::result_unit_err)]
    pub(crate) fn first_token(&self, me: usize) -> Result<(), ()> {
        let st = lock(&self.state);
        self.await_token(st, me)
    }

    /// Normal completion of a virtual thread.
    pub(crate) fn finish(&self, me: usize) {
        let mut st = lock(&self.state);
        st.threads[me].status = Status::Finished;
        st.record(me, Access::End, None, 0);
        if !st.aborted {
            st.hand_off(None);
        }
        self.cv.notify_all();
    }

    /// A virtual thread unwound (organic panic or abort echo).
    pub(crate) fn finish_abnormal(&self, me: usize, organic: Option<String>) {
        let mut st = lock(&self.state);
        st.threads[me].status = Status::Finished;
        if let Some(msg) = organic {
            st.fail(RawFailure::Panic(msg));
        }
        self.cv.notify_all();
    }
}

pub(crate) fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Execute one schedule of `fixture` under `strategy`.
pub(crate) fn run_once(
    fixture: &(dyn Fn() + Sync),
    strategy: Box<dyn Strategy>,
    cfg: RunCfg,
) -> RunResult {
    let session = Arc::new(Session::new(strategy, cfg));
    tls_set(Some((Arc::clone(&session), 0)));
    let out = panic::catch_unwind(AssertUnwindSafe(fixture));
    match out {
        Ok(()) => session.finish(0),
        Err(p) if p.is::<AbortToken>() => session.finish_abnormal(0, None),
        Err(p) => session.finish_abnormal(0, Some(panic_message(p.as_ref()))),
    }
    tls_set(None);
    // Workers finish on their own (the token circulates among them)
    // or unwind because the session aborted.
    let handles =
        std::mem::take(&mut *session.os_handles.lock().unwrap_or_else(|e| e.into_inner()));
    for h in handles {
        let _ = h.join();
    }
    let mut st = lock(&session.state);
    RunResult {
        failure: st.failure.take(),
        decisions: std::mem::take(&mut st.decisions),
        trace: std::mem::take(&mut st.trace),
        steps: st.steps,
    }
}

/// Body of a worker OS thread backing one virtual thread.
pub(crate) fn worker_body(session: Arc<Session>, tid: usize, f: Box<dyn FnOnce() + Send>) {
    if session.first_token(tid).is_err() {
        session.finish_abnormal(tid, None);
        return;
    }
    tls_set(Some((Arc::clone(&session), tid)));
    let out = panic::catch_unwind(AssertUnwindSafe(f));
    tls_set(None);
    match out {
        Ok(()) => session.finish(tid),
        Err(p) if p.is::<AbortToken>() => session.finish_abnormal(tid, None),
        Err(p) => session.finish_abnormal(tid, Some(panic_message(p.as_ref()))),
    }
}

//! # rf-prof — hierarchical wall-time self-profiler
//!
//! The simulator's own profiler: lightweight scoped spans that assemble a
//! hierarchical wall-time profile of a run (trace generation, the cycle
//! phases, the kill engine, the cache model, the pool's steal/merge
//! overhead) without perturbing the simulation. Spans only ever *read*
//! monotonic timestamps — no span can change a simulated schedule, so a
//! profiled run produces byte-identical statistics to an unprofiled one
//! (asserted end to end by `rf-experiments`' neutrality test).
//!
//! ## Switching it on
//!
//! Profiling is off by default and controlled by the `RF_PROFILE`
//! environment switch (`1/on/true/yes` or `0/off/false/no`, the same
//! spellings as `RF_CACHE`/`RF_STORE`), consulted once per process.
//! `rfstudy profile` and the benchmarks flip it programmatically with
//! [`set_enabled`]. When off, opening a span costs one relaxed atomic
//! load (coarse sites) or one thread-local read (hot sites) — a
//! predictable branch, not a timestamp — and dropping the inert guard
//! costs one inlined discriminant test: [`Span`]'s `Drop` is
//! `#[inline(always)]` and calls its `#[cold]` out-of-line finish only
//! for an active span. Callers that gate spans themselves, like the
//! pipeline's `Option<Span>` per phase, pay only their own branch.
//!
//! ## Two kinds of span
//!
//! - [`span`] — a *coarse* span for code that runs at most a few times
//!   per simulation (a whole run, trace generation, a pool task). Active
//!   whenever profiling is enabled; records its exact elapsed time.
//! - [`hot_span`] — a *sampled* span for code inside the cycle loop.
//!   Active only while a [`cycle_gate`] is open; the recorded duration is
//!   scaled by the gate's weight. The pipeline opens a gate on one cycle
//!   in [`SAMPLE_WEIGHT`], so per-phase attribution costs a handful of
//!   timestamps per sampled cycle instead of eight per cycle — the
//!   difference between a few percent of overhead and a 2x slowdown.
//!
//! Spans nest through a per-thread current-node pointer, so the profile
//! is a tree: a `cache.load` inside the issue phase of a simulation run
//! by a pool worker appears at `pool.task;run.simulate;cycle.issue;
//! cache.load`.
//!
//! ## Collection
//!
//! Each thread accumulates its own tree. Worker threads (the `SimPool`'s
//! scoped workers) flush into a process-global accumulator when they
//! exit; [`collect`] flushes the calling thread and takes the merged
//! global tree. Merging is deterministic: nodes merge by name, counts
//! and durations add commutatively, and children are sorted by name, so
//! the merged tree is independent of worker interleaving.
//!
//! ## Counters
//!
//! [`counters`] is the process-wide run-counter registry: one static
//! array of atomics that every count the suite reports about its own
//! work comes from. Unlike spans it is always on.

#![warn(missing_docs)]

pub mod counters;

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One hot-path cycle in this many is sampled (see [`cycle_gate`]); the
/// recorded phase durations are scaled back up by the same factor. A
/// power of two so the pipeline's sampling test is a mask.
pub const SAMPLE_WEIGHT: u32 = 64;

/// Name of the root node every per-thread tree hangs off.
const ROOT: &str = "all";

// Process-wide enable switch: 0 = not yet initialized from RF_PROFILE,
// 1 = off, 2 = on. A relaxed load suffices — the switch is flipped at
// process or benchmark-iteration granularity, never mid-span.
const UNINIT: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;
static STATE: AtomicU8 = AtomicU8::new(UNINIT);

/// Parses the `RF_PROFILE` environment switch without touching process
/// state: `Ok(false)` when unset, `Err` with a usage message on an
/// unparsable value. The binaries call this from their environment
/// validators so a typo fails fast with a usage error instead of a
/// mid-run panic.
///
/// # Errors
///
/// Returns a descriptive message when `RF_PROFILE` is set to anything
/// other than `1/on/true/yes` or `0/off/false/no` (case-insensitive).
pub fn env_mode() -> Result<bool, String> {
    match std::env::var("RF_PROFILE") {
        Err(_) => Ok(false),
        Ok(v) => parse_switch(&v).ok_or_else(|| {
            format!("invalid RF_PROFILE value {v:?}: use 1/on/true/yes or 0/off/false/no")
        }),
    }
}

fn parse_switch(value: &str) -> Option<bool> {
    match value.to_ascii_lowercase().as_str() {
        "1" | "on" | "true" | "yes" => Some(true),
        "0" | "off" | "false" | "no" => Some(false),
        _ => None,
    }
}

/// Whether profiling is enabled. The first call reads `RF_PROFILE`;
/// subsequent calls are one relaxed atomic load.
///
/// # Panics
///
/// Panics on an unparsable `RF_PROFILE` value (the binaries pre-validate
/// via [`env_mode`] and exit with a usage error first).
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        UNINIT => init_from_env(),
        s => s == ON,
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = env_mode().unwrap_or_else(|e| panic!("{e}"));
    STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
    on
}

/// Forces profiling on or off for the whole process, overriding
/// `RF_PROFILE`. Used by `rfstudy profile` (which always profiles) and
/// by the overhead benchmarks (which compare both settings in one
/// process). Flip it only between simulations — a span that opens under
/// one setting and closes under the other records nothing or records
/// normally, but a *gate* opened while enabled must drop before
/// disabling mid-run makes the bookkeeping lopsided.
pub fn set_enabled(on: bool) {
    STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

thread_local! {
    /// Sampling gate for [`hot_span`]: 0 closed, otherwise the weight
    /// that sampled durations are multiplied by.
    static GATE: Cell<u32> = const { Cell::new(0) };
    /// This thread's profile tree; flushed into [`GLOBAL`] on thread
    /// exit (the `Drop` impl) or explicitly by [`collect`].
    static TREE: RefCell<ThreadTree> = RefCell::new(ThreadTree::new());
}

/// The process-global accumulator worker trees merge into.
static GLOBAL: Mutex<Option<ProfileNode>> = Mutex::new(None);

/// One node of a per-thread tree. Children are looked up by linear scan
/// — span sites are few (tens, not thousands), and a node rarely has
/// more than a handful of children.
struct Slot {
    name: &'static str,
    parent: u32,
    children: Vec<u32>,
    total_ns: u64,
    count: u64,
}

struct ThreadTree {
    slots: Vec<Slot>,
    current: u32,
}

impl ThreadTree {
    fn new() -> Self {
        Self {
            slots: vec![Slot {
                name: ROOT,
                parent: 0,
                children: Vec::new(),
                total_ns: 0,
                count: 0,
            }],
            current: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.slots[0].children.is_empty()
    }

    fn enter(&mut self, name: &'static str) -> u32 {
        let cur = self.current as usize;
        for i in 0..self.slots[cur].children.len() {
            let c = self.slots[cur].children[i];
            if self.slots[c as usize].name == name {
                self.current = c;
                return c;
            }
        }
        let idx = self.slots.len() as u32;
        self.slots.push(Slot {
            name,
            parent: self.current,
            children: Vec::new(),
            total_ns: 0,
            count: 0,
        });
        self.slots[cur].children.push(idx);
        self.current = idx;
        idx
    }

    fn exit(&mut self, idx: u32, ns: u64, weight: u32) {
        let slot = &mut self.slots[idx as usize];
        slot.total_ns += ns.saturating_mul(u64::from(weight));
        slot.count += u64::from(weight);
        self.current = slot.parent;
    }

    /// Converts the tree to its public form and resets this thread's
    /// tree to empty (so the exit-time flush adds nothing twice).
    fn take(&mut self) -> ProfileNode {
        fn build(slots: &[Slot], idx: u32) -> ProfileNode {
            let slot = &slots[idx as usize];
            ProfileNode {
                name: slot.name.to_owned(),
                total_ns: slot.total_ns,
                count: slot.count,
                children: slot.children.iter().map(|&c| build(slots, c)).collect(),
            }
        }
        let node = build(&self.slots, 0);
        // Reset in place — overwriting `*self` would drop the old tree
        // and recurse through the exit-time flush.
        self.slots.truncate(1);
        self.slots[0] = Slot {
            name: ROOT,
            parent: 0,
            children: Vec::new(),
            total_ns: 0,
            count: 0,
        };
        self.current = 0;
        node
    }
}

impl Drop for ThreadTree {
    fn drop(&mut self) {
        if self.is_empty() {
            return;
        }
        merge_into_global(self.take());
    }
}

fn merge_into_global(tree: ProfileNode) {
    // A poisoned lock means another thread panicked mid-merge; the
    // accumulated profile is best-effort diagnostics, so keep merging.
    let mut global = GLOBAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    match global.as_mut() {
        Some(g) => g.merge(&tree),
        None => *global = Some(tree),
    }
}

/// Flushes the calling thread's accumulated tree into the process-global
/// accumulator. Threads flush themselves when they exit, but *scoped*
/// threads (`std::thread::scope`) can unblock their scope before
/// thread-local destructors run, so a worker that must be visible to a
/// [`collect`] right after its scope closes calls this as its last act
/// instead of relying on teardown order.
pub fn flush_thread() {
    let _ = TREE.try_with(|tree| {
        let mut tree = tree.borrow_mut();
        if !tree.is_empty() {
            let taken = tree.take();
            drop(tree);
            merge_into_global(taken);
        }
    });
}

/// Flushes the calling thread's accumulated tree into the global
/// accumulator, then takes and returns the merged profile (children
/// sorted by name at every level). `None` when nothing was recorded —
/// profiling off, or no span closed since the last collection.
///
/// Pool workers flush themselves (via [`flush_thread`]) before their
/// scope closes, so calling this after a `SimPool` batch completes sees
/// every worker's spans; per-harness profiles fall out of calling it at
/// each harness boundary.
pub fn collect() -> Option<ProfileNode> {
    flush_thread();
    let mut global = GLOBAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    global.take().map(|mut node| {
        node.normalize();
        node
    })
}

/// An RAII scope that records its wall time into the current thread's
/// profile tree when dropped. Obtained from [`span`] or [`hot_span`];
/// inert guards (profiling off, gate closed) carry no timestamp at all.
#[must_use = "a span records on drop; binding it to _ discards it immediately"]
pub struct Span(Option<ActiveSpan>);

struct ActiveSpan {
    start: Instant,
    idx: u32,
    weight: u32,
}

impl Span {
    #[inline]
    fn begin(name: &'static str, weight: u32) -> Self {
        let idx = TREE.with(|t| t.borrow_mut().enter(name));
        Self(Some(ActiveSpan { start: Instant::now(), idx, weight }))
    }
}

impl Drop for Span {
    /// Inlines to one discriminant test: an inert span (the common case
    /// on every hot path) drops to nothing, and only an active one calls
    /// out of line to read the clock and record.
    #[inline(always)]
    fn drop(&mut self) {
        if let Some(active) = self.0.take() {
            active.finish();
        }
    }
}

impl ActiveSpan {
    #[cold]
    #[inline(never)]
    fn finish(self) {
        let ns = self.start.elapsed().as_nanos() as u64;
        let _ = TREE.try_with(|t| t.borrow_mut().exit(self.idx, ns, self.weight));
    }
}

/// Opens a coarse span: active whenever profiling is enabled, recording
/// its exact elapsed time under the current position in the tree. Use
/// for code that runs at per-simulation (not per-cycle) frequency.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span(None);
    }
    Span::begin(name, 1)
}

/// Opens a sampled hot-path span: inert unless the current thread has an
/// open [`cycle_gate`], in which case the recorded duration and count
/// are scaled by the gate's weight. The closed-gate cost is a single
/// thread-local read, which is what makes per-phase instrumentation of
/// the cycle loop affordable.
#[inline]
pub fn hot_span(name: &'static str) -> Span {
    let weight = GATE.with(Cell::get);
    if weight == 0 {
        return Span(None);
    }
    Span::begin(name, weight)
}

/// An open sampling window: while alive, [`hot_span`]s on this thread
/// are active with the gate's weight. Closes (restoring the previous
/// gate) on drop.
#[must_use = "a gate only samples while it is alive"]
pub struct GateGuard {
    prev: u32,
}

impl Drop for GateGuard {
    #[inline]
    fn drop(&mut self) {
        let prev = self.prev;
        let _ = GATE.try_with(|g| g.set(prev));
    }
}

/// Opens a sampling window with the given weight (callers pass
/// [`SAMPLE_WEIGHT`]; the cycle loop opens one gate every
/// `SAMPLE_WEIGHT` steps so scaled samples estimate the full-rate
/// totals). Gates nest by restoration — the previous weight returns
/// when the guard drops.
#[inline]
pub fn cycle_gate(weight: u32) -> GateGuard {
    GateGuard { prev: GATE.with(|g| g.replace(weight.max(1))) }
}

/// One node of a merged wall-time profile: a span name, its inclusive
/// duration and (scaled) entry count, and its child spans.
///
/// `total_ns` is *inclusive* — it contains the children's time. The
/// exclusive share is [`self_ns`](ProfileNode::self_ns). Sampled spans
/// contribute *estimates* (duration x gate weight), so a child sum can
/// slightly exceed its directly-measured parent; consumers saturate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileNode {
    /// Span name (`cycle.issue`, `cache.load`, ...). The root is `all`.
    pub name: String,
    /// Inclusive wall time in nanoseconds (scaled for sampled spans).
    pub total_ns: u64,
    /// Times the span was entered (scaled for sampled spans).
    pub count: u64,
    /// Child spans, sorted by name after [`normalize`](Self::normalize).
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// An empty node with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), total_ns: 0, count: 0, children: Vec::new() }
    }

    /// Adds `other`'s durations, counts, and (recursively, by name)
    /// children into `self`. Merging is commutative and associative up
    /// to child order; call [`normalize`](Self::normalize) afterwards
    /// for a canonical tree.
    pub fn merge(&mut self, other: &ProfileNode) {
        self.total_ns += other.total_ns;
        self.count += other.count;
        for theirs in &other.children {
            match self.children.iter_mut().find(|c| c.name == theirs.name) {
                Some(ours) => ours.merge(theirs),
                None => self.children.push(theirs.clone()),
            }
        }
    }

    /// Sorts children by name at every level, making the tree canonical
    /// regardless of the order spans first fired or threads flushed.
    pub fn normalize(&mut self) {
        self.children.sort_by(|a, b| a.name.cmp(&b.name));
        for child in &mut self.children {
            child.normalize();
        }
    }

    /// Exclusive wall time: this node's total minus its children's,
    /// saturating at zero (sampled children are estimates and can
    /// overshoot a measured parent by a little).
    pub fn self_ns(&self) -> u64 {
        let children: u64 = self.children.iter().map(|c| c.total_ns).sum();
        self.total_ns.saturating_sub(children)
    }

    /// Sum of the direct children's inclusive times. For the root node
    /// this is the profile's best estimate of total attributed wall
    /// time (the root itself is never directly timed).
    pub fn attributed_ns(&self) -> u64 {
        self.children.iter().map(|c| c.total_ns).sum()
    }

    /// Depth-first traversal: calls `f` with each node's ancestor path
    /// (root excluded) and the node itself.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&[&'a str], &'a ProfileNode)) {
        fn inner<'a>(
            node: &'a ProfileNode,
            path: &mut Vec<&'a str>,
            f: &mut impl FnMut(&[&'a str], &'a ProfileNode),
        ) {
            f(path, node);
            path.push(&node.name);
            for child in &node.children {
                inner(child, path, f);
            }
            path.pop();
        }
        let mut path = Vec::new();
        f(&path, self);
        path.push(self.name.as_str());
        for child in &self.children {
            inner(child, &mut path, f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests share the process-global switch and accumulator, so they
    /// serialize on this lock (and drain the accumulator when done).
    static LOCK: Mutex<()> = Mutex::new(());

    fn with_profiler<R>(f: impl FnOnce() -> R) -> R {
        let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = collect();
        set_enabled(true);
        let result = f();
        set_enabled(false);
        let _ = collect();
        result
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = collect();
        set_enabled(false);
        {
            let _a = span("outer");
            let _b = hot_span("inner");
        }
        assert_eq!(collect(), None);
    }

    #[test]
    fn spans_nest_into_a_tree() {
        let tree = with_profiler(|| {
            {
                let _outer = span("outer");
                let _inner = span("inner");
            }
            {
                let _outer = span("outer");
            }
            collect().expect("two spans closed")
        });
        assert_eq!(tree.name, "all");
        assert_eq!(tree.children.len(), 1);
        let outer = &tree.children[0];
        assert_eq!((outer.name.as_str(), outer.count), ("outer", 2));
        assert_eq!(outer.children.len(), 1);
        assert_eq!(outer.children[0].name, "inner");
        assert!(outer.total_ns >= outer.children[0].total_ns);
    }

    #[test]
    fn hot_spans_only_fire_inside_a_gate_and_scale_by_weight() {
        let tree = with_profiler(|| {
            {
                let _cold = hot_span("cold"); // no gate: inert
            }
            {
                let _gate = cycle_gate(8);
                let _hot = hot_span("hot");
            }
            {
                let _hot = hot_span("late"); // gate closed again: inert
            }
            collect().expect("gated span closed")
        });
        let names: Vec<_> = tree.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["hot"]);
        assert_eq!(tree.children[0].count, 8);
    }

    #[test]
    fn worker_threads_flush_on_exit_and_merges_are_canonical() {
        let tree = with_profiler(|| {
            std::thread::scope(|scope| {
                for name in [("b"), ("a")] {
                    scope.spawn(move || {
                        {
                            let _s = span(name);
                            let _shared = span("shared");
                        }
                        // A scope can unblock before TLS teardown, so a
                        // scoped worker flushes explicitly (as the
                        // SimPool workers do).
                        flush_thread();
                    });
                }
            });
            {
                let _s = span("a");
            }
            collect().expect("three threads recorded")
        });
        let names: Vec<_> = tree.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a", "b"], "children sorted by name");
        assert_eq!(tree.children[0].count, 2, "main + worker 'a' merged");
    }

    #[test]
    fn merge_adds_by_name_recursively() {
        let mut a = ProfileNode::new("all");
        a.children.push(ProfileNode {
            name: "x".into(),
            total_ns: 10,
            count: 1,
            children: vec![ProfileNode { name: "y".into(), total_ns: 4, count: 2, children: vec![] }],
        });
        let mut b = ProfileNode::new("all");
        b.children.push(ProfileNode {
            name: "x".into(),
            total_ns: 5,
            count: 1,
            children: vec![ProfileNode { name: "z".into(), total_ns: 1, count: 1, children: vec![] }],
        });
        a.merge(&b);
        a.normalize();
        let x = &a.children[0];
        assert_eq!((x.total_ns, x.count), (15, 2));
        let kids: Vec<_> = x.children.iter().map(|c| (c.name.as_str(), c.total_ns)).collect();
        assert_eq!(kids, [("y", 4), ("z", 1)]);
        assert_eq!(x.self_ns(), 10);
    }

    #[test]
    fn walk_visits_every_node_with_its_path() {
        let mut tree = ProfileNode::new("all");
        let mut x = ProfileNode::new("x");
        x.children.push(ProfileNode::new("y"));
        tree.children.push(x);
        let mut seen = Vec::new();
        tree.walk(&mut |path, node| seen.push((path.join(";"), node.name.clone())));
        assert_eq!(
            seen,
            [
                (String::new(), "all".to_owned()),
                ("all".to_owned(), "x".to_owned()),
                ("all;x".to_owned(), "y".to_owned()),
            ]
        );
    }

    #[test]
    fn env_mode_accepts_the_switch_spellings() {
        // Do not mutate the process environment (tests run in parallel);
        // the parser is exercised directly.
        for v in ["1", "on", "TRUE", "Yes"] {
            assert_eq!(parse_switch(v), Some(true), "{v}");
        }
        for v in ["0", "off", "False", "NO"] {
            assert_eq!(parse_switch(v), Some(false), "{v}");
        }
        for v in ["", "2", "sample", " on"] {
            assert_eq!(parse_switch(v), None, "{v:?}");
        }
    }
}

//! Phase II — verifying candidates with the safe/suspect labeling
//! search (§IV of the paper).
//!
//! For each candidate `c`, the key vertex and `c` are matched and given
//! a shared unique label. Labels then spread breadth-first, but only
//! **safe** labels participate: a `G` partition is safe iff it has the
//! same size as the equally-labeled pattern partition — then it can
//! contain only image vertices (pigeonhole over Label Invariant (2)).
//! Equal safe singleton partitions are **matched** and frozen. When no
//! progress is possible (paper Fig. 5 symmetry) the algorithm guesses a
//! match inside an equal-labeled partition and recurses. Completed
//! mappings are re-verified structurally on the compiled graphs.
//!
//! Efficiency notes mirroring the paper:
//!
//! * only *touched* `G` vertices (reached by spreading) are stored, so
//!   the per-candidate cost is proportional to the pattern size, not
//!   `|G|` — this is what makes total runtime linear in the matched
//!   devices;
//! * special nets are pre-matched by name and never *trigger*
//!   relabeling, so a power rail's huge fanout is never scanned (§IV.A's
//!   performance point) — though its fixed label still contributes when
//!   a vertex is relabeled for other reasons.
//!
//! State is dense `Vec`-indexed over the [`CompiledCircuit`]s, with an
//! **undo log** instead of per-branch cloning: every mutation during
//! search records its inverse, a [`Mark`] captures the log position
//! before a guess, and backtracking truncates the log — `O(touched)`
//! per branch.
//!
//! A warm search allocates nothing per candidate. Everything a pass,
//! an analysis or a guess needs lives in per-worker [`Scratch`]
//! buffers built by [`Phase2Runner::make_state`]: the pass and commit
//! lists, the guess stack, and the label partitions. A partition table
//! is one sorted run list of `(kind, label, side, index)` entries, so
//! each `(kind, label)` group is a contiguous run with its pattern
//! members first, both sides ascending. A complete mapping is
//! re-checked on the CSR arrays under the rules of
//! [`verify_instance`](crate::verify_instance), which stays the public
//! oracle; the
//! [`SubMatch`] is built only for an accepted candidate.

use std::ops::Range;

use subgemini_netlist::{hashing, CompiledCircuit, DeviceId, NetId, Vertex};

use crate::events::{EventBuffer, EventKind, RejectReason, RejectTally};
use crate::instance::{Phase2Stats, SubMatch};
use crate::metrics::Histogram;
use crate::options::MatchOptions;
use crate::trace::{Phase2Trace, TraceCell, TraceSnapshot};

/// One inverse operation on the search state. Rolling the log back in
/// LIFO order restores the exact prior state (list pushes pair with
/// their flag sets, so pops stay aligned).
enum UndoOp {
    SDevLabel(u32, u64),
    SNetLabel(u32, u64),
    SDevTouched(u32),
    SNetTouched(u32),
    SDevSafe(u32),
    SNetSafe(u32),
    SDevMatch(u32),
    SNetMatch(u32),
    /// Restore a previously *touched* G device's label.
    GDevLabel(u32, u64),
    GNetLabel(u32, u64),
    /// First touch of a G vertex: clears the flag and pops the touched
    /// list (the stale label slot is unreachable once untouched).
    GDevTouched(u32),
    GNetTouched(u32),
    GDevSafe(u32),
    GNetSafe(u32),
    GDevMatched(u32),
    GNetMatched(u32),
    GNetPortImage(u32),
}

/// A rollback point: undo-log length plus the scalars the log does not
/// cover.
#[derive(Clone, Copy)]
struct Mark {
    undo_len: usize,
    matched: usize,
    label_counter: u64,
    trace_len: usize,
}

/// Mutable search state for one candidate. Dense arrays both sides;
/// G-side sparsity is recovered through the touched/safe index lists.
struct State {
    s_dev: Vec<u64>,
    s_net: Vec<u64>,
    s_dev_touched: Vec<bool>,
    s_net_touched: Vec<bool>,
    s_dev_safe: Vec<bool>,
    s_net_safe: Vec<bool>,
    s_dev_match: Vec<Option<u32>>,
    s_net_match: Vec<Option<u32>>,
    /// Labels of G vertices; a slot is meaningful only while the
    /// corresponding touched flag is set.
    g_dev_label: Vec<u64>,
    g_net_label: Vec<u64>,
    g_dev_touched: Vec<bool>,
    g_net_touched: Vec<bool>,
    g_dev_safe: Vec<bool>,
    g_net_safe: Vec<bool>,
    g_dev_matched: Vec<bool>,
    g_net_matched: Vec<bool>,
    /// Main-graph nets matched to *port* (external) pattern nets. Such
    /// images may have arbitrary main-circuit fanout (think a shared
    /// clock), so — like global rails — they never trigger spreading
    /// unless the option re-enables it.
    g_net_port_image: Vec<bool>,
    /// Sparse iteration orders for the dense flags above.
    g_dev_touched_list: Vec<u32>,
    g_net_touched_list: Vec<u32>,
    g_dev_safe_list: Vec<u32>,
    g_net_safe_list: Vec<u32>,
    matched: usize,
    label_counter: u64,
    undo: Vec<UndoOp>,
    trace: Option<Phase2Trace>,
    /// Structured event journal for this worker
    /// ([`MatchOptions::trace_events`]); never rolled back — failed
    /// branches are exactly what the journal is for.
    events: Option<EventBuffer>,
    /// Backtrack-depth histogram ([`MatchOptions::collect_metrics`]).
    backtrack_hist: Option<Histogram>,
    /// Reject-reason tallies (metrics or events on).
    reject_tally: Option<RejectTally>,
    /// Why the most recent candidate's top-level branch failed.
    last_reject: Option<RejectReason>,
}

impl State {
    fn mark(&self) -> Mark {
        Mark {
            undo_len: self.undo.len(),
            matched: self.matched,
            label_counter: self.label_counter,
            trace_len: self.trace.as_ref().map_or(0, |t| t.passes.len()),
        }
    }

    /// Rolls every mutation after `m` back, restoring the state (and
    /// the trace) exactly as it was when the mark was taken.
    fn rollback(&mut self, m: &Mark) {
        while self.undo.len() > m.undo_len {
            match self.undo.pop().expect("len checked") {
                UndoOp::SDevLabel(i, l) => self.s_dev[i as usize] = l,
                UndoOp::SNetLabel(i, l) => self.s_net[i as usize] = l,
                UndoOp::SDevTouched(i) => self.s_dev_touched[i as usize] = false,
                UndoOp::SNetTouched(i) => self.s_net_touched[i as usize] = false,
                UndoOp::SDevSafe(i) => self.s_dev_safe[i as usize] = false,
                UndoOp::SNetSafe(i) => self.s_net_safe[i as usize] = false,
                UndoOp::SDevMatch(i) => self.s_dev_match[i as usize] = None,
                UndoOp::SNetMatch(i) => self.s_net_match[i as usize] = None,
                UndoOp::GDevLabel(i, l) => self.g_dev_label[i as usize] = l,
                UndoOp::GNetLabel(i, l) => self.g_net_label[i as usize] = l,
                UndoOp::GDevTouched(i) => {
                    self.g_dev_touched[i as usize] = false;
                    let popped = self.g_dev_touched_list.pop();
                    debug_assert_eq!(popped, Some(i));
                }
                UndoOp::GNetTouched(i) => {
                    self.g_net_touched[i as usize] = false;
                    let popped = self.g_net_touched_list.pop();
                    debug_assert_eq!(popped, Some(i));
                }
                UndoOp::GDevSafe(i) => {
                    self.g_dev_safe[i as usize] = false;
                    let popped = self.g_dev_safe_list.pop();
                    debug_assert_eq!(popped, Some(i));
                }
                UndoOp::GNetSafe(i) => {
                    self.g_net_safe[i as usize] = false;
                    let popped = self.g_net_safe_list.pop();
                    debug_assert_eq!(popped, Some(i));
                }
                UndoOp::GDevMatched(i) => self.g_dev_matched[i as usize] = false,
                UndoOp::GNetMatched(i) => self.g_net_matched[i as usize] = false,
                UndoOp::GNetPortImage(i) => self.g_net_port_image[i as usize] = false,
            }
        }
        self.matched = m.matched;
        self.label_counter = m.label_counter;
        if let Some(t) = self.trace.as_mut() {
            t.passes.truncate(m.trace_len);
        }
    }

    // --- logged setters (every hot-path mutation goes through these) ---

    fn set_s_dev_label(&mut self, i: usize, l: u64) {
        if self.s_dev[i] != l {
            self.undo.push(UndoOp::SDevLabel(i as u32, self.s_dev[i]));
            self.s_dev[i] = l;
        }
    }

    fn set_s_net_label(&mut self, i: usize, l: u64) {
        if self.s_net[i] != l {
            self.undo.push(UndoOp::SNetLabel(i as u32, self.s_net[i]));
            self.s_net[i] = l;
        }
    }

    fn touch_s_dev(&mut self, i: usize) {
        if !self.s_dev_touched[i] {
            self.s_dev_touched[i] = true;
            self.undo.push(UndoOp::SDevTouched(i as u32));
        }
    }

    fn touch_s_net(&mut self, i: usize) {
        if !self.s_net_touched[i] {
            self.s_net_touched[i] = true;
            self.undo.push(UndoOp::SNetTouched(i as u32));
        }
    }

    fn set_s_dev_safe(&mut self, i: usize) -> bool {
        if self.s_dev_safe[i] {
            return false;
        }
        self.s_dev_safe[i] = true;
        self.undo.push(UndoOp::SDevSafe(i as u32));
        true
    }

    fn set_s_net_safe(&mut self, i: usize) -> bool {
        if self.s_net_safe[i] {
            return false;
        }
        self.s_net_safe[i] = true;
        self.undo.push(UndoOp::SNetSafe(i as u32));
        true
    }

    fn set_s_dev_match(&mut self, i: usize, g: u32) {
        debug_assert!(self.s_dev_match[i].is_none());
        self.s_dev_match[i] = Some(g);
        self.undo.push(UndoOp::SDevMatch(i as u32));
    }

    fn set_s_net_match(&mut self, i: usize, g: u32) {
        debug_assert!(self.s_net_match[i].is_none());
        self.s_net_match[i] = Some(g);
        self.undo.push(UndoOp::SNetMatch(i as u32));
    }

    fn set_g_dev_label(&mut self, i: u32, l: u64) {
        if self.g_dev_touched[i as usize] {
            self.undo
                .push(UndoOp::GDevLabel(i, self.g_dev_label[i as usize]));
        } else {
            self.g_dev_touched[i as usize] = true;
            self.g_dev_touched_list.push(i);
            self.undo.push(UndoOp::GDevTouched(i));
        }
        self.g_dev_label[i as usize] = l;
    }

    fn set_g_net_label(&mut self, i: u32, l: u64) {
        if self.g_net_touched[i as usize] {
            self.undo
                .push(UndoOp::GNetLabel(i, self.g_net_label[i as usize]));
        } else {
            self.g_net_touched[i as usize] = true;
            self.g_net_touched_list.push(i);
            self.undo.push(UndoOp::GNetTouched(i));
        }
        self.g_net_label[i as usize] = l;
    }

    fn set_g_dev_safe(&mut self, i: u32) -> bool {
        if self.g_dev_safe[i as usize] {
            return false;
        }
        self.g_dev_safe[i as usize] = true;
        self.g_dev_safe_list.push(i);
        self.undo.push(UndoOp::GDevSafe(i));
        true
    }

    fn set_g_net_safe(&mut self, i: u32) -> bool {
        if self.g_net_safe[i as usize] {
            return false;
        }
        self.g_net_safe[i as usize] = true;
        self.g_net_safe_list.push(i);
        self.undo.push(UndoOp::GNetSafe(i));
        true
    }

    fn set_g_dev_matched(&mut self, i: u32) {
        debug_assert!(!self.g_dev_matched[i as usize]);
        self.g_dev_matched[i as usize] = true;
        self.undo.push(UndoOp::GDevMatched(i));
    }

    fn set_g_net_matched(&mut self, i: u32) {
        debug_assert!(!self.g_net_matched[i as usize]);
        self.g_net_matched[i as usize] = true;
        self.undo.push(UndoOp::GNetMatched(i));
    }

    fn set_g_net_port_image(&mut self, i: u32) {
        if !self.g_net_port_image[i as usize] {
            self.g_net_port_image[i as usize] = true;
            self.undo.push(UndoOp::GNetPortImage(i));
        }
    }
}

/// One vertex's entry in the partition run list. The derived order is
/// the field order, so sorting groups each `(kind, label)` partition
/// into one contiguous run: pattern members (`side` 0) first, then main
/// members (`side` 1), each ascending by index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Run {
    /// 0 = device, 1 = net.
    kind: u8,
    label: u64,
    /// 0 = pattern, 1 = main graph.
    side: u8,
    index: u32,
}

/// One `(kind, label)` partition: its pattern and main member runs.
struct Partition<'r> {
    kind: u8,
    label: u64,
    s: &'r [Run],
    g: &'r [Run],
}

/// Splits a sorted run list into its partitions, in `(kind, label)`
/// order.
fn partitions_of(runs: &[Run]) -> impl Iterator<Item = Partition<'_>> {
    let mut rest = runs;
    std::iter::from_fn(move || {
        let first = *rest.first()?;
        let len = rest
            .iter()
            .position(|r| (r.kind, r.label) != (first.kind, first.label))
            .unwrap_or(rest.len());
        let (group, tail) = rest.split_at(len);
        rest = tail;
        let split = group.iter().position(|r| r.side == 1).unwrap_or(len);
        let (s, g) = group.split_at(split);
        Some(Partition {
            kind: first.kind,
            label: first.label,
            s,
            g,
        })
    })
}

/// The vertex of `kind` with raw index `i`.
fn vertex(kind: u8, i: u32) -> Vertex {
    if kind == 0 {
        Vertex::Device(DeviceId::new(i))
    } else {
        Vertex::Net(NetId::new(i))
    }
}

/// Per-worker buffers reused by every pass, analysis, guess and
/// re-verification, so a warm search allocates nothing per candidate.
/// Contents are transient: each user clears what it fills, except the
/// guess stack, which nests with the recursion of
/// [`Phase2Runner::verify_image`].
#[derive(Default)]
struct Scratch {
    /// Jacobi pass results, committed after both sides are computed.
    s_dev_new: Vec<(u32, u64)>,
    s_net_new: Vec<(u32, u64)>,
    /// Main-side frontiers; labels are filled in after deduplication.
    g_dev_new: Vec<(u32, u64)>,
    g_net_new: Vec<(u32, u64)>,
    /// The partition table as a sorted run list.
    runs: Vec<Run>,
    /// Safe singleton partitions to match: `(kind, s, g)`.
    to_match: Vec<(u8, u32, u32)>,
    /// Candidate images of every open guess level, innermost last.
    guesses: Vec<Vertex>,
    /// `(class multiplier, net)` pin lists of a pattern device and a
    /// main device.
    pins_s: Vec<(u64, u32)>,
    pins_g: Vec<(u64, u32)>,
    /// Device or net images of a mapping, for the injectivity check.
    images: Vec<u32>,
}

enum Refined {
    /// All pattern vertices matched (state left in the completed
    /// configuration).
    Complete,
    /// Partition inconsistency: this branch cannot succeed.
    Fail,
    /// No progress without a guess.
    Stuck,
    /// The per-candidate pass budget ran out while passes were still
    /// making progress. Treated like a stall (guessing may still
    /// resolve it) but reported distinctly so exhaustion is never
    /// silent.
    PassBudget,
}

/// Phase II driver bound to one (pattern, main) pair.
pub struct Phase2Runner<'a> {
    s: &'a CompiledCircuit,
    g: &'a CompiledCircuit,
    opts: &'a MatchOptions,
    /// Per pattern device type: the index of the same-named main type.
    type_image: Vec<Option<u32>>,
    /// Per pattern net: the same-named main global, for pattern globals.
    global_image: Vec<Option<NetId>>,
}

impl<'a> Phase2Runner<'a> {
    /// Creates a runner over a compiled pattern `s` and main circuit
    /// `g`.
    pub fn new(s: &'a CompiledCircuit, g: &'a CompiledCircuit, opts: &'a MatchOptions) -> Self {
        let type_image = s
            .type_names()
            .iter()
            .map(|name| {
                g.type_names()
                    .iter()
                    .position(|n| n == name)
                    .map(|t| t as u32)
            })
            .collect();
        let mut global_image = vec![None; s.net_count()];
        for (name, n) in s.globals() {
            global_image[n.index()] = g.find_global(name);
        }
        Self {
            s,
            g,
            opts,
            type_image,
            global_image,
        }
    }

    /// Builds the candidate-independent pre-match recipe: special nets
    /// matched by name. Returns `None` when a pattern global has no
    /// global counterpart in the main circuit (no instance can exist).
    pub fn base_state(&self) -> Option<BaseState> {
        let mut prematch: Vec<(u32, u32, u64)> = Vec::new();
        for i in 0..self.s.net_count() {
            let n = NetId::new(i as u32);
            if !self.s.is_global(n) {
                continue;
            }
            let gm = self.global_image[i]?;
            prematch.push((n.raw(), gm.raw(), self.s.initial_net_label(n)));
        }
        Some(BaseState { prematch })
    }

    /// Materializes the dense search state for `base`, sized to the
    /// compiled graphs. Expensive relative to a candidate (`O(|G|)`),
    /// so build it once per worker and reuse it: `run_candidate`
    /// restores it to the base configuration before returning.
    pub fn make_state(&self, base: &BaseState) -> SearchState {
        let nd = self.s.device_count();
        let nn = self.s.net_count();
        let gd = self.g.device_count();
        let gn = self.g.net_count();
        let mut st = State {
            s_dev: (0..nd)
                .map(|i| self.s.initial_device_label(DeviceId::new(i as u32)))
                .collect(),
            s_net: vec![0; nn],
            s_dev_touched: vec![false; nd],
            s_net_touched: vec![false; nn],
            s_dev_safe: vec![false; nd],
            s_net_safe: vec![false; nn],
            s_dev_match: vec![None; nd],
            s_net_match: vec![None; nn],
            g_dev_label: vec![0; gd],
            g_net_label: vec![0; gn],
            g_dev_touched: vec![false; gd],
            g_net_touched: vec![false; gn],
            g_dev_safe: vec![false; gd],
            g_net_safe: vec![false; gn],
            g_dev_matched: vec![false; gd],
            g_net_matched: vec![false; gn],
            g_net_port_image: vec![false; gn],
            g_dev_touched_list: Vec::new(),
            g_net_touched_list: Vec::new(),
            g_dev_safe_list: Vec::new(),
            g_net_safe_list: Vec::new(),
            matched: 0,
            label_counter: 0,
            undo: Vec::new(),
            trace: None,
            events: self
                .opts
                .trace_events
                .then(|| EventBuffer::new(self.opts.trace_events_cap)),
            backtrack_hist: self.opts.collect_metrics.then(Histogram::default),
            reject_tally: (self.opts.collect_metrics || self.opts.trace_events)
                .then(RejectTally::default),
            last_reject: None,
        };
        // The pre-matches form the permanent floor of the state: applied
        // without undo logging, they survive every rollback.
        for &(si, gi, label) in &base.prematch {
            let si = si as usize;
            st.s_net[si] = label;
            st.s_net_touched[si] = true;
            st.s_net_safe[si] = true;
            st.s_net_match[si] = Some(gi);
            st.g_net_label[gi as usize] = label;
            st.g_net_touched[gi as usize] = true;
            st.g_net_touched_list.push(gi);
            st.g_net_safe[gi as usize] = true;
            st.g_net_safe_list.push(gi);
            st.g_net_matched[gi as usize] = true;
            st.matched += 1;
        }
        SearchState {
            state: st,
            scratch: Scratch::default(),
            base_matched: base.prematch.len(),
        }
    }

    fn total_s(&self) -> usize {
        self.s.device_count() + self.s.net_count()
    }

    fn fresh_label(&self, st: &mut State) -> u64 {
        st.label_counter += 1;
        hashing::mix(self.opts.seed ^ st.label_counter.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    fn g_dev_label(&self, st: &State, i: u32) -> u64 {
        if st.g_dev_touched[i as usize] {
            st.g_dev_label[i as usize]
        } else {
            self.g.initial_device_label(DeviceId::new(i))
        }
    }

    fn g_net_label(&self, st: &State, i: u32) -> u64 {
        let n = NetId::new(i);
        if self.g.is_global(n) {
            return self.g.initial_net_label(n);
        }
        if st.g_net_touched[i as usize] {
            st.g_net_label[i as usize]
        } else {
            0
        }
    }

    fn do_match(&self, st: &mut State, s_v: Vertex, g_v: Vertex) {
        let label = self.fresh_label(st);
        match (s_v, g_v) {
            (Vertex::Device(sd), Vertex::Device(gd)) => {
                st.set_s_dev_label(sd.index(), label);
                st.touch_s_dev(sd.index());
                st.set_s_dev_safe(sd.index());
                st.set_s_dev_match(sd.index(), gd.raw());
                st.set_g_dev_label(gd.raw(), label);
                st.set_g_dev_safe(gd.raw());
                st.set_g_dev_matched(gd.raw());
            }
            (Vertex::Net(sn), Vertex::Net(gn)) => {
                st.set_s_net_label(sn.index(), label);
                st.touch_s_net(sn.index());
                st.set_s_net_safe(sn.index());
                st.set_s_net_match(sn.index(), gn.raw());
                st.set_g_net_label(gn.raw(), label);
                st.set_g_net_safe(gn.raw());
                st.set_g_net_matched(gn.raw());
                if !self.opts.spread_from_port_images && self.s.is_port(sn) {
                    st.set_g_net_port_image(gn.raw());
                }
            }
            _ => unreachable!("guesses always pair same-kind vertices"),
        }
        st.matched += 1;
    }

    /// One Jacobi relabeling pass over both graphs: every unmatched
    /// vertex with at least one safe, non-global-net neighbor is
    /// relabeled from the labels of its safe neighbors.
    fn pass(&self, st: &mut State, sc: &mut Scratch) {
        // --- pattern side ---
        sc.s_dev_new.clear();
        for i in 0..st.s_dev.len() {
            if st.s_dev_match[i].is_some() {
                continue;
            }
            let d = DeviceId::new(i as u32);
            let triggered = self.s.device_neighbors(d).any(|(n, _)| {
                st.s_net_safe[n.index()]
                    && !self.s.is_global(n)
                    && !(!self.opts.spread_from_port_images
                        && st.s_net_match[n.index()].is_some()
                        && self.s.is_port(n))
            });
            if !triggered {
                continue;
            }
            let c = self
                .s
                .device_contribs(d, |n| st.s_net_safe[n.index()].then(|| st.s_net[n.index()]));
            sc.s_dev_new
                .push((i as u32, hashing::relabel(st.s_dev[i], c.sum)));
        }
        sc.s_net_new.clear();
        for i in 0..st.s_net.len() {
            if st.s_net_match[i].is_some() || self.s.is_global(NetId::new(i as u32)) {
                continue;
            }
            let n = NetId::new(i as u32);
            let triggered = self
                .s
                .net_neighbors(n)
                .any(|(d, _)| st.s_dev_safe[d.index()]);
            if !triggered {
                continue;
            }
            let c = self
                .s
                .net_contribs(n, |d| st.s_dev_safe[d.index()].then(|| st.s_dev[d.index()]));
            sc.s_net_new
                .push((i as u32, hashing::relabel(st.s_net[i], c.sum)));
        }
        // --- main side: collect frontier from the safe lists ---
        sc.g_dev_new.clear();
        for &ni in &st.g_net_safe_list {
            let n = NetId::new(ni);
            if self.g.is_global(n) || st.g_net_port_image[ni as usize] {
                continue; // rails and port images never trigger spreading
            }
            for (d, _) in self.g.net_neighbors(n) {
                if !st.g_dev_matched[d.index()] {
                    sc.g_dev_new.push((d.raw(), 0));
                }
            }
        }
        sc.g_dev_new.sort_unstable_by_key(|&(i, _)| i);
        sc.g_dev_new.dedup_by_key(|&mut (i, _)| i);
        sc.g_net_new.clear();
        for &di in &st.g_dev_safe_list {
            let d = DeviceId::new(di);
            for (n, _) in self.g.device_neighbors(d) {
                if !self.g.is_global(n) && !st.g_net_matched[n.index()] {
                    sc.g_net_new.push((n.raw(), 0));
                }
            }
        }
        sc.g_net_new.sort_unstable_by_key(|&(i, _)| i);
        sc.g_net_new.dedup_by_key(|&mut (i, _)| i);
        for (i, label) in &mut sc.g_dev_new {
            let c = self.g.device_contribs(DeviceId::new(*i), |n| {
                st.g_net_safe[n.index()].then(|| self.g_net_label(st, n.raw()))
            });
            *label = hashing::relabel(self.g_dev_label(st, *i), c.sum);
        }
        for (i, label) in &mut sc.g_net_new {
            let c = self.g.net_contribs(NetId::new(*i), |d| {
                st.g_dev_safe[d.index()].then(|| self.g_dev_label(st, d.raw()))
            });
            *label = hashing::relabel(self.g_net_label(st, *i), c.sum);
        }
        // --- commit (Jacobi) ---
        for &(i, l) in &sc.s_dev_new {
            st.set_s_dev_label(i as usize, l);
            st.touch_s_dev(i as usize);
        }
        for &(i, l) in &sc.s_net_new {
            st.set_s_net_label(i as usize, l);
            st.touch_s_net(i as usize);
        }
        for &(i, l) in &sc.g_dev_new {
            st.set_g_dev_label(i, l);
        }
        for &(i, l) in &sc.g_net_new {
            st.set_g_net_label(i, l);
        }
    }

    /// Fills `runs` with the label partitions over unmatched touched
    /// vertices, sorted (see [`Run`]).
    fn partitions(&self, st: &State, runs: &mut Vec<Run>) {
        runs.clear();
        let run = |kind, label, side, index| Run {
            kind,
            label,
            side,
            index,
        };
        for i in 0..st.s_dev.len() {
            if st.s_dev_match[i].is_none() && st.s_dev_touched[i] {
                runs.push(run(0, st.s_dev[i], 0, i as u32));
            }
        }
        for i in 0..st.s_net.len() {
            if st.s_net_match[i].is_none() && st.s_net_touched[i] {
                runs.push(run(1, st.s_net[i], 0, i as u32));
            }
        }
        for &i in &st.g_dev_touched_list {
            if !st.g_dev_matched[i as usize] {
                runs.push(run(0, st.g_dev_label[i as usize], 1, i));
            }
        }
        for &i in &st.g_net_touched_list {
            if !st.g_net_matched[i as usize] {
                runs.push(run(1, st.g_net_label[i as usize], 1, i));
            }
        }
        runs.sort_unstable();
    }

    /// Consistency + safety + singleton matching. `Err(())` on a proven
    /// inconsistency; otherwise returns `(progress, complete)`.
    ///
    /// Partitions are processed in sorted `(kind, label)` order: the
    /// order determines which singleton gets the next fresh match
    /// label, and fixing it keeps every label value — and hence the
    /// event journal — identical across runs and thread counts.
    fn analyze(&self, st: &mut State, sc: &mut Scratch) -> Result<(bool, bool), ()> {
        self.partitions(st, &mut sc.runs);
        let mut progress = false;
        sc.to_match.clear();
        for p in partitions_of(&sc.runs) {
            let (sv, gv) = (p.s, p.g);
            if sv.is_empty() {
                continue; // main-graph-only garbage partition
            }
            if let Some(ev) = st.events.as_mut() {
                ev.push(EventKind::SafeLabelCheck {
                    label: p.label,
                    s_size: sv.len() as u32,
                    g_size: gv.len() as u32,
                    safe: sv.len() == gv.len(),
                });
            }
            if sv.len() > gv.len() {
                return Err(()); // Label Invariant (2) violated
            }
            if sv.len() == gv.len() {
                // Equal sizes: the G partition holds only images — safe.
                for r in sv {
                    let newly = if p.kind == 0 {
                        st.set_s_dev_safe(r.index as usize)
                    } else {
                        st.set_s_net_safe(r.index as usize)
                    };
                    progress |= newly;
                }
                for r in gv {
                    let inserted = if p.kind == 0 {
                        st.set_g_dev_safe(r.index)
                    } else {
                        st.set_g_net_safe(r.index)
                    };
                    progress |= inserted;
                }
                if sv.len() == 1 {
                    sc.to_match.push((p.kind, sv[0].index, gv[0].index));
                }
            }
        }
        for &(kind, si, gi) in &sc.to_match {
            self.do_match(st, vertex(kind, si), vertex(kind, gi));
            progress = true;
        }
        Ok((progress, st.matched == self.total_s()))
    }

    fn snapshot(&self, st: &State) -> TraceSnapshot {
        let cell_s_dev = |i: usize| TraceCell {
            label: st.s_dev[i],
            touched: st.s_dev_touched[i],
            safe: st.s_dev_safe[i],
            matched: st.s_dev_match[i].is_some(),
        };
        let cell_s_net = |i: usize| TraceCell {
            label: st.s_net[i],
            touched: st.s_net_touched[i],
            safe: st.s_net_safe[i],
            matched: st.s_net_match[i].is_some(),
        };
        let mut g_devices: Vec<(u32, TraceCell)> = st
            .g_dev_touched_list
            .iter()
            .map(|&i| {
                (
                    i,
                    TraceCell {
                        label: st.g_dev_label[i as usize],
                        touched: true,
                        safe: st.g_dev_safe[i as usize],
                        matched: st.g_dev_matched[i as usize],
                    },
                )
            })
            .collect();
        g_devices.sort_unstable_by_key(|&(i, _)| i);
        let mut g_nets: Vec<(u32, TraceCell)> = st
            .g_net_touched_list
            .iter()
            .map(|&i| {
                (
                    i,
                    TraceCell {
                        label: st.g_net_label[i as usize],
                        touched: true,
                        safe: st.g_net_safe[i as usize],
                        matched: st.g_net_matched[i as usize],
                    },
                )
            })
            .collect();
        g_nets.sort_unstable_by_key(|&(i, _)| i);
        TraceSnapshot {
            s_devices: (0..st.s_dev.len()).map(cell_s_dev).collect(),
            s_nets: (0..st.s_net.len()).map(cell_s_net).collect(),
            g_devices,
            g_nets,
        }
    }

    /// Runs relabeling passes until completion, failure, or a stall.
    /// On `Fail` the state is left dirty — the caller rolls back.
    fn refine(&self, st: &mut State, sc: &mut Scratch, stats: &mut Phase2Stats) -> Refined {
        for _ in 0..self.opts.max_passes_per_candidate {
            stats.passes += 1;
            self.pass(st, sc);
            let analyzed = self.analyze(st, sc);
            if st.trace.is_some() {
                let snap = self.snapshot(st);
                if let Some(trace) = st.trace.as_mut() {
                    trace.passes.push(snap);
                }
            }
            match analyzed {
                Err(()) => return Refined::Fail,
                Ok((_, true)) => return Refined::Complete,
                Ok((false, false)) => return Refined::Stuck,
                Ok((true, false)) => {}
            }
        }
        // Pass budget exhausted while still progressing: guessing may
        // still resolve it, but the exhaustion must surface as its own
        // reject reason if the candidate ultimately fails.
        Refined::PassBudget
    }

    /// Chooses the next ambiguity to guess on: the unmatched pattern
    /// vertex whose label has the smallest main-graph partition. Pushes
    /// its candidate images onto the guess stack and returns the
    /// vertex; on `None` the stack is left as it was.
    fn choose_guess(&self, st: &State, sc: &mut Scratch) -> Option<Vertex> {
        self.partitions(st, &mut sc.runs);
        let mut best: Option<Partition<'_>> = None;
        for p in partitions_of(&sc.runs) {
            if p.s.is_empty() || p.g.len() < p.s.len() {
                continue;
            }
            // Strictly smaller only: ties keep the first in
            // `(kind, label)` order.
            if best.as_ref().is_none_or(|b| p.g.len() < b.g.len()) {
                best = Some(p);
            }
        }
        if let Some(p) = best {
            sc.guesses
                .extend(p.g.iter().map(|r| vertex(p.kind, r.index)));
            return Some(vertex(p.kind, p.s[0].index));
        }
        // Anchored fallback: a pattern device that was never reached by
        // spreading (all its nets are rails or suppressed port images)
        // but has at least one *matched* pin. Its image must sit on the
        // images of those pins, so enumerate the smallest such fanout
        // instead of relabeling it wholesale — this keeps port-image
        // suppression linear without losing completeness. The best
        // device's images so far sit at `base..`; each contender's are
        // pushed after them and kept only if strictly fewer.
        let base = sc.guesses.len();
        let mut best_anchor: Option<(usize, u32)> = None;
        for i in 0..st.s_dev.len() {
            if st.s_dev_match[i].is_some() || st.s_dev_touched[i] {
                continue;
            }
            let sd = DeviceId::new(i as u32);
            // Matched pins as (class multiplier, image net) requirements.
            sc.pins_s.clear();
            for (n, mult) in self.s.device_neighbors(sd) {
                if let Some(g) = st.s_net_match[n.index()] {
                    sc.pins_s.push((mult, g));
                }
            }
            // Anchor on the matched image with the smallest fanout.
            let Some(&(_, anchor)) = sc
                .pins_s
                .iter()
                .min_by_key(|&&(_, g)| self.g.net_degree(NetId::new(g)))
            else {
                continue;
            };
            sc.pins_s.sort_unstable();
            let want = self.s.initial_device_label(sd);
            let start = sc.guesses.len();
            for (gd, _) in self.g.net_neighbors(NetId::new(anchor)) {
                if st.g_dev_matched[gd.index()] || self.g.initial_device_label(gd) != want {
                    continue;
                }
                // The candidate's pins must cover every matched-pin
                // requirement (sub-multiset check).
                sc.pins_g.clear();
                sc.pins_g
                    .extend(self.g.device_neighbors(gd).map(|(n, mult)| (mult, n.raw())));
                sc.pins_g.sort_unstable();
                let have = &sc.pins_g;
                let mut hi = 0;
                let covered = sc.pins_s.iter().all(|req| {
                    while hi < have.len() && have[hi] < *req {
                        hi += 1;
                    }
                    if hi < have.len() && have[hi] == *req {
                        hi += 1;
                        true
                    } else {
                        false
                    }
                });
                if covered && !sc.guesses[start..].contains(&Vertex::Device(gd)) {
                    sc.guesses.push(Vertex::Device(gd));
                }
            }
            let count = sc.guesses.len() - start;
            if count == 0 {
                // An unreachable device with no possible image: fail the
                // branch outright.
                sc.guesses.truncate(base);
                return None;
            }
            if best_anchor.is_none_or(|(n, _)| count < n) {
                sc.guesses.copy_within(start.., base);
                sc.guesses.truncate(base + count);
                best_anchor = Some((count, i as u32));
            } else {
                sc.guesses.truncate(start);
            }
        }
        if let Some((_, i)) = best_anchor {
            return Some(Vertex::Device(DeviceId::new(i)));
        }
        // Last resort for disconnected patterns: anchor an untouched
        // pattern device on any unmatched main device still carrying the
        // same initial label.
        for i in 0..st.s_dev.len() {
            if st.s_dev_match[i].is_some() || st.s_dev_touched[i] {
                continue;
            }
            let want = st.s_dev[i]; // untouched: still the initial label
            sc.guesses.extend(
                (0..self.g.device_count() as u32)
                    .filter(|&gi| {
                        !st.g_dev_matched[gi as usize] && self.g_dev_label(st, gi) == want
                    })
                    .map(|gi| Vertex::Device(DeviceId::new(gi))),
            );
            if sc.guesses.len() > base {
                return Some(Vertex::Device(DeviceId::new(i as u32)));
            }
            return None;
        }
        None
    }

    /// Whether a complete mapping — pattern device `i` onto main device
    /// `dev_image(i)`, pattern net `i` onto main net `net_image(i)` — is
    /// a genuine instance. The rules are exactly those of
    /// [`verify_instance`](crate::verify_instance), checked on the CSR
    /// arrays: injective on devices and nets; device types agree; pins
    /// correspond under terminal classes; internal nets keep their
    /// degree; with special nets honored, a global maps to the
    /// same-named global. Images must be in range.
    fn is_instance(
        &self,
        dev_image: impl Fn(usize) -> u32,
        net_image: impl Fn(usize) -> u32,
        sc: &mut Scratch,
    ) -> bool {
        let (nd, nn) = (self.s.device_count(), self.s.net_count());
        let injective = |images: &mut Vec<u32>, n: usize, image: &dyn Fn(usize) -> u32| {
            images.clear();
            images.extend((0..n).map(image));
            images.sort_unstable();
            images.windows(2).all(|w| w[0] != w[1])
        };
        if !injective(&mut sc.images, nd, &dev_image) || !injective(&mut sc.images, nn, &net_image)
        {
            return false;
        }
        for i in 0..nd {
            let sd = DeviceId::new(i as u32);
            let gd = DeviceId::new(dev_image(i));
            // Pin multipliers hash the type name, so the pin comparison
            // below implies equal types only with high probability; this
            // check makes the rule exact.
            let sty = self.s.device_type_index(sd) as usize;
            if self.type_image[sty] != Some(self.g.device_type_index(gd)) {
                return false;
            }
            sc.pins_s.clear();
            sc.pins_s.extend(
                self.s
                    .device_neighbors(sd)
                    .map(|(n, mult)| (mult, net_image(n.index()))),
            );
            sc.pins_g.clear();
            sc.pins_g
                .extend(self.g.device_neighbors(gd).map(|(n, mult)| (mult, n.raw())));
            sc.pins_s.sort_unstable();
            sc.pins_g.sort_unstable();
            if sc.pins_s != sc.pins_g {
                return false;
            }
        }
        for i in 0..nn {
            let sn = NetId::new(i as u32);
            let gn = NetId::new(net_image(i));
            if self.opts.respect_globals && (self.s.is_global(sn) || self.g.is_global(gn)) {
                // Special signals match only each other, by name.
                if self.global_image[i] != Some(gn) {
                    return false;
                }
                continue;
            }
            let external = self.s.is_port(sn) || self.s.is_global(sn);
            if !external && self.s.net_degree(sn) != self.g.net_degree(gn) {
                return false;
            }
        }
        true
    }

    fn build_submatch(&self, st: &State) -> SubMatch {
        SubMatch {
            devices: st
                .s_dev_match
                .iter()
                .map(|m| DeviceId::new(m.expect("complete mapping")))
                .collect(),
            nets: st
                .s_net_match
                .iter()
                .map(|m| NetId::new(m.expect("complete mapping")))
                .collect(),
        }
    }

    /// The recursive `VerifyImage(K, CV)` of §IV, for pattern vertex
    /// `s_v` against the candidate images at `cands` on the guess
    /// stack. `depth > 0` calls are ambiguity guesses and consume the
    /// guess budget. Returns `true` with the state left in the
    /// completed configuration; `false` with the state rolled back to
    /// where the caller left it.
    #[allow(clippy::too_many_arguments)]
    fn verify_image(
        &self,
        st: &mut State,
        sc: &mut Scratch,
        s_v: Vertex,
        cands: Range<usize>,
        stats: &mut Phase2Stats,
        guesses_left: &mut usize,
        depth: usize,
    ) -> bool {
        for k in cands {
            let c = sc.guesses[k];
            if depth > 0 {
                if *guesses_left == 0 {
                    return false;
                }
                *guesses_left -= 1;
                stats.guesses += 1;
            }
            let mark = st.mark();
            self.do_match(st, s_v, c);
            if st.trace.is_some() {
                let snap = self.snapshot(st);
                if let Some(trace) = st.trace.as_mut() {
                    trace.passes.push(snap);
                }
            }
            let reason = match self.refine(st, sc, stats) {
                Refined::Complete => {
                    let image = |m: &[Option<u32>], i: usize| m[i].expect("complete mapping");
                    if self.is_instance(
                        |i| image(&st.s_dev_match, i),
                        |i| image(&st.s_net_match, i),
                        sc,
                    ) {
                        return true;
                    }
                    // Label collision survived to completion: reject.
                    RejectReason::LabelConflict
                }
                Refined::Fail => RejectReason::UnsafePartition,
                refined @ (Refined::Stuck | Refined::PassBudget) => {
                    let passes_out = matches!(refined, Refined::PassBudget);
                    let start = sc.guesses.len();
                    match self.choose_guess(st, sc) {
                        Some(s_next) => {
                            let end = sc.guesses.len();
                            if self.verify_image(
                                st,
                                sc,
                                s_next,
                                start..end,
                                stats,
                                guesses_left,
                                depth + 1,
                            ) {
                                return true;
                            }
                            sc.guesses.truncate(start);
                            // The pass budget is the root cause when the
                            // stall itself came from exhausting it.
                            if passes_out {
                                RejectReason::PassBudgetExhausted
                            } else if *guesses_left == 0 {
                                RejectReason::BudgetExhausted
                            } else {
                                RejectReason::BacktrackExhausted
                            }
                        }
                        None => {
                            if passes_out {
                                RejectReason::PassBudgetExhausted
                            } else {
                                RejectReason::NoViableGuess
                            }
                        }
                    }
                }
            };
            let undo_ops = st.undo.len() - mark.undo_len;
            st.rollback(&mark);
            if depth > 0 {
                stats.backtracks += 1;
                if let Some(ev) = st.events.as_mut() {
                    ev.push(EventKind::Backtrack {
                        depth: depth as u32,
                        undo_ops: undo_ops as u32,
                    });
                }
                if let Some(h) = st.backtrack_hist.as_mut() {
                    h.record(depth as u64);
                }
            } else {
                st.last_reject = Some(reason);
            }
        }
        false
    }

    /// Verifies one candidate from the candidate vector against a
    /// reusable search state (see [`make_state`](Self::make_state)).
    /// Returns the instance (and its trace if enabled); the state is
    /// always restored to the base configuration before returning, and
    /// [`SearchState::last_reject`] tells why a rejected candidate
    /// failed. `rank` is the candidate's index in the candidate vector
    /// — the deterministic scope of its journal events.
    #[allow(clippy::too_many_arguments)]
    pub fn run_candidate(
        &self,
        search: &mut SearchState,
        key: Vertex,
        candidate: Vertex,
        rank: u32,
        stats: &mut Phase2Stats,
        record_trace: bool,
    ) -> Option<(SubMatch, Option<Phase2Trace>)> {
        stats.candidates_tried += 1;
        let SearchState {
            state: st,
            scratch: sc,
            base_matched,
        } = search;
        st.last_reject = None;
        if let Some(ev) = st.events.as_mut() {
            ev.begin_candidate(rank);
            ev.push(EventKind::CandidateBegin { c: candidate });
        }
        let reject = |st: &mut State, stats: &mut Phase2Stats, reason: RejectReason| {
            stats.false_candidates += 1;
            st.last_reject = Some(reason);
            if let Some(t) = st.reject_tally.as_mut() {
                t.bump(reason);
            }
            if let Some(ev) = st.events.as_mut() {
                ev.push(EventKind::Reject { reason });
            }
        };
        let end = |st: &mut State, matched: bool| {
            if let Some(ev) = st.events.as_mut() {
                ev.push(EventKind::CandidateEnd {
                    c: candidate,
                    matched,
                });
            }
        };
        // Reject same-kind mismatches immediately (cannot happen with a
        // well-formed candidate vector, but keeps the API total).
        if key.is_device() != candidate.is_device() {
            reject(st, stats, RejectReason::KindMismatch);
            end(st, false);
            return None;
        }
        // Quick type check for device keys.
        if let (Vertex::Device(sd), Vertex::Device(gd)) = (key, candidate) {
            if self.s.initial_device_label(sd) != self.g.initial_device_label(gd) {
                reject(st, stats, RejectReason::DegreeMismatch);
                end(st, false);
                return None;
            }
        }
        st.trace = record_trace.then(Phase2Trace::default);
        let base_mark = Mark {
            undo_len: 0,
            matched: *base_matched,
            label_counter: 0,
            trace_len: 0,
        };
        let mut guesses_left = self.opts.max_guesses_per_candidate;
        // Fault injection (test-only; folds to nothing in release): a
        // guess storm burns budget through the real counters so every
        // thread count charges this candidate identically; a stall just
        // sleeps here.
        match crate::budget::failpoint::get("phase2.candidate") {
            Some(crate::budget::failpoint::Action::GuessStorm(n)) => {
                let burn = (n as usize).min(guesses_left);
                guesses_left -= burn;
                stats.guesses += burn;
            }
            Some(crate::budget::failpoint::Action::StallMs(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            _ => {}
        }
        sc.guesses.clear();
        sc.guesses.push(candidate);
        let out = if self.verify_image(st, sc, key, 0..1, stats, &mut guesses_left, 0) {
            let m = self.build_submatch(st);
            Some((m, st.trace.take()))
        } else {
            let reason = st.last_reject.unwrap_or(RejectReason::NoViableGuess);
            reject(st, stats, reason);
            None
        };
        end(st, out.is_some());
        st.rollback(&base_mark);
        st.trace = None;
        out
    }

    /// [`run_candidate`](Self::run_candidate) with optional per-candidate
    /// timing: when `timing` is set, the candidate's verification
    /// wall-clock is added to the accumulator (sum, max, latency
    /// histogram). `None` takes no timestamps.
    #[allow(clippy::too_many_arguments)]
    pub fn run_candidate_timed(
        &self,
        search: &mut SearchState,
        key: Vertex,
        candidate: Vertex,
        rank: u32,
        stats: &mut Phase2Stats,
        record_trace: bool,
        timing: Option<&mut CandidateTiming>,
    ) -> Option<(SubMatch, Option<Phase2Trace>)> {
        let Some(t) = timing else {
            return self.run_candidate(search, key, candidate, rank, stats, record_trace);
        };
        let timer = crate::metrics::PhaseTimer::start();
        let out = self.run_candidate(search, key, candidate, rank, stats, record_trace);
        let ns = timer.elapsed_ns();
        t.sum_ns += ns;
        t.max_ns = t.max_ns.max(ns);
        t.hist.record(ns);
        out
    }
}

/// Per-worker accumulator for candidate verification wall-clock:
/// summed, maximum, and a log2-bucket latency histogram.
#[derive(Debug, Default)]
pub struct CandidateTiming {
    /// Summed verification time (ns).
    pub sum_ns: u64,
    /// Longest single-candidate verification (ns).
    pub max_ns: u64,
    /// Per-candidate latency distribution.
    pub hist: Histogram,
}

/// Opaque candidate-independent Phase II pre-match recipe (globals
/// matched by name). Materialize with
/// [`Phase2Runner::make_state`].
pub struct BaseState {
    prematch: Vec<(u32, u32, u64)>,
}

/// A reusable dense search state: build once per worker, pass to
/// [`Phase2Runner::run_candidate`] for every candidate. The undo log
/// guarantees each call leaves it back in the base configuration.
pub struct SearchState {
    state: State,
    scratch: Scratch,
    base_matched: usize,
}

impl SearchState {
    /// Why the most recent candidate was rejected; `None` after an
    /// accepted one.
    pub fn last_reject(&self) -> Option<RejectReason> {
        self.state.last_reject
    }

    /// Takes the worker's event buffer for merging (empties the slot).
    pub fn take_events(&mut self) -> Option<EventBuffer> {
        self.state.events.take()
    }

    /// Takes the worker's backtrack-depth histogram (empties the slot).
    pub fn take_backtrack_hist(&mut self) -> Option<Histogram> {
        self.state.backtrack_hist.take()
    }

    /// Takes the worker's reject-reason tallies (empties the slot).
    pub fn take_reject_tally(&mut self) -> Option<RejectTally> {
        self.state.reject_tally.take()
    }

    /// Drains the events recorded since the last drain, leaving the
    /// buffer in place (empty) for the next candidate. Unlike
    /// [`take_events`](Self::take_events) this keeps tracing enabled,
    /// so a reused search state keeps recording per candidate.
    pub fn drain_events(&mut self) -> Option<EventBuffer> {
        self.state.events.as_mut().map(EventBuffer::drain)
    }

    /// Drains the reject tallies accumulated since the last drain,
    /// leaving a zeroed tally in place for the next candidate.
    pub fn drain_reject_tally(&mut self) -> Option<RejectTally> {
        self.state.reject_tally.as_mut().map(std::mem::take)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::strip_globals;
    use crate::verify::verify_instance;
    use subgemini_netlist::Netlist;
    use subgemini_workloads::{cells, gen};

    /// Runs the CSR re-verification and the public oracle on one
    /// mapping, with globals stripped exactly as the matcher strips
    /// them when they are not respected.
    fn both_checks(
        pattern: &Netlist,
        main: &Netlist,
        m: &SubMatch,
        respect_globals: bool,
    ) -> (bool, bool) {
        let (p, g) = if respect_globals {
            (pattern.clone(), main.clone())
        } else {
            (strip_globals(pattern, true), strip_globals(main, false))
        };
        let (s, gc) = (CompiledCircuit::compile(&p), CompiledCircuit::compile(&g));
        let opts = MatchOptions {
            respect_globals,
            ..MatchOptions::default()
        };
        let runner = Phase2Runner::new(&s, &gc, &opts);
        let csr = runner.is_instance(
            |i| m.devices[i].raw(),
            |i| m.nets[i].raw(),
            &mut Scratch::default(),
        );
        (csr, verify_instance(&p, &g, m, respect_globals).is_ok())
    }

    #[test]
    fn csr_check_accepts_every_found_instance() {
        let mut checked = 0;
        for respect_globals in [true, false] {
            let opts = MatchOptions {
                respect_globals,
                ..MatchOptions::default()
            };
            for seed in 1..=4u64 {
                let soup = gen::random_soup(seed, 40).netlist;
                let families = [
                    (cells::inv(), soup.clone()),
                    (cells::nand2(), soup.clone()),
                    (cells::aoi21(), soup),
                    (cells::full_adder(), gen::ripple_adder(3).netlist),
                    (cells::dff(), gen::shift_register(3).netlist),
                ];
                for (cell, main) in &families {
                    for m in &crate::find_all(cell, main, &opts).instances {
                        let verdicts = both_checks(cell, main, m, respect_globals);
                        assert_eq!(verdicts, (true, true), "{} seed {seed}", cell.name());
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 100, "only {checked} instances checked");
    }

    /// An inverter pattern: ports `a`, `y`; globals `vdd`, `gnd`.
    fn inverter() -> Netlist {
        let mut nl = Netlist::new("inv");
        let mos = nl.add_mos_types();
        let (a, y, vdd, gnd) = (nl.net("a"), nl.net("y"), nl.net("vdd"), nl.net("gnd"));
        nl.mark_port(a);
        nl.mark_port(y);
        nl.mark_global(vdd);
        nl.mark_global(gnd);
        nl.add_device("mp", mos.pmos, &[a, vdd, y]).unwrap();
        nl.add_device("mn", mos.nmos, &[a, gnd, y]).unwrap();
        nl
    }

    /// One inverter with a load on `y`, its supply net named `supply`
    /// (global when `supply_global`).
    fn main_inverter(supply: &str, supply_global: bool) -> Netlist {
        let mut g = Netlist::new("main");
        let mos = g.add_mos_types();
        let (a, y, vdd, gnd, z) = (
            g.net("a"),
            g.net("y"),
            g.net(supply),
            g.net("gnd"),
            g.net("z"),
        );
        if supply_global {
            g.mark_global(vdd);
        }
        g.mark_global(gnd);
        g.add_device("mp", mos.pmos, &[a, vdd, y]).unwrap();
        g.add_device("mn", mos.nmos, &[a, gnd, y]).unwrap();
        g.add_device("load", mos.nmos, &[y, z, gnd]).unwrap();
        g
    }

    /// The mapping that sends every pattern name to the same main
    /// name, `vdd` to `supply`.
    fn by_name(pattern: &Netlist, main: &Netlist, supply: &str) -> SubMatch {
        SubMatch {
            devices: pattern
                .device_ids()
                .map(|d| main.find_device(pattern.device(d).name()).unwrap())
                .collect(),
            nets: pattern
                .net_ids()
                .map(|n| match pattern.net_ref(n).name() {
                    "vdd" => main.find_net(supply).unwrap(),
                    name => main.find_net(name).unwrap(),
                })
                .collect(),
        }
    }

    /// A two-transistor chain whose `mid` net is internal, and a main
    /// circuit with the same chain plus a tap on `mid`.
    fn chain_with_tap() -> (Netlist, Netlist) {
        let build = |tap: bool| {
            let mut nl = Netlist::new(if tap { "main" } else { "chain" });
            let mos = nl.add_mos_types();
            let (a, mid, b, gnd) = (nl.net("a"), nl.net("mid"), nl.net("b"), nl.net("gnd"));
            if !tap {
                nl.mark_port(a);
                nl.mark_port(b);
            }
            nl.mark_global(gnd);
            nl.add_device("m1", mos.nmos, &[a, b, mid]).unwrap();
            nl.add_device("m2", mos.nmos, &[a, mid, gnd]).unwrap();
            if tap {
                let t = nl.net("t");
                nl.add_device("tap", mos.nmos, &[mid, t, gnd]).unwrap();
            }
            nl
        };
        (build(false), build(true))
    }

    /// `n` parallel nmos devices on port nets `g`, `s`, `d`, with `s`
    /// shorted to `g` when `shorted`.
    fn parallel(n: usize, shorted: bool) -> Netlist {
        let mut nl = Netlist::new("parallel");
        let mos = nl.add_mos_types();
        let (g, d) = (nl.net("g"), nl.net("d"));
        let s = if shorted { g } else { nl.net("s") };
        for port in [g, s, d] {
            nl.mark_port(port);
        }
        for i in 0..n {
            nl.add_device(format!("t{i}"), mos.nmos, &[g, s, d])
                .unwrap();
        }
        nl
    }

    #[test]
    fn csr_check_rejects_what_the_oracle_rejects() {
        let p = inverter();
        let g = main_inverter("vdd", true);
        let id = by_name(&p, &g, "vdd");
        let net = |name: &str| p.find_net(name).unwrap().index();
        let mut swapped_types = id.clone();
        swapped_types.devices.swap(0, 1);
        let mut crossed_pins = id.clone();
        crossed_pins.nets.swap(net("a"), net("y"));
        // Duplicated images whose pins still line up, so only the
        // injectivity rule can reject them: two parallel devices onto
        // one, and a device's gate and source nets onto one shorted net.
        let pair = parallel(2, false);
        let mut dup_device = by_name(&pair, &pair, "vdd");
        dup_device.devices[1] = dup_device.devices[0];
        let (single, shorted) = (parallel(1, false), parallel(1, true));
        let dup_net = SubMatch {
            devices: vec![DeviceId::new(0)],
            nets: ["g", "g", "d"]
                .iter()
                .map(|n| shorted.find_net(n).unwrap())
                .collect(),
        };
        let (chain, tapped) = chain_with_tap();
        let tapped_id = by_name(&chain, &tapped, "vdd");
        // (case, pattern, main, mapping, verdict with globals respected,
        // verdict with globals ignored)
        let unglobal = main_inverter("vdd", false);
        let renamed = main_inverter("vcc", true);
        let cases: Vec<(&str, &Netlist, Netlist, SubMatch, bool, bool)> = vec![
            ("identity", &p, g.clone(), id.clone(), true, true),
            (
                "device types swapped",
                &p,
                g.clone(),
                swapped_types,
                false,
                false,
            ),
            (
                "pins across classes",
                &p,
                g.clone(),
                crossed_pins,
                false,
                false,
            ),
            (
                "duplicated device image",
                &pair,
                pair.clone(),
                dup_device,
                false,
                false,
            ),
            (
                "duplicated net image",
                &single,
                shorted.clone(),
                dup_net,
                false,
                false,
            ),
            (
                "internal net onto a higher degree",
                &chain,
                tapped,
                tapped_id,
                false,
                false,
            ),
            (
                "global onto a non-global",
                &p,
                unglobal.clone(),
                by_name(&p, &unglobal, "vdd"),
                false,
                true,
            ),
            (
                "global onto another-named global",
                &p,
                renamed.clone(),
                by_name(&p, &renamed, "vcc"),
                false,
                true,
            ),
        ];
        for (case, pattern, main, m, respected, ignored) in &cases {
            for (respect_globals, want) in [(true, *respected), (false, *ignored)] {
                assert_eq!(
                    both_checks(pattern, main, m, respect_globals),
                    (want, want),
                    "{case}, respect_globals {respect_globals}"
                );
            }
        }
    }
}

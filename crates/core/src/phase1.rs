//! Phase I — generating the candidate vector (§III of the paper).
//!
//! Both circuits are partitioned by iterative relabeling, but the
//! pattern `S` carries a **valid/corrupt** bit per vertex: external
//! nets (ports) start corrupt because their images in `G` may have
//! extra connections, and corruption spreads to any vertex with a
//! corrupt neighbor. Label Invariant (1): while `s` is valid, its image
//! carries the same label — so every partition of valid `S` vertices
//! corresponds to a `G` partition that is guaranteed to contain all
//! images.
//!
//! The loop alternates net and device relabeling and stops when one
//! side of `S` is fully corrupt (plus two guards the paper doesn't
//! need: partition stabilization for closed patterns without external
//! nets, and a hard iteration cap). The smallest surviving `G`
//! partition becomes the candidate vector `CV`; its `S` counterpart
//! supplies the key vertex `K`.
//!
//! Consistency checks run after every phase: a valid `S` label that is
//! missing (or undersupplied) in `G` proves no instance exists.
//!
//! All loops run over the flat arrays of a [`CompiledCircuit`]:
//! relabeling is double-buffered through a reusable scratch vector (no
//! per-iteration allocation), and partitions are indexed by
//! sorted-by-label runs ([`PartitionIndex`]) instead of hash maps.

use std::sync::Arc;

use subgemini_netlist::{hashing, CompiledCircuit, DeviceId, NetId, Vertex};

use crate::events::{EventBuffer, EventKind};
use crate::instance::Phase1Stats;
use crate::options::KeyPolicy;

/// Output of Phase I.
#[derive(Clone, Debug)]
pub struct Phase1Output {
    /// The key vertex in the pattern (`None` iff `proven_empty` or the
    /// pattern has no usable vertices).
    pub key: Option<Vertex>,
    /// Candidate images of the key vertex in the main circuit.
    pub candidates: Vec<Vertex>,
    /// Statistics.
    pub stats: Phase1Stats,
    /// `Some` when a governor (deadline or cancellation) stopped the
    /// refinement loop before it finished: no candidate vector was
    /// selected (`key` is `None`) and the outcome must report itself
    /// as truncated. Always `None` on ungoverned runs.
    pub interrupted: Option<crate::budget::TruncationReason>,
}

#[derive(Clone)]
struct Labels {
    dev: Vec<u64>,
    net: Vec<u64>,
}

fn initial_labels(g: &CompiledCircuit) -> Labels {
    Labels {
        dev: (0..g.device_count())
            .map(|i| g.initial_device_label(DeviceId::new(i as u32)))
            .collect(),
        net: (0..g.net_count())
            .map(|i| g.initial_net_label(NetId::new(i as u32)))
            .collect(),
    }
}

/// Relabels every non-global net of `g` from device labels (Jacobi),
/// double-buffering through `scratch` so no allocation happens after
/// the first pass.
fn relabel_nets(g: &CompiledCircuit, l: &mut Labels, scratch: &mut Vec<u64>) {
    scratch.clear();
    scratch.reserve(l.net.len());
    for i in 0..l.net.len() {
        let n = NetId::new(i as u32);
        let v = if g.is_global(n) {
            l.net[i]
        } else {
            let c = g.net_contribs(n, |d| Some(l.dev[d.index()]));
            hashing::relabel(l.net[i], c.sum)
        };
        scratch.push(v);
    }
    std::mem::swap(&mut l.net, scratch);
}

/// Relabels every device of `g` from net labels (Jacobi); see
/// [`relabel_nets`] for the buffering scheme.
fn relabel_devices(g: &CompiledCircuit, l: &mut Labels, scratch: &mut Vec<u64>) {
    scratch.clear();
    scratch.reserve(l.dev.len());
    for i in 0..l.dev.len() {
        let d = DeviceId::new(i as u32);
        let c = g.device_contribs(d, |n| Some(l.net[n.index()]));
        scratch.push(hashing::relabel(l.dev[i], c.sum));
    }
    std::mem::swap(&mut l.dev, scratch);
}

/// Label→members partition map stored as runs of a `(label, index)`
/// array sorted by label (ties by index, so members come out in
/// ascending vertex order). Lookup is two binary searches; building is
/// one sort — cheaper and cache-friendlier than a `HashMap<u64, Vec>`
/// for the snapshot-heavy trace.
struct PartitionIndex {
    entries: Vec<(u64, u32)>,
}

impl PartitionIndex {
    fn build(labels: &[u64]) -> Self {
        let mut entries: Vec<(u64, u32)> = labels
            .iter()
            .enumerate()
            .map(|(i, &l)| (l, i as u32))
            .collect();
        entries.sort_unstable();
        Self { entries }
    }

    /// The members of `label`'s partition, ascending by vertex index.
    fn members(&self, label: u64) -> &[(u64, u32)] {
        let lo = self.entries.partition_point(|&(l, _)| l < label);
        let hi = self.entries.partition_point(|&(l, _)| l <= label);
        &self.entries[lo..hi]
    }

    fn count(&self, label: u64) -> usize {
        self.members(label).len()
    }
}

/// A lazily extended sequence of `G` label snapshots. Main-graph
/// relabeling in Phase I is *pattern-independent* (no valid/corrupt
/// logic applies to `G`), so one trace can serve many patterns — the
/// basis of [`run_many`] and the matcher's multi-pattern path.
///
/// The trace owns an [`Arc`] of the compiled main graph, so it can
/// outlive the borrow that produced it (the extractor keeps one alive
/// across replacement passes).
///
/// `step 0` is the initial labeling; odd steps follow a net phase, even
/// steps a device phase.
pub struct GTrace {
    g: Arc<CompiledCircuit>,
    snaps: Vec<StepData>,
    scratch: Vec<u64>,
}

/// One trace step: the labels plus label→members partition indices,
/// cached so that per-pattern consistency checks cost `O(|S| log |G|)`
/// rather than `O(|G|)`.
struct StepData {
    labels: Labels,
    dev_parts: PartitionIndex,
    net_parts: PartitionIndex,
}

impl StepData {
    fn from_labels(labels: Labels) -> Self {
        let dev_parts = PartitionIndex::build(&labels.dev);
        let net_parts = PartitionIndex::build(&labels.net);
        Self {
            labels,
            dev_parts,
            net_parts,
        }
    }
}

impl GTrace {
    /// Starts a trace for the compiled main graph `g`.
    pub fn new(g: Arc<CompiledCircuit>) -> Self {
        let first = StepData::from_labels(initial_labels(&g));
        Self {
            g,
            snaps: vec![first],
            scratch: Vec::new(),
        }
    }

    /// Step data after `step` relabeling half-phases (extending the
    /// trace as needed).
    fn step(&mut self, step: usize) -> &StepData {
        while self.snaps.len() <= step {
            let mut next = self
                .snaps
                .last()
                .expect("trace starts non-empty")
                .labels
                .clone();
            if self.snaps.len() % 2 == 1 {
                // The snapshot being created has an odd index => it
                // follows a net phase.
                relabel_nets(&self.g, &mut next, &mut self.scratch);
            } else {
                relabel_devices(&self.g, &mut next, &mut self.scratch);
            }
            self.snaps.push(StepData::from_labels(next));
        }
        &self.snaps[step]
    }
}

struct Validity {
    dev: Vec<bool>,
    net: Vec<bool>,
}

impl Validity {
    fn new(s: &CompiledCircuit) -> Self {
        let net = (0..s.net_count())
            .map(|i| {
                let n = NetId::new(i as u32);
                // External nets are corrupt from the start; globals stay
                // valid forever (their labels are fixed by name).
                s.is_global(n) || !s.is_port(n)
            })
            .collect();
        Self {
            dev: vec![true; s.device_count()],
            net,
        }
    }

    /// Marks nets with an invalid device neighbor invalid; returns how
    /// many were newly invalidated.
    fn propagate_to_nets(&mut self, s: &CompiledCircuit) -> usize {
        let mut newly = 0;
        for i in 0..self.net.len() {
            let n = NetId::new(i as u32);
            if !self.net[i] || s.is_global(n) {
                continue;
            }
            if s.net_neighbors(n).any(|(d, _)| !self.dev[d.index()]) {
                self.net[i] = false;
                newly += 1;
            }
        }
        newly
    }

    /// Marks devices with an invalid net neighbor invalid; returns how
    /// many were newly invalidated.
    fn propagate_to_devices(&mut self, s: &CompiledCircuit) -> usize {
        let mut newly = 0;
        for i in 0..self.dev.len() {
            if !self.dev[i] {
                continue;
            }
            let d = DeviceId::new(i as u32);
            if s.device_neighbors(d).any(|(n, _)| !self.net[n.index()]) {
                self.dev[i] = false;
                newly += 1;
            }
        }
        newly
    }

    fn live_nets(&self, s: &CompiledCircuit) -> usize {
        (0..self.net.len())
            .filter(|&i| self.net[i] && !s.is_global(NetId::new(i as u32)))
            .count()
    }

    fn live_devices(&self) -> usize {
        self.dev.iter().filter(|&&v| v).count()
    }
}

/// Checks Label Invariant (1)'s consequence: every valid `S` partition
/// must be matched in `G` with at least as many members. `Err` carries
/// the first violated `(label, s_count, g_count)` — the pattern
/// provably has no instance. The valid `S` labels are gathered into
/// `scratch` and sorted; each equal-label run is checked against the
/// trace's cached partition index.
fn consistent(
    s_labels: &[u64],
    s_valid: &[bool],
    g_parts: &PartitionIndex,
    scratch: &mut Vec<u64>,
) -> Result<(), (u64, usize, usize)> {
    scratch.clear();
    scratch.extend(
        s_labels
            .iter()
            .zip(s_valid.iter())
            .filter(|&(_, &v)| v)
            .map(|(&l, _)| l),
    );
    scratch.sort_unstable();
    let mut i = 0;
    while i < scratch.len() {
        let l = scratch[i];
        let mut j = i + 1;
        while j < scratch.len() && scratch[j] == l {
            j += 1;
        }
        let gc = g_parts.count(l);
        if gc < j - i {
            return Err((l, j - i, gc));
        }
        i = j;
    }
    Ok(())
}

/// Wall-clock split of one Phase I run (zeroed unless collection was
/// requested).
#[derive(Clone, Copy, Debug, Default)]
pub struct Phase1Timing {
    /// Iterative-relabeling (partition refinement) time.
    pub refine_ns: u64,
    /// Candidate-vector / key-vertex selection time.
    pub select_ns: u64,
}

/// Runs Phase I with the paper's smallest-partition key policy.
pub fn run(s: &CompiledCircuit, g: &Arc<CompiledCircuit>) -> Phase1Output {
    run_with_policy(s, g, KeyPolicy::SmallestPartition)
}

/// Runs Phase I.
pub fn run_with_policy(
    s: &CompiledCircuit,
    g: &Arc<CompiledCircuit>,
    policy: KeyPolicy,
) -> Phase1Output {
    let mut trace = GTrace::new(Arc::clone(g));
    run_with_trace(s, &mut trace, policy)
}

/// Runs Phase I for many patterns against one main circuit, relabeling
/// the main graph only once: its Phase I labels do not depend on the
/// pattern, so the per-pattern cost drops from `O(|G|·iters)` to the
/// pattern-side work after the first call.
pub fn run_many(
    patterns: &[&CompiledCircuit],
    g: &Arc<CompiledCircuit>,
    policy: KeyPolicy,
) -> Vec<Phase1Output> {
    let mut trace = GTrace::new(Arc::clone(g));
    patterns
        .iter()
        .map(|s| run_with_trace(s, &mut trace, policy))
        .collect()
}

/// Runs Phase I against a (shared, lazily extended) main-graph label
/// trace.
///
/// Globals in either graph never relabel (fixed name-derived labels) and
/// are excluded from candidate-vector selection: with special-net
/// semantics they are pre-matched by name, so anchoring Phase II on them
/// would be useless.
pub fn run_with_trace(s: &CompiledCircuit, trace: &mut GTrace, policy: KeyPolicy) -> Phase1Output {
    run_with_trace_timed(s, trace, policy, false).0
}

/// Timed form of [`run_with_trace`]: refinement and selection are
/// measured separately when `collect` is set, and skipped entirely (no
/// clock reads) when it is not.
pub fn run_with_trace_timed(
    s: &CompiledCircuit,
    trace: &mut GTrace,
    policy: KeyPolicy,
    collect: bool,
) -> (Phase1Output, Phase1Timing) {
    run_with_trace_instrumented(s, trace, policy, collect, None)
}

/// Fully instrumented form of [`run_with_trace`]: optional phase timing
/// (`collect`) and an optional structured event buffer receiving
/// [`RefineIter`](EventKind::RefineIter) /
/// [`RefineFail`](EventKind::RefineFail) /
/// [`CvSelected`](EventKind::CvSelected) events. With `events` `None`
/// no event is constructed (the hot loop stays event-free).
pub fn run_with_trace_instrumented(
    s: &CompiledCircuit,
    trace: &mut GTrace,
    policy: KeyPolicy,
    collect: bool,
    events: Option<&mut EventBuffer>,
) -> (Phase1Output, Phase1Timing) {
    run_governed(s, trace, policy, collect, events, None)
}

/// [`run_with_trace_instrumented`] plus an optional search governor:
/// cancellation and wall-clock deadlines are checked once per
/// refinement cycle (effort accounting stays with the caller, which
/// charges the returned iteration count). Internal: the governor type
/// is crate-private by design.
pub(crate) fn run_governed(
    s: &CompiledCircuit,
    trace: &mut GTrace,
    policy: KeyPolicy,
    collect: bool,
    mut events: Option<&mut EventBuffer>,
    governor: Option<&crate::budget::Governor>,
) -> (Phase1Output, Phase1Timing) {
    let mut timing = Phase1Timing::default();
    let timer = collect.then(crate::metrics::PhaseTimer::start);
    let refined = refine(s, trace, events.as_deref_mut(), governor);
    if let Some(t) = &timer {
        timing.refine_ns = t.elapsed_ns();
    }
    let out = match refined {
        Err((stats, interrupted)) => Phase1Output {
            key: None,
            candidates: Vec::new(),
            stats,
            interrupted,
        },
        Ok(refined) => {
            let timer = collect.then(crate::metrics::PhaseTimer::start);
            let out = select(s, trace, policy, refined, events);
            if let Some(t) = &timer {
                timing.select_ns = t.elapsed_ns();
            }
            out
        }
    };
    (out, timing)
}

/// Pattern-side state after the refinement loop stops.
struct Refined {
    sl: Labels,
    valid: Validity,
    step: usize,
    stats: Phase1Stats,
}

/// Distinct labels among valid vertices (both sides) — the event-stream
/// notion of "live partitions". Only computed when events are on.
fn distinct_valid_labels(sl: &Labels, valid: &Validity) -> u32 {
    let mut set = std::collections::HashSet::new();
    for (i, &l) in sl.dev.iter().enumerate() {
        if valid.dev[i] {
            set.insert((false, l));
        }
    }
    for (i, &l) in sl.net.iter().enumerate() {
        if valid.net[i] {
            set.insert((true, l));
        }
    }
    set.len() as u32
}

/// The iterative-relabeling loop: alternating net/device phases with
/// valid/corrupt propagation and per-phase consistency checks. `Err`
/// carries the stats of a run that stopped early: with no
/// [`TruncationReason`](crate::budget::TruncationReason) it proved no
/// instance can exist; with one, a governor interrupted it.
fn refine(
    s: &CompiledCircuit,
    trace: &mut GTrace,
    mut events: Option<&mut EventBuffer>,
    governor: Option<&crate::budget::Governor>,
) -> Result<Refined, (Phase1Stats, Option<crate::budget::TruncationReason>)> {
    let mut stats = Phase1Stats::default();
    let mut sl = initial_labels(s);
    let mut valid = Validity::new(s);
    let mut step = 0usize;
    // Reused buffers: double-buffer for relabeling, sort buffer for
    // consistency checks. No allocation inside the loop after warmup.
    let mut relabel_buf: Vec<u64> = Vec::new();
    let mut sort_buf: Vec<u64> = Vec::new();

    let empty = |stats: Phase1Stats| Phase1Stats {
        proven_empty: true,
        ..stats
    };
    let fail_event = |events: &mut Option<&mut EventBuffer>,
                      round: usize,
                      (label, s_count, g_count): (u64, usize, usize)| {
        if let Some(ev) = events.as_deref_mut() {
            ev.push(EventKind::RefineFail {
                round: round as u32,
                label,
                s_count: s_count as u32,
                g_count: g_count as u32,
            });
        }
    };

    // Consistency on the initial (invariant) labels — the check that
    // removes the "-" vertices in paper Fig. 4.
    {
        let sd = trace.step(0);
        if let Err(v) = consistent(&sl.dev, &valid.dev, &sd.dev_parts, &mut sort_buf)
            .and_then(|()| consistent(&sl.net, &valid.net, &sd.net_parts, &mut sort_buf))
        {
            fail_event(&mut events, 0, v);
            return Err((empty(stats), None));
        }
    }

    let max_cycles = s.device_count() + s.net_count() + 2;
    let mut prev_signature = (0usize, 0usize, 0usize);
    for _cycle in 0..max_cycles {
        // Cooperative stop check, once per cycle: a cancelled or
        // deadline-expired search abandons refinement (the caller
        // reports a truncated outcome). A zero deadline always stops
        // here, before any relabeling work — the deterministic case.
        crate::budget::failpoint::stall("phase1.cycle");
        if let Some(reason) = governor.and_then(crate::budget::Governor::interrupted) {
            return Err((stats, Some(reason)));
        }
        // --- net phase ---
        relabel_nets(s, &mut sl, &mut relabel_buf);
        step += 1;
        let inv_n = valid.propagate_to_nets(s);
        stats.iterations += 1;
        if let Some(ev) = events.as_deref_mut() {
            ev.push(EventKind::RefineIter {
                round: stats.iterations as u32,
                live_partitions: distinct_valid_labels(&sl, &valid),
                corrupted: inv_n as u32,
            });
        }
        if let Err(v) = consistent(
            &sl.net,
            &valid.net,
            &trace.step(step).net_parts,
            &mut sort_buf,
        ) {
            fail_event(&mut events, stats.iterations, v);
            return Err((empty(stats), None));
        }
        if valid.live_nets(s) == 0 {
            break;
        }
        // --- device phase ---
        relabel_devices(s, &mut sl, &mut relabel_buf);
        step += 1;
        let inv_d = valid.propagate_to_devices(s);
        stats.iterations += 1;
        if let Some(ev) = events.as_deref_mut() {
            ev.push(EventKind::RefineIter {
                round: stats.iterations as u32,
                live_partitions: distinct_valid_labels(&sl, &valid),
                corrupted: inv_d as u32,
            });
        }
        if let Err(v) = consistent(
            &sl.dev,
            &valid.dev,
            &trace.step(step).dev_parts,
            &mut sort_buf,
        ) {
            fail_event(&mut events, stats.iterations, v);
            return Err((empty(stats), None));
        }
        if valid.live_devices() == 0 {
            break;
        }
        // --- stabilization guard (closed patterns never corrupt) ---
        let distinct_valid = distinct_valid_labels(&sl, &valid) as usize;
        let signature = (inv_n, inv_d, distinct_valid);
        if inv_n == 0 && inv_d == 0 && signature.2 == prev_signature.2 && _cycle > 0 {
            break;
        }
        prev_signature = signature;
    }

    Ok(Refined {
        sl,
        valid,
        step,
        stats,
    })
}

/// Sorted `(label, index)` entries of the valid `S` vertices on one
/// side, collapsed into `(label, count, first_index)` runs.
fn valid_runs(labels: &[u64], keep: impl Fn(usize) -> bool) -> Vec<(u64, u32, u32)> {
    let mut entries: Vec<(u64, u32)> = labels
        .iter()
        .enumerate()
        .filter(|&(i, _)| keep(i))
        .map(|(i, &l)| (l, i as u32))
        .collect();
    entries.sort_unstable();
    let mut runs: Vec<(u64, u32, u32)> = Vec::new();
    for (l, i) in entries {
        match runs.last_mut() {
            Some((rl, c, _)) if *rl == l => *c += 1,
            _ => runs.push((l, 1, i)),
        }
    }
    runs
}

/// Candidate-vector selection: picks the key vertex per policy from the
/// refined partitions and materializes its candidate images.
fn select(
    s: &CompiledCircuit,
    trace: &mut GTrace,
    policy: KeyPolicy,
    refined: Refined,
    mut events: Option<&mut EventBuffer>,
) -> Phase1Output {
    let Refined {
        sl,
        valid,
        step,
        mut stats,
    } = refined;
    let empty = |stats: Phase1Stats| Phase1Output {
        key: None,
        candidates: Vec::new(),
        stats: Phase1Stats {
            proven_empty: true,
            ..stats
        },
        interrupted: None,
    };
    let g = Arc::clone(&trace.g);
    // Use the cached G partitions at the step we stopped on. Global
    // nets are filtered out of the (at most |S|) partitions we actually
    // inspect, keeping per-pattern cost near-independent of |G|.
    let data = trace.step(step);

    // Valid S vertices per label as sorted runs, so we can report the
    // key's partition size and verify |P_g| >= |P_s| one last time.
    let s_dev_runs = valid_runs(&sl.dev, |i| valid.dev[i]);
    let s_net_runs = valid_runs(&sl.net, |i| {
        valid.net[i] && !s.is_global(NetId::new(i as u32))
    });

    // Non-global G net partition members for exactly the labels we may
    // anchor on, keyed in run (= ascending label) order.
    let mut g_net_parts: Vec<(u64, Vec<u32>)> = s_net_runs
        .iter()
        .map(|&(l, _, _)| {
            let members: Vec<u32> = data
                .net_parts
                .members(l)
                .iter()
                .map(|&(_, gi)| gi)
                .filter(|&gi| !g.is_global(NetId::new(gi)))
                .collect();
            (l, members)
        })
        .collect();

    // Enumerate viable (G-partition size, side, label, first S index)
    // choices, verifying |P_g| >= |P_s| one last time, then pick per
    // policy. Tie-breaking is deterministic by (size, side, label).
    let mut viable: Vec<(usize, u8, u64, u32)> = Vec::new();
    for &(l, sc, first) in &s_dev_runs {
        let gp = data.dev_parts.count(l);
        if gp < sc as usize {
            if let Some(ev) = events.as_deref_mut() {
                ev.push(EventKind::RefineFail {
                    round: stats.iterations as u32,
                    label: l,
                    s_count: sc,
                    g_count: gp as u32,
                });
            }
            return empty(stats);
        }
        viable.push((gp, 0u8, l, first));
    }
    for (&(l, sc, first), (_, members)) in s_net_runs.iter().zip(&g_net_parts) {
        let gp = members.len();
        if gp < sc as usize {
            if let Some(ev) = events.as_deref_mut() {
                ev.push(EventKind::RefineFail {
                    round: stats.iterations as u32,
                    label: l,
                    s_count: sc,
                    g_count: gp as u32,
                });
            }
            return empty(stats);
        }
        viable.push((gp, 1u8, l, first));
    }
    let best = match policy {
        KeyPolicy::SmallestPartition => viable
            .iter()
            .min_by_key(|&&(gp, side, l, _)| (gp, side, l))
            .copied(),
        KeyPolicy::LargestPartition => viable
            .iter()
            .max_by_key(|&&(gp, side, l, _)| (gp, side, l))
            .copied(),
        KeyPolicy::FirstValid => viable
            .iter()
            .min_by_key(|&&(_, side, _, first)| (side, first))
            .copied(),
    };
    let Some((size, side, label, first)) = best else {
        // No valid vertices at all (pattern without devices): nothing to
        // anchor on.
        return Phase1Output {
            key: None,
            candidates: Vec::new(),
            stats,
            interrupted: None,
        };
    };
    let (key, candidates): (Vertex, Vec<Vertex>) = if side == 0 {
        (
            Vertex::Device(DeviceId::new(first)),
            data.dev_parts
                .members(label)
                .iter()
                .map(|&(_, i)| Vertex::Device(DeviceId::new(i)))
                .collect(),
        )
    } else {
        let slot = g_net_parts
            .binary_search_by_key(&label, |&(l, _)| l)
            .expect("net label came from the same runs");
        (
            Vertex::Net(NetId::new(first)),
            std::mem::take(&mut g_net_parts[slot].1)
                .into_iter()
                .map(|i| Vertex::Net(NetId::new(i)))
                .collect(),
        )
    };
    if let Some(ev) = events {
        ev.push(EventKind::CvSelected {
            label,
            size: size as u32,
            key_vertex: key,
        });
    }
    stats.cv_size = size;
    stats.key_partition_size = if side == 0 {
        s_dev_runs
            .iter()
            .find(|&&(l, _, _)| l == label)
            .map_or(0, |&(_, c, _)| c as usize)
    } else {
        s_net_runs
            .iter()
            .find(|&&(l, _, _)| l == label)
            .map_or(0, |&(_, c, _)| c as usize)
    };
    Phase1Output {
        key: Some(key),
        candidates,
        stats,
        interrupted: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subgemini_netlist::{instantiate, Netlist};

    fn compile(nl: &Netlist) -> Arc<CompiledCircuit> {
        Arc::new(CompiledCircuit::compile(nl))
    }

    fn inverter_cell() -> Netlist {
        let mut inv = Netlist::new("inv");
        let mos = inv.add_mos_types();
        let (a, y, vdd, gnd) = (inv.net("a"), inv.net("y"), inv.net("vdd"), inv.net("gnd"));
        inv.mark_port(a);
        inv.mark_port(y);
        inv.mark_global(vdd);
        inv.mark_global(gnd);
        inv.add_device("mp", mos.pmos, &[a, vdd, y]).unwrap();
        inv.add_device("mn", mos.nmos, &[a, gnd, y]).unwrap();
        inv
    }

    fn inverter_chain(n: usize) -> Netlist {
        let inv = inverter_cell();
        let mut chip = Netlist::new("chain");
        let mut prev = chip.net("in");
        for i in 0..n {
            let next = chip.net(format!("w{i}"));
            instantiate(&mut chip, &inv, &format!("u{i}"), &[prev, next]).unwrap();
            prev = next;
        }
        chip
    }

    #[test]
    fn candidate_vector_covers_all_instances() {
        let pat = inverter_cell();
        let chip = inverter_chain(5);
        let sp = compile(&pat);
        let gp = compile(&chip);
        let out = run(&sp, &gp);
        assert!(!out.stats.proven_empty);
        let key = out.key.expect("key chosen");
        // Whatever the key is, completeness demands |CV| >= 5 images.
        assert!(out.candidates.len() >= 5, "cv={:?}", out.candidates);
        assert_eq!(out.stats.cv_size, out.candidates.len());
        // Key must come from the pattern's vertex space.
        match key {
            Vertex::Device(d) => assert!(d.index() < pat.device_count()),
            Vertex::Net(n) => assert!(n.index() < pat.net_count()),
        }
    }

    #[test]
    fn absent_device_type_proves_empty() {
        // Pattern uses a resistor; main circuit has none.
        let mut pat = Netlist::new("rc");
        let res = pat
            .add_type(subgemini_netlist::DeviceType::two_terminal("res"))
            .unwrap();
        let (a, b) = (pat.net("a"), pat.net("b"));
        pat.mark_port(a);
        pat.mark_port(b);
        pat.add_device("r1", res, &[a, b]).unwrap();
        let chip = inverter_chain(3);
        let out = run(&compile(&pat), &compile(&chip));
        assert!(out.stats.proven_empty);
        assert!(out.key.is_none());
    }

    #[test]
    fn oversized_pattern_proves_empty() {
        // Pattern needs 4 pmos; main has 2.
        let mut pat = Netlist::new("big");
        let mos = pat.add_mos_types();
        let vdd = pat.net("vdd");
        pat.mark_global(vdd);
        for i in 0..4 {
            let g = pat.net(format!("g{i}"));
            let d = pat.net(format!("d{i}"));
            pat.mark_port(g);
            pat.mark_port(d);
            pat.add_device(format!("p{i}"), mos.pmos, &[g, vdd, d])
                .unwrap();
        }
        let chip = inverter_chain(2);
        let out = run(&compile(&pat), &compile(&chip));
        assert!(out.stats.proven_empty);
    }

    #[test]
    fn closed_pattern_terminates() {
        // A ring oscillator pattern: no ports at all. Phase I must stop
        // via the stabilization guard, not loop forever.
        let inv = inverter_cell();
        let mut ring = Netlist::new("ring");
        let (a, b, c) = (ring.net("n0"), ring.net("n1"), ring.net("n2"));
        for (i, (x, y)) in [(a, b), (b, c), (c, a)].iter().enumerate() {
            instantiate(&mut ring, &inv, &format!("u{i}"), &[*x, *y]).unwrap();
        }
        // Pattern = the ring itself (no ports -> no external nets).
        let mut big = Netlist::new("big");
        let (p, q, r, s) = (big.net("m0"), big.net("m1"), big.net("m2"), big.net("m3"));
        for (i, (x, y)) in [(p, q), (q, r), (r, s), (s, p)].iter().enumerate() {
            instantiate(&mut big, &inv, &format!("v{i}"), &[*x, *y]).unwrap();
        }
        let out = run(&compile(&ring), &compile(&big));
        // 3-ring is not a subgraph of a 4-ring; Phase I may or may not
        // prove it, but it must terminate with *some* answer.
        assert!(out.stats.iterations < 100);
    }

    #[test]
    fn key_prefers_small_partitions() {
        // One NAND in a sea of inverters: anchoring on the NAND-specific
        // structure should give a small CV.
        let inv = inverter_cell();
        let mut chip = inverter_chain(8);
        // Plant a distinctive 2-high NMOS stack.
        let mos = chip.add_mos_types();
        let (x, y, z, gnd) = (
            chip.net("x"),
            chip.net("y9"),
            chip.net("z"),
            chip.net("gnd"),
        );
        chip.add_device("s1", mos.nmos, &[x, y, z]).unwrap();
        let w = chip.net("w9");
        chip.add_device("s2", mos.nmos, &[x, z, gnd]).unwrap();
        let _ = w;
        let pat = inv;
        let out = run(&compile(&pat), &compile(&chip));
        // The inverter pattern's CV must still include all 8 planted
        // inverters' key images.
        assert!(out.candidates.len() >= 8);
    }

    #[test]
    fn iterations_bounded_by_pattern_size() {
        let pat = inverter_cell();
        let chip = inverter_chain(12);
        let out = run(&compile(&pat), &compile(&chip));
        assert!(out.stats.iterations <= pat.device_count() + pat.net_count() + 4);
    }

    #[test]
    fn shared_trace_reproduces_isolated_runs() {
        // run_many over one trace must agree with one-trace-per-pattern.
        let pats = [inverter_cell(), inverter_cell()];
        let chip = inverter_chain(6);
        let g = compile(&chip);
        let compiled: Vec<Arc<CompiledCircuit>> = pats.iter().map(compile).collect();
        let refs: Vec<&CompiledCircuit> = compiled.iter().map(|c| c.as_ref()).collect();
        let many = run_many(&refs, &g, KeyPolicy::SmallestPartition);
        for (s, out) in refs.iter().zip(&many) {
            let solo = run(s, &g);
            assert_eq!(solo.key, out.key);
            assert_eq!(solo.candidates, out.candidates);
        }
    }
}

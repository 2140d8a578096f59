//! Incremental (delta) placement cost evaluation.
//!
//! [`cost_breakdown`](crate::cost::cost_breakdown) re-walks the whole
//! interaction graph — `O(hosts × edges + hosts × nodes)` with petgraph
//! iteration overhead and a fresh `load` allocation — yet every move a
//! search algorithm tries changes the placement of exactly *one* component.
//! [`CostEvaluator`] exploits that: it flattens the graph once into
//! cache-friendly CSR-style arrays (per-node incident edge lists), keeps the
//! per-host CPU load and the three [`CostBreakdown`] terms as live state,
//! and re-evaluates only the terms a move can touch: the edges incident to
//! the moved component, that component's consistency pushes, and its load
//! contributions. A replica toggle costs `O(degree)`. A primary move costs
//! `O(|R| + degree + Σ|Q \ R|)`: one pass over the moved component's
//! replica hosts `R`, then per incident edge O(1), or one walk over the far
//! component's replica hosts `Q` that `R` lacks. Either replaces a
//! whole-graph sweep.
//!
//! Communication is priced against **one all-pairs distance matrix**
//! (`hosts²` floats, flattened from the problem's round-trip matrix)
//! combined with two scalar weights per edge
//! (`calls/s × round_trips` and `calls/s × bytes × serialization ms`):
//! `cost(e, a, b) = w_rtt[e]·dist[a][b] + w_fixed[e]` for `a ≠ b`. Earlier
//! revisions materialized a dense host×host table *per edge*
//! (`O(edges × hosts²)` floats), which was fine for the paper's 3-server
//! star but is ~21 MB for a 256-host multi-tier graph; the one matrix
//! brings construction and memory to `O(hosts² + edges)` while pricing
//! multi-hop WAN paths identically (the matrix rows come from
//! latency-shortest routes when the problem is derived from a
//! [`Topology`](mutsvc_netsim::Topology) — see [`crate::wan`]).
//!
//! Search loops price a candidate move with
//! [`delta`](CostEvaluator::delta), which reads the live state and writes
//! none of it, and commit the chosen move with
//! [`apply`](CostEvaluator::apply). Both run one pricing core, so a probe's
//! price is bit for bit what applying the move returns; `apply` then writes
//! the priced state. Every `apply` is reversible via
//! [`undo`](CostEvaluator::undo) (the evaluator keeps an undo stack), and
//! no search ever clones a [`Placement`]: primaries plus replica bitmasks
//! are the only placement state, and
//! [`placement`](CostEvaluator::placement) builds a [`Placement`] from them
//! on demand.
//! The three running cost terms use Kahan-compensated summation so that
//! millions of `apply`/`undo` deltas stay within `1e-9` of a from-scratch
//! [`cost_breakdown`](crate::cost::cost_breakdown) — a property test drives
//! exactly that comparison (`tests/incremental_equivalence.rs`).

use petgraph::graph::NodeIndex;

use crate::cost::CostBreakdown;
use crate::graph::{HostId, Placement, PlacementProblem, Role};

/// A reversible single-component placement mutation — the three move kinds
/// the search algorithms use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// Re-home a component's primary onto `to` (any replica already at `to`
    /// is absorbed, matching the search algorithms' move semantics).
    MovePrimary {
        /// The component to move.
        node: NodeIndex,
        /// The new primary host.
        to: HostId,
    },
    /// Add a read-only replica of `node` at `host`.
    AddReplica {
        /// The component to replicate.
        node: NodeIndex,
        /// The replica host (must not be the current primary).
        host: HostId,
    },
    /// Drop the replica of `node` at `host`.
    DropReplica {
        /// The component whose replica is dropped.
        node: NodeIndex,
        /// The replica host being dropped.
        host: HostId,
    },
}

impl Move {
    /// The component the move changes.
    pub(crate) fn node(self) -> NodeIndex {
        match self {
            Move::MovePrimary { node, .. }
            | Move::AddReplica { node, .. }
            | Move::DropReplica { node, .. } => node,
        }
    }
}

/// Kahan-compensated running sum: keeps the error of a long +/- delta
/// stream at the last-bit level instead of accumulating linearly.
#[derive(Debug, Clone, Copy, Default)]
struct Kahan {
    sum: f64,
    compensation: f64,
}

impl Kahan {
    fn new(value: f64) -> Self {
        Kahan {
            sum: value,
            compensation: 0.0,
        }
    }

    fn add(&mut self, x: f64) {
        let y = x - self.compensation;
        let t = self.sum + y;
        self.compensation = (t - self.sum) - y;
        self.sum = t;
    }

    fn value(self) -> f64 {
        self.sum
    }
}

/// Undo record for one applied move.
#[derive(Debug, Clone, Copy)]
struct Applied {
    mv: Move,
    /// For `MovePrimary`: the previous primary host.
    prev_primary: u32,
    /// For `MovePrimary`: whether the target host held a replica that the
    /// move absorbed (and undo must restore).
    absorbed_replica: bool,
}

/// Tests bit `bit` of a multi-word mask.
#[inline]
fn mask_test(words: &[u64], bit: usize) -> bool {
    words[bit >> 6] & (1u64 << (bit & 63)) != 0
}

/// The host indices set in a multi-word mask, in ascending order.
fn mask_bits(words: &[u64]) -> MaskBits<'_> {
    MaskBits {
        words,
        index: 0,
        word: words.first().copied().unwrap_or(0),
    }
}

/// Iterator behind [`mask_bits`].
struct MaskBits<'a> {
    words: &'a [u64],
    index: usize,
    word: u64,
}

impl Iterator for MaskBits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            self.index += 1;
            self.word = *self.words.get(self.index)?;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some((self.index << 6) + bit)
    }
}

/// Sums over the replica hosts `R` of a component whose primary moves
/// `p → p′`, gathered in one pass by
/// [`CostEvaluator::replica_sums`]. The `_new` sums skip `r = p′`.
#[derive(Debug, Default)]
struct ReplicaSums {
    /// `Σ share(r)`.
    share: f64,
    /// `Σ share(r)·dist[p][r]` and `Σ share(r)·dist[p′][r]`.
    to_old: f64,
    to_new: f64,
    /// `Σ share(r)·dist[r][p]` and `Σ share(r)·dist[r][p′]`.
    from_old: f64,
    from_new: f64,
    /// `Σ dist[p][r]` and `Σ dist[p′][r]`.
    push_old: f64,
    push_new: f64,
}

/// Demand moved from one host to another, priced on copies: both hosts'
/// loads and the overload total after the move.
#[derive(Debug, Clone, Copy)]
struct Shift {
    from: usize,
    to: usize,
    from_load: f64,
    to_load: f64,
    overload: Kahan,
}

/// A move's price and what applying it writes besides the placement: the
/// change of each running term, and the load shift if demand moves.
#[derive(Debug, Clone, Copy)]
struct Priced {
    /// The change in total cost, as [`CostEvaluator::apply`] returns it.
    delta: f64,
    communication: f64,
    consistency: f64,
    shift: Option<Shift>,
}

/// Incremental placement cost evaluator.
///
/// Owns a flattened copy of the problem (it does not borrow the
/// [`PlacementProblem`]) plus the live placement and cost state. Build it
/// once per search with [`CostEvaluator::new`], price candidates with
/// [`delta`](CostEvaluator::delta), and drive it with
/// [`apply`](CostEvaluator::apply) / [`undo`](CostEvaluator::undo).
#[derive(Debug, Clone)]
pub struct CostEvaluator {
    // ---- immutable flattened problem ----
    hosts: usize,
    /// Words per replica bitmask (`⌈hosts / 64⌉`).
    mask_words: usize,
    /// Entry origins: `(host, entry_share)` for hosts with positive share.
    origins: Vec<(u32, f64)>,
    /// Σ entry shares (≈1.0 for a validated problem) — folds the origin
    /// loop away wherever a delta is origin-independent.
    share_total: f64,
    /// Dense per-host entry share (0.0 for non-entry hosts); the replica
    /// fast path looks a single origin's share up by host index.
    entry_share: Vec<f64>,
    /// Per node: placement role.
    role: Vec<Role>,
    /// Per node: whether it is the source (`reads_to_entry`) or the target
    /// (`reads_from_entry`) of a read edge whose other endpoint is an
    /// Entry. Only then does a primary move need the replica hosts'
    /// share-weighted distances in that direction.
    reads_to_entry: Vec<bool>,
    reads_from_entry: Vec<bool>,
    /// Per node: writes/s against the component's state.
    write_rate: Vec<f64>,
    /// Per node: CPU demand (ms/s) an origin of share 1.0 induces at the
    /// node's serving location (`rate × cpu_ms_per_call`).
    load_ms: Vec<f64>,
    /// Edge endpoints (self-loops excluded: their cost is identically 0).
    edge_src: Vec<u32>,
    edge_dst: Vec<u32>,
    edge_write: Vec<bool>,
    /// Per edge: `calls/s × rmi_round_trips` — the weight on `dist[a][b]`.
    edge_w_rtt: Vec<f64>,
    /// Per edge: `calls/s × bytes_per_call × byte_ms` — the distance-free
    /// serialization term paid whenever the endpoints differ.
    edge_w_fixed: Vec<f64>,
    /// Host×host round-trip matrix (`dist[a·H + b] = rtt_ms[a][b]`,
    /// milliseconds): at 256 hosts it is 512 KiB, the only `hosts²`-sized
    /// table in the evaluator.
    dist: Vec<f64>,
    /// Share-weighted distance sums: `s_to[a] = Σ_o share(o)·dist[a][o]`
    /// and `s_from[a] = Σ_o share(o)·dist[o][a]` over the entry origins.
    /// They collapse the per-origin loop of every "origin on one side of
    /// the edge" delta to O(1) — crucial once origins number in the
    /// hundreds (on a 256-host graph an uncollapsed MovePrimary walks
    /// ~250 origins per incident edge).
    s_to: Vec<f64>,
    s_from: Vec<f64>,
    /// CSR incidence: edges touching node `n` are
    /// `inc_edge[inc_start[n]..inc_start[n + 1]]`.
    inc_start: Vec<u32>,
    inc_edge: Vec<u32>,
    /// Consistency push weights: `push(a, b) = push_rtt·dist[a][b] +
    /// push_fixed` for `a ≠ b` (replaces the former dense host×host table).
    push_rtt: f64,
    push_fixed: f64,
    /// Per host CPU capacity (ms/s).
    capacity: Vec<f64>,
    /// Whether any host has finite capacity: the overload term then couples
    /// every move's delta to the shared host loads (see
    /// [`mark_stale`](CostEvaluator::mark_stale)).
    load_coupled: bool,
    /// Overload penalty per ms/s of excess, divided by 1000 (as in
    /// `cost_breakdown`).
    overload_scale: f64,
    // ---- live state ----
    primary: Vec<u32>,
    /// Replica host bitmasks, `mask_words` words per node (bit `h` of the
    /// node's words ⇔ replica at host `h`).
    repl_mask: Vec<u64>,
    /// Per-host CPU load (ms/s).
    load: Vec<f64>,
    communication: Kahan,
    consistency: Kahan,
    /// Running overload penalty, updated through
    /// [`bumped`](Self::bumped) whenever a load slot crosses its capacity —
    /// `O(slots touched)` per move instead of an `O(hosts)` sweep before
    /// and after every move.
    overload_total: Kahan,
    history: Vec<Applied>,
}

impl CostEvaluator {
    /// Builds an evaluator for `problem`, positioned at `placement`.
    ///
    /// # Panics
    ///
    /// Panics if the round-trip matrix is not `hosts × hosts` or the
    /// placement arity does not match the graph.
    pub fn new(problem: &PlacementProblem, placement: Placement) -> CostEvaluator {
        let g = &problem.graph.graph;
        let n = g.node_count();
        let h = problem.hosts.len();
        assert_eq!(problem.rtt_ms.len(), h, "rtt matrix shape mismatch");
        let mut dist = Vec::with_capacity(h * h);
        for row in &problem.rtt_ms {
            assert_eq!(row.len(), h, "rtt matrix shape mismatch");
            dist.extend_from_slice(row);
        }
        assert_eq!(placement.primary.len(), n, "placement arity mismatch");
        assert_eq!(placement.replicas.len(), n, "placement arity mismatch");

        let origins: Vec<(u32, f64)> = problem
            .hosts
            .iter()
            .enumerate()
            .filter(|(_, host)| host.entry_share > 0.0)
            .map(|(i, host)| (i as u32, host.entry_share))
            .collect();
        let share_total: f64 = origins.iter().map(|&(_, s)| s).sum();

        let mut role = Vec::with_capacity(n);
        let mut write_rate = Vec::with_capacity(n);
        let mut load_ms = Vec::with_capacity(n);
        for node in g.node_indices() {
            let c = &g[node];
            role.push(c.role);
            write_rate.push(c.write_rate);
            let rate = match c.role {
                Role::Entry => problem.graph.read_rate(node).max(
                    g.edges_directed(node, petgraph::Direction::Outgoing)
                        .map(|e| e.weight().calls_per_sec)
                        .sum(),
                ),
                _ => problem.graph.read_rate(node),
            };
            node_checked(node, n);
            load_ms.push(rate * c.cpu_ms_per_call);
        }

        // Flatten edges: keep only those that can ever contribute cost
        // (positive call rate, distinct endpoints), exactly the set
        // `cost_breakdown` does not skip. Each edge carries two scalars —
        // the distance weight and the fixed serialization term — instead of
        // a host×host table.
        let byte_ms = 8.0 / problem.params.bandwidth_bps * 1_000.0;
        let mut edge_src = Vec::new();
        let mut edge_dst = Vec::new();
        let mut edge_write = Vec::new();
        let mut edge_w_rtt = Vec::new();
        let mut edge_w_fixed = Vec::new();
        for edge in g.edge_references() {
            let w = edge.weight();
            if w.calls_per_sec <= 0.0 || edge.source() == edge.target() {
                continue;
            }
            edge_src.push(edge.source().index() as u32);
            edge_dst.push(edge.target().index() as u32);
            edge_write.push(w.write_path);
            edge_w_rtt.push(w.calls_per_sec * problem.params.rmi_round_trips);
            edge_w_fixed.push(w.calls_per_sec * w.bytes_per_call * byte_ms);
        }

        let mut reads_to_entry = vec![false; n];
        let mut reads_from_entry = vec![false; n];
        for i in 0..edge_src.len() {
            let (s, t) = (edge_src[i] as usize, edge_dst[i] as usize);
            if !edge_write[i] {
                reads_to_entry[s] |= role[t] == Role::Entry;
                reads_from_entry[t] |= role[s] == Role::Entry;
            }
        }

        // CSR incidence lists (each edge listed under both endpoints).
        let e = edge_src.len();
        let mut degree = vec![0u32; n];
        for i in 0..e {
            degree[edge_src[i] as usize] += 1;
            degree[edge_dst[i] as usize] += 1;
        }
        let mut inc_start = vec![0u32; n + 1];
        for i in 0..n {
            inc_start[i + 1] = inc_start[i] + degree[i];
        }
        let mut cursor = inc_start.clone();
        let mut inc_edge = vec![0u32; inc_start[n] as usize];
        for i in 0..e {
            for endpoint in [edge_src[i] as usize, edge_dst[i] as usize] {
                inc_edge[cursor[endpoint] as usize] = i as u32;
                cursor[endpoint] += 1;
            }
        }

        let mut s_to = vec![0.0; h];
        let mut s_from = vec![0.0; h];
        for a in 0..h {
            let mut to_sum = 0.0;
            let mut from_sum = 0.0;
            for &(o, share) in &origins {
                to_sum += share * dist[a * h + o as usize];
                from_sum += share * dist[o as usize * h + a];
            }
            s_to[a] = to_sum;
            s_from[a] = from_sum;
        }

        let mask_words = h.div_ceil(64);
        let primary: Vec<u32> = placement.primary.iter().map(|p| p.0 as u32).collect();
        let mut repl_mask = vec![0u64; n * mask_words];
        for (i, replicas) in placement.replicas.iter().enumerate() {
            for r in replicas {
                assert!(r.0 < h, "replica on unknown host {r}");
                repl_mask[i * mask_words + (r.0 >> 6)] |= 1u64 << (r.0 & 63);
            }
        }

        let entry_share = problem.hosts.iter().map(|host| host.entry_share).collect();
        let capacity: Vec<f64> = problem.hosts.iter().map(|host| host.cpu_capacity).collect();
        let mut evaluator = CostEvaluator {
            hosts: h,
            mask_words,
            origins,
            share_total,
            entry_share,
            role,
            reads_to_entry,
            reads_from_entry,
            write_rate,
            load_ms,
            edge_src,
            edge_dst,
            edge_write,
            edge_w_rtt,
            edge_w_fixed,
            dist,
            s_to,
            s_from,
            inc_start,
            inc_edge,
            push_rtt: problem.params.push_round_trips,
            push_fixed: problem.params.push_bytes * byte_ms,
            load_coupled: capacity.iter().any(|c| c.is_finite()),
            capacity,
            overload_scale: problem.params.overload_penalty / 1_000.0,
            primary,
            repl_mask,
            load: vec![0.0; h],
            communication: Kahan::default(),
            consistency: Kahan::default(),
            overload_total: Kahan::default(),
            history: Vec::new(),
        };
        evaluator.rebuild_totals();
        evaluator
    }

    /// Bytes held by the cost tables: the distance matrix, the
    /// share-weighted distance sums and the per-edge scalar weights.
    pub fn table_bytes(&self) -> usize {
        (self.dist.len()
            + self.s_to.len()
            + self.s_from.len()
            + self.edge_w_rtt.len()
            + self.edge_w_fixed.len())
            * std::mem::size_of::<f64>()
    }

    /// Bytes the former dense layout (a host×host table per edge plus a
    /// host×host push matrix) would occupy — the denominator of the memory
    /// reduction reported by the scaling bench.
    pub fn dense_table_bytes(&self) -> usize {
        (self.edge_w_rtt.len() + 1) * self.hosts * self.hosts * std::mem::size_of::<f64>()
    }

    /// Recomputes the live state from scratch (used at construction).
    fn rebuild_totals(&mut self) {
        let mut communication = 0.0;
        for e in 0..self.edge_src.len() {
            communication += self.edge_comm(e);
        }
        self.communication = Kahan::new(communication);

        let mut consistency = 0.0;
        for n in 0..self.primary.len() {
            consistency += self.node_consistency(n);
        }
        self.consistency = Kahan::new(consistency);

        self.load.iter_mut().for_each(|l| *l = 0.0);
        self.overload_total = Kahan::default();
        for n in 0..self.primary.len() {
            self.shift_load(n);
        }
    }

    /// Number of moves currently on the undo stack.
    pub fn depth(&self) -> usize {
        self.history.len()
    }

    /// Discards the undo history, accepting the current state as final.
    /// Long-running searches that never roll back past their last accepted
    /// move call this to keep the undo stack from growing without bound.
    pub fn commit(&mut self) {
        self.history.clear();
    }

    /// The current placement, built from the primaries and replica masks
    /// (`O(components + replicas)`).
    pub fn placement(&self) -> Placement {
        Placement {
            primary: self.primary.iter().map(|&p| HostId(p as usize)).collect(),
            replicas: (0..self.primary.len())
                .map(|n| mask_bits(self.mask(n)).map(HostId).collect())
                .collect(),
        }
    }

    /// Number of components.
    pub fn components(&self) -> usize {
        self.primary.len()
    }

    /// Number of candidate hosts.
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// Marks the prices the committed move `mv` can have changed, for a
    /// search that keeps prices between moves.
    ///
    /// `stale` gets every component whose move deltas `mv` can have
    /// changed. A delta reads only the moving component's primary and
    /// replica mask and those of its incidence neighbours, so normally that
    /// is the moved component and its neighbours.
    ///
    /// `toggle_delta` holds cached replica-toggle prices, the toggle of
    /// node `m` at host `v` in slot `m · hosts + v` (so it has
    /// `components · hosts` slots, and `stale` one per component), NaN
    /// when unpriced; the slots `mv` can have changed are reset to NaN. A
    /// toggle of `m` at `v` reads `m`'s primary, write rate and mask bit
    /// `v`, the share of origin `v`, and, over `m`'s read edges, each
    /// neighbour's serving location for origin `v` (its primary and its
    /// mask bit `v`). So a replica toggle of `n` at `h` can change only the
    /// toggles at `h` of `n` and its neighbours, and a primary move of `n`
    /// every toggle of both; every other slot stays bit for bit what
    /// [`delta`](Self::delta) returns.
    ///
    /// When any host has finite CPU capacity the overload term couples
    /// every move through the shared host loads, so everything is marked.
    pub fn mark_stale(&self, mv: Move, stale: &mut [bool], toggle_delta: &mut [f64]) {
        if self.load_coupled {
            stale.fill(true);
            toggle_delta.fill(f64::NAN);
            return;
        }
        let h = self.hosts;
        let mut mark = |n: usize| {
            stale[n] = true;
            match mv {
                Move::MovePrimary { .. } => toggle_delta[n * h..(n + 1) * h].fill(f64::NAN),
                Move::AddReplica { host, .. } | Move::DropReplica { host, .. } => {
                    toggle_delta[n * h + host.0] = f64::NAN;
                }
            }
        };
        let idx = mv.node().index();
        mark(idx);
        for k in self.inc_start[idx]..self.inc_start[idx + 1] {
            let e = self.inc_edge[k as usize] as usize;
            mark(self.edge_src[e] as usize);
            mark(self.edge_dst[e] as usize);
        }
    }

    /// The replica toggle of `node` at `host`: a drop when `node` has a
    /// replica there, an add otherwise.
    pub(crate) fn toggle_replica(&self, node: NodeIndex, host: HostId) -> Move {
        if self.has_replica(node, host) {
            Move::DropReplica { node, host }
        } else {
            Move::AddReplica { node, host }
        }
    }

    /// Current primary host of `node`.
    pub fn primary_of(&self, node: NodeIndex) -> HostId {
        HostId(self.primary[node.index()] as usize)
    }

    /// Whether `node` currently has a replica at `host`.
    pub fn has_replica(&self, node: NodeIndex, host: HostId) -> bool {
        mask_test(self.mask(node.index()), host.0)
    }

    /// The current cost breakdown.
    pub fn breakdown(&self) -> CostBreakdown {
        CostBreakdown {
            communication: self.communication.value(),
            consistency: self.consistency.value(),
            overload: self.overload_total.value(),
        }
    }

    /// The current scalar objective.
    pub fn total(&self) -> f64 {
        self.breakdown().total()
    }

    /// The change in total cost `mv` would make (negative = improvement),
    /// without applying it: bit for bit what [`apply`](CostEvaluator::apply)
    /// returns from the current state, since both run one pricing core.
    ///
    /// # Panics
    ///
    /// Panics on every move `apply` rejects.
    pub fn delta(&self, mv: Move) -> f64 {
        self.check(mv);
        self.price(mv).map_or(0.0, |priced| priced.delta)
    }

    /// Applies `mv` and returns the change in total cost (negative =
    /// improvement). The move is recorded for [`undo`](CostEvaluator::undo).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range hosts, on `AddReplica`/`DropReplica` of the
    /// current primary, on adding a replica that already exists or dropping
    /// one that does not: the search algorithms construct only valid moves,
    /// and silently ignoring an invalid one would desynchronize the
    /// evaluator from the caller's view of the placement.
    pub fn apply(&mut self, mv: Move) -> f64 {
        let record = self.check(mv);
        let delta = self.execute(mv);
        self.history.push(record);
        delta
    }

    /// Reverts the most recent un-undone [`apply`](CostEvaluator::apply),
    /// returning the change in total cost.
    ///
    /// # Panics
    ///
    /// Panics if there is nothing to undo.
    pub fn undo(&mut self) -> f64 {
        let record = self.history.pop().expect("undo with no applied move");
        match record.mv {
            Move::MovePrimary { node, .. } => {
                let mut delta = self.execute(Move::MovePrimary {
                    node,
                    to: HostId(record.prev_primary as usize),
                });
                if record.absorbed_replica {
                    let Move::MovePrimary { to, .. } = record.mv else {
                        unreachable!()
                    };
                    delta += self.execute(Move::AddReplica { node, host: to });
                }
                delta
            }
            Move::AddReplica { node, host } => self.execute(Move::DropReplica { node, host }),
            Move::DropReplica { node, host } => self.execute(Move::AddReplica { node, host }),
        }
    }

    /// The replica bitmask words of node `idx`.
    #[inline]
    fn mask(&self, idx: usize) -> &[u64] {
        &self.repl_mask[idx * self.mask_words..(idx + 1) * self.mask_words]
    }

    /// Sets (`true`) or clears (`false`) host bit `bit` of node `idx`.
    #[inline]
    fn set_mask(&mut self, idx: usize, bit: usize, on: bool) {
        let word = &mut self.repl_mask[idx * self.mask_words + (bit >> 6)];
        if on {
            *word |= 1u64 << (bit & 63);
        } else {
            *word &= !(1u64 << (bit & 63));
        }
    }

    /// Validates `mv` and captures the undo record.
    fn check(&self, mv: Move) -> Applied {
        let (node, host) = match mv {
            Move::MovePrimary { node, to } => (node, to),
            Move::AddReplica { node, host } | Move::DropReplica { node, host } => (node, host),
        };
        let idx = node.index();
        assert!(idx < self.primary.len(), "unknown node {idx}");
        assert!(host.0 < self.hosts, "unknown host {host}");
        match mv {
            Move::MovePrimary { .. } => {}
            Move::AddReplica { .. } => {
                assert!(
                    self.primary[idx] != host.0 as u32,
                    "AddReplica at the primary host {host}"
                );
                assert!(
                    !mask_test(self.mask(idx), host.0),
                    "AddReplica: replica already present at {host}"
                );
            }
            Move::DropReplica { .. } => {
                assert!(
                    mask_test(self.mask(idx), host.0),
                    "DropReplica: no replica at {host}"
                );
            }
        }
        Applied {
            mv,
            prev_primary: self.primary[idx],
            absorbed_replica: matches!(mv, Move::MovePrimary { .. })
                && mask_test(self.mask(idx), host.0),
        }
    }

    /// Prices `mv` and writes the result: the placement, the running cost
    /// terms and any shifted load. Returns the change in total cost.
    fn execute(&mut self, mv: Move) -> f64 {
        let Some(priced) = self.price(mv) else {
            return 0.0;
        };
        match mv {
            Move::MovePrimary { node, to } => {
                self.primary[node.index()] = to.0 as u32;
                self.set_mask(node.index(), to.0, false);
            }
            Move::AddReplica { node, host } => self.set_mask(node.index(), host.0, true),
            Move::DropReplica { node, host } => self.set_mask(node.index(), host.0, false),
        }
        self.communication.add(priced.communication);
        self.consistency.add(priced.consistency);
        if let Some(shift) = priced.shift {
            self.load[shift.from] = shift.from_load;
            self.load[shift.to] = shift.to_load;
            self.overload_total = shift.overload;
        }
        priced.delta
    }

    /// The one pricing core behind [`delta`](Self::delta) and
    /// [`execute`](Self::execute): what `mv` changes, read from the current
    /// state. `None` for a primary move onto the current primary, which
    /// changes nothing.
    ///
    /// It and the functions it calls are inlined into both callers, so the
    /// priced values stay in registers: left to the compiler, the
    /// apply-only replay of the paper graphs ran ~20 % fewer moves per
    /// second than when pricing wrote state as it went.
    #[inline(always)]
    fn price(&self, mv: Move) -> Option<Priced> {
        match mv {
            Move::MovePrimary { node, to } => self.price_move_primary(node.index(), to.0),
            Move::AddReplica { node, host } => Some(self.price_replica(node.index(), host.0, true)),
            Move::DropReplica { node, host } => {
                Some(self.price_replica(node.index(), host.0, false))
            }
        }
    }

    /// Assembles a [`Priced`]: the delta is the two running terms' changes
    /// plus the overload total's change under `shift`.
    #[inline]
    fn priced(&self, communication: f64, consistency: f64, shift: Option<Shift>) -> Priced {
        let before = self.overload_total.value();
        let after = shift.map_or(before, |shift| shift.overload.value());
        Priced {
            delta: communication + consistency + (after - before),
            communication,
            consistency,
            shift,
        }
    }

    /// Communication cost of edge `e` between serving hosts `a → b`:
    /// `w_rtt[e]·dist[a][b] + w_fixed[e]`, zero when co-located.
    #[inline]
    fn pair_cost(&self, e: usize, a: usize, b: usize) -> f64 {
        if a == b {
            0.0
        } else {
            self.edge_w_rtt[e] * self.dist[a * self.hosts + b] + self.edge_w_fixed[e]
        }
    }

    /// Consistency push cost (ms per write) from primary `a` to replica `b`.
    #[inline]
    fn push_cost(&self, a: usize, b: usize) -> f64 {
        if a == b {
            0.0
        } else {
            self.push_rtt * self.dist[a * self.hosts + b] + self.push_fixed
        }
    }

    /// Prices re-homing a primary `p → p′`. Replica hosts serve their own
    /// origins before and after the move, and every other origin of the
    /// moving component is served at its primary, so one pass over its
    /// replica set `R` ([`replica_sums`](Self::replica_sums)) yields
    /// everything the move needs. A read edge then costs O(1) when the far
    /// endpoint is an Entry (the closed-form `s_to`/`s_from` default minus
    /// the replicated origins' share), and otherwise O(1) plus one walk
    /// over the far component's replica hosts `Q` that `R` lacks: origins
    /// in `R` keep their route, origins outside `R ∪ Q` all see the same
    /// primary-to-primary change. Cost: `O(|R| + degree + Σ|Q \ R|)`.
    #[inline(always)]
    fn price_move_primary(&self, idx: usize, p_new: usize) -> Option<Priced> {
        let p_old = self.primary[idx] as usize;
        if p_new == p_old {
            return None;
        }
        let h = self.hosts;
        let entry = self.role[idx] == Role::Entry;
        let absorbed = mask_test(self.mask(idx), p_new);
        let sums = self.replica_sums(idx, p_old, p_new, absorbed);

        // Read edges to or from an Entry: the default moves with the
        // primary, origins at the replica hosts pay nothing either side, and
        // the origin at `p′` pays nothing afterwards, so the fixed term
        // changes by `share(p) − share(p′)` unless `p′` was a replica host.
        let to_entry_rtt = (self.s_to[p_new] - self.s_to[p_old]) + (sums.to_old - sums.to_new);
        let from_entry_rtt =
            (self.s_from[p_new] - self.s_from[p_old]) + (sums.from_old - sums.from_new);
        let p_new_share = if absorbed {
            0.0
        } else {
            self.entry_share[p_new]
        };
        let entry_fixed = self.entry_share[p_old] - p_new_share;
        // Origins outside `R` are served at the primary both before and
        // after the move.
        let default_share = self.share_total - sums.share;

        let mut comm_delta = 0.0;
        for k in self.inc_start[idx]..self.inc_start[idx + 1] {
            let e = self.inc_edge[k as usize] as usize;
            let s = self.edge_src[e] as usize;
            let t = self.edge_dst[e] as usize;
            if self.edge_write[e] {
                // Write traffic executes at primaries; an Entry source
                // follows the origin instead, so an Entry's own primary
                // move leaves its outgoing write edges untouched.
                if s == idx && !entry {
                    let t_primary = self.primary[t] as usize;
                    let w_old = self.pair_cost(e, p_old, t_primary);
                    let w_new = self.pair_cost(e, p_new, t_primary);
                    comm_delta += self.share_total * (w_new - w_old);
                } else if t == idx {
                    if self.role[s] == Role::Entry {
                        // Σ_o share·pair(e, o, p) = w_rtt·s_from[p] +
                        // w_fixed·(share_total − share(p)).
                        comm_delta += self.edge_w_rtt[e]
                            * (self.s_from[p_new] - self.s_from[p_old])
                            + self.edge_w_fixed[e]
                                * (self.entry_share[p_old] - self.entry_share[p_new]);
                    } else {
                        let from = self.primary[s] as usize;
                        let w_old = self.pair_cost(e, from, p_old);
                        let w_new = self.pair_cost(e, from, p_new);
                        comm_delta += self.share_total * (w_new - w_old);
                    }
                }
                continue;
            }
            if entry {
                // An Entry node serves at the origin before and after the
                // move, so its read edges contribute zero delta.
                continue;
            }
            let idx_is_src = s == idx;
            let other = if idx_is_src { t } else { s };
            if self.role[other] == Role::Entry {
                let rtt = if idx_is_src {
                    to_entry_rtt
                } else {
                    from_entry_rtt
                };
                comm_delta += self.edge_w_rtt[e] * rtt + self.edge_w_fixed[e] * entry_fixed;
                continue;
            }
            // Far side served at its primary `q`, or locally at its replica
            // hosts `Q`. Origins outside `R ∪ Q` all see the default
            // change `δ`; origins in `Q \ R` are corrected below.
            let pair = |own: usize, far: usize| {
                if idx_is_src {
                    self.pair_cost(e, own, far)
                } else {
                    self.pair_cost(e, far, own)
                }
            };
            let q = self.primary[other] as usize;
            let default = pair(p_new, q) - pair(p_old, q);
            comm_delta += default_share * default;
            let far_mask = self.mask(other);
            if mask_test(far_mask, p_old) {
                comm_delta += self.entry_share[p_old] * (pair(p_new, p_old) - default);
            }
            if !absorbed && mask_test(far_mask, p_new) {
                comm_delta -= self.entry_share[p_new] * (pair(p_old, p_new) + default);
            }
            // Every other origin in `Q \ R` pays the fixed term both before
            // and after, so only its distance changes. `p` and `p′` were
            // priced above (`p′` may still be in `R`, as an absorbed replica).
            let (mut share_sum, mut dist_sum) = (0.0, 0.0);
            for (w, (&far_word, &own_word)) in far_mask.iter().zip(self.mask(idx)).enumerate() {
                let mut word = far_word & !own_word;
                if w == p_old >> 6 {
                    word &= !(1u64 << (p_old & 63));
                }
                if w == p_new >> 6 {
                    word &= !(1u64 << (p_new & 63));
                }
                while word != 0 {
                    let o = (w << 6) + word.trailing_zeros() as usize;
                    word &= word - 1;
                    let share = self.entry_share[o];
                    if share == 0.0 {
                        continue;
                    }
                    share_sum += share;
                    dist_sum += share
                        * if idx_is_src {
                            self.dist[p_new * h + o] - self.dist[p_old * h + o]
                        } else {
                            self.dist[o * h + p_new] - self.dist[o * h + p_old]
                        };
                }
            }
            comm_delta += self.edge_w_rtt[e] * dist_sum - default * share_sum;
        }

        let rate = self.write_rate[idx];
        let mut cons_delta = 0.0;
        if rate > 0.0 {
            let absorbed_push = if absorbed { self.push_fixed } else { 0.0 };
            cons_delta = rate * (self.push_rtt * (sums.push_new - sums.push_old) - absorbed_push);
        }

        // Replicas keep serving their own origins (an absorbed replica's
        // origin stays at `p′`), so only the primary's bucket moves. An
        // Entry serves every origin locally regardless of its primary.
        let demand = self.load_ms[idx];
        let shift =
            (!entry && demand != 0.0).then(|| self.shift(p_old, p_new, default_share * demand));
        Some(self.priced(comm_delta, cons_delta, shift))
    }

    /// One pass over the replica hosts `R` of node `idx`, whose primary
    /// moves `p_old → p_new`. The pass skips `p_new`, so the `_new` sums run
    /// over `r ≠ p_new`; an absorbed replica there is folded into the
    /// `_old` sums afterwards.
    /// The share-weighted distance sums are gathered only when `idx` has a
    /// read edge that prices them.
    #[inline(always)]
    fn replica_sums(&self, idx: usize, p_old: usize, p_new: usize, absorbed: bool) -> ReplicaSums {
        let h = self.hosts;
        let row_old = &self.dist[p_old * h..(p_old + 1) * h];
        let row_new = &self.dist[p_new * h..(p_new + 1) * h];
        let (to, from) = (self.reads_to_entry[idx], self.reads_from_entry[idx]);
        let mut sums = ReplicaSums::default();
        for (w, &word) in self.mask(idx).iter().enumerate() {
            let mut word = word;
            if w == p_new >> 6 {
                word &= !(1u64 << (p_new & 63));
            }
            while word != 0 {
                let r = (w << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                let (d_old, d_new) = (row_old[r], row_new[r]);
                sums.push_old += d_old;
                sums.push_new += d_new;
                let share = self.entry_share[r];
                if share == 0.0 {
                    continue;
                }
                sums.share += share;
                if to {
                    sums.to_old += share * d_old;
                    sums.to_new += share * d_new;
                }
                if from {
                    sums.from_old += share * self.dist[r * h + p_old];
                    sums.from_new += share * self.dist[r * h + p_new];
                }
            }
        }
        if absorbed {
            let share = self.entry_share[p_new];
            sums.share += share;
            sums.push_old += row_old[p_new];
            sums.to_old += share * row_old[p_new];
            sums.from_old += share * self.dist[p_new * h + p_old];
        }
        sums
    }

    /// Prices a replica toggle of node `idx` at host `v`. Fast path: a
    /// replica only re-routes read traffic *originating at that host* (write
    /// traffic executes at primaries), so the delta touches one origin's
    /// incident read edges, one consistency push edge, and one load slot —
    /// instead of re-evaluating every incident edge over every origin.
    #[inline(always)]
    fn price_replica(&self, idx: usize, v: usize, adding: bool) -> Priced {
        // Consistency: exactly the primary → host push edge toggles.
        let mut cons_delta = 0.0;
        let rate = self.write_rate[idx];
        if rate > 0.0 {
            let d = rate * self.push_cost(self.primary[idx] as usize, v);
            cons_delta = if adding { d } else { -d };
        }

        // After an add the new replica serves `v`'s traffic; after a drop
        // it is served as `location` serves an origin without a replica.
        let served_old = self.location(idx, v as u32);
        let served_new = if adding || self.role[idx] == Role::Entry || self.primary[idx] == v as u32
        {
            v as u32
        } else {
            self.primary[idx]
        };

        let mut comm_delta = 0.0;
        let mut shift = None;
        let share = self.entry_share[v];
        // `served_old == served_new` covers Entry nodes (which never
        // consult replicas) and redundant toggles; zero share means no
        // traffic ever originates at `host`.
        if share > 0.0 && served_old != served_new {
            for k in self.inc_start[idx]..self.inc_start[idx + 1] {
                let e = self.inc_edge[k as usize] as usize;
                if self.edge_write[e] {
                    continue;
                }
                let s = self.edge_src[e] as usize;
                let t = self.edge_dst[e] as usize;
                let (old, new) = if s == idx {
                    let to = self.location(t, v as u32) as usize;
                    (
                        self.pair_cost(e, served_old as usize, to),
                        self.pair_cost(e, served_new as usize, to),
                    )
                } else {
                    let from = self.location(s, v as u32) as usize;
                    (
                        self.pair_cost(e, from, served_old as usize),
                        self.pair_cost(e, from, served_new as usize),
                    )
                };
                comm_delta += share * (new - old);
            }
            let demand = self.load_ms[idx];
            if demand > 0.0 {
                shift = Some(self.shift(served_old as usize, served_new as usize, share * demand));
            }
        }
        self.priced(comm_delta, cons_delta, shift)
    }

    /// Serving location of `node` for traffic originating at `origin`
    /// (mirrors [`Placement::location`]).
    #[inline]
    fn location(&self, node: usize, origin: u32) -> u32 {
        if self.role[node] == Role::Entry {
            return origin;
        }
        if self.primary[node] == origin || mask_test(self.mask(node), origin as usize) {
            origin
        } else {
            self.primary[node]
        }
    }

    /// Total communication contribution of edge `e` over all entry origins.
    #[inline]
    fn edge_comm(&self, e: usize) -> f64 {
        let s = self.edge_src[e] as usize;
        let t = self.edge_dst[e] as usize;
        let mut total = 0.0;
        if self.edge_write[e] {
            // Write-path traffic executes at the primaries; only an Entry
            // source varies with the origin.
            let to = self.edge_dst_primary(t);
            if self.role[s] == Role::Entry {
                for &(origin, share) in &self.origins {
                    total += share * self.pair_cost(e, origin as usize, to);
                }
            } else {
                let from = self.primary[s] as usize;
                total += self.share_total * self.pair_cost(e, from, to);
            }
        } else {
            for &(origin, share) in &self.origins {
                let from = self.location(s, origin) as usize;
                let to = self.location(t, origin) as usize;
                total += share * self.pair_cost(e, from, to);
            }
        }
        total
    }

    #[inline]
    fn edge_dst_primary(&self, t: usize) -> usize {
        self.primary[t] as usize
    }

    /// Consistency push cost of node `n` (primary → each replica).
    #[inline]
    fn node_consistency(&self, n: usize) -> f64 {
        let rate = self.write_rate[n];
        if rate <= 0.0 {
            return 0.0;
        }
        let from = self.primary[n] as usize;
        let base = n * self.mask_words;
        let mut total = 0.0;
        for w in 0..self.mask_words {
            let mut word = self.repl_mask[base + w];
            while word != 0 {
                let r = (w << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                total += rate * self.push_cost(from, r);
            }
        }
        total
    }

    /// Adds node `n`'s CPU load contributions at its serving locations
    /// (construction only: a primary move shifts just the primary's
    /// bucket). Entry nodes spread their demand over every origin;
    /// replicated nodes serve locally only at replica hosts that actually
    /// originate traffic, so the loop runs over replicas, not origins,
    /// with one primary bucket for the rest.
    fn shift_load(&mut self, n: usize) {
        let demand = self.load_ms[n];
        if demand == 0.0 {
            return;
        }
        if self.role[n] == Role::Entry {
            // Borrow workaround: origins is read-only while load mutates.
            for i in 0..self.origins.len() {
                let (origin, share) = self.origins[i];
                self.bump_load(origin as usize, share * demand);
            }
            return;
        }
        let p = self.primary[n] as usize;
        let base = n * self.mask_words;
        let mut repl_share = 0.0;
        for w in 0..self.mask_words {
            let mut word = self.repl_mask[base + w];
            while word != 0 {
                let r = (w << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                let share = self.entry_share[r];
                if share > 0.0 {
                    repl_share += share;
                    self.bump_load(r, share * demand);
                }
            }
        }
        // Everyone else — including an origin at the primary itself — is
        // served at the primary.
        self.bump_load(p, (self.share_total - repl_share) * demand);
    }

    /// Adjusts one host's load and folds the change of its overload
    /// penalty into the running [`CostEvaluator::overload_total`]
    /// (construction only; moves write a priced [`Shift`]).
    fn bump_load(&mut self, h: usize, delta: f64) {
        let mut overload = self.overload_total;
        self.load[h] = self.bumped(&mut overload, h, self.load[h], delta);
        self.overload_total = overload;
    }

    /// Prices moving `amount` ms/s of demand from host `from` to the
    /// distinct host `to` on copies of their loads and the overload total.
    #[inline]
    fn shift(&self, from: usize, to: usize, amount: f64) -> Shift {
        let mut overload = self.overload_total;
        let from_load = self.bumped(&mut overload, from, self.load[from], -amount);
        let to_load = self.bumped(&mut overload, to, self.load[to], amount);
        Shift {
            from,
            to,
            from_load,
            to_load,
            overload,
        }
    }

    /// Host `h`'s `load` plus `delta`, folding the change of its overload
    /// penalty into `overload` — O(1) per touched host instead of a full
    /// sweep per move. The one copy of the overload arithmetic.
    #[inline]
    fn bumped(&self, overload: &mut Kahan, h: usize, load: f64, delta: f64) -> f64 {
        if delta == 0.0 {
            return load;
        }
        let next = load + delta;
        if self.capacity[h].is_finite() {
            let cap = self.capacity[h].max(0.0);
            let before = (load - cap).max(0.0);
            let after = (next - cap).max(0.0);
            overload.add((after - before) * self.overload_scale);
        }
        next
    }
}

/// Guards the `usize → u32` narrowing of node ids in the flattened arrays.
fn node_checked(node: NodeIndex, n: usize) {
    debug_assert!(node.index() < n);
    assert!(
        u32::try_from(node.index()).is_ok(),
        "component graph too large for the flattened evaluator"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{cost, cost_breakdown};
    use crate::graph::{Component, ComponentGraph, CostParams, Host};

    fn problem() -> PlacementProblem {
        let mut g = ComponentGraph::new();
        let web = g.add(Component {
            name: "web".into(),
            role: Role::Entry,
            pinned: None,
            cpu_ms_per_call: 5.0,
            write_rate: 0.0,
        });
        let svc = g.add(Component {
            name: "svc".into(),
            role: Role::Stateless,
            pinned: None,
            cpu_ms_per_call: 2.0,
            write_rate: 0.0,
        });
        let entity = g.add(Component {
            name: "entity".into(),
            role: Role::Entity,
            pinned: None,
            cpu_ms_per_call: 1.0,
            write_rate: 0.5,
        });
        let db = g.add(Component {
            name: "db".into(),
            role: Role::Database,
            pinned: Some(HostId(0)),
            cpu_ms_per_call: 1.0,
            write_rate: 0.0,
        });
        g.interact(web, svc, 10.0, 500.0);
        g.interact(svc, entity, 8.0, 300.0);
        g.interact_write(entity, db, 2.0, 400.0);
        PlacementProblem {
            hosts: vec![
                Host {
                    name: "main".into(),
                    entry_share: 0.4,
                    cpu_capacity: 40.0,
                },
                Host {
                    name: "edge".into(),
                    entry_share: 0.6,
                    cpu_capacity: f64::INFINITY,
                },
            ],
            rtt_ms: vec![vec![0.0, 200.0], vec![200.0, 0.0]],
            graph: g,
            params: CostParams::default(),
        }
    }

    fn assert_matches(problem: &PlacementProblem, eval: &CostEvaluator) {
        let expected = cost_breakdown(problem, &eval.placement());
        let got = eval.breakdown();
        let tol = 1e-9 * expected.total().abs().max(1.0);
        assert!(
            (got.communication - expected.communication).abs() <= tol,
            "communication {got:?} vs {expected:?}"
        );
        assert!(
            (got.consistency - expected.consistency).abs() <= tol,
            "consistency {got:?} vs {expected:?}"
        );
        assert!(
            (got.overload - expected.overload).abs() <= tol,
            "overload {got:?} vs {expected:?}"
        );
    }

    #[test]
    fn initial_state_matches_full_recompute() {
        let p = problem();
        let eval = CostEvaluator::new(&p, Placement::all_on(&p, HostId(0)));
        assert_matches(&p, &eval);
        let full = cost(&p, &eval.placement());
        assert!((eval.total() - full).abs() <= 1e-9 * full.max(1.0));
    }

    #[test]
    fn moves_track_full_recompute_and_undo_restores() {
        let p = problem();
        let svc = p.graph.by_name("svc").unwrap();
        let entity = p.graph.by_name("entity").unwrap();
        let mut eval = CostEvaluator::new(&p, Placement::all_on(&p, HostId(0)));
        let initial = eval.breakdown();

        let moves = [
            Move::MovePrimary {
                node: svc,
                to: HostId(1),
            },
            Move::AddReplica {
                node: entity,
                host: HostId(1),
            },
            Move::MovePrimary {
                node: svc,
                to: HostId(0),
            },
            Move::DropReplica {
                node: entity,
                host: HostId(1),
            },
            Move::AddReplica {
                node: svc,
                host: HostId(1),
            },
        ];
        for mv in moves {
            let before = eval.total();
            let delta = eval.apply(mv);
            assert_matches(&p, &eval);
            assert!(
                (eval.total() - (before + delta)).abs() <= 1e-9 * before.abs().max(1.0),
                "delta inconsistent"
            );
        }
        for _ in 0..moves.len() {
            eval.undo();
            assert_matches(&p, &eval);
        }
        assert_eq!(eval.depth(), 0);
        let back = eval.breakdown();
        assert!((back.total() - initial.total()).abs() <= 1e-9 * initial.total().max(1.0));
    }

    #[test]
    fn move_primary_absorbs_replica_and_undo_restores_it() {
        let p = problem();
        let entity = p.graph.by_name("entity").unwrap();
        let mut eval = CostEvaluator::new(&p, Placement::all_on(&p, HostId(0)));
        eval.apply(Move::AddReplica {
            node: entity,
            host: HostId(1),
        });
        eval.apply(Move::MovePrimary {
            node: entity,
            to: HostId(1),
        });
        assert!(!eval.has_replica(entity, HostId(1)), "replica absorbed");
        assert_matches(&p, &eval);
        eval.undo();
        assert!(eval.has_replica(entity, HostId(1)), "replica restored");
        assert_eq!(eval.primary_of(entity), HostId(0));
        assert_matches(&p, &eval);
    }

    #[test]
    fn overload_term_tracks_capacity_crossings() {
        let p = problem();
        let svc = p.graph.by_name("svc").unwrap();
        let mut eval = CostEvaluator::new(&p, Placement::all_on(&p, HostId(0)));
        // all-on-main exceeds main's 100 ms/s capacity.
        assert!(eval.breakdown().overload > 0.0);
        eval.apply(Move::MovePrimary {
            node: svc,
            to: HostId(1),
        });
        assert_matches(&p, &eval);
    }

    /// Beyond 64 hosts the replica bitmask spans several words; the delta
    /// accounting must keep tracking the full recompute exactly as on the
    /// paper's 3-host star, at 520 hosts (nine words) too.
    #[test]
    fn wide_host_sets_use_multiword_replica_masks() {
        for h in [130, 520] {
            let mut p = problem();
            let share = 1.0 / h as f64;
            p.hosts = (0..h)
                .map(|i| Host {
                    name: format!("h{i}"),
                    entry_share: share,
                    cpu_capacity: f64::INFINITY,
                })
                .collect();
            p.rtt_ms = (0..h)
                .map(|a| {
                    (0..h)
                        .map(|b| {
                            if a == b {
                                0.0
                            } else {
                                100.0 + ((a * 31 + b * 17) % 200) as f64
                            }
                        })
                        .collect()
                })
                .collect();
            // Symmetrize.
            for a in 0..h {
                for b in 0..a {
                    p.rtt_ms[a][b] = p.rtt_ms[b][a];
                }
            }
            let entity = p.graph.by_name("entity").unwrap();
            let svc = p.graph.by_name("svc").unwrap();
            let mut eval = CostEvaluator::new(&p, Placement::all_on(&p, HostId(0)));
            assert_matches(&p, &eval);
            for host in [1usize, 63, 64, 65, 127, h - 8, h - 1] {
                eval.apply(Move::AddReplica {
                    node: entity,
                    host: HostId(host),
                });
                assert!(eval.has_replica(entity, HostId(host)));
                assert_matches(&p, &eval);
            }
            eval.apply(Move::MovePrimary {
                node: svc,
                to: HostId(h - 1),
            });
            assert_matches(&p, &eval);
            eval.apply(Move::MovePrimary {
                node: entity,
                to: HostId(65),
            });
            assert!(!eval.has_replica(entity, HostId(65)), "replica absorbed");
            assert_matches(&p, &eval);
            while eval.depth() > 0 {
                eval.undo();
            }
            assert_matches(&p, &eval);
        }
    }

    #[test]
    fn cost_tables_hold_one_distance_matrix() {
        let p = problem();
        let a = CostEvaluator::new(&p, Placement::all_on(&p, HostId(0)));
        // Table memory is hosts² + 2·hosts + 2 scalars per edge, not
        // edges × hosts².
        assert_eq!(a.table_bytes(), (4 + 2 * 2 + 3 * 2) * 8);
        assert!(a.dense_table_bytes() > a.table_bytes());
    }

    #[test]
    #[should_panic(expected = "AddReplica at the primary host")]
    fn add_replica_at_primary_is_rejected() {
        let p = problem();
        let svc = p.graph.by_name("svc").unwrap();
        let mut eval = CostEvaluator::new(&p, Placement::all_on(&p, HostId(0)));
        eval.apply(Move::AddReplica {
            node: svc,
            host: HostId(0),
        });
    }

    #[test]
    #[should_panic(expected = "DropReplica: no replica at")]
    fn delta_rejects_what_apply_rejects() {
        let p = problem();
        let svc = p.graph.by_name("svc").unwrap();
        let eval = CostEvaluator::new(&p, Placement::all_on(&p, HostId(0)));
        eval.delta(Move::DropReplica {
            node: svc,
            host: HostId(1),
        });
    }

    #[test]
    #[should_panic(expected = "undo with no applied move")]
    fn undo_on_empty_history_panics() {
        let p = problem();
        let mut eval = CostEvaluator::new(&p, Placement::all_on(&p, HostId(0)));
        eval.undo();
    }
}

//! A from-scratch multilevel k-way min-edge-cut partitioner.
//!
//! This plays the role METIS plays in the paper: Betty only requires "any
//! existing graph partitioning algorithm that minimizes the cut flow"
//! (§4.3.2), and the multilevel scheme — coarsen by heavy-edge matching,
//! partition the small graph greedily, project back while refining with
//! boundary Kernighan–Lin moves — is the same algorithm family.
//!
//! The implementation favours clarity over the last few percent of cut
//! quality: matching is randomized heavy-edge, initial partitioning is
//! greedy graph growing, and refinement is gain-based pass-wise KL with a
//! balance constraint and explicit rebalancing.
//!
//! Levels are CSR rows ascending by neighbour, produced in that order and
//! in time linear in what they read: the finest level is `A + Aᵀ` by a
//! counting transpose and a two-pointer merge of two ascending rows — or,
//! for a graph that is already symmetric (the REG), `A` itself, which cuts
//! exactly as `A + Aᵀ = 2A` does; a coarse row is gathered from its one or
//! two fine rows into a stamped dense accumulator and drained in order from
//! a [`ColumnBitmap`]: nothing is sorted. Entries that merge are summed in a
//! specified order — `A`'s before `Aᵀ`'s, the lower fine row before the
//! higher, each in neighbour order — which for the REG's small-integer
//! weights is the same bits as any other.
//!
//! Refinement and rebalancing read one [`Connectivity`] table per level —
//! each node's edge weight into each part its neighbours occupy — built
//! once from the level's rows and updated in `O(deg)` per move, instead of
//! recounting a node's row on every visit.
//!
//! Only the depth of the coarsening depends on `k`: the levels live in a
//! [`CutHierarchy`] that cuts one graph at any number of `k`s, and
//! [`Partitioner::partition_weighted`] is a hierarchy used once.

use std::borrow::Borrow;
use std::collections::{BTreeMap, VecDeque};

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_pcg::Pcg64Mcg;

use betty_graph::{ColumnBitmap, CsrGraph};

use crate::{Partitioner, Partitioning};

/// Multilevel k-way partitioner (see module docs).
///
/// To cut one graph at several `k` (the memory-aware planner's probes) use
/// [`MultilevelPartitioner::hierarchy`]: each [`CutHierarchy::cut`] equals
/// a fresh [`partition_weighted`](Partitioner::partition_weighted).
#[derive(Debug, Clone, PartialEq)]
pub struct MultilevelPartitioner {
    seed: u64,
    balance_epsilon: f64,
    refinement_passes: usize,
    coarsen_nodes_per_part: usize,
}

impl MultilevelPartitioner {
    /// Creates a partitioner with default tuning (ε = 0.1 balance slack,
    /// 4 refinement passes, coarsening to ~30 nodes per part).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            balance_epsilon: 0.1,
            refinement_passes: 4,
            coarsen_nodes_per_part: 30,
        }
    }

    /// Sets the allowed imbalance: max part weight ≤ (1 + ε) · ideal.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is negative.
    pub fn with_balance_epsilon(mut self, epsilon: f64) -> Self {
        assert!(epsilon >= 0.0, "balance epsilon must be non-negative");
        self.balance_epsilon = epsilon;
        self
    }

    /// Sets the number of refinement passes per level (0 disables
    /// refinement — used by the ablation benches).
    pub fn with_refinement_passes(mut self, passes: usize) -> Self {
        self.refinement_passes = passes;
        self
    }
}

/// Working representation: merged undirected adjacency with weights, in
/// CSR form.
struct Level {
    /// Row offsets into `adj`, one row per node.
    indptr: Vec<usize>,
    /// Sorted, merged neighbor lists (no self-loops), rows back to back.
    adj: Vec<(u32, f32)>,
    node_w: Vec<f64>,
    /// For non-finest levels: fine node -> this level's coarse node.
    fine_to_coarse: Option<Vec<u32>>,
    /// The generator as a from-scratch coarsening holds it once this level
    /// exists (the freshly seeded one for the finest level).
    rng: Pcg64Mcg,
}

impl Level {
    fn num_nodes(&self) -> usize {
        self.node_w.len()
    }

    /// `(neighbor, weight)` pairs of `u`, ascending by neighbor id.
    fn neighbors(&self, u: usize) -> &[(u32, f32)] {
        &self.adj[self.indptr[u]..self.indptr[u + 1]]
    }
}

/// `u`'s out-edges as `(neighbour, weight)`, ascending.
fn weighted_row(graph: &CsrGraph, u: u32) -> impl Iterator<Item = (u32, f32)> + '_ {
    let weights = graph.neighbor_weights(u);
    let row = graph.neighbors(u).iter().enumerate();
    row.map(move |(i, &v)| (v, weights.map_or(1.0, |ws| ws[i])))
}

/// Level 0: `A + Aᵀ` without the diagonal, in time linear in the edges.
///
/// [`CsrGraph`] rows are ascending, and so are those of its counting
/// transpose [`CsrGraph::reverse`], so each level row is a two-pointer
/// merge of the two: nothing is sorted. Entries of one neighbour are
/// summed as they are met — `A`'s in row order, then `Aᵀ`'s.
fn finest_level(graph: &CsrGraph, node_weights: Vec<f64>, rng: Pcg64Mcg) -> Level {
    let transposed = graph.reverse();
    let mut indptr = Vec::with_capacity(node_weights.len() + 1);
    indptr.push(0usize);
    let mut adj: Vec<(u32, f32)> = Vec::with_capacity(2 * graph.num_edges());
    for u in 0..node_weights.len() as u32 {
        let mut out = weighted_row(graph, u).peekable();
        let mut back = weighted_row(&transposed, u).peekable();
        let row = adj.len();
        loop {
            let next = match (out.peek(), back.peek()) {
                (Some(a), Some(b)) if a.0 <= b.0 => out.next(),
                (Some(_), None) => out.next(),
                _ => back.next(),
            };
            let Some((v, w)) = next else { break };
            if v == u {
                continue;
            }
            match adj[row..].last_mut() {
                Some(last) if last.0 == v => last.1 += w,
                _ => adj.push((v, w)),
            }
        }
        indptr.push(adj.len());
    }
    Level {
        indptr,
        adj,
        node_w: node_weights,
        fine_to_coarse: None,
        rng,
    }
}

/// Level 0 of a graph that is already symmetric, loop-free and without
/// parallel edges — the REG — taken as it is.
///
/// [`finest_level`] of such a graph is `2A`. Every decision of the cutter
/// compares sums and differences of edge weights, and doubling every
/// weight doubles each of those exactly in binary floating point, so `A`
/// cuts exactly as `2A` does, without the transpose and merge.
fn symmetric_level(graph: &CsrGraph, node_weights: Vec<f64>, rng: Pcg64Mcg) -> Level {
    let mut indptr = Vec::with_capacity(node_weights.len() + 1);
    indptr.push(0usize);
    let mut adj = Vec::with_capacity(graph.num_edges());
    for u in 0..node_weights.len() as u32 {
        adj.extend(weighted_row(graph, u));
        indptr.push(adj.len());
    }
    Level {
        indptr,
        adj,
        node_w: node_weights,
        fine_to_coarse: None,
        rng,
    }
}

/// One round of randomized heavy-edge matching; returns the coarse level,
/// or `None` if coarsening made insufficient progress. Either way `rng`
/// has advanced past the matching order's shuffle.
fn coarsen(level: &Level, rng: &mut Pcg64Mcg) -> Option<Level> {
    let n = level.num_nodes();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    let mut mate = vec![u32::MAX; n];
    for &u in &order {
        if mate[u as usize] != u32::MAX {
            continue;
        }
        // Heaviest unmatched neighbor.
        let mut best: Option<(u32, f32)> = None;
        for &(v, w) in level.neighbors(u as usize) {
            if mate[v as usize] == u32::MAX && v != u {
                match best {
                    Some((_, bw)) if bw >= w => {}
                    _ => best = Some((v, w)),
                }
            }
        }
        match best {
            Some((v, _)) => {
                mate[u as usize] = v;
                mate[v as usize] = u;
            }
            None => mate[u as usize] = u,
        }
    }
    // Assign coarse ids (pair representative = smaller id).
    let mut fine_to_coarse = vec![u32::MAX; n];
    let mut next = 0u32;
    for u in 0..n as u32 {
        if fine_to_coarse[u as usize] != u32::MAX {
            continue;
        }
        let v = mate[u as usize];
        fine_to_coarse[u as usize] = next;
        if v != u && v != u32::MAX {
            fine_to_coarse[v as usize] = next;
        }
        next += 1;
    }
    let coarse_n = next as usize;
    if coarse_n as f64 > 0.95 * n as f64 {
        return None; // no meaningful progress
    }
    let mut node_w = vec![0.0f64; coarse_n];
    for u in 0..n {
        node_w[fine_to_coarse[u] as usize] += level.node_w[u];
    }
    // Coarse rows in ascending order, each gathered Gustavson-style from
    // its one or two members' rows (lower fine id first, each in neighbour
    // order — the order duplicates are summed in) into a dense accumulator
    // stamped with the row, and emitted in neighbour order from a bitmap.
    let mut indptr = Vec::with_capacity(coarse_n + 1);
    indptr.push(0usize);
    let mut adj: Vec<(u32, f32)> = Vec::with_capacity(level.adj.len());
    let mut acc = vec![(u32::MAX, 0.0f32); coarse_n];
    let mut row = ColumnBitmap::new(coarse_n);
    for u in 0..n {
        let v = mate[u] as usize;
        if v < u {
            continue; // the row of `v`, its pair's representative
        }
        let c = fine_to_coarse[u];
        for &member in &[u, v][..1 + usize::from(v != u)] {
            for &(x, w) in level.neighbors(member) {
                let cx = fine_to_coarse[x as usize];
                let slot = &mut acc[cx as usize];
                if cx == c {
                    continue;
                } else if slot.0 == c {
                    slot.1 += w;
                } else {
                    *slot = (c, w);
                    row.insert(cx);
                }
            }
        }
        row.drain(|cx| adj.push((cx, acc[cx as usize].1)));
        indptr.push(adj.len());
    }
    Some(Level {
        indptr,
        adj,
        node_w,
        fine_to_coarse: Some(fine_to_coarse),
        rng: rng.clone(),
    })
}

/// Greedy graph-growing initial partitioning of the coarsest level.
fn initial_partition(level: &Level, k: usize, rng: &mut Pcg64Mcg) -> Vec<u32> {
    let n = level.num_nodes();
    let total: f64 = level.node_w.iter().sum();
    let mut assigned_w = 0.0f64;
    let mut assignment = vec![u32::MAX; n];
    let mut unassigned = n;
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    let mut cursor = 0usize;

    for p in 0..k.saturating_sub(1) as u32 {
        if unassigned == 0 {
            break;
        }
        let remaining_parts = (k as u32 - p) as f64;
        let target = (total - assigned_w) / remaining_parts;
        // Find an unassigned seed.
        while cursor < n && assignment[order[cursor] as usize] != u32::MAX {
            cursor += 1;
        }
        if cursor >= n {
            break;
        }
        let seed = order[cursor];
        let mut grown = 0.0f64;
        let mut queue = VecDeque::from([seed]);
        assignment[seed as usize] = p;
        unassigned -= 1;
        grown += level.node_w[seed as usize];
        while grown < target && unassigned > 0 {
            let u = match queue.pop_front() {
                Some(u) => u,
                None => {
                    // Disconnected remainder: jump to a fresh seed.
                    while cursor < n && assignment[order[cursor] as usize] != u32::MAX {
                        cursor += 1;
                    }
                    if cursor >= n {
                        break;
                    }
                    let s = order[cursor];
                    assignment[s as usize] = p;
                    unassigned -= 1;
                    grown += level.node_w[s as usize];
                    s
                }
            };
            for &(v, _) in level.neighbors(u as usize) {
                if grown >= target {
                    break;
                }
                if assignment[v as usize] == u32::MAX {
                    assignment[v as usize] = p;
                    unassigned -= 1;
                    grown += level.node_w[v as usize];
                    queue.push_back(v);
                }
            }
        }
        assigned_w += grown;
    }
    // Everything left goes to the last part.
    for a in assignment.iter_mut() {
        if *a == u32::MAX {
            *a = (k - 1) as u32;
        }
    }
    assignment
}

/// One part of a node's [`Connectivity`] row.
#[derive(Debug, Clone, Copy, Default)]
struct Link {
    part: u32,
    /// How many of the node's neighbours are in `part` (never 0).
    neighbours: u32,
    /// Their summed edge weight.
    weight: f32,
}

/// A level's connectivity table: for each node, the summed edge weight
/// into each part its neighbours occupy, kept current as nodes move.
///
/// *Invariant:* node `u`'s row lists, in no particular order, exactly the
/// parts that hold a neighbour of `u`, each with how many do and their
/// weight. *Exactness:* a row is summed in neighbour order when built, as a
/// recount sums it, then changes by `±w` per move, so it equals a fresh
/// recount while all weights and partial sums are integers below 2²⁴ (or
/// such integers times one power of two) — true of every REG, whose
/// weights count shared nodes, and of every caller in the workspace.
/// *Memory:* a row has room for `min(deg(u), k)` links, so the table is
/// O(level nodes + adjacency) at every `k`; a dense `n × k` one at the
/// planner's 512 parts would be ≈ 400 MB for the paper's 196 k-output
/// ogbn-products batch.
struct Connectivity<'a> {
    level: &'a Level,
    /// Row `u` is `links[start[u]..][..len[u]]`, its room ends at
    /// `start[u + 1]`.
    start: Vec<usize>,
    links: Vec<Link>,
    len: Vec<u32>,
    /// `k` zeros between calls of [`spread`](Self::spread).
    dense: Vec<f32>,
}

impl<'a> Connectivity<'a> {
    fn new(level: &'a Level, assignment: &[u32], k: usize) -> Self {
        let n = level.num_nodes();
        let mut start = Vec::with_capacity(n + 1);
        start.push(0);
        for u in 0..n {
            start.push(start[u] + level.neighbors(u).len().min(k));
        }
        let (mut links, mut len) = (Vec::with_capacity(start[n]), Vec::with_capacity(n));
        // Per part, the row's neighbours in it and their weight; `met`
        // lists the parts in the order first met, the slot past them is
        // scratch.
        let mut sums = vec![(0u32, 0.0f32); k];
        let mut met = vec![0u32; k + 1];
        for u in 0..n {
            let mut parts = 0;
            for &(v, w) in level.neighbors(u) {
                let part = assignment[v as usize];
                let sum = &mut sums[part as usize];
                met[parts] = part;
                parts += usize::from(sum.0 == 0);
                *sum = (sum.0 + 1, sum.1 + w);
            }
            links.extend(met[..parts].iter().map(|&part| {
                let (neighbours, weight) = std::mem::take(&mut sums[part as usize]);
                Link {
                    part,
                    neighbours,
                    weight,
                }
            }));
            len.push(parts as u32);
            links.resize(start[u + 1], Link::default());
        }
        let dense = vec![0.0; k];
        Self {
            level,
            start,
            links,
            len,
            dense,
        }
    }

    fn row(&self, u: usize) -> &[Link] {
        &self.links[self.start[u]..][..self.len[u] as usize]
    }

    /// `u`'s edge weight into `part` (`0.0` when no neighbour is there).
    fn weight(&self, u: usize, part: usize) -> f32 {
        let row = self.row(u);
        row.iter()
            .find(|l| l.part as usize == part)
            .map_or(0.0, |l| l.weight)
    }

    /// Runs `f` on `u`'s edge weight into each of the `k` parts.
    fn spread<T>(&mut self, u: usize, f: impl FnOnce(&[f32]) -> T) -> T {
        let row = &self.links[self.start[u]..][..self.len[u] as usize];
        row.iter()
            .for_each(|l| self.dense[l.part as usize] = l.weight);
        let out = f(&self.dense);
        row.iter().for_each(|l| self.dense[l.part as usize] = 0.0);
        out
    }

    /// What moving `u` from `over` to `dest` adds to the cut. A node
    /// without neighbours costs `−0.0`, the empty sum of a recount, which
    /// `total_cmp` orders below the `+0.0` of a node whose neighbours all
    /// sit in other parts.
    fn move_cost(&self, u: usize, over: usize, dest: usize) -> f32 {
        if self.level.neighbors(u).is_empty() {
            return -0.0;
        }
        self.weight(u, over) - self.weight(u, dest)
    }

    /// Records that `u` left part `from` for part `to`: the rows of `u`'s
    /// neighbours change, nothing else.
    fn moved(&mut self, u: usize, from: u32, to: u32) {
        for &(v, w) in self.level.neighbors(u) {
            let (row, len) = (
                &mut self.links[self.start[v as usize]..],
                &mut self.len[v as usize],
            );
            let i = (row[..*len as usize].iter().position(|l| l.part == from))
                .expect("a neighbour's part is in the row");
            row[i].neighbours -= 1;
            row[i].weight -= w;
            if row[i].neighbours == 0 {
                *len -= 1;
                row[i] = row[*len as usize];
            }
            match row[..*len as usize].iter_mut().find(|l| l.part == to) {
                Some(link) => {
                    (link.neighbours, link.weight) = (link.neighbours + 1, link.weight + w)
                }
                // A new part: the row has room, one link per neighbour.
                None => {
                    row[*len as usize] = Link {
                        part: to,
                        neighbours: 1,
                        weight: w,
                    };
                    *len += 1;
                }
            }
        }
    }
}

/// Gain-based pass-wise KL refinement with balance constraint; returns
/// the level's connectivity table, current for `assignment`.
///
/// Each pass runs a single-node *move* sweep (greedy gain, balance-capped)
/// followed by a pairwise *swap* sweep — the swaps escape the local optimum
/// where both parts sit at the weight cap and no single move is feasible.
fn refine<'a>(
    level: &'a Level,
    assignment: &mut [u32],
    k: usize,
    max_part_w: f64,
    passes: usize,
    rng: &mut Pcg64Mcg,
) -> Connectivity<'a> {
    let n = level.num_nodes();
    let mut conn = Connectivity::new(level, assignment, k);
    let (mut part_w, mut part_count) = (vec![0.0f64; k], vec![0usize; k]);
    for u in 0..n {
        part_w[assignment[u] as usize] += level.node_w[u];
        part_count[assignment[u] as usize] += 1;
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    for _ in 0..passes {
        order.shuffle(rng);
        let moved = move_pass(
            &mut conn,
            assignment,
            &mut part_w,
            &mut part_count,
            max_part_w,
            &order,
        );
        let swapped = swap_pass(&mut conn, assignment, &mut part_w, max_part_w);
        if moved + swapped == 0 {
            break;
        }
    }
    conn
}

/// Greedy single-node moves. A move is allowed into a part that stays under
/// the cap, or that remains strictly lighter than the source part (which
/// always improves balance even when both exceed the cap).
fn move_pass(
    conn: &mut Connectivity,
    assignment: &mut [u32],
    part_w: &mut [f64],
    part_count: &mut [usize],
    max_part_w: f64,
    order: &[u32],
) -> usize {
    let k = part_w.len();
    let mut moved = 0usize;
    for &u in order {
        let u = u as usize;
        let cp = assignment[u] as usize;
        if part_count[cp] <= 1 {
            continue; // never empty a part
        }
        // In a feasible part only a positive gain moves a node, and only a
        // part holding more of its weight than its own gives one.
        let own = conn.weight(u, cp);
        let gains = conn.row(u).iter().any(|l| l.weight > own);
        if !gains && part_w[cp] <= max_part_w {
            continue;
        }
        let uw = conn.level.node_w[u];
        let best = conn.spread(u, |to| {
            let mut best: Option<(usize, f32)> = None;
            for p in 0..k {
                if p == cp {
                    continue;
                }
                let fits_cap = part_w[p] + uw <= max_part_w;
                let improves = part_w[p] + uw < part_w[cp];
                if !fits_cap && !improves {
                    continue;
                }
                let gain = to[p] - to[cp];
                if best.is_none_or(|(_, bg)| gain > bg) {
                    best = Some((p, gain));
                }
            }
            best
        });
        if let Some((p, gain)) = best {
            let overweight = part_w[cp] > max_part_w;
            if gain > 0.0 || (gain == 0.0 && overweight) {
                assignment[u] = p as u32;
                conn.moved(u, cp as u32, p as u32);
                part_w[cp] -= uw;
                part_w[p] += uw;
                part_count[cp] -= 1;
                part_count[p] += 1;
                moved += 1;
            }
        }
    }
    moved
}

/// Weight of edge `u → v` at this level (0 when absent); neighbor lists are
/// sorted, so a binary search suffices.
fn edge_weight(level: &Level, u: usize, v: u32) -> f32 {
    let row = level.neighbors(u);
    row.binary_search_by_key(&v, |&(n, _)| n)
        .map(|i| row[i].1)
        .unwrap_or(0.0)
}

/// Up to two `(gain, node)` migration candidates of one ordered part pair,
/// best first; unused entries hold [`NO_NODE`].
type Slot = [(f32, u32); 2];
const NO_NODE: u32 = u32::MAX;
const EMPTY_SLOT: Slot = [(0.0, NO_NODE); 2];
/// Largest `k` whose swap candidates live in a dense `k × k` table.
const DENSE_SWAP_PARTS: usize = 256;

/// Offers a candidate to a slot. A newcomer goes ahead of an entry only on
/// strictly greater gain (`total_cmp`), and nodes are offered in ascending
/// id order, so gain ties keep the lower node id first — what a stable
/// descending sort of every offer, cut to two, would leave.
fn offer(slot: &mut Slot, gain: f32, node: u32) {
    let beats = |entry: (f32, u32)| entry.1 == NO_NODE || gain.total_cmp(&entry.0).is_gt();
    if beats(slot[0]) {
        *slot = [(gain, node), slot[0]];
    } else if beats(slot[1]) {
        slot[1] = (gain, node);
    }
}

/// Kernighan–Lin style pairwise swaps: for every (from, to) part pair keep
/// the two highest-gain migration candidates, then exchange the best
/// combination whose joint gain — corrected by twice the direct edge weight
/// between the swapped nodes — is positive and weight-feasible.
fn swap_pass(
    conn: &mut Connectivity,
    assignment: &mut [u32],
    part_w: &mut [f64],
    max_part_w: f64,
) -> usize {
    let (level, k) = (conn.level, part_w.len());
    if k < 2 {
        return 0;
    }
    // For modest k, consider every target part (zero-gain partners from
    // untouched parts matter — e.g. swapping an isolated node out of the
    // way of a heavy pair) in a flat table, row `from`, column `to`. For
    // large k that table and its enumeration are quadratic (a user asking
    // for thousands of parts would OOM here), so keep only the pairs with
    // a boundary node between them, in a map.
    let dense = k <= DENSE_SWAP_PARTS;
    let mut table = vec![EMPTY_SLOT; if dense { k * k } else { 0 }];
    let mut sparse: BTreeMap<(usize, usize), Slot> = BTreeMap::new();
    for (u, &cp) in assignment.iter().enumerate() {
        let cp = cp as usize;
        if dense {
            conn.spread(u, |to| {
                for p in (0..k).filter(|&p| p != cp) {
                    offer(&mut table[cp * k + p], to[p] - to[cp], u as u32);
                }
            });
        } else {
            // Each of a node's offers goes to a slot of its own, so only
            // the node order (ascending) breaks gain ties.
            let own = conn.weight(u, cp);
            for link in conn.row(u).iter().filter(|l| l.part as usize != cp) {
                let slot = sparse.entry((cp, link.part as usize)).or_insert(EMPTY_SLOT);
                offer(slot, link.weight - own, u as u32);
            }
        }
    }
    // Swaps mutate part weights, so later pairs see earlier pairs' moves:
    // pairs are visited in ascending (a, b) order, a < b.
    let pairs: Vec<(usize, usize)> = if dense {
        (0..k)
            .flat_map(|a| (a + 1..k).map(move |b| (a, b)))
            .collect()
    } else {
        sparse.keys().copied().filter(|&(a, b)| a < b).collect()
    };
    let slot = |from: usize, to: usize| -> Slot {
        if dense {
            table[from * k + to]
        } else {
            sparse.get(&(from, to)).copied().unwrap_or(EMPTY_SLOT)
        }
    };
    let mut swapped = 0usize;
    for (a, b) in pairs {
        let (forward, backward) = (slot(a, b), slot(b, a));
        'pair: for &(ga, u) in forward.iter().filter(|c| c.1 != NO_NODE) {
            for &(gb, v) in backward.iter().filter(|c| c.1 != NO_NODE) {
                // Candidate lists are stale after any swap this pass;
                // one swap per part pair keeps the math exact.
                let joint = ga + gb - 2.0 * edge_weight(level, u as usize, v);
                if joint <= 0.0 {
                    continue;
                }
                let (wu, wv) = (level.node_w[u as usize], level.node_w[v as usize]);
                let new_a = part_w[a] - wu + wv;
                let new_b = part_w[b] - wv + wu;
                let cap = max_part_w.max(part_w[a]).max(part_w[b]);
                if new_a > cap || new_b > cap {
                    continue;
                }
                // A node offered to two pairs may have moved already: the
                // table follows it from where it is.
                conn.moved(u as usize, assignment[u as usize], b as u32);
                conn.moved(v as usize, assignment[v as usize], a as u32);
                assignment[u as usize] = b as u32;
                assignment[v as usize] = a as u32;
                part_w[a] = new_a;
                part_w[b] = new_b;
                swapped += 1;
                break 'pair;
            }
        }
    }
    swapped
}

/// Moves nodes out of overweight parts (lowest connectivity loss first)
/// until every part fits `max_part_w`, or the first overweight part has no
/// feasible move (it is heavy because of one huge node: the weight model,
/// not the cut, is at fault).
fn rebalance(conn: &mut Connectivity, assignment: &mut [u32], k: usize, max_part_w: f64) {
    let level = conn.level;
    let n = level.num_nodes();
    let mut part_w = vec![0.0f64; k];
    for u in 0..n {
        part_w[assignment[u] as usize] += level.node_w[u];
    }
    // The nodes of the part being shed from, ascending: none joins it
    // while it is.
    let (mut shedding, mut members) = (k, Vec::new());
    for _ in 0..n {
        let Some(over) = (0..k).find(|&p| part_w[p] > max_part_w) else {
            return;
        };
        // Lightest destination part.
        let dest = (0..k)
            .filter(|&p| p != over)
            .min_by(|&a, &b| part_w[a].total_cmp(&part_w[b]))
            .expect("k >= 2 when a part can be overweight");
        if shedding != over {
            shedding = over;
            members = (0..n).filter(|&u| assignment[u] as usize == over).collect();
        }
        // Cheapest *feasible* node to move, the lowest id among equals: the
        // destination must stay under the cap (otherwise a single huge node —
        // e.g. a heavy hub — would be shuttled around, making balance worse).
        let feasible = members.iter().copied().filter(|&u| {
            assignment[u] as usize == over && part_w[dest] + level.node_w[u] <= max_part_w
        });
        let cheapest = feasible
            .map(|u| (u, conn.move_cost(u, over, dest)))
            .min_by(|a, b| a.1.total_cmp(&b.1));
        let Some((u, _)) = cheapest else {
            return;
        };
        part_w[over] -= level.node_w[u];
        part_w[dest] += level.node_w[u];
        assignment[u] = dest as u32;
        conn.moved(u, over as u32, dest as u32);
    }
}

/// Ensures all `k` parts are non-empty by stealing from the largest part.
fn fix_empty_parts(level: &Level, assignment: &mut [u32], k: usize) {
    let n = level.num_nodes();
    if n < k {
        return;
    }
    loop {
        let mut count = vec![0usize; k];
        for &a in assignment.iter() {
            count[a as usize] += 1;
        }
        let Some(empty) = (0..k).find(|&p| count[p] == 0) else {
            return;
        };
        let largest = (0..k)
            .max_by_key(|&p| count[p])
            .expect("k > 0");
        let victim = (0..n)
            .find(|&u| assignment[u] as usize == largest)
            .expect("largest part non-empty");
        assignment[victim] = empty as u32;
    }
}

/// The K-independent part of a multilevel cut of one graph: the
/// coarsening levels, shared by every [`CutHierarchy::cut`].
///
/// The level sequence depends on the graph and the seed only; `k` decides
/// just how deep a cut descends (to the first level of at most
/// `max(30·k, 64)` nodes, or to where matching stalls). Levels are built
/// lazily, each keeping the generator state a from-scratch run holds on
/// reaching it, so `cut(k)` returns exactly what
/// [`Partitioner::partition_weighted`] does, whatever was cut before.
pub struct CutHierarchy<G> {
    cutter: MultilevelPartitioner,
    num_nodes: usize,
    total_weight: f64,
    /// The input, until the first non-trivial cut turns it into level 0.
    source: Option<(G, Vec<f64>)>,
    /// How it does: [`finest_level`], or [`symmetric_level`] for the REG.
    finest: fn(&CsrGraph, Vec<f64>, Pcg64Mcg) -> Level,
    levels: Vec<Level>,
    /// Set once matching the deepest level made too little progress: the
    /// generator after that attempt, whose shuffle a from-scratch run
    /// spends before giving up.
    stalled: Option<Pcg64Mcg>,
}

impl<G: Borrow<CsrGraph>> CutHierarchy<G> {
    /// Partitions the graph into `k` parts.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn cut(&mut self, k: usize) -> Partitioning {
        assert!(k > 0, "k must be positive");
        if k == 1 || self.num_nodes <= 1 {
            return Partitioning::new(vec![0; self.num_nodes], k);
        }
        let target = (self.cutter.coarsen_nodes_per_part * k).max(64);
        let (depth, mut rng) = self.descend(target);
        let max_part_w = (1.0 + self.cutter.balance_epsilon) * self.total_weight / k as f64;
        let passes = self.cutter.refinement_passes;

        // Initial partition on the coarsest level.
        let coarsest = &self.levels[depth];
        let mut assignment = initial_partition(coarsest, k, &mut rng);
        fix_empty_parts(coarsest, &mut assignment, k);
        let mut conn = refine(coarsest, &mut assignment, k, max_part_w, passes, &mut rng);

        // Uncoarsening: project and refine at each finer level.
        for li in (0..depth).rev() {
            let fine_to_coarse = self.levels[li + 1]
                .fine_to_coarse
                .as_ref()
                .expect("coarse levels carry projection maps");
            assignment = fine_to_coarse
                .iter()
                .map(|&c| assignment[c as usize])
                .collect();
            let level = &self.levels[li];
            conn = refine(level, &mut assignment, k, max_part_w, passes, &mut rng);
        }

        rebalance(&mut conn, &mut assignment, k, max_part_w);
        fix_empty_parts(&self.levels[0], &mut assignment, k);
        Partitioning::new(assignment, k)
    }

    /// Index of the first level with at most `target` nodes — or of the
    /// level where coarsening stalls — building levels as needed, and the
    /// generator state a from-scratch coarsening ends in there.
    fn descend(&mut self, target: usize) -> (usize, Pcg64Mcg) {
        if let Some((graph, node_weights)) = self.source.take() {
            let rng = Pcg64Mcg::seed_from_u64(self.cutter.seed);
            self.levels
                .push((self.finest)(graph.borrow(), node_weights, rng));
        }
        let mut depth = 0;
        while self.levels[depth].num_nodes() > target {
            if depth + 1 == self.levels.len() {
                if self.stalled.is_none() {
                    let mut rng = self.levels[depth].rng.clone();
                    match coarsen(&self.levels[depth], &mut rng) {
                        Some(coarse) => self.levels.push(coarse),
                        None => self.stalled = Some(rng),
                    }
                }
                if let Some(rng) = &self.stalled {
                    return (depth, rng.clone());
                }
            }
            depth += 1;
        }
        (depth, self.levels[depth].rng.clone())
    }
}

impl MultilevelPartitioner {
    /// A coarsening hierarchy over `graph` (borrowed or owned) for cuts at
    /// several `k`; nothing is built until a cut needs it.
    ///
    /// # Panics
    ///
    /// Panics if `node_weights.len() != graph.num_nodes()`.
    pub fn hierarchy<G: Borrow<CsrGraph>>(
        &self,
        graph: G,
        node_weights: Vec<f64>,
    ) -> CutHierarchy<G> {
        let num_nodes = graph.borrow().num_nodes();
        assert_eq!(node_weights.len(), num_nodes, "one weight per node");
        CutHierarchy {
            cutter: self.clone(),
            num_nodes,
            total_weight: node_weights.iter().sum(),
            source: Some((graph, node_weights)),
            finest: finest_level,
            levels: Vec::new(),
            stalled: None,
        }
    }

    /// [`hierarchy`](Self::hierarchy) of a graph that is already symmetric,
    /// loop-free and without parallel edges, whose level 0 is the graph
    /// itself (see [`symmetric_level`]): every cut equals the public one.
    pub(crate) fn symmetric_hierarchy(
        &self,
        graph: CsrGraph,
        node_weights: Vec<f64>,
    ) -> CutHierarchy<CsrGraph> {
        CutHierarchy {
            finest: symmetric_level,
            ..self.hierarchy(graph, node_weights)
        }
    }
}

impl Partitioner for MultilevelPartitioner {
    fn name(&self) -> &'static str {
        "metis-like"
    }

    fn partition_weighted(
        &self,
        graph: &CsrGraph,
        node_weights: &[f64],
        k: usize,
    ) -> Partitioning {
        self.hierarchy(graph, node_weights.to_vec()).cut(k)
    }
}

#[cfg(test)]
mod tests {
    use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
    use std::cell::Cell;

    use super::*;
    use betty_graph::NodeId;

    // What the calling thread has allocated: the high-water mark of live
    // bytes since `measured` started. Thread-local (const-initialised, no
    // destructor, so safe to touch from inside the allocator), which keeps
    // the figure exact while other tests run.
    thread_local! {
        static LIVE: Cell<isize> = const { Cell::new(0) };
        static PEAK: Cell<isize> = const { Cell::new(0) };
    }

    struct Tracking;

    fn track(delta: isize) {
        let _ = LIVE.try_with(|live| {
            live.set(live.get() + delta);
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
        });
    }

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; the bookkeeping around the
    // calls touches only thread-local `Cell`s and cannot unwind.
    unsafe impl GlobalAlloc for Tracking {
        unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
            track(layout.size() as isize);
            // SAFETY: the caller's contract is `System.alloc`'s contract.
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
            track(-(layout.size() as isize));
            // SAFETY: `ptr` came from `System` with this layout.
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
            track(new_size as isize);
            track(-(layout.size() as isize));
            // SAFETY: `ptr` came from `System` with this layout.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: Tracking = Tracking;

    /// Runs `f`; returns its result and how far the calling thread's live
    /// bytes rose above where they started.
    fn measured<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = LIVE.with(Cell::get);
        PEAK.with(|p| p.set(before));
        let out = f();
        (out, (PEAK.with(Cell::get) - before) as usize)
    }

    /// Builds a symmetric graph from undirected edge pairs.
    fn undirected(n: usize, edges: &[(NodeId, NodeId)]) -> CsrGraph {
        let sym: Vec<(NodeId, NodeId)> = edges
            .iter()
            .flat_map(|&(u, v)| [(u, v), (v, u)])
            .collect();
        CsrGraph::from_edges(n, &sym)
    }

    #[test]
    fn splits_two_cliques_perfectly() {
        // Two K4 cliques joined by a single edge.
        let mut edges = Vec::new();
        for a in 0..4u32 {
            for b in (a + 1)..4 {
                edges.push((a, b));
                edges.push((a + 4, b + 4));
            }
        }
        edges.push((3, 4));
        let g = undirected(8, &edges);
        let p = MultilevelPartitioner::new(1).partition(&g, 2);
        assert_eq!(p.edge_cut(&g), 2.0, "only the bridge is cut");
        assert_eq!(p.part_sizes(), vec![4, 4]);
    }

    #[test]
    fn respects_balance_on_path() {
        let edges: Vec<(NodeId, NodeId)> = (0..99).map(|i| (i, i + 1)).collect();
        let g = undirected(100, &edges);
        let p = MultilevelPartitioner::new(2).partition(&g, 4);
        assert!(p.all_parts_nonempty());
        let balance = p.balance(&vec![1.0; 100]);
        assert!(balance <= 1.15, "balance {balance}");
        // A path cut into 4 balanced chunks needs ≥ 3 undirected cuts; a
        // decent partitioner should stay close to that.
        assert!(p.edge_cut(&g) <= 16.0, "cut {}", p.edge_cut(&g));
    }

    #[test]
    fn weighted_cut_prefers_light_edges() {
        // Square 0-1-2-3 with heavy edges 0-1 and 2-3, light 1-2 and 3-0.
        let g = CsrGraph::from_weighted_edges(
            4,
            [
                (0u32, 1u32, 10.0f32),
                (1, 0, 10.0),
                (2, 3, 10.0),
                (3, 2, 10.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (3, 0, 1.0),
                (0, 3, 1.0),
            ],
            true,
        );
        let p = MultilevelPartitioner::new(3).partition(&g, 2);
        // Two light undirected edges, each stored in both directions.
        assert_eq!(p.edge_cut(&g), 4.0, "cuts only the two light edges");
        assert_eq!(p.part_of(0), p.part_of(1));
        assert_eq!(p.part_of(2), p.part_of(3));
    }

    #[test]
    fn node_weights_steer_balance() {
        // Star with a heavy hub: hub should sit alone-ish.
        let edges: Vec<(NodeId, NodeId)> = (1..9).map(|v| (0, v)).collect();
        let g = undirected(9, &edges);
        let mut w = vec![1.0; 9];
        w[0] = 8.0;
        let p = MultilevelPartitioner::new(4).partition_weighted(&g, &w, 2);
        let pw = p.part_weights(&w);
        let imbalance = pw.iter().cloned().fold(0.0, f64::max) / (16.0 / 2.0);
        assert!(imbalance <= 1.3, "weighted imbalance {imbalance}");
    }

    #[test]
    fn k_equals_one() {
        let g = undirected(5, &[(0, 1), (1, 2)]);
        let p = MultilevelPartitioner::new(0).partition(&g, 1);
        assert_eq!(p.part_sizes(), vec![5]);
        assert_eq!(p.edge_cut(&g), 0.0);
    }

    #[test]
    fn handles_disconnected_graph() {
        let g = undirected(10, &[(0, 1), (2, 3), (4, 5)]);
        let p = MultilevelPartitioner::new(7).partition(&g, 3);
        assert!(p.all_parts_nonempty());
        assert_eq!(p.part_sizes().iter().sum::<usize>(), 10);
    }

    #[test]
    fn handles_graph_with_no_edges() {
        let g = CsrGraph::from_edges(6, &[]);
        let p = MultilevelPartitioner::new(0).partition(&g, 3);
        assert!(p.all_parts_nonempty());
        assert!(p.balance(&[1.0; 6]) <= 1.5);
    }

    #[test]
    fn deterministic_for_seed() {
        let edges: Vec<(NodeId, NodeId)> = (0..49).map(|i| (i, i + 1)).collect();
        let g = undirected(50, &edges);
        let a = MultilevelPartitioner::new(9).partition(&g, 4);
        let b = MultilevelPartitioner::new(9).partition(&g, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic_on_dense_graph_with_swaps() {
        use rand::Rng;
        use rand::SeedableRng;
        // A path graph never exercises the swap pass, so this uses a dense
        // random graph where refinement finds many candidate swaps. Before
        // pair ordering was fixed, two identical calls in the same process
        // could return different partitions (HashMap iteration order).
        let mut rng = Pcg64Mcg::seed_from_u64(23);
        let mut edges = Vec::new();
        for _ in 0..1200 {
            let u = rng.gen_range(0..120u32);
            let v = rng.gen_range(0..120u32);
            if u != v {
                edges.push((u, v));
            }
        }
        let g = undirected(120, &edges);
        for k in [2usize, 4, 8] {
            let a = MultilevelPartitioner::new(7).partition(&g, k);
            let b = MultilevelPartitioner::new(7).partition(&g, k);
            assert_eq!(a, b, "repeated calls must agree at k={k}");
        }
    }

    #[test]
    fn beats_random_on_community_graph() {
        use rand::Rng;
        use rand::SeedableRng;
        // Four planted communities of 25 nodes; dense inside, sparse across.
        let mut rng = Pcg64Mcg::seed_from_u64(11);
        let mut edges = Vec::new();
        for c in 0..4u32 {
            for _ in 0..150 {
                let u = c * 25 + rng.gen_range(0..25);
                let v = c * 25 + rng.gen_range(0..25);
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        for _ in 0..40 {
            let u = rng.gen_range(0..100);
            let v = rng.gen_range(0..100);
            if u != v {
                edges.push((u, v));
            }
        }
        let g = undirected(100, &edges);
        let ml = MultilevelPartitioner::new(5).partition(&g, 4);
        let rnd = crate::RandomPartitioner::new(5).partition(&g, 4);
        assert!(
            ml.edge_cut(&g) < 0.5 * rnd.edge_cut(&g),
            "multilevel {} vs random {}",
            ml.edge_cut(&g),
            rnd.edge_cut(&g)
        );
    }

    #[test]
    fn refinement_improves_cut() {
        use rand::Rng;
        let mut rng = Pcg64Mcg::seed_from_u64(13);
        let mut edges = Vec::new();
        for c in 0..2u32 {
            for _ in 0..200 {
                let u = c * 50 + rng.gen_range(0..50);
                let v = c * 50 + rng.gen_range(0..50);
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        for _ in 0..30 {
            edges.push((rng.gen_range(0..50), 50 + rng.gen_range(0..50)));
        }
        let g = undirected(100, &edges);
        let refined = MultilevelPartitioner::new(1).partition(&g, 2);
        let unrefined = MultilevelPartitioner::new(1)
            .with_refinement_passes(0)
            .partition(&g, 2);
        assert!(refined.edge_cut(&g) <= unrefined.edge_cut(&g));
    }

    /// The level build as it was before rows were produced sorted: fill
    /// each row in `entries` order (yielded twice, identically), sort it by
    /// neighbor, sum duplicate neighbors front to back.
    fn reference_from_entries<I: Iterator<Item = (u32, u32, f32)>>(
        entries: impl Fn() -> I,
        node_w: Vec<f64>,
        rng: Pcg64Mcg,
    ) -> Level {
        let n = node_w.len();
        let mut indptr = vec![0usize; n + 1];
        for (row, _, _) in entries() {
            indptr[row as usize + 1] += 1;
        }
        for u in 0..n {
            indptr[u + 1] += indptr[u];
        }
        let mut cursor = indptr[..n].to_vec();
        let mut adj = vec![(0u32, 0.0f32); indptr[n]];
        for (row, v, w) in entries() {
            adj[cursor[row as usize]] = (v, w);
            cursor[row as usize] += 1;
        }
        let mut write = 0usize;
        let mut start = 0usize;
        for u in 0..n {
            let end = indptr[u + 1];
            adj[start..end].sort_unstable_by_key(|&(v, _)| v);
            let row = write;
            for i in start..end {
                let (v, w) = adj[i];
                if write > row && adj[write - 1].0 == v {
                    adj[write - 1].1 += w;
                } else {
                    adj[write] = (v, w);
                    write += 1;
                }
            }
            start = end;
            indptr[u + 1] = write;
        }
        adj.truncate(write);
        Level {
            indptr,
            adj,
            node_w,
            fine_to_coarse: None,
            rng,
        }
    }

    fn reference_finest_level(graph: &CsrGraph, node_w: Vec<f64>, rng: Pcg64Mcg) -> Level {
        let entries = || {
            graph
                .iter_edges()
                .filter(|&(u, v, _)| u != v)
                .flat_map(|(u, v, w)| [(u, v, w), (v, u, w)])
        };
        reference_from_entries(entries, node_w, rng)
    }

    /// The coarse level under `fine_to_coarse`, built the old way.
    fn reference_coarse_level(level: &Level, fine_to_coarse: &[u32], rng: Pcg64Mcg) -> Level {
        let coarse_n = fine_to_coarse
            .iter()
            .map(|&c| c as usize + 1)
            .max()
            .unwrap_or(0);
        let mut node_w = vec![0.0f64; coarse_n];
        for (u, &c) in fine_to_coarse.iter().enumerate() {
            node_w[c as usize] += level.node_w[u];
        }
        let entries = || {
            (0..level.num_nodes())
                .flat_map(move |u| {
                    let row = level.neighbors(u).iter();
                    row.map(move |&(v, w)| (fine_to_coarse[u], fine_to_coarse[v as usize], w))
                })
                .filter(|&(cu, cv, _)| cu != cv)
        };
        Level {
            fine_to_coarse: Some(fine_to_coarse.to_vec()),
            ..reference_from_entries(entries, node_w, rng)
        }
    }

    /// `rebalance` as it was: every candidate priced twice per comparison,
    /// from scratch, for every node moved.
    fn reference_rebalance(level: &Level, assignment: &mut [u32], k: usize, max_part_w: f64) {
        let n = level.num_nodes();
        let mut part_w = vec![0.0f64; k];
        for u in 0..n {
            part_w[assignment[u] as usize] += level.node_w[u];
        }
        for _ in 0..n {
            let Some(over) = (0..k).find(|&p| part_w[p] > max_part_w) else {
                break;
            };
            let dest = (0..k)
                .filter(|&p| p != over)
                .min_by(|&a, &b| part_w[a].total_cmp(&part_w[b]))
                .expect("k >= 2 when a part can be overweight");
            let cost = |u: usize| -> f32 {
                level
                    .neighbors(u)
                    .iter()
                    .map(|&(v, w)| {
                        if assignment[v as usize] as usize == over {
                            w
                        } else if assignment[v as usize] as usize == dest {
                            -w
                        } else {
                            0.0
                        }
                    })
                    .sum()
            };
            let candidate = (0..n)
                .filter(|&u| {
                    assignment[u] as usize == over && part_w[dest] + level.node_w[u] <= max_part_w
                })
                .min_by(|&a, &b| cost(a).total_cmp(&cost(b)));
            match candidate {
                Some(u) => {
                    part_w[over] -= level.node_w[u];
                    part_w[dest] += level.node_w[u];
                    assignment[u] = dest as u32;
                }
                None => break,
            }
        }
    }

    /// The move sweep as it was before the connectivity table, verbatim:
    /// every visited node's row recounted into all `k` parts.
    fn oracle_move_pass(
        level: &Level,
        assignment: &mut [u32],
        part_w: &mut [f64],
        part_count: &mut [usize],
        k: usize,
        max_part_w: f64,
        order: &[u32],
    ) -> usize {
        let mut conn = vec![0.0f32; k];
        let mut moved = 0usize;
        for &u in order {
            let u = u as usize;
            let cp = assignment[u] as usize;
            if part_count[cp] <= 1 {
                continue; // never empty a part
            }
            for c in conn.iter_mut() {
                *c = 0.0;
            }
            let mut touches_other = false;
            for &(v, w) in level.neighbors(u) {
                let p = assignment[v as usize] as usize;
                conn[p] += w;
                if p != cp {
                    touches_other = true;
                }
            }
            if !touches_other && part_w[cp] <= max_part_w {
                continue; // interior node in a feasible part
            }
            let uw = level.node_w[u];
            let mut best: Option<(usize, f32)> = None;
            for p in 0..k {
                if p == cp {
                    continue;
                }
                let fits_cap = part_w[p] + uw <= max_part_w;
                let improves = part_w[p] + uw < part_w[cp];
                if !fits_cap && !improves {
                    continue;
                }
                let gain = conn[p] - conn[cp];
                if best.is_none_or(|(_, bg)| gain > bg) {
                    best = Some((p, gain));
                }
            }
            if let Some((p, gain)) = best {
                let overweight = part_w[cp] > max_part_w;
                if gain > 0.0 || (gain == 0.0 && overweight) {
                    assignment[u] = p as u32;
                    part_w[cp] -= uw;
                    part_w[p] += uw;
                    part_count[cp] -= 1;
                    part_count[p] += 1;
                    moved += 1;
                }
            }
        }
        moved
    }

    /// The swap sweep as it was before the connectivity table, verbatim:
    /// every node's row recounted to price its offers.
    fn oracle_swap_pass(
        level: &Level,
        assignment: &mut [u32],
        part_w: &mut [f64],
        k: usize,
        max_part_w: f64,
    ) -> usize {
        if k < 2 {
            return 0;
        }
        // For modest k, consider every target part (zero-gain partners from
        // untouched parts matter — e.g. swapping an isolated node out of the
        // way of a heavy pair) in a flat table, row `from`, column `to`. For
        // large k that table and its enumeration are quadratic (a user asking
        // for thousands of parts would OOM here), so keep only the pairs with
        // a boundary node between them, in a map.
        let dense = k <= DENSE_SWAP_PARTS;
        let mut table = vec![EMPTY_SLOT; if dense { k * k } else { 0 }];
        let mut sparse: BTreeMap<(usize, usize), Slot> = BTreeMap::new();
        let mut conn = vec![0.0f32; if dense { k } else { 0 }];
        let mut touched: BTreeMap<usize, f32> = BTreeMap::new();
        for u in 0..level.num_nodes() {
            let cp = assignment[u] as usize;
            if dense {
                conn.fill(0.0);
                for &(v, w) in level.neighbors(u) {
                    conn[assignment[v as usize] as usize] += w;
                }
                for p in (0..k).filter(|&p| p != cp) {
                    offer(&mut table[cp * k + p], conn[p] - conn[cp], u as u32);
                }
            } else {
                // A BTreeMap: offers go out in ascending part order, which
                // breaks gain ties.
                touched.clear();
                for &(v, w) in level.neighbors(u) {
                    let part = assignment[v as usize] as usize;
                    *touched.entry(part).or_insert(0.0) += w;
                }
                let own = touched.get(&cp).copied().unwrap_or(0.0);
                for (&p, &c) in touched.iter().filter(|&(&p, _)| p != cp) {
                    let slot = sparse.entry((cp, p)).or_insert(EMPTY_SLOT);
                    offer(slot, c - own, u as u32);
                }
            }
        }
        // Swaps mutate part weights, so later pairs see earlier pairs' moves:
        // pairs are visited in ascending (a, b) order, a < b.
        let pairs: Vec<(usize, usize)> = if dense {
            (0..k)
                .flat_map(|a| (a + 1..k).map(move |b| (a, b)))
                .collect()
        } else {
            sparse.keys().copied().filter(|&(a, b)| a < b).collect()
        };
        let slot = |from: usize, to: usize| -> Slot {
            if dense {
                table[from * k + to]
            } else {
                sparse.get(&(from, to)).copied().unwrap_or(EMPTY_SLOT)
            }
        };
        let mut swapped = 0usize;
        for (a, b) in pairs {
            let (forward, backward) = (slot(a, b), slot(b, a));
            'pair: for &(ga, u) in forward.iter().filter(|c| c.1 != NO_NODE) {
                for &(gb, v) in backward.iter().filter(|c| c.1 != NO_NODE) {
                    // Candidate lists are stale after any swap this pass;
                    // one swap per part pair keeps the math exact.
                    let joint = ga + gb - 2.0 * edge_weight(level, u as usize, v);
                    if joint <= 0.0 {
                        continue;
                    }
                    let (wu, wv) = (level.node_w[u as usize], level.node_w[v as usize]);
                    let new_a = part_w[a] - wu + wv;
                    let new_b = part_w[b] - wv + wu;
                    let cap = max_part_w.max(part_w[a]).max(part_w[b]);
                    if new_a > cap || new_b > cap {
                        continue;
                    }
                    assignment[u as usize] = b as u32;
                    assignment[v as usize] = a as u32;
                    part_w[a] = new_a;
                    part_w[b] = new_b;
                    swapped += 1;
                    break 'pair;
                }
            }
        }
        swapped
    }
    /// A fresh recount of every node's connectivity row: the parts holding
    /// a neighbour, ascending, each with how many do and their weight summed
    /// from `0.0` in neighbour order (as bits).
    fn recount(level: &Level, assignment: &[u32]) -> Vec<Vec<(u32, u32, u32)>> {
        (0..level.num_nodes())
            .map(|u| {
                let mut row: BTreeMap<u32, (u32, f32)> = BTreeMap::new();
                for &(v, w) in level.neighbors(u) {
                    let link = row.entry(assignment[v as usize]).or_insert((0, 0.0));
                    link.0 += 1;
                    link.1 += w;
                }
                row.into_iter()
                    .map(|(p, (c, w))| (p, c, w.to_bits()))
                    .collect()
            })
            .collect()
    }

    fn assert_recounted(conn: &Connectivity, assignment: &[u32], what: &str) {
        let table: Vec<Vec<(u32, u32, u32)>> = (0..conn.level.num_nodes())
            .map(|u| {
                let row = conn.row(u).iter();
                let mut row: Vec<_> = row
                    .map(|l| (l.part, l.neighbours, l.weight.to_bits()))
                    .collect();
                row.sort_unstable();
                row
            })
            .collect();
        assert!(
            table == recount(conn.level, assignment),
            "{what}: the table is not a fresh recount"
        );
    }

    /// [`rebalance`] from `assignment` through a table built for it, which
    /// must still be a fresh recount afterwards.
    fn table_rebalance(level: &Level, assignment: &mut [u32], k: usize, max_part_w: f64) {
        let mut conn = Connectivity::new(level, assignment, k);
        rebalance(&mut conn, assignment, k, max_part_w);
        assert_recounted(&conn, assignment, "rebalance");
    }

    /// [`CutHierarchy::cut`] with every sweep run twice from one state —
    /// through the table and by the recounting oracle — asserting after
    /// each that both left the same assignment, part weights and counts and
    /// that the table is a fresh recount; then the same of [`rebalance`]
    /// against [`reference_rebalance`].
    fn cut_against_the_oracle<G: Borrow<CsrGraph>>(
        hierarchy: &mut CutHierarchy<G>,
        k: usize,
    ) -> Vec<u32> {
        let cutter = hierarchy.cutter.clone();
        let (depth, mut rng) = hierarchy.descend((cutter.coarsen_nodes_per_part * k).max(64));
        let max_part_w = (1.0 + cutter.balance_epsilon) * hierarchy.total_weight / k as f64;
        let levels = &hierarchy.levels;
        let mut assignment = initial_partition(&levels[depth], k, &mut rng);
        fix_empty_parts(&levels[depth], &mut assignment, k);
        for li in (0..=depth).rev() {
            let level = &levels[li];
            if li < depth {
                let map = levels[li + 1].fine_to_coarse.as_ref().expect("coarse");
                assignment = map.iter().map(|&c| assignment[c as usize]).collect();
            }
            let mut conn = Connectivity::new(level, &assignment, k);
            let (mut part_w, mut part_count) = (vec![0.0f64; k], vec![0usize; k]);
            for (u, &p) in assignment.iter().enumerate() {
                part_w[p as usize] += level.node_w[u];
                part_count[p as usize] += 1;
            }
            let mut order: Vec<u32> = (0..level.num_nodes() as u32).collect();
            for pass in 0..cutter.refinement_passes {
                order.shuffle(&mut rng);
                let what = format!("k {k} level {li} pass {pass}");
                let mut oracle = (assignment.clone(), part_w.clone(), part_count.clone());
                let (a, w, c) = (&mut oracle.0, &mut oracle.1, &mut oracle.2);
                let moved = move_pass(
                    &mut conn,
                    &mut assignment,
                    &mut part_w,
                    &mut part_count,
                    max_part_w,
                    &order,
                );
                let expected = oracle_move_pass(level, a, w, c, k, max_part_w, &order);
                assert_eq!(moved, expected, "{what}: moves");
                assert_eq!(
                    (&assignment, &part_w, &part_count),
                    (&*a, &*w, &*c),
                    "{what}: moves"
                );
                assert_recounted(&conn, &assignment, &what);
                let swapped = swap_pass(&mut conn, &mut assignment, &mut part_w, max_part_w);
                let expected = oracle_swap_pass(level, a, w, k, max_part_w);
                assert_eq!(swapped, expected, "{what}: swaps");
                assert_eq!((&assignment, &part_w), (&*a, &*w), "{what}: swaps");
                assert_recounted(&conn, &assignment, &what);
                if moved + swapped == 0 {
                    break;
                }
            }
            if li == 0 {
                let mut oracle = assignment.clone();
                rebalance(&mut conn, &mut assignment, k, max_part_w);
                reference_rebalance(level, &mut oracle, k, max_part_w);
                assert_eq!(assignment, oracle, "k {k}: rebalance");
                assert_recounted(&conn, &assignment, &format!("k {k}: rebalance"));
            }
        }
        fix_empty_parts(&levels[0], &mut assignment, k);
        assignment
    }

    /// A symmetric graph without loops or parallel edges over `n` nodes:
    /// about `degree` neighbours a node, weights in `1..=3` or fractional.
    fn symmetric_graph(n: usize, degree: usize, seed: u64, fractional: bool) -> CsrGraph {
        use rand::Rng;
        let mut rng = Pcg64Mcg::seed_from_u64(seed);
        let mut pairs = BTreeMap::new();
        for _ in 0..n * degree / 2 {
            let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
            let w = if fractional {
                rng.gen_range(0.1f32..3.0)
            } else {
                rng.gen_range(1..4) as f32
            };
            if u != v {
                pairs.insert((u.min(v), u.max(v)), w);
            }
        }
        let both = pairs
            .into_iter()
            .flat_map(|((u, v), w)| [(u, v, w), (v, u, w)]);
        CsrGraph::from_weighted_edges(n, both, true)
    }

    fn assert_levels_equal(new: &Level, old: &Level, what: &str) {
        assert_eq!(new.indptr, old.indptr, "{what}: indptr");
        let bits = |l: &Level| -> Vec<(u32, u32)> {
            l.adj.iter().map(|&(v, w)| (v, w.to_bits())).collect()
        };
        assert_eq!(bits(new), bits(old), "{what}: adjacency");
        assert_eq!(new.node_w, old.node_w, "{what}: node weights");
        assert_eq!(new.fine_to_coarse, old.fine_to_coarse, "{what}: projection");
        assert_eq!(new.rng, old.rng, "{what}: generator");
    }

    /// A directed multigraph of fewer than `max_nodes` nodes with weights
    /// in `1..=9`: self-loops, parallel edges and one-way pairs as the draw
    /// has them, nodes past `live` isolated. Its level 0, `A + Aᵀ`, is a
    /// symmetric integer-weighted graph.
    fn arb_multigraph(max_nodes: usize) -> impl proptest::strategy::Strategy<Value = CsrGraph> {
        use proptest::prelude::*;
        (0usize..max_nodes, 0usize..8).prop_flat_map(|(n, density)| {
            let live = (n * 3 / 4).max(1) as u32;
            let edge = (0..live, 0..live, 1u32..10);
            let count = if n == 0 { 0 } else { n * density };
            proptest::collection::vec(edge, count).prop_map(move |edges| {
                let weighted = edges.into_iter().map(|(u, v, w)| (u, v, w as f32));
                CsrGraph::from_weighted_edges(n, weighted, true)
            })
        })
    }

    /// A symmetric, loop-free level over a random graph of about `degree`
    /// neighbours per node, edge weights in `1..=3` or `fractional`:
    /// quarters in `0.25..=2.75`, integers times one power of two, whose
    /// sums the connectivity table keeps exact.
    fn random_level(n: u32, degree: u32, seed: u64, fractional: bool) -> Level {
        use rand::Rng;
        let mut rng = Pcg64Mcg::seed_from_u64(seed);
        let edges: Vec<(u32, u32, f32)> = (0..n * degree / 2)
            .map(|_| {
                let w = if fractional {
                    rng.gen_range(1..12) as f32 / 4.0
                } else {
                    rng.gen_range(1..4) as f32
                };
                (rng.gen_range(0..n), rng.gen_range(0..n), w)
            })
            .collect();
        let graph = CsrGraph::from_weighted_edges(n as usize, edges, true);
        finest_level(&graph, vec![1.0; n as usize], rng)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn levels_equal_the_sort_built_reference_through_a_full_descend(
            graph in arb_multigraph(200),
            seed in 0u64..1 << 32,
        ) {
            let n = graph.num_nodes();
            let node_w: Vec<f64> = (0..n).map(|u| 1.0 + (u % 3) as f64).collect();
            let mut hierarchy = MultilevelPartitioner::new(seed).hierarchy(&graph, node_w.clone());
            let (depth, rng) = hierarchy.descend(1);
            proptest::prop_assert_eq!(depth + 1, hierarchy.levels.len());
            let mut reference =
                vec![reference_finest_level(&graph, node_w, Pcg64Mcg::seed_from_u64(seed))];
            for level in &hierarchy.levels[1..] {
                let map = level.fine_to_coarse.as_ref().expect("coarse levels carry one");
                let fine = reference.last().expect("starts with the finest");
                reference.push(reference_coarse_level(fine, map, level.rng.clone()));
            }
            for (li, (new, old)) in hierarchy.levels.iter().zip(&reference).enumerate() {
                assert_levels_equal(new, old, &format!("level {li}"));
            }
            // Down to one node, or to where matching stalls: then the
            // generator is the deepest level's after one more shuffle.
            let deepest = &hierarchy.levels[depth];
            let stalled = hierarchy.stalled.clone();
            proptest::prop_assert_eq!(stalled.is_some(), deepest.num_nodes() > 1);
            if let Some(stalled) = stalled {
                let mut after = deepest.rng.clone();
                (0..deepest.num_nodes() as u32).collect::<Vec<_>>().shuffle(&mut after);
                proptest::prop_assert_eq!(&after, &stalled);
                proptest::prop_assert_eq!(&rng, &stalled);
            }
        }

        #[test]
        fn every_sweep_and_rebalance_match_the_recounting_oracle(
            graph in arb_multigraph(500),
            seed in 0u64..1 << 32,
        ) {
            // k = 300 cuts level 0 alone and takes the sparse swap table.
            let node_w: Vec<f64> = (0..graph.num_nodes()).map(|u| 1.0 + (u % 3) as f64).collect();
            let cutter = MultilevelPartitioner::new(seed);
            let mut checked = cutter.hierarchy(&graph, node_w.clone());
            let mut plain = cutter.hierarchy(&graph, node_w);
            for k in [2usize, 3, 8, 300] {
                let assignment = cut_against_the_oracle(&mut checked, k);
                if graph.num_nodes() > 1 {
                    proptest::prop_assert_eq!(plain.cut(k).assignment(), &assignment[..]);
                }
            }
        }

        #[test]
        fn a_symmetric_graph_cuts_the_same_as_its_level_zero_or_through_a_plus_a_transposed(
            n in 2usize..400,
            degree in 0usize..12,
            seed in 0u64..1 << 32,
            fractional in 0u32..2,
        ) {
            let graph = symmetric_graph(n, degree, seed, fractional == 1);
            let node_w: Vec<f64> = (0..n).map(|u| 1.0 + (u % 3) as f64).collect();
            let rng = Pcg64Mcg::seed_from_u64(seed);
            let direct = symmetric_level(&graph, node_w.clone(), rng.clone());
            let doubled = finest_level(&graph, node_w.clone(), rng);
            proptest::prop_assert_eq!(&direct.indptr, &doubled.indptr);
            for (&(u, w), &(v, two_w)) in direct.adj.iter().zip(&doubled.adj) {
                proptest::prop_assert_eq!((u, (2.0 * w).to_bits()), (v, two_w.to_bits()));
            }
            let cutter = MultilevelPartitioner::new(seed);
            let mut direct = cutter.symmetric_hierarchy(graph.clone(), node_w.clone());
            let mut doubled = cutter.hierarchy(&graph, node_w);
            for k in [2usize, 3, 8, 300] {
                proptest::prop_assert_eq!(direct.cut(k), doubled.cut(k), "k {}", k);
            }
        }

        #[test]
        fn rebalance_equals_the_reference_from_adversarial_starts(
            n in 40u32..400,
            degree in 0u32..12,
            k in 2usize..9,
            seed in 0u64..1 << 32,
            fractional in 0u32..2,
        ) {
            use rand::Rng;
            let mut level = random_level(n, degree, seed, fractional == 1);
            let mut rng = Pcg64Mcg::seed_from_u64(seed ^ 0xabcd);
            let skewed: Vec<u32> = (0..n)
                .map(|_| {
                    // Three of four nodes in the first half of the parts:
                    // several overweight at once, the light ones level.
                    let half = (k as u32).div_ceil(2);
                    if rng.gen_range(0..4) < 3 { rng.gen_range(0..half) } else { rng.gen_range(0..k as u32) }
                })
                .collect();
            let starts = [vec![0u32; n as usize], skewed];
            for heavy_hub in [false, true] {
                if heavy_hub {
                    // No part can take node 0, and part 0 is over the cap
                    // while it holds it.
                    level.node_w[0] = n as f64;
                }
                let total: f64 = level.node_w.iter().sum();
                for slack in [1.0, 1.1] {
                    let max_part_w = slack * total / k as f64;
                    for start in &starts {
                        let (mut new, mut old) = (start.clone(), start.clone());
                        table_rebalance(&level, &mut new, k, max_part_w);
                        reference_rebalance(&level, &mut old, k, max_part_w);
                        proptest::prop_assert_eq!(
                            new, old,
                            "n {} degree {} k {} seed {} hub {} slack {} fractional {}",
                            n, degree, k, seed, heavy_hub, slack, fractional
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rebalance_leaves_an_infeasible_part_untouched() {
        // Part 0 is over the cap because of node 0 alone, which fits
        // nowhere: the first overweight part has no move, so nothing moves
        // — not even out of part 1, which is over the cap too.
        let mut level = random_level(60, 6, 5, false);
        level.node_w[0] = 100.0;
        let start: Vec<u32> = (0..60)
            .map(|u| if u == 0 { 0 } else { 1 + u % 2 })
            .collect();
        let (mut new, mut old) = (start.clone(), start.clone());
        table_rebalance(&level, &mut new, 4, 20.0);
        reference_rebalance(&level, &mut old, 4, 20.0);
        assert_eq!(new, start);
        assert_eq!(old, start);
    }

    #[test]
    fn rebalance_breaks_cost_ties_towards_the_lower_node_id() {
        // No edges: every move costs the same.
        let graph = CsrGraph::from_edges(10, &[]);
        let level = finest_level(&graph, vec![1.0; 10], Pcg64Mcg::seed_from_u64(0));
        let mut assignment = vec![0u32; 10];
        table_rebalance(&level, &mut assignment, 2, 5.5);
        assert_eq!(assignment, [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]);
        let mut reference = vec![0u32; 10];
        reference_rebalance(&level, &mut reference, 2, 5.5);
        assert_eq!(assignment, reference);
    }

    #[test]
    fn a_long_rebalance_keeps_the_table_current() {
        // A 4 k-node graph of REG-like degree, 1 k nodes to shed from part
        // 0 into three parts that fill level, so the destination changes
        // nearly every step: a thousand moves, each followed in the table.
        let (n, k) = (4000u32, 4usize);
        let level = random_level(n, 24, 77, false);
        let start: Vec<u32> = (0..n)
            .map(|u| if u < 2000 { 0 } else { 1 + u % 3 })
            .collect();
        let mut expected = start.clone();
        reference_rebalance(&level, &mut expected, k, 1000.0);
        let mut assignment = start.clone();
        table_rebalance(&level, &mut assignment, k, 1000.0);
        assert_eq!(assignment, expected);
        let moved = start.iter().zip(&assignment).filter(|(a, b)| a != b);
        assert_eq!(moved.count(), 1000);
    }

    #[test]
    fn the_table_stays_linear_in_the_level_at_512_parts() {
        // 20 k nodes scattered over the planner's 512 parts: most rows hold
        // one link per neighbour. A dense n × k table would be 41 MB.
        let (n, k) = (20_000usize, 512usize);
        let level = random_level(n as u32, 12, 3, false);
        let mut assignment: Vec<u32> = (0..n as u32)
            .map(|u| u.wrapping_mul(2_654_435_761) % k as u32)
            .collect();
        let max_part_w = 1.1 * n as f64 / k as f64;
        let order: Vec<u32> = (0..n as u32).collect();
        let (mut part_w, mut part_count) = (vec![0.0f64; k], vec![0usize; k]);
        for &p in &assignment {
            part_w[p as usize] += 1.0;
            part_count[p as usize] += 1;
        }
        let ((conn, moved), peak) = measured(|| {
            let mut conn = Connectivity::new(&level, &assignment, k);
            let moved = move_pass(
                &mut conn,
                &mut assignment,
                &mut part_w,
                &mut part_count,
                max_part_w,
                &order,
            );
            rebalance(&mut conn, &mut assignment, k, max_part_w);
            (conn, moved)
        });
        assert_recounted(&conn, &assignment, "512 parts");
        assert!(moved > 1000, "{moved} moves");
        // The table: room for `min(deg, k)` links a node, and a start and a
        // length per node. Beside it: O(k) scratch, and rebalance's part
        // weights and the members of one part.
        let room: usize = (0..n).map(|u| level.neighbors(u).len().min(k)).sum();
        let table = room * std::mem::size_of::<Link>() + n * 12;
        assert!(
            peak <= table + n * 8 + k * 32 + 4096,
            "peak {peak} B, table {table} B"
        );
        assert!(8 * peak < n * k * 4, "peak {peak} B");
    }

    #[test]
    fn coarse_rows_equal_the_sort_built_reference_at_word_and_summary_edges() {
        // Pairs {2i, 2i + 1} joined by a heavy edge match whatever the
        // order, so `m` coarse nodes come out, and fine nodes 0 and 1 touch
        // every other node: coarse row 0 touches every coarse column.
        for m in [0u32, 1, 2, 63, 64, 65, 4095, 4097] {
            let n = 2 * m;
            let pairs = (0..m).map(|i| (2 * i, 2 * i + 1, 10.0f32));
            let hubs = (2..n).flat_map(|j| [(0, j, 1.0), (1, j, 1.0)]);
            let edges = pairs.chain(hubs).flat_map(|(u, v, w)| [(u, v, w), (v, u, w)]);
            let graph = CsrGraph::from_weighted_edges(n as usize, edges, true);
            let level = symmetric_level(&graph, vec![1.0; n as usize], Pcg64Mcg::seed_from_u64(7));
            let coarse = coarsen(&level, &mut level.rng.clone()).expect("pairs halve the level");
            assert_eq!(coarse.num_nodes(), m as usize);
            if m > 0 {
                assert_eq!(coarse.neighbors(0).len(), m as usize - 1, "m = {m}");
            }
            let map = coarse.fine_to_coarse.as_ref().expect("coarse levels carry one");
            let reference = reference_coarse_level(&level, map, coarse.rng.clone());
            assert_levels_equal(&coarse, &reference, &format!("m = {m}"));
        }
    }

    #[test]
    fn merged_coarse_weights_fold_in_fine_row_then_neighbour_order() {
        // Edges 0–1 and 2–3 outweigh everything, so any matching order
        // pairs them: coarse 0 = {0, 1}, coarse 1 = {2, 3}, joined by the
        // fine edges 0–2 (1), 0–3 (2²⁴) and 1–2 (1). In f32, 1 + 2²⁴ = 2²⁴
        // and (1 + 1) + 2²⁴ = 2²⁴ + 2: the two directions read the same
        // three weights in different orders and must say so.
        let big = 16_777_216.0f32;
        let graph = CsrGraph::from_weighted_edges(
            4,
            [
                (0u32, 1u32, 1e30f32),
                (2, 3, 1e30),
                (0, 2, 1.0),
                (0, 3, big),
                (1, 2, 1.0),
            ],
            true,
        );
        let level = finest_level(&graph, vec![1.0; 4], Pcg64Mcg::seed_from_u64(1));
        assert_eq!(level.neighbors(0), &[(1, 1e30), (2, 1.0), (3, big)]);
        for seed in 0..8 {
            let coarse = coarsen(&level, &mut Pcg64Mcg::seed_from_u64(seed)).expect("halves");
            assert_eq!(coarse.fine_to_coarse.as_deref(), Some(&[0u32, 0, 1, 1][..]));
            // Row 0: fine row 0 (→2: 1, →3: 2²⁴), then fine row 1 (→2: 1).
            assert_eq!(coarse.neighbors(0), &[(1, (1.0 + big) + 1.0)]);
            assert_eq!(coarse.neighbors(0)[0].1, big);
            // Row 1: fine row 2 (→0: 1, →1: 1), then fine row 3 (→0: 2²⁴).
            assert_eq!(coarse.neighbors(1), &[(0, (1.0 + 1.0) + big)]);
            assert_eq!(coarse.neighbors(1)[0].1, big + 2.0);
        }
    }

    #[test]
    fn finest_level_sums_a_neighbours_out_entries_before_its_in_entries() {
        // Node 0 reaches node 1 by two out-edges (1, 2²⁴) and one in-edge
        // (1): (1 + 2²⁴) + 1 = 2²⁴ for row 0, while row 1 reads the in-edge
        // first: (1 + 1) + 2²⁴.
        let big = 16_777_216.0f32;
        let graph =
            CsrGraph::from_csr_parts(vec![0, 2, 3], vec![1, 1, 0], Some(vec![1.0, big, 1.0]));
        let level = finest_level(&graph, vec![1.0; 2], Pcg64Mcg::seed_from_u64(0));
        assert_eq!(level.neighbors(0), &[(1, big)]);
        assert_eq!(level.neighbors(1), &[(0, big + 2.0)]);
    }
}

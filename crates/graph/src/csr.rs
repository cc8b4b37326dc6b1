//! Compact CSR (compressed sparse row) arc representation of a
//! [`Graph`], plus reusable Dijkstra scratch state.
//!
//! ## Why this exists
//!
//! Every experiment in the paper reduces to solving max concurrent flow,
//! and the solver's inner loop is single-source Dijkstra repeated
//! thousands of times with re-weighted arc lengths. Traversing
//! [`Graph`]'s nested `Vec<Vec<(EdgeId, NodeId)>>` adjacency pays a
//! pointer chase per neighbor and recomputes arc orientation
//! (`arc_of`) on every visit. [`CsrNet`] is built **once** per topology
//! and flattens everything the hot loop touches into contiguous arrays:
//!
//! * `row[v]..row[v+1]` indexes the out-arc slots of node `v`,
//! * `adj_arc` / `adj_head` give the arc id and head node per slot,
//! * `capacity` / `inv_capacity` are indexed directly by [`ArcId`].
//!
//! **Arc ids are preserved exactly**: arc `2e` is edge `e` oriented
//! `u → v`, arc `2e + 1` the reverse, so flow vectors produced against a
//! `CsrNet` index interchangeably with the original [`Graph`].
//!
//! [`DijkstraWorkspace`] owns the distance and parent arrays plus the
//! two duplicate-free queues the tree kernels choose between by node
//! count — one `u64` frontier for a net of at most 64 nodes, an indexed
//! flat 4-ary heap of integer-packed keys above that — so repeated
//! [`CsrNet::dijkstra`] calls allocate nothing after warm-up and every
//! pop settles a node.
//!
//! The traversal order (adjacency order, pops tie-broken by node id)
//! matches [`crate::paths::dijkstra`] operation-for-operation, so
//! distances agree **bitwise** with the legacy implementation — seeded
//! experiments produce identical numbers whichever path computes them.
//!
//! ## Delta views (failure / degradation scenarios)
//!
//! Scenario sweeps evaluate hundreds of *degraded* variants of one base
//! topology — links failed, switches failed, capacities scaled or mixed.
//! Rebuilding a [`Graph`] and re-flattening per variant would dominate
//! the sweep, so `CsrNet` supports **cheap delta views**:
//!
//! * [`CsrNet::with_disabled_arcs`] — fail whole edges (both directions
//!   of every listed arc). Disabled arcs keep their [`ArcId`] but leave
//!   the adjacency and carry capacity `0.0` (`inv_capacity` `0.0` too,
//!   so length vectors seeded from `inv_capacities` stay finite).
//! * [`CsrNet::with_capacity_overrides`] /
//!   [`CsrNet::with_scaled_capacity`] — re-rate edges without touching
//!   the adjacency structure.
//!
//! All views share the untouched arrays with their base via `Arc` (a
//! capacity view copies only the two capacity arrays; a failure view
//! additionally rebuilds the adjacency in one O(n + m) pass), and **arc
//! ids are stable across views**, so flow vectors, frozen path sets, and
//! degradation lists index identically into every view of one base net.
//!
//! Two identity tokens police downstream caches: [`CsrNet::id`] is fresh
//! on every view (id equality ⇒ full content equality, the PR-2 cache
//! invalidation contract), while [`CsrNet::structure_id`] is *preserved*
//! by capacity-only views (structure_id equality ⇒ identical node set +
//! adjacency + arc numbering), which is exactly the validity condition
//! for hop-metric path-set caches.
//!
//! ## Views compose (views of views)
//!
//! Every view constructor takes `&self`, so views stack: the
//! reconfiguration planner materialises each migration prefix as
//! `base.with_capacity_overrides(..)?.with_disabled_arcs(..)?` and the
//! scenario engine composes ordered degradations the same way. The
//! composition laws, pinned bitwise by the `view_composition_*`
//! regression tests:
//!
//! * **Disable ∘ disable = disable of the union.** Stacked
//!   [`CsrNet::with_disabled_arcs`] views equal the single view built
//!   from the concatenated arc lists — same capacities, adjacency, and
//!   live-arc count, bit for bit. Re-disabling an already-dead arc is
//!   idempotent at any depth of the stack.
//! * **Override ∘ override = last-write-wins merge.** A later
//!   [`CsrNet::with_capacity_overrides`] replaces earlier overrides of
//!   the same edge and preserves the rest.
//! * **Override and disable commute on disjoint edges.** When no
//!   override touches a disabled edge, either stacking order yields
//!   bitwise-identical arrays. Overriding a *disabled* arc is rejected
//!   with [`GraphError::Unrealizable`] in any order (re-rating a failed
//!   link is a composition bug, not a repair mechanism), which is why
//!   planner prefix states apply capacity overrides on the fully-live
//!   base **first** and disable arcs on top.
//! * **Identity tokens survive stacking unchanged in meaning**:
//!   [`CsrNet::id`] is fresh on every materially-new view wherever it
//!   sits in a stack (no-op views — an empty override list, a disable
//!   list that kills nothing new — return plain clones with the same
//!   `id`); [`CsrNet::structure_id`] is preserved by capacity-only
//!   layers and refreshed by any layer that disables something new, so
//!   it always identifies the *net* adjacency of the whole stack.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::usable_capacity;
use crate::{ArcId, Graph, GraphError, NodeId};

/// Sentinel in [`DijkstraWorkspace::parent_arc`]: no parent (source or
/// unreached node).
pub const NO_ARC: u32 = u32::MAX;

/// Process-wide counter backing [`CsrNet::id`]. Starts at 1 so 0 can
/// serve downstream code as a "no net" sentinel.
static NEXT_NET_ID: AtomicU64 = AtomicU64::new(1);

/// Immutable flat arc-level view of a [`Graph`], shared by every solver
/// backend and safe to reuse across traffic matrices and threads.
///
/// The big arrays are `Arc`-shared so that delta views (see the module
/// docs) copy only what a degradation actually changes; `Clone` is
/// always cheap and identity-preserving.
#[derive(Debug, Clone)]
pub struct CsrNet {
    /// Identity token (see [`CsrNet::id`]).
    id: u64,
    /// Structural identity token (see [`CsrNet::structure_id`]).
    structure_id: u64,
    n: usize,
    /// Directed arcs with positive capacity (present in the adjacency).
    live_arcs: usize,
    /// CSR offsets: out-arc slots of `v` are `row[v] as usize..row[v+1] as usize`.
    row: Arc<[u32]>,
    /// Arc id per adjacency slot (preserves [`Graph`] arc numbering).
    adj_arc: Arc<[u32]>,
    /// Head node per adjacency slot.
    adj_head: Arc<[u32]>,
    /// Tail node per arc (indexed by [`ArcId`]).
    arc_tail: Arc<[u32]>,
    /// Head node per arc (indexed by [`ArcId`]).
    arc_head: Arc<[u32]>,
    /// Capacity per arc (indexed by [`ArcId`]; `0.0` = disabled).
    capacity: Arc<[f64]>,
    /// `1 / capacity` per arc, precomputed for the multiplicative-weights
    /// length updates (`0.0` for disabled arcs so length vectors seeded
    /// from it stay finite).
    inv_capacity: Arc<[f64]>,
}

impl CsrNet {
    /// Flatten `g` into CSR form. `O(n + m)`.
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.node_count();
        let num_arcs = g.arc_count();
        let mut row = Vec::with_capacity(n + 1);
        let mut adj_arc = Vec::with_capacity(num_arcs);
        let mut adj_head = Vec::with_capacity(num_arcs);
        row.push(0u32);
        for v in 0..n {
            // same slot order as Graph::out_arcs so traversal order (and
            // therefore floating-point results) match paths::dijkstra
            for (a, w) in g.out_arcs(v) {
                adj_arc.push(a as u32);
                adj_head.push(w as u32);
            }
            row.push(adj_arc.len() as u32);
        }
        let mut arc_tail = vec![0u32; num_arcs];
        let mut arc_head = vec![0u32; num_arcs];
        let mut capacity = vec![0.0f64; num_arcs];
        let mut inv_capacity = vec![0.0f64; num_arcs];
        for (e, edge) in g.edges().iter().enumerate() {
            let fwd = e << 1;
            arc_tail[fwd] = edge.u as u32;
            arc_head[fwd] = edge.v as u32;
            arc_tail[fwd | 1] = edge.v as u32;
            arc_head[fwd | 1] = edge.u as u32;
            capacity[fwd] = edge.capacity;
            capacity[fwd | 1] = edge.capacity;
            inv_capacity[fwd] = 1.0 / edge.capacity;
            inv_capacity[fwd | 1] = 1.0 / edge.capacity;
        }
        let id = NEXT_NET_ID.fetch_add(1, Ordering::Relaxed);
        CsrNet {
            id,
            structure_id: id,
            n,
            live_arcs: num_arcs,
            row: row.into(),
            adj_arc: adj_arc.into(),
            adj_head: adj_head.into(),
            arc_tail: arc_tail.into(),
            arc_head: arc_head.into(),
            capacity: capacity.into(),
            inv_capacity: inv_capacity.into(),
        }
    }

    /// Process-unique identity token, assigned at [`CsrNet::from_graph`]
    /// time and **preserved by `Clone`**.
    ///
    /// A `CsrNet` is immutable, so two values sharing an id are
    /// guaranteed content-identical — which is exactly the property
    /// per-topology caches (e.g. `dctopo-flow`'s path-set cache) need in
    /// a key. Two nets built from equal graphs still get *different*
    /// ids: the token is an identity, not a structural hash. Delta views
    /// ([`CsrNet::with_disabled_arcs`] and the capacity-override
    /// constructors) change content and therefore always carry a *fresh*
    /// id, so an id-keyed cache can never serve stale data for a view.
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Structural identity token: preserved by `Clone` **and by the
    /// capacity-only views** ([`CsrNet::with_capacity_overrides`],
    /// [`CsrNet::with_scaled_capacity`]); fresh for
    /// [`CsrNet::from_graph`] and [`CsrNet::with_disabled_arcs`].
    ///
    /// structure_id equality guarantees an identical node count,
    /// adjacency (slot-for-slot), and arc numbering — capacities may
    /// differ. Caches whose payload depends only on structure (e.g.
    /// hop-metric k-shortest path sets) key on this token and so stay
    /// warm across capacity degradations of one base topology.
    #[inline]
    pub fn structure_id(&self) -> u64 {
        self.structure_id
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of directed arcs (`2 ×` undirected edges).
    #[inline]
    pub fn arc_count(&self) -> usize {
        self.capacity.len()
    }

    /// Capacity of arc `a`.
    #[inline]
    pub fn capacity(&self, a: ArcId) -> f64 {
        self.capacity[a]
    }

    /// All arc capacities, indexed by [`ArcId`].
    #[inline]
    pub fn capacities(&self) -> &[f64] {
        &self.capacity
    }

    /// `1 / capacity` of arc `a`.
    #[inline]
    pub fn inv_capacity(&self, a: ArcId) -> f64 {
        self.inv_capacity[a]
    }

    /// All inverse capacities, indexed by [`ArcId`].
    #[inline]
    pub fn inv_capacities(&self) -> &[f64] {
        &self.inv_capacity
    }

    /// Tail (source node) of arc `a`.
    #[inline]
    pub fn arc_tail(&self, a: ArcId) -> NodeId {
        self.arc_tail[a] as NodeId
    }

    /// Head (target node) of arc `a`.
    #[inline]
    pub fn arc_head(&self, a: ArcId) -> NodeId {
        self.arc_head[a] as NodeId
    }

    /// Out-arc slots of `v` as parallel `(arc ids, heads)` slices.
    #[inline]
    pub fn out_slots(&self, v: NodeId) -> (&[u32], &[u32]) {
        let lo = self.row[v] as usize;
        let hi = self.row[v + 1] as usize;
        (&self.adj_arc[lo..hi], &self.adj_head[lo..hi])
    }

    /// Out-degree of `v` counting parallel edges.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        (self.row[v + 1] - self.row[v]) as usize
    }

    /// The first live arc `u → v` in adjacency order, if any — the
    /// deterministic node-path → arc-path lowering rule (parallel
    /// edges resolve to the lowest slot, matching the tie-break used
    /// by the solver's tree walks).
    pub fn arc_between(&self, u: NodeId, v: NodeId) -> Option<ArcId> {
        let (arcs, heads) = self.out_slots(u);
        arcs.iter()
            .zip(heads)
            .find(|&(&a, &h)| h as usize == v && self.is_live(a as usize))
            .map(|(&a, _)| a as usize)
    }

    /// Total capacity counting both directions (the paper's `C`).
    /// Disabled arcs contribute nothing.
    pub fn total_capacity(&self) -> f64 {
        self.capacity.iter().sum()
    }

    /// Whether arc `a` is live (positive capacity, present in the
    /// adjacency). Always true on a freshly built net; false only for
    /// arcs failed by [`CsrNet::with_disabled_arcs`].
    #[inline]
    pub fn is_live(&self, a: ArcId) -> bool {
        self.capacity[a] > 0.0
    }

    /// Number of live directed arcs (`arc_count` minus disabled arcs).
    #[inline]
    pub fn live_arc_count(&self) -> usize {
        self.live_arcs
    }

    /// Delta view with the listed arcs' **edges** failed: for every arc
    /// in `arcs`, both directions of its underlying edge are removed
    /// from the adjacency and their capacities forced to `0.0` (link
    /// failures are whole-link events in the paper's model; a half-failed
    /// duplex link is not representable in the undirected [`Graph`]
    /// either).
    ///
    /// Arc ids are preserved — disabled arcs keep their slots in the
    /// arc-indexed arrays — so flow vectors and frozen path sets index
    /// interchangeably with the base net. Already-disabled arcs may be
    /// listed again (idempotent). If the list disables nothing new, the
    /// view is a plain clone (same `id`); otherwise both `id` and
    /// `structure_id` are fresh.
    ///
    /// Cost: one O(n + m) adjacency rebuild plus the two capacity-array
    /// copies; the arc tail/head arrays stay shared with the base.
    ///
    /// # Errors
    /// [`GraphError::ArcOutOfRange`] if any listed arc id is `>=`
    /// [`CsrNet::arc_count`].
    pub fn with_disabled_arcs(&self, arcs: &[ArcId]) -> Result<CsrNet, GraphError> {
        let m = self.arc_count();
        let mut kill = vec![false; m];
        let mut any_new = false;
        for &a in arcs {
            if a >= m {
                return Err(GraphError::ArcOutOfRange { arc: a, arcs: m });
            }
            let fwd = a & !1;
            if !kill[fwd] && self.is_live(fwd) {
                kill[fwd] = true;
                kill[fwd | 1] = true;
                any_new = true;
            }
        }
        if !any_new {
            return Ok(self.clone());
        }
        let mut row = Vec::with_capacity(self.n + 1);
        let mut adj_arc = Vec::with_capacity(self.adj_arc.len());
        let mut adj_head = Vec::with_capacity(self.adj_head.len());
        row.push(0u32);
        for v in 0..self.n {
            let (arcs_v, heads_v) = self.out_slots(v);
            for (&a, &h) in arcs_v.iter().zip(heads_v) {
                if !kill[a as usize] {
                    adj_arc.push(a);
                    adj_head.push(h);
                }
            }
            row.push(adj_arc.len() as u32);
        }
        let mut capacity = self.capacity.to_vec();
        let mut inv_capacity = self.inv_capacity.to_vec();
        for (a, &dead) in kill.iter().enumerate() {
            if dead {
                capacity[a] = 0.0;
                inv_capacity[a] = 0.0;
            }
        }
        let id = NEXT_NET_ID.fetch_add(1, Ordering::Relaxed);
        Ok(CsrNet {
            id,
            structure_id: id,
            n: self.n,
            live_arcs: adj_arc.len(),
            row: row.into(),
            adj_arc: adj_arc.into(),
            adj_head: adj_head.into(),
            arc_tail: Arc::clone(&self.arc_tail),
            arc_head: Arc::clone(&self.arc_head),
            capacity: capacity.into(),
            inv_capacity: inv_capacity.into(),
        })
    }

    /// Delta view re-rating specific **edges**: each `(arc, capacity)`
    /// entry sets the capacity of the arc's underlying edge (both
    /// directions — the [`Graph`] model is undirected, so capacity is a
    /// per-edge quantity). The adjacency is untouched, so the view keeps
    /// the base's [`CsrNet::structure_id`] (hop-metric path caches stay
    /// valid) while carrying a fresh [`CsrNet::id`].
    ///
    /// An empty override list returns a plain clone (same `id`).
    ///
    /// # Errors
    /// * [`GraphError::ArcOutOfRange`] for an arc id `>=` `arc_count`.
    /// * [`GraphError::BadCapacity`] for a capacity that is not a normal
    ///   positive float.
    /// * [`GraphError::Unrealizable`] when overriding a disabled arc —
    ///   re-rating a failed link is a scenario-composition bug, not a
    ///   repair mechanism.
    pub fn with_capacity_overrides(
        &self,
        overrides: &[(ArcId, f64)],
    ) -> Result<CsrNet, GraphError> {
        if overrides.is_empty() {
            return Ok(self.clone());
        }
        let m = self.arc_count();
        for &(a, c) in overrides {
            if a >= m {
                return Err(GraphError::ArcOutOfRange { arc: a, arcs: m });
            }
            usable_capacity(c)?;
            if !self.is_live(a) {
                return Err(GraphError::Unrealizable(format!(
                    "cannot override capacity of disabled arc {a}"
                )));
            }
        }
        let mut capacity = self.capacity.to_vec();
        let mut inv_capacity = self.inv_capacity.to_vec();
        for &(a, c) in overrides {
            let fwd = a & !1;
            capacity[fwd] = c;
            capacity[fwd | 1] = c;
            inv_capacity[fwd] = 1.0 / c;
            inv_capacity[fwd | 1] = 1.0 / c;
        }
        Ok(CsrNet {
            id: NEXT_NET_ID.fetch_add(1, Ordering::Relaxed),
            structure_id: self.structure_id,
            n: self.n,
            live_arcs: self.live_arcs,
            row: Arc::clone(&self.row),
            adj_arc: Arc::clone(&self.adj_arc),
            adj_head: Arc::clone(&self.adj_head),
            arc_tail: Arc::clone(&self.arc_tail),
            arc_head: Arc::clone(&self.arc_head),
            capacity: capacity.into(),
            inv_capacity: inv_capacity.into(),
        })
    }

    /// Delta view scaling every live arc's capacity by `factor`
    /// (uniform re-rating: the paper's capacity-scaling experiments).
    /// Structure-preserving like [`CsrNet::with_capacity_overrides`];
    /// `factor == 1.0` returns a plain clone (same `id`).
    ///
    /// # Errors
    /// [`GraphError::BadCapacity`] when `factor` or a product `c·factor`
    /// is not a normal positive float.
    pub fn with_scaled_capacity(&self, factor: f64) -> Result<CsrNet, GraphError> {
        usable_capacity(factor)?;
        if factor == 1.0 {
            return Ok(self.clone());
        }
        let mut capacity = self.capacity.to_vec();
        let mut inv_capacity = self.inv_capacity.to_vec();
        for (c, i) in capacity.iter_mut().zip(inv_capacity.iter_mut()) {
            if *c > 0.0 {
                *c = usable_capacity(*c * factor)?;
                *i = 1.0 / *c;
            }
        }
        Ok(CsrNet {
            id: NEXT_NET_ID.fetch_add(1, Ordering::Relaxed),
            structure_id: self.structure_id,
            n: self.n,
            live_arcs: self.live_arcs,
            row: Arc::clone(&self.row),
            adj_arc: Arc::clone(&self.adj_arc),
            adj_head: Arc::clone(&self.adj_head),
            arc_tail: Arc::clone(&self.arc_tail),
            arc_head: Arc::clone(&self.arc_head),
            capacity: capacity.into(),
            inv_capacity: inv_capacity.into(),
        })
    }

    /// Rebuild an equivalent [`Graph`] (used by path-enumeration code
    /// such as Yen's algorithm that wants adjacency-list form).
    ///
    /// Disabled edges are omitted, so on a degraded view the rebuilt
    /// graph's **edge ids compact** and no longer align with this net's
    /// arc numbering; node ids are preserved. Edges are re-added in
    /// ascending id, so the rebuild's per-node neighbor order is
    /// **ascending live edge id** — *not* the view's adjacency order,
    /// which [`CsrNet::from_graph`] copied from the source graph's
    /// incident lists and which differs wherever that graph was built
    /// with [`Graph::remove_edge`] swaps (most random regular graphs).
    /// Yen's equal-length ties are broken in the rebuild's order, so the
    /// frozen KSP path sets, and every pin over them, depend on it. Code
    /// that needs arc ids must translate node paths through the view
    /// itself.
    pub fn to_graph(&self) -> Graph {
        let mut g = Graph::new(self.n);
        for e in 0..self.arc_count() / 2 {
            let a = e << 1;
            if self.capacity[a] > 0.0 {
                g.add_edge(self.arc_tail(a), self.arc_head(a), self.capacity[a])
                    .expect("live CsrNet edges originate from a valid Graph");
            }
        }
        g
    }

    /// Single-source Dijkstra over per-arc lengths, writing distances and
    /// parent arcs into `ws`. Allocation-free after `ws` warms up.
    ///
    /// `arc_len` must have one non-negative entry per arc. Results are
    /// identical (bitwise) to [`crate::paths::dijkstra`].
    pub fn dijkstra(&self, src: NodeId, arc_len: &[f64], ws: &mut DijkstraWorkspace) {
        self.dijkstra_targets(src, arc_len, &[], ws);
    }

    /// [`CsrNet::dijkstra`] with early termination: the run stops as soon
    /// as every node in `targets` is settled (an empty list settles the
    /// whole component, i.e. plain Dijkstra).
    ///
    /// `targets` must be **sorted ascending and free of duplicates**:
    /// membership is a binary search per settle, and the exit counts one
    /// settle per entry, so a repeated entry would leave the count one
    /// short of zero and the run would settle the whole component
    /// (checked in debug builds).
    ///
    /// Settled nodes — which include every target, every node on a
    /// shortest path to a target, and anything nearer — carry their exact
    /// final distance and parent arc; other nodes may hold tentative
    /// values, so read results only for targets and their ancestors.
    /// This is the form the flow solver's source groups use: a group
    /// routing to 4 sinks in a 1000-switch fabric explores only the ball
    /// that covers those sinks.
    ///
    /// Nodes settle in ascending `(distance bits, node id)` order — for
    /// non-negative finite `f64` distances the IEEE-754 bit pattern is
    /// order-preserving, so integer comparison sorts exactly like the
    /// float, ties broken by node id. The settle order therefore matches
    /// [`crate::paths::dijkstra`]'s `BinaryHeap` implementation and the
    /// results are bitwise interchangeable. The queue that realises the
    /// order depends on the net's size: a net of at most 64 nodes keeps
    /// its frontier in one `u64` and pops by scanning the set bits, a
    /// larger one in an indexed 4-ary heap. Both pop the same node at
    /// every step, so the choice moves no distance, parent, settle order
    /// or settle count.
    pub fn dijkstra_targets(
        &self,
        src: NodeId,
        arc_len: &[f64],
        targets: &[u32],
        ws: &mut DijkstraWorkspace,
    ) {
        if self.n <= WORD_NODES {
            self.targets_with::<WordQueue>(src, arc_len, targets, ws);
        } else {
            self.targets_with::<HeapQueue>(src, arc_len, targets, ws);
        }
    }

    /// The body of [`CsrNet::dijkstra_targets`] over the queue `Q`.
    fn targets_with<Q: Queue>(
        &self,
        src: NodeId,
        arc_len: &[f64],
        targets: &[u32],
        ws: &mut DijkstraWorkspace,
    ) {
        debug_assert_eq!(arc_len.len(), self.arc_count());
        debug_assert!(
            targets.windows(2).all(|w| w[0] < w[1]),
            "targets must be sorted and deduplicated"
        );
        ws.begin(self.n);
        // split the workspace once: the relax loop keeps `dist`,
        // `parent_arc` and the queue as disjoint locals instead of
        // reloading them through `ws` on every arc
        let mut queue = std::mem::take(Q::slot(ws));
        let n = self.n;
        let dist = &mut ws.dist[..n];
        let parent_arc = &mut ws.parent_arc[..n];
        let order = &mut ws.order;
        dist[src] = 0.0;
        queue.push(0.0, src as u32);
        let mut outstanding = targets.len();
        let mut settles = 0u64;
        while let Some((d, v)) = queue.pop(dist) {
            settles += 1;
            order.push(v);
            if outstanding > 0 && targets.binary_search(&v).is_ok() {
                outstanding -= 1;
                if outstanding == 0 {
                    break;
                }
            }
            let (arcs, heads) = self.out_slots(v as usize);
            for (&a, &w) in arcs.iter().zip(heads) {
                let w = w as usize;
                // no settled-check needed: settle order is nondecreasing
                // in distance and lengths are non-negative, so
                // `nd ≥ d ≥ dist[w]` for any settled `w` and the strict
                // comparison rejects it
                let nd = d + arc_len[a as usize];
                if nd < dist[w] {
                    dist[w] = nd;
                    parent_arc[w] = a;
                    queue.push(nd, w as u32);
                }
            }
        }
        ws.settles += settles;
        *Q::slot(ws) = queue;
    }

    /// Incrementally repair a **full** shortest-path tree after
    /// increase-only arc-length updates, re-settling just the affected
    /// subtree.
    ///
    /// Preconditions:
    ///
    /// * `ws` holds the result of a completed, non-early-terminated run
    ///   ([`CsrNet::dijkstra`] with an empty target set, or a previous
    ///   repair) from the same `src` on this net;
    /// * every entry of `arc_len` is `>=` its value in that run, and
    ///   `increased` contains (at least) every arc whose length grew —
    ///   duplicates and unchanged arcs are permitted.
    ///
    /// Postconditions:
    ///
    /// * `ws.dist` is **bitwise identical** to a cold
    ///   [`CsrNet::dijkstra`] under `arc_len`: distances are minima over
    ///   identical per-arc float sums, so the repair and the cold run
    ///   agree to the last ulp.
    /// * `ws.parent_arc` is a valid, deterministically tie-broken
    ///   shortest-path tree: every parent arc satisfies
    ///   `dist(tail) + arc_len == dist(node)` exactly, and the choice
    ///   among candidates is the minimum of `(tail distance, tail id,
    ///   arc id)` over tails that re-settled earlier (or were untouched).
    ///   This reproduces the cold run's parents exactly **except**
    ///   inside floating-point *absorption plateaus* — chains where
    ///   `dist + arc_len` rounds back to `dist`, giving several nodes
    ///   the same distance bits — where cold's own choice depends on
    ///   transient heap order that no local rule can reconstruct; there
    ///   the repair still picks a deterministic, cycle-free parent
    ///   achieving the identical distance.
    ///
    /// Nodes whose tree path used no increased arc keep their exact
    /// distance and parent. Only descendants of increased *tree* arcs
    /// are invalidated and re-settled, so the cost is proportional to
    /// the affected subtree's degree sum, not to the component size;
    /// when that subtree grows past ~40% of the nodes (where per-node
    /// re-settling stops being cheaper), the repair bails out to an
    /// internal cold [`CsrNet::dijkstra`], which satisfies the same
    /// postconditions trivially. The queue is chosen by node count as
    /// in [`CsrNet::dijkstra_targets`].
    pub fn dijkstra_repair(
        &self,
        src: NodeId,
        arc_len: &[f64],
        increased: &[u32],
        ws: &mut DijkstraWorkspace,
    ) {
        if self.n <= WORD_NODES {
            self.repair_with::<WordQueue>(src, arc_len, increased, ws);
        } else {
            self.repair_with::<HeapQueue>(src, arc_len, increased, ws);
        }
    }

    /// The body of [`CsrNet::dijkstra_repair`] over the queue `Q`; a
    /// bail-out rebuilds through the same queue.
    fn repair_with<Q: Queue>(
        &self,
        src: NodeId,
        arc_len: &[f64],
        increased: &[u32],
        ws: &mut DijkstraWorkspace,
    ) {
        debug_assert_eq!(arc_len.len(), self.arc_count());
        debug_assert_eq!(ws.n, self.n, "workspace sized for a different net");
        debug_assert!(
            ws.heap.keys.is_empty() && ws.word.0 == 0,
            "repair requires a completed (non-early-terminated) prior run"
        );
        debug_assert_eq!(ws.dist[src], 0.0, "workspace holds a tree from {src}");
        ws.begin_repair(self.n);
        // 1. affected roots: increased arcs the tree actually uses. A
        //    non-tree arc growing longer cannot change any distance.
        for &a in increased {
            let w = self.arc_head[a as usize] as usize;
            if ws.parent_arc[w] == a && ws.mark[w] != ws.mark_gen {
                ws.mark[w] = ws.mark_gen;
                ws.affected.push(w as u32);
            }
        }
        if ws.affected.is_empty() {
            return; // tree untouched: still bitwise equal to a cold run
        }
        // 2. close the affected set under tree children. Re-settling
        //    costs a constant factor more per node than a cold settle
        //    (closure + seed + relax scans), so once the subtree spans
        //    a large fraction of the component a cold rebuild is the
        //    faster way to the identical result — bail out to it.
        let bail_at = self.n * 2 / 5 + 1;
        let mut i = 0;
        while i < ws.affected.len() {
            let v = ws.affected[i] as usize;
            i += 1;
            let (arcs, heads) = self.out_slots(v);
            for (&a, &w) in arcs.iter().zip(heads) {
                let w = w as usize;
                if ws.parent_arc[w] == a && ws.mark[w] != ws.mark_gen {
                    ws.mark[w] = ws.mark_gen;
                    ws.affected.push(w as u32);
                }
            }
            if ws.affected.len() >= bail_at {
                self.targets_with::<Q>(src, arc_len, &[], ws);
                ws.order.clear();
                return;
            }
        }
        // the closure stands; split the workspace for the settle loops
        // exactly as `targets_with` does
        let mut queue = std::mem::take(Q::slot(ws));
        let n = self.n;
        let generation = ws.mark_gen;
        let dist = &mut ws.dist[..n];
        let parent_arc = &mut ws.parent_arc[..n];
        let mark = &mut ws.mark[..n];
        // 3. invalidate the affected set
        for &w in &ws.affected {
            dist[w as usize] = f64::INFINITY;
            parent_arc[w as usize] = NO_ARC;
        }
        // Each affected node's parent is chosen as its distance is: a
        // strictly shorter offer replaces distance and parent, an equal
        // one replaces the parent when its `(tail key, arc id)` is
        // smaller. Offers come only from *eligible* tails — unaffected
        // ones, whose distances never move, or affected ones that popped
        // earlier in this repair — so every key compared is final, and
        // a node stops taking ties once it pops. That keeps the choice
        // deterministic and the tree cycle-free even inside absorption
        // plateaus, where an equal-distance not-yet-popped neighbor
        // could otherwise be chosen mutually.
        // 4. seed each affected node from its *unaffected* in-arcs
        //    (in-arc of `w` = reverse of out-arc, i.e. `a ^ 1`); paths
        //    entering through affected tails are found by relaxation
        for &w in &ws.affected {
            let wu = w as usize;
            let (arcs, heads) = self.out_slots(wu);
            for (&a_out, &v) in arcs.iter().zip(heads) {
                if mark[v as usize] == generation {
                    continue;
                }
                let dv = dist[v as usize];
                if !dv.is_finite() {
                    continue;
                }
                let a_in = a_out ^ 1;
                let nd = dv + arc_len[a_in as usize];
                if nd < dist[wu]
                    || nd == dist[wu]
                        && self.parent_key(dist, a_in) < self.parent_key(dist, parent_arc[wu])
                {
                    dist[wu] = nd;
                    parent_arc[wu] = a_in;
                }
            }
            if dist[wu].is_finite() {
                queue.push(dist[wu], w);
            }
        }
        // 5. re-settle: a popped node's distance and parent are final
        let mut settles = 0u64;
        while let Some((d, w)) = queue.pop(dist) {
            settles += 1;
            let wu = w as usize;
            mark[wu] = generation | POPPED_BIT;
            debug_assert!(
                parent_arc[wu] != NO_ARC && {
                    let p = parent_arc[wu] as usize;
                    dist[self.arc_tail[p] as usize] + arc_len[p] == d
                },
                "re-settled node {wu} has no parent achieving its distance"
            );
            let (arcs, heads) = self.out_slots(wu);
            for (&a, &u) in arcs.iter().zip(heads) {
                let u = u as usize;
                let nd = d + arc_len[a as usize];
                if nd < dist[u] {
                    // increase-only updates cannot improve an unaffected
                    // node: its stored distance is already optimal
                    debug_assert_eq!(mark[u] & MARK_MASK, generation);
                    dist[u] = nd;
                    parent_arc[u] = a;
                    queue.push(nd, u as u32);
                } else if nd == dist[u]
                    && mark[u] == generation
                    && self.parent_key(dist, a) < self.parent_key(dist, parent_arc[u])
                {
                    parent_arc[u] = a;
                }
            }
        }
        ws.settles += settles;
        *Q::slot(ws) = queue;
    }

    /// The key a repair breaks a distance tie between two parent arcs
    /// of one node by: the tail's `(distance bits, node id)`, then the
    /// arc id. Read only where the tail's distance is final.
    #[inline]
    fn parent_key(&self, dist: &[f64], a: u32) -> (u128, u32) {
        let t = self.arc_tail[a as usize];
        (pack(dist[t as usize], t), a)
    }
}

/// Pack a non-negative finite distance and a node id into one ordered
/// `u128` key: distance bits in the high half (IEEE-754 order ==
/// numeric order for non-negative floats), node id in the low half so
/// equal distances order by node id.
#[inline]
pub(crate) fn pack(dist: f64, node: u32) -> u128 {
    debug_assert!(dist >= 0.0);
    ((dist.to_bits() as u128) << 32) | node as u128
}

/// Inverse of [`pack`].
#[inline]
fn unpack(item: u128) -> (f64, u32) {
    (f64::from_bits((item >> 32) as u64), item as u32)
}

/// Nets of at most this many nodes keep their frontier in a
/// [`WordQueue`], larger ones in a [`HeapQueue`].
const WORD_NODES: usize = u64::BITS as usize;

/// The frontier of a tree kernel ([`CsrNet::dijkstra_targets`],
/// [`CsrNet::dijkstra_repair`]): the nodes reached and not yet settled,
/// popped least `(distance bits, node id)` first. A queued node's key
/// is always its current `dist` entry, so each implementation realises
/// the same pop order and the kernel's results do not depend on which
/// one runs.
trait Queue: Default {
    /// Where the queue's state lives between runs; a run takes it out
    /// and puts it back, so the settle loop holds it as a local.
    fn slot(ws: &mut DijkstraWorkspace) -> &mut Self;
    /// Queue `v` at distance `d`, or lower its key if it is queued.
    fn push(&mut self, d: f64, v: u32);
    /// Remove the least queued node; `dist` holds every queued node's
    /// key.
    fn pop(&mut self, dist: &[f64]) -> Option<(f64, u32)>;
}

/// Indexed (decrease-key, duplicate-free) flat 4-ary min-heap of
/// [`pack`]ed keys: the queue of nets above [`WORD_NODES`] nodes.
#[derive(Debug, Clone, Default)]
struct HeapQueue {
    /// The heap of `pack`ed (distance, node) keys.
    keys: Vec<u128>,
    /// Heap slot per node ([`NOT_QUEUED`] when absent).
    pos: Vec<u32>,
}

impl HeapQueue {
    /// Move `item` towards the root from slot `i`, maintaining `pos`.
    #[inline]
    fn sift_up(&mut self, mut i: usize, item: u128) {
        let Self { keys, pos } = self;
        while i > 0 {
            let p = (i - 1) >> 2;
            let parent = keys[p];
            if parent <= item {
                break;
            }
            keys[i] = parent;
            pos[parent as u32 as usize] = i as u32;
            i = p;
        }
        keys[i] = item;
        pos[item as u32 as usize] = i as u32;
    }

    /// Insert a node known to be absent from the heap.
    #[inline]
    fn insert(&mut self, item: u128) {
        let i = self.keys.len();
        self.keys.push(item);
        self.sift_up(i, item);
    }

    /// Insert `item`'s node, or decrease its key in place if queued.
    #[inline]
    fn upsert(&mut self, item: u128) {
        match self.pos[item as u32 as usize] {
            NOT_QUEUED => self.insert(item),
            slot => self.sift_up(slot as usize, item),
        }
    }

    /// Pop the minimum key.
    ///
    /// The former tail sifts down from the root. A full fan of four
    /// children picks its minimum with selects — keys are unique (node
    /// id in the low half), so the comparisons are data-dependent coin
    /// flips a branch predictor cannot learn; only the one partial fan
    /// at the bottom of the heap runs the scalar loop.
    #[inline]
    fn pop_key(&mut self) -> Option<u128> {
        let Self { keys, pos } = self;
        let last = keys.pop()?;
        let Some(&top) = keys.first() else {
            pos[last as u32 as usize] = NOT_QUEUED;
            return Some(last);
        };
        pos[top as u32 as usize] = NOT_QUEUED;
        let heap = keys.as_mut_slice();
        let mut i = 0;
        loop {
            let first_child = (i << 2) + 1;
            let (child, c) = if let Some(&[c0, c1, c2, c3]) = heap.get(first_child..first_child + 4)
            {
                let lt01 = c1 < c0;
                let lt23 = c3 < c2;
                let (m01, m23) = (if lt01 { c1 } else { c0 }, if lt23 { c3 } else { c2 });
                let lt = m23 < m01;
                let off = if lt { 2 + lt23 as usize } else { lt01 as usize };
                (if lt { m23 } else { m01 }, first_child + off)
            } else if let Some(fan) = heap.get(first_child..) {
                let Some((off, &m)) = fan.iter().enumerate().min_by_key(|&(_, &k)| k) else {
                    break;
                };
                (m, first_child + off)
            } else {
                break;
            };
            if child >= last {
                break;
            }
            heap[i] = child;
            pos[child as u32 as usize] = i as u32;
            i = c;
        }
        heap[i] = last;
        pos[last as u32 as usize] = i as u32;
        Some(top)
    }
}

impl Queue for HeapQueue {
    #[inline]
    fn slot(ws: &mut DijkstraWorkspace) -> &mut Self {
        &mut ws.heap
    }

    #[inline]
    fn push(&mut self, d: f64, v: u32) {
        self.upsert(pack(d, v));
    }

    #[inline]
    fn pop(&mut self, _dist: &[f64]) -> Option<(f64, u32)> {
        self.pop_key().map(unpack)
    }
}

/// The frontier of a net of at most [`WORD_NODES`] nodes as one word:
/// bit `v` is set while `v` is queued. A push is one `or`, a decrease
/// needs nothing (the key is read from `dist`), and a pop scans the set
/// bits in ascending node order for the least distance bits, so a tie
/// keeps the lower node id — the heap's key order exactly.
#[derive(Debug, Clone, Copy, Default)]
struct WordQueue(u64);

impl Queue for WordQueue {
    #[inline]
    fn slot(ws: &mut DijkstraWorkspace) -> &mut Self {
        &mut ws.word
    }

    #[inline]
    fn push(&mut self, _d: f64, v: u32) {
        self.0 |= 1 << v;
    }

    #[inline]
    fn pop(&mut self, dist: &[f64]) -> Option<(f64, u32)> {
        let mut rest = self.0;
        if rest == 0 {
            return None;
        }
        let mut node = rest.trailing_zeros();
        let mut best = dist[node as usize].to_bits();
        rest &= rest - 1;
        while rest != 0 {
            let v = rest.trailing_zeros();
            rest &= rest - 1;
            let bits = dist[v as usize].to_bits();
            if bits < best {
                best = bits;
                node = v;
            }
        }
        self.0 ^= 1 << node;
        Some((f64::from_bits(best), node))
    }
}

/// Sentinel in the heap position index: node not currently queued.
const NOT_QUEUED: u32 = u32::MAX;

/// Top bit of a [`DijkstraWorkspace`] mark stamp: the node has already
/// been re-settled (popped) by the current repair pass.
const POPPED_BIT: u32 = 1 << 31;

/// Mask extracting the generation half of a mark stamp.
const MARK_MASK: u32 = POPPED_BIT - 1;

/// Reusable scratch state for [`CsrNet::dijkstra`].
///
/// Holds the distance, parent-arc, and settled arrays plus the two
/// frontiers a tree kernel chooses between by node count: one `u64`
/// for a net of at most 64 nodes, an *indexed* flat 4-ary min-heap of
/// integer-packed keys above that. Neither ever holds a node twice —
/// the word has one bit a node, and the heap's decrease-key updates a
/// node's queued entry in place — so every pop is a settle. Reuse one
/// workspace per thread (or per source group) across thousands of
/// Dijkstra runs: after warm-up no run allocates. Per-run reset cost
/// is three `memset`-speed fills (distances, parents, heap slots).
#[derive(Debug, Clone, Default)]
pub struct DijkstraWorkspace {
    /// Tentative/final distance per node (`INFINITY` = unreached).
    pub dist: Vec<f64>,
    /// Tree parent arc per node ([`NO_ARC`] = none).
    pub parent_arc: Vec<u32>,
    /// The frontier of nets above [`WORD_NODES`] nodes.
    heap: HeapQueue,
    /// The frontier of nets of at most [`WORD_NODES`] nodes.
    word: WordQueue,
    /// Active prefix length (the network's node count).
    n: usize,
    /// Cumulative settle (queue pop) counter across runs and repairs.
    settles: u64,
    /// Nodes in the order the last cold run settled them.
    order: Vec<u32>,
    /// Generation-stamped affected marker for [`CsrNet::dijkstra_repair`]
    /// (`mark[v] == mark_gen` ⇔ `v` affected by the current repair).
    mark: Vec<u32>,
    /// Current repair generation (0 = no repair has run yet).
    mark_gen: u32,
    /// Scratch list of affected nodes for the current repair.
    affected: Vec<u32>,
    /// Cumulative bucketed-SSSP statistics across [`crate::delta::sssp`]
    /// runs through this workspace (zero when only the tree kernels ran).
    delta_stats: crate::delta::DeltaStats,
}

impl DijkstraWorkspace {
    /// Workspace sized for an `n`-node network (grows on demand).
    pub fn new(n: usize) -> Self {
        let mut ws = DijkstraWorkspace::default();
        ws.begin(n);
        ws
    }

    /// Start a new run: reset the active prefix and empty both queues.
    /// `pub(crate)` so the bucketed SSSP ([`crate::delta`]) can leave the
    /// workspace in exactly the state a completed [`CsrNet::dijkstra`]
    /// would (empty queues, full dist/parent arrays), which is what
    /// [`CsrNet::dijkstra_repair`] requires of its input.
    pub(crate) fn begin(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.parent_arc.resize(n, NO_ARC);
            self.heap.pos.resize(n, NOT_QUEUED);
        }
        self.n = n;
        self.dist[..n].fill(f64::INFINITY);
        self.parent_arc[..n].fill(NO_ARC);
        self.heap.pos[..n].fill(NOT_QUEUED);
        self.heap.keys.clear();
        self.word = WordQueue::default();
        // sized once, so no pop of a run pays for the list's growth
        self.order.clear();
        self.order.reserve(n);
    }

    /// Start a repair pass: bump the affected-marker generation and
    /// clear the affected scratch list. Distances, parents, and the
    /// (empty) queues are carried over from the prior run.
    fn begin_repair(&mut self, n: usize) {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
        }
        // generations live in the low 31 bits; the top bit flags "popped"
        self.mark_gen = (self.mark_gen + 1) & MARK_MASK;
        if self.mark_gen == 0 {
            // generation counter wrapped: stale stamps could alias
            self.mark.fill(0);
            self.mark_gen = 1;
        }
        self.affected.clear();
        self.order.clear();
    }

    /// Cumulative number of settle operations (queue pops) performed by
    /// Dijkstra runs and repairs since the workspace was created — the
    /// "Dijkstra-equivalent settles" unit solver benchmarks report.
    #[inline]
    pub fn settles(&self) -> u64 {
        self.settles
    }

    /// Credit `k` settle operations performed outside the queue loop
    /// (the bucketed SSSP in [`crate::delta`] settles nodes without
    /// popping this workspace's queues but reports in the same unit).
    #[inline]
    pub(crate) fn note_settles(&mut self, k: u64) {
        self.settles += k;
    }

    /// Cumulative bucketed-SSSP statistics this workspace accumulated
    /// (see [`crate::delta::DeltaStats`]); all zeros when only the
    /// scalar tree kernels ran. Snapshot-and-[`diff`](
    /// crate::delta::DeltaStats::since) to attribute activity to one
    /// solver phase.
    #[inline]
    pub fn delta_stats(&self) -> &crate::delta::DeltaStats {
        &self.delta_stats
    }

    /// Merge one bucketed-SSSP run's statistics into the cumulative
    /// counter (called by [`crate::delta::sssp`]).
    #[inline]
    pub(crate) fn note_delta_stats(&mut self, st: &crate::delta::DeltaStats) {
        self.delta_stats.merge(st);
    }

    /// Distance of `v` from the last run's source (`INFINITY` if
    /// unreached).
    #[inline]
    pub fn distance(&self, v: NodeId) -> f64 {
        self.dist[v]
    }

    /// The nodes the last cold run ([`CsrNet::dijkstra_targets`])
    /// settled, in pop order: the whole component, or exactly the
    /// settled ball after an early exit. A node's parent tail always
    /// comes first — inside float-absorption plateaus too, where a
    /// child's distance can equal its parent's and a distance sort
    /// loses the property — because a parent arc is written only by a
    /// relaxation from a popped tail and a popped node is never relaxed
    /// again. Empty after [`CsrNet::dijkstra_repair`] (even when it
    /// falls back to a cold run) and after [`crate::delta::sssp`].
    #[inline]
    pub fn settled(&self) -> &[u32] {
        &self.order
    }

    /// Parent arc of `v` in the shortest-path tree, if any.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<ArcId> {
        if self.parent_arc[v] != NO_ARC {
            Some(self.parent_arc[v] as ArcId)
        } else {
            None
        }
    }

    /// Walk parent arcs from `dst` to the source, invoking `visit` for
    /// each arc (dst-to-source order). Returns `false` if `dst` was
    /// unreached.
    #[inline]
    pub fn walk_path(&self, net: &CsrNet, dst: NodeId, mut visit: impl FnMut(ArcId)) -> bool {
        if !self.distance(dst).is_finite() {
            return false;
        }
        let mut v = dst;
        while let Some(a) = self.parent(v) {
            visit(a);
            v = net.arc_tail(a);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::dijkstra;

    fn ring_with_chords(n: usize, chords: &[(usize, usize)]) -> Graph {
        let mut g = Graph::new(n);
        for v in 0..n {
            g.add_unit_edge(v, (v + 1) % n).unwrap();
        }
        for &(u, v) in chords {
            g.add_edge(u, v, 2.5).unwrap();
        }
        g
    }

    #[test]
    fn csr_mirrors_graph_topology() {
        let g = ring_with_chords(8, &[(0, 4), (1, 5)]);
        let net = CsrNet::from_graph(&g);
        assert_eq!(net.node_count(), g.node_count());
        assert_eq!(net.arc_count(), g.arc_count());
        assert_eq!(net.total_capacity(), g.total_capacity());
        for a in 0..g.arc_count() {
            assert_eq!(net.arc_tail(a), g.arc_tail(a));
            assert_eq!(net.arc_head(a), g.arc_head(a));
            assert_eq!(net.capacity(a), g.arc_capacity(a));
            assert!((net.inv_capacity(a) - 1.0 / g.arc_capacity(a)).abs() < 1e-15);
        }
        for v in 0..g.node_count() {
            let (arcs, heads) = net.out_slots(v);
            let expect: Vec<(usize, usize)> = g.out_arcs(v).collect();
            assert_eq!(arcs.len(), expect.len());
            assert_eq!(net.out_degree(v), expect.len());
            for (i, &(a, w)) in expect.iter().enumerate() {
                assert_eq!(arcs[i] as usize, a);
                assert_eq!(heads[i] as usize, w);
            }
        }
    }

    /// The order Yen's ties are broken in: `to_graph` lists a node's
    /// neighbors by ascending edge id, the net by the source graph's
    /// incident order, and the two part ways on graphs randomised
    /// through `remove_edge` (which renumbers the last edge).
    #[test]
    fn to_graph_orders_neighbors_by_edge_id_not_by_adjacency() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        // a 4-regular graph on 10 nodes, randomised the way the RRG
        // builders do it: seeded degree-preserving double-edge swaps
        let n = 10;
        let mut g = Graph::new(n);
        for v in 0..n {
            g.add_unit_edge(v, (v + 1) % n).unwrap();
            g.add_unit_edge(v, (v + 2) % n).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(4);
        let mut swaps = 0;
        while swaps < 20 {
            let e1 = rng.random_range(0..g.edge_count());
            let e2 = rng.random_range(0..g.edge_count());
            let ((a, b), (c, d)) = ((g.edge(e1).u, g.edge(e1).v), (g.edge(e2).u, g.edge(e2).v));
            if e1 == e2 || a == c || b == d || g.has_edge(a, c) || g.has_edge(b, d) {
                continue;
            }
            g.remove_edge(e1.max(e2));
            g.remove_edge(e1.min(e2));
            g.add_unit_edge(a, c).unwrap();
            g.add_unit_edge(b, d).unwrap();
            swaps += 1;
        }
        assert_eq!(g.regular_degree(), Some(4));

        let net = CsrNet::from_graph(&g);
        let back = net.to_graph();
        let mut differs = false;
        for v in 0..n {
            let rebuilt = back.incident(v);
            assert!(
                rebuilt.windows(2).all(|w| w[0].0 < w[1].0),
                "node {v}: rebuild not in ascending edge id: {rebuilt:?}"
            );
            // on a fully-live net edge ids survive the rebuild, so the
            // net's slots are the same (edge, neighbor) pairs
            let (arcs, heads) = net.out_slots(v);
            let mut slots: Vec<(usize, usize)> = arcs
                .iter()
                .zip(heads)
                .map(|(&a, &h)| (a as usize >> 1, h as usize))
                .collect();
            differs |= slots != rebuilt;
            slots.sort_unstable();
            assert_eq!(slots, rebuilt, "node {v}: different incident multiset");
        }
        assert!(differs, "seed 4 no longer separates the two orders");
    }

    #[test]
    fn round_trip_to_graph() {
        let g = ring_with_chords(6, &[(2, 5)]);
        let back = CsrNet::from_graph(&g).to_graph();
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        for e in 0..g.edge_count() {
            assert_eq!(back.edge(e), g.edge(e));
        }
    }

    #[test]
    fn dijkstra_matches_legacy_bitwise() {
        let g = ring_with_chords(12, &[(0, 6), (3, 9), (1, 7)]);
        let net = CsrNet::from_graph(&g);
        // irregular lengths exercise tie-breaking and float order
        let lens: Vec<f64> = (0..g.arc_count())
            .map(|a| 0.25 + ((a * 37) % 11) as f64 * 0.125)
            .collect();
        let mut ws = DijkstraWorkspace::new(net.node_count());
        for src in 0..g.node_count() {
            let legacy = dijkstra(&g, src, &lens);
            net.dijkstra(src, &lens, &mut ws);
            for v in 0..g.node_count() {
                assert_eq!(
                    legacy.dist[v].to_bits(),
                    ws.distance(v).to_bits(),
                    "src {src} node {v}"
                );
                assert_eq!(legacy.parent_arc[v], ws.parent(v), "src {src} node {v}");
            }
        }
    }

    #[test]
    fn workspace_reuse_handles_disconnection() {
        let mut g = Graph::new(5);
        g.add_unit_edge(0, 1).unwrap();
        g.add_unit_edge(2, 3).unwrap();
        let net = CsrNet::from_graph(&g);
        let lens = vec![1.0; net.arc_count()];
        let mut ws = DijkstraWorkspace::new(5);
        net.dijkstra(0, &lens, &mut ws);
        assert!(ws.distance(1).is_finite());
        assert!(!ws.distance(2).is_finite());
        assert!(!ws.distance(4).is_finite());
        // second run from the other component: stale entries must not leak
        net.dijkstra(2, &lens, &mut ws);
        assert_eq!(ws.distance(3), 1.0);
        assert!(!ws.distance(0).is_finite());
        assert!(ws.parent(1).is_none());
    }

    /// Compare `ws` (repaired) against a cold full run for every node.
    fn assert_matches_cold(net: &CsrNet, src: usize, lens: &[f64], ws: &DijkstraWorkspace) {
        let mut cold = DijkstraWorkspace::new(net.node_count());
        net.dijkstra(src, lens, &mut cold);
        for v in 0..net.node_count() {
            assert_eq!(
                cold.distance(v).to_bits(),
                ws.distance(v).to_bits(),
                "src {src} node {v}: dist"
            );
            assert_eq!(cold.parent(v), ws.parent(v), "src {src} node {v}: parent");
        }
    }

    #[test]
    fn repair_matches_cold_on_chain_of_increases() {
        let g = ring_with_chords(10, &[(0, 5), (2, 7), (3, 8)]);
        let net = CsrNet::from_graph(&g);
        let mut lens: Vec<f64> = (0..net.arc_count())
            .map(|a| 0.5 + ((a * 13) % 7) as f64 * 0.25)
            .collect();
        for src in 0..net.node_count() {
            let mut ws = DijkstraWorkspace::new(net.node_count());
            net.dijkstra(src, &lens, &mut ws);
            // grow a rotating window of arcs several times; repair after
            // each batch and demand bitwise equality with a cold run
            for round in 0..6 {
                let increased: Vec<u32> = (0..net.arc_count())
                    .filter(|a| (a + round) % 3 == 0)
                    .map(|a| a as u32)
                    .collect();
                for &a in &increased {
                    lens[a as usize] *= 1.0 + 0.3 * ((a % 5) as f64 + 1.0);
                }
                net.dijkstra_repair(src, &lens, &increased, &mut ws);
                assert_matches_cold(&net, src, &lens, &ws);
            }
            // restore lengths for the next source
            for (a, len) in lens.iter_mut().enumerate() {
                *len = 0.5 + ((a * 13) % 7) as f64 * 0.25;
            }
        }
    }

    #[test]
    fn repair_of_nontree_arc_is_free() {
        let g = ring_with_chords(8, &[(1, 5)]);
        let net = CsrNet::from_graph(&g);
        let mut lens = vec![1.0; net.arc_count()];
        let mut ws = DijkstraWorkspace::new(net.node_count());
        net.dijkstra(0, &lens, &mut ws);
        let before = ws.settles();
        // find an arc the tree does not use and grow only that one
        let unused = (0..net.arc_count() as u32)
            .find(|&a| ws.parent_arc[net.arc_head(a as usize)] != a)
            .unwrap();
        lens[unused as usize] = 9.0;
        net.dijkstra_repair(0, &lens, &[unused], &mut ws);
        assert_eq!(
            ws.settles(),
            before,
            "non-tree increase must settle nothing"
        );
        assert_matches_cold(&net, 0, &lens, &ws);
    }

    /// Parallel edges and exact distance ties exercise the parent
    /// tie-breaking contract (settle key of the tail, then arc id).
    #[test]
    fn repair_matches_cold_with_parallel_edges_and_ties() {
        let mut g = Graph::new(6);
        g.add_unit_edge(0, 1).unwrap();
        g.add_unit_edge(0, 2).unwrap();
        g.add_unit_edge(1, 3).unwrap();
        g.add_unit_edge(2, 3).unwrap(); // tie at node 3 via 1 and 2
        g.add_unit_edge(3, 4).unwrap();
        g.add_unit_edge(3, 4).unwrap(); // parallel pair to 4
        g.add_unit_edge(4, 5).unwrap();
        g.add_unit_edge(2, 5).unwrap();
        let net = CsrNet::from_graph(&g);
        let mut lens = vec![1.0; net.arc_count()];
        let mut ws = DijkstraWorkspace::new(net.node_count());
        net.dijkstra(0, &lens, &mut ws);
        // grow the currently-used arc into 3 and one of the parallel
        // arcs, keeping unit ties alive elsewhere
        let tree_arc_3 = ws.parent(3).unwrap() as u32;
        lens[tree_arc_3 as usize] = 1.5;
        let tree_arc_4 = ws.parent(4).unwrap() as u32;
        lens[tree_arc_4 as usize] = 1.25;
        net.dijkstra_repair(0, &lens, &[tree_arc_3, tree_arc_4], &mut ws);
        assert_matches_cold(&net, 0, &lens, &ws);
        // and again after a second wave that reverses the preference
        let arcs: Vec<u32> = (0..net.arc_count() as u32).collect();
        for l in lens.iter_mut() {
            *l *= 2.0;
        }
        net.dijkstra_repair(0, &lens, &arcs, &mut ws);
        assert_matches_cold(&net, 0, &lens, &ws);
    }

    /// A node count for a randomized differential: 5..24 for even seeds,
    /// 60..90 — across the word frontier's 64-node limit — for odd ones.
    fn either_side_of_64(rng: &mut rand::rngs::StdRng, seed: u64) -> usize {
        use rand::RngExt;
        if seed.is_multiple_of(2) {
            rng.random_range(5..24)
        } else {
            rng.random_range(60..90)
        }
    }

    #[test]
    fn repair_random_sequences_match_cold() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = either_side_of_64(&mut rng, seed);
            let mut g = Graph::new(n);
            for v in 0..n {
                g.add_edge(v, (v + 1) % n, rng.random_range(0.5..4.0))
                    .unwrap();
            }
            for _ in 0..rng.random_range(0..2 * n) {
                let u = rng.random_range(0..n);
                let v = rng.random_range(0..n);
                if u != v {
                    g.add_edge(u, v, rng.random_range(0.5..4.0)).unwrap();
                }
            }
            let net = CsrNet::from_graph(&g);
            let mut lens: Vec<f64> = (0..net.arc_count())
                .map(|_| rng.random_range(0.01..5.0))
                .collect();
            let src = rng.random_range(0..n);
            let mut ws = DijkstraWorkspace::new(n);
            net.dijkstra(src, &lens, &mut ws);
            for _ in 0..8 {
                let mut increased = Vec::new();
                for (a, len) in lens.iter_mut().enumerate() {
                    if rng.random_range(0.0..1.0) < 0.3 {
                        *len *= 1.0 + rng.random_range(0.0..2.0);
                        increased.push(a as u32);
                    }
                }
                net.dijkstra_repair(src, &lens, &increased, &mut ws);
                assert_matches_cold(&net, src, &lens, &ws);
            }
        }
    }

    /// FPTAS-style updates: unit lengths and identical multipliers keep
    /// many exact distance ties alive across repair rounds.
    #[test]
    fn repair_with_tied_multiplicative_updates() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 7;
            let mut g = Graph::new(n);
            for v in 0..n {
                g.add_unit_edge(v, (v + 1) % n).unwrap();
            }
            for _ in 0..4 {
                let u = rng.random_range(0..n);
                let v = rng.random_range(0..n);
                if u != v {
                    g.add_unit_edge(u, v).unwrap();
                }
            }
            let net = CsrNet::from_graph(&g);
            let mut lens = vec![1.0f64; net.arc_count()];
            let src = rng.random_range(0..n);
            let mut ws = DijkstraWorkspace::new(n);
            net.dijkstra(src, &lens, &mut ws);
            for _ in 0..20 {
                let mut increased = Vec::new();
                for (a, len) in lens.iter_mut().enumerate() {
                    if rng.random_range(0.0..1.0) < 0.2 {
                        *len *= 1.05;
                        increased.push(a as u32);
                    }
                }
                net.dijkstra_repair(src, &lens, &increased, &mut ws);
                assert_matches_cold(&net, src, &lens, &ws);
            }
        }
    }

    #[test]
    fn settles_counter_accumulates() {
        let g = ring_with_chords(6, &[]);
        let net = CsrNet::from_graph(&g);
        let lens = vec![1.0; net.arc_count()];
        let mut ws = DijkstraWorkspace::new(6);
        assert_eq!(ws.settles(), 0);
        net.dijkstra(0, &lens, &mut ws);
        assert_eq!(ws.settles(), 6, "full run settles every node");
        net.dijkstra(0, &lens, &mut ws);
        assert_eq!(ws.settles(), 12, "counter is cumulative");
    }

    /// The early exit fires: a run to two nearby sinks on a long ring
    /// settles the ball that covers them, not the component.
    #[test]
    fn two_target_run_settles_fewer_nodes_than_a_full_run() {
        let g = ring_with_chords(200, &[]);
        let net = CsrNet::from_graph(&g);
        let lens = vec![1.0; net.arc_count()];
        let mut ws = DijkstraWorkspace::new(200);
        net.dijkstra(0, &lens, &mut ws);
        let full = ws.settles();
        assert_eq!(full, 200);
        net.dijkstra_targets(0, &lens, &[3, 197], &mut ws);
        // 0, then 1/199, 2/198, 3/197 in (distance, node id) order
        assert_eq!(ws.settles() - full, 7);
        assert_eq!(ws.distance(3), 3.0);
        assert_eq!(ws.distance(197), 3.0);
        assert!(ws.walk_path(&net, 197, |a| assert!(net.arc_head(a) >= 197)));
    }

    /// `settled()` after a full run is a permutation of the reachable
    /// nodes in which every node's parent tail comes first.
    fn assert_settle_order(net: &CsrNet, src: usize, ws: &DijkstraWorkspace) {
        let mut rank = vec![usize::MAX; net.node_count()];
        for (i, &v) in ws.settled().iter().enumerate() {
            assert_eq!(rank[v as usize], usize::MAX, "node {v} settled twice");
            rank[v as usize] = i;
        }
        for v in 0..net.node_count() {
            let reachable = ws.distance(v).is_finite();
            assert_eq!(rank[v] != usize::MAX, reachable, "node {v} from {src}");
            if let Some(a) = ws.parent(v) {
                let tail = net.arc_tail(a);
                assert!(rank[tail] < rank[v], "parent {tail} after child {v}");
            }
        }
        assert_eq!(ws.settled().first(), Some(&(src as u32)));
    }

    /// Two absorption plateaus, one per tie order: `0 -> 2 -> 1` and
    /// `0 -> 3 -> 4`, each second hop 2^60 times shorter than the first,
    /// so both children sit at their parent's distance bits; node 5 is
    /// unreachable.
    fn plateau_net() -> (CsrNet, Vec<f64>) {
        let mut g = Graph::new(6);
        let tiny = 2f64.powi(-60);
        for (u, v) in [(0, 2), (2, 1), (0, 3), (3, 4)] {
            g.add_unit_edge(u, v).unwrap();
        }
        let net = CsrNet::from_graph(&g);
        let lens = (0..net.arc_count())
            .map(|a| match (net.arc_tail(a), net.arc_head(a)) {
                (2, 1) | (1, 2) | (3, 4) | (4, 3) => tiny,
                _ => 1.0,
            })
            .collect();
        (net, lens)
    }

    #[test]
    fn settle_order_puts_every_parent_first() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut ws = DijkstraWorkspace::default();
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = either_side_of_64(&mut rng, seed);
            let mut g = Graph::new(n);
            // a path plus random chords, with an unreachable tail node
            for v in 0..n - 2 {
                g.add_unit_edge(v, v + 1).unwrap();
            }
            for _ in 0..rng.random_range(0..2 * n) {
                let (u, v) = (rng.random_range(0..n - 1), rng.random_range(0..n - 1));
                if u != v {
                    g.add_unit_edge(u, v).unwrap();
                }
            }
            let net = CsrNet::from_graph(&g);
            let lens: Vec<f64> = (0..net.arc_count())
                .map(|_| rng.random_range(0.01..5.0))
                .collect();
            let src = rng.random_range(0..n - 1);
            net.dijkstra(src, &lens, &mut ws);
            assert_settle_order(&net, src, &ws);
        }

        let (net, lens) = plateau_net();
        net.dijkstra(0, &lens, &mut ws);
        assert_eq!(ws.distance(1), ws.distance(2), "a plateau");
        assert_eq!(ws.distance(4), ws.distance(3), "a plateau");
        assert_settle_order(&net, 0, &ws);
        assert_eq!(ws.settled(), [0, 2, 1, 3, 4]);
    }

    /// The word frontier against the heap, each driven through the
    /// generic kernels, on the same nets of at most 64 nodes: random
    /// multigraphs whose lengths come from a palette with a 2^-60 entry
    /// (exact ties and absorption plateaus), and `plateau_net`. Cold
    /// runs, early-exit target runs, and repairs that re-settle a
    /// subtree or bail out to a cold rebuild must leave the same bits in
    /// `dist` and `parent_arc`, the same `settled()` and the same
    /// `settles`.
    #[test]
    fn word_and_heap_queues_build_the_same_trees() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let same = |word: &DijkstraWorkspace, heap: &DijkstraWorkspace, what: &str| {
            let n = word.n;
            let bits = |ws: &DijkstraWorkspace| -> Vec<u64> {
                ws.dist[..n].iter().map(|d| d.to_bits()).collect()
            };
            assert_eq!(bits(word), bits(heap), "{what}: dist");
            assert_eq!(
                word.parent_arc[..n],
                heap.parent_arc[..n],
                "{what}: parents"
            );
            assert_eq!(word.settled(), heap.settled(), "{what}: settle order");
            assert_eq!(word.settles(), heap.settles(), "{what}: settles");
        };
        let palette = [0.25, 0.5, 1.0, 2f64.powi(-60)];
        let mut nets = vec![plateau_net()];
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(0x64_0000 + seed);
            let n = if seed == 0 {
                64
            } else {
                rng.random_range(5..=64)
            };
            let mut g = Graph::new(n);
            for v in 0..n {
                g.add_unit_edge(v, (v + 1) % n).unwrap();
            }
            for _ in 0..rng.random_range(0..3 * n) {
                let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
                if u != v {
                    // a chord and, now and then, a parallel twin
                    for _ in 0..1 + rng.random_bool(0.2) as usize {
                        g.add_unit_edge(u, v).unwrap();
                    }
                }
            }
            let net = CsrNet::from_graph(&g);
            let lens = (0..net.arc_count())
                .map(|_| palette[rng.random_range(0..palette.len())])
                .collect();
            nets.push((net, lens));
        }
        let (mut repairs, mut bail_outs) = (0, 0);
        for (k, (net, base)) in nets.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(k as u64);
            let n = net.node_count();
            let (mut word, mut heap) = (DijkstraWorkspace::default(), DijkstraWorkspace::default());
            for src in 0..n {
                let what = format!("net {k} src {src}");
                net.targets_with::<WordQueue>(src, base, &[], &mut word);
                net.targets_with::<HeapQueue>(src, base, &[], &mut heap);
                same(&word, &heap, &format!("{what} cold"));
                let mut targets: Vec<u32> = (0..3).map(|_| rng.random_range(0..n) as u32).collect();
                targets.sort_unstable();
                targets.dedup();
                net.targets_with::<WordQueue>(src, base, &targets, &mut word);
                net.targets_with::<HeapQueue>(src, base, &targets, &mut heap);
                same(&word, &heap, &format!("{what} to {targets:?}"));

                net.targets_with::<WordQueue>(src, base, &[], &mut word);
                net.targets_with::<HeapQueue>(src, base, &[], &mut heap);
                let mut lens = base.clone();
                for round in 0..6 {
                    // a few arcs, or (every third round) nearly all of them
                    let share = if round % 3 == 2 { 0.9 } else { 0.1 };
                    let mut increased = Vec::new();
                    for (a, len) in lens.iter_mut().enumerate() {
                        if rng.random_bool(share) {
                            *len *= [1.5, 2.0][rng.random_range(0..2)];
                            increased.push(a as u32);
                        }
                    }
                    let before = word.settles();
                    net.repair_with::<WordQueue>(src, &lens, &increased, &mut word);
                    net.repair_with::<HeapQueue>(src, &lens, &increased, &mut heap);
                    same(&word, &heap, &format!("{what} repair {round}"));
                    // a repair re-settles fewer nodes than its bail-out
                    // threshold; a bail-out settles at least that many
                    match word.settles() - before {
                        0 => {}
                        s if s < (n * 2 / 5 + 1) as u64 => repairs += 1,
                        _ => bail_outs += 1,
                    }
                }
            }
        }
        assert!(
            repairs > 100 && bail_outs > 100,
            "{repairs} repairs, {bail_outs} bail-outs"
        );
    }

    #[test]
    fn settle_order_lists_an_early_exit_ball_and_clears_on_repair() {
        let g = ring_with_chords(200, &[]);
        let net = CsrNet::from_graph(&g);
        let mut lens = vec![1.0; net.arc_count()];
        let mut ws = DijkstraWorkspace::new(200);
        net.dijkstra_targets(0, &lens, &[3, 197], &mut ws);
        assert_eq!(ws.settled(), [0, 1, 199, 2, 198, 3, 197]);
        assert_eq!(ws.settled().len() as u64, ws.settles());

        // a repair that re-settles a subtree, and one that falls back to
        // a cold run, both leave the list empty
        net.dijkstra(0, &lens, &mut ws);
        assert_eq!(ws.settled().len(), 200);
        let a = net.arc_between(0, 1).unwrap();
        lens[a] = 2.0;
        net.dijkstra_repair(0, &lens, &[a as u32], &mut ws);
        assert!(ws.settled().is_empty());
        net.dijkstra(0, &lens, &mut ws);
        let all: Vec<u32> = (0..net.arc_count() as u32).collect();
        lens.iter_mut().for_each(|l| *l *= 3.0);
        net.dijkstra_repair(0, &lens, &all, &mut ws);
        assert!(ws.settled().is_empty());
        assert_matches_cold(&net, 0, &lens, &ws);
    }

    /// The indexed heap against a `BTreeSet` model: inserts, in-place
    /// decrease-keys and pops at every size from 1 to 40 — so the
    /// partial bottom fans of 1, 2 and 3 children and the full-fan
    /// select path are all hit — over a palette of six distances, so
    /// runs of equal distance bits leave the node id to decide.
    #[test]
    fn heap_matches_a_btreeset_model() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        use std::collections::BTreeSet;
        const NODES: usize = 48;
        let check = |heap: &HeapQueue, queued: &[Option<u128>], what: &str| {
            for (v, key) in queued.iter().enumerate() {
                match key {
                    Some(k) => assert_eq!(heap.keys[heap.pos[v] as usize], *k, "{what}: node {v}"),
                    None => assert_eq!(heap.pos[v], NOT_QUEUED, "{what}: node {v}"),
                }
            }
        };
        for seed in 0..120u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let cap = 1 + (seed as usize % 40);
            let mut heap = DijkstraWorkspace::new(NODES).heap;
            let mut model: BTreeSet<u128> = BTreeSet::new();
            let mut queued: Vec<Option<u128>> = vec![None; NODES];
            // grow to `cap` with pops mixed in, then drain through every
            // smaller size
            let mut draining = false;
            while !(draining && model.is_empty()) {
                draining |= model.len() == cap;
                if draining || rng.random_range(0..4) == 0 {
                    let popped = heap.pop_key();
                    assert_eq!(popped, model.pop_first(), "seed {seed}: pop order");
                    if let Some(k) = popped {
                        queued[k as u32 as usize] = None;
                    }
                } else {
                    let v = rng.random_range(0..NODES);
                    let key = pack(rng.random_range(0..6) as f64 * 0.25, v as u32);
                    match queued[v] {
                        Some(old) if key < old => {
                            heap.upsert(key);
                            model.remove(&old);
                        }
                        Some(_) => continue, // not a decrease
                        None if rng.random_bool(0.5) => heap.insert(key),
                        None => heap.upsert(key),
                    }
                    model.insert(key);
                    queued[v] = Some(key);
                }
                assert_eq!(heap.keys.len(), model.len(), "seed {seed}");
                check(&heap, &queued, &format!("seed {seed}"));
            }
        }
    }

    #[test]
    fn disabled_arc_view_fails_whole_edges() {
        let g = ring_with_chords(8, &[(0, 4)]);
        let net = CsrNet::from_graph(&g);
        let chord_fwd = 8 << 1; // edge 8 is the chord
        let view = net.with_disabled_arcs(&[chord_fwd]).unwrap();
        // identity: fresh id AND fresh structure id
        assert_ne!(view.id(), net.id());
        assert_ne!(view.structure_id(), net.structure_id());
        // arc numbering stable; both directions dead; capacities zeroed
        assert_eq!(view.arc_count(), net.arc_count());
        assert!(!view.is_live(chord_fwd) && !view.is_live(chord_fwd | 1));
        assert_eq!(view.capacity(chord_fwd), 0.0);
        assert_eq!(view.inv_capacity(chord_fwd | 1), 0.0);
        assert_eq!(view.live_arc_count(), net.live_arc_count() - 2);
        assert_eq!(view.total_capacity(), net.total_capacity() - 5.0);
        // adjacency no longer mentions the chord, base untouched
        assert_eq!(view.out_degree(0), net.out_degree(0) - 1);
        assert_eq!(net.out_degree(0), 3);
        for v in 0..8 {
            let (arcs, heads) = view.out_slots(v);
            for (&a, &h) in arcs.iter().zip(heads) {
                assert!(view.is_live(a as usize));
                assert_eq!(view.arc_head(a as usize), h as usize);
            }
        }
        // Dijkstra routes around the failed chord
        let lens: Vec<f64> = view.inv_capacities().to_vec();
        let mut ws = DijkstraWorkspace::new(8);
        view.dijkstra(0, &lens, &mut ws);
        assert!(ws.walk_path(&view, 4, |a| assert_ne!(a & !1, chord_fwd)));
        // idempotent re-disable is a plain clone (id preserved)
        let again = view.with_disabled_arcs(&[chord_fwd | 1]).unwrap();
        assert_eq!(again.id(), view.id());
        // out-of-range arc is a typed error
        assert!(matches!(
            net.with_disabled_arcs(&[net.arc_count()]),
            Err(GraphError::ArcOutOfRange { .. })
        ));
    }

    /// What a tree over reversed lengths rests on (the grouped solver's
    /// sink-side harvest runs one): every view keeps an arc and its
    /// reverse alive together and at one capacity, through random
    /// stacks of failures, re-ratings and uniform scalings.
    #[test]
    fn every_view_keeps_an_arc_and_its_reverse_alike() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let alike = |net: &CsrNet, what: &str| {
            for a in 0..net.arc_count() {
                assert_eq!(net.is_live(a), net.is_live(a ^ 1), "{what}: arc {a}");
                assert_eq!(
                    net.capacity(a).to_bits(),
                    net.capacity(a ^ 1).to_bits(),
                    "{what}: arc {a}"
                );
            }
        };
        for seed in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(0x5EE_0000 + seed);
            let chords: Vec<(usize, usize)> = (0..6)
                .map(|k| (k, (k + rng.random_range(2..10)) % 12))
                .collect();
            let mut net = CsrNet::from_graph(&ring_with_chords(12, &chords));
            let mut what = format!("seed {seed} base");
            alike(&net, &what);
            for _ in 0..6 {
                let m = net.arc_count();
                let live: Vec<ArcId> = (0..m).filter(|&a| net.is_live(a)).collect();
                net = match rng.random_range(0..3) {
                    0 => {
                        let arcs = [0, 1].map(|_| rng.random_range(0..m));
                        what += &format!(" -> disabled {arcs:?}");
                        net.with_disabled_arcs(&arcs).unwrap()
                    }
                    1 => {
                        let over: Vec<(ArcId, f64)> = (0..3)
                            .map(|_| {
                                let a = live[rng.random_range(0..live.len())];
                                (a, rng.random_range(0.5..4.0f64))
                            })
                            .collect();
                        what += &format!(" -> overrides {over:?}");
                        net.with_capacity_overrides(&over).unwrap()
                    }
                    _ => {
                        let factor = [0.5, 1.0, 3.0][rng.random_range(0..3)];
                        what += &format!(" -> scaled {factor}");
                        net.with_scaled_capacity(factor).unwrap()
                    }
                };
                alike(&net, &what);
            }
        }
    }

    #[test]
    fn capacity_views_preserve_structure_id() {
        let g = ring_with_chords(6, &[(1, 4)]);
        let net = CsrNet::from_graph(&g);
        let scaled = net.with_scaled_capacity(2.5).unwrap();
        assert_ne!(scaled.id(), net.id());
        assert_eq!(scaled.structure_id(), net.structure_id());
        for a in 0..net.arc_count() {
            assert_eq!(
                scaled.capacity(a).to_bits(),
                (net.capacity(a) * 2.5).to_bits()
            );
            assert_eq!(
                scaled.inv_capacity(a).to_bits(),
                (1.0 / (net.capacity(a) * 2.5)).to_bits()
            );
        }
        // identity scale is a plain clone
        assert_eq!(net.with_scaled_capacity(1.0).unwrap().id(), net.id());
        let over = net.with_capacity_overrides(&[(0, 7.0), (5, 3.0)]).unwrap();
        assert_eq!(over.structure_id(), net.structure_id());
        // edge-level semantics: both directions re-rated
        assert_eq!(over.capacity(0), 7.0);
        assert_eq!(over.capacity(1), 7.0);
        assert_eq!(over.capacity(4), 3.0);
        assert_eq!(over.capacity(5), 3.0);
        assert_eq!(over.capacity(2), net.capacity(2));
        // adjacency shared and identical
        for v in 0..net.node_count() {
            assert_eq!(over.out_slots(v), net.out_slots(v));
        }
        // error paths: typed and precise
        assert!(matches!(
            net.with_scaled_capacity(0.0),
            Err(GraphError::BadCapacity { capacity }) if capacity == 0.0
        ));
        assert!(matches!(
            net.with_scaled_capacity(f64::NAN),
            Err(GraphError::BadCapacity { .. })
        ));
        assert!(matches!(
            net.with_capacity_overrides(&[(99, 1.0)]),
            Err(GraphError::ArcOutOfRange { arc: 99, .. })
        ));
        assert!(matches!(
            net.with_capacity_overrides(&[(0, -2.0)]),
            Err(GraphError::BadCapacity { .. })
        ));
        let failed = net.with_disabled_arcs(&[0]).unwrap();
        assert!(matches!(
            failed.with_capacity_overrides(&[(0, 2.0)]),
            Err(GraphError::Unrealizable(_))
        ));
        // disabled arcs stay at zero through a uniform scale
        let failed_scaled = failed.with_scaled_capacity(3.0).unwrap();
        assert_eq!(failed_scaled.capacity(0), 0.0);
        assert_eq!(failed_scaled.inv_capacity(1), 0.0);
        assert_eq!(failed_scaled.structure_id(), failed.structure_id());
    }

    #[test]
    fn degraded_to_graph_skips_failed_edges() {
        let g = ring_with_chords(6, &[(0, 3)]);
        let net = CsrNet::from_graph(&g);
        let view = net.with_disabled_arcs(&[2 << 1]).unwrap(); // kill edge 2
        let back = view.to_graph();
        assert_eq!(back.node_count(), 6);
        assert_eq!(back.edge_count(), g.edge_count() - 1);
        assert!(!back.has_edge(2, 3));
        assert!(back.has_edge(0, 3));
        // neighbor order matches the view's (filtered) adjacency order
        for v in 0..6 {
            let (_, heads) = view.out_slots(v);
            let rebuilt: Vec<usize> = back.neighbors(v).collect();
            assert_eq!(
                heads.iter().map(|&h| h as usize).collect::<Vec<_>>(),
                rebuilt,
                "node {v}"
            );
        }
    }

    /// A Dijkstra run on a view equals a run on a net rebuilt from the
    /// degraded graph (same traversal order ⇒ same bits).
    #[test]
    fn view_dijkstra_matches_rebuilt_net() {
        let g = ring_with_chords(10, &[(0, 5), (2, 7)]);
        let net = CsrNet::from_graph(&g);
        let view = net.with_disabled_arcs(&[0, 11 << 1]).unwrap();
        let rebuilt = CsrNet::from_graph(&view.to_graph());
        let lens_view: Vec<f64> = view.inv_capacities().to_vec();
        let lens_rebuilt: Vec<f64> = rebuilt.inv_capacities().to_vec();
        let mut ws_v = DijkstraWorkspace::new(10);
        let mut ws_r = DijkstraWorkspace::new(10);
        for src in 0..10 {
            view.dijkstra(src, &lens_view, &mut ws_v);
            rebuilt.dijkstra(src, &lens_rebuilt, &mut ws_r);
            for v in 0..10 {
                assert_eq!(
                    ws_v.distance(v).to_bits(),
                    ws_r.distance(v).to_bits(),
                    "src {src} node {v}"
                );
            }
        }
        assert_eq!(ws_v.settles(), ws_r.settles());
    }

    #[test]
    fn walk_path_visits_arcs_in_reverse() {
        let g = ring_with_chords(6, &[]);
        let net = CsrNet::from_graph(&g);
        let lens = vec![1.0; net.arc_count()];
        let mut ws = DijkstraWorkspace::new(6);
        net.dijkstra(0, &lens, &mut ws);
        let mut arcs = Vec::new();
        assert!(ws.walk_path(&net, 2, |a| arcs.push(a)));
        assert_eq!(arcs.len(), 2);
        assert_eq!(net.arc_head(arcs[0]), 2);
        assert_eq!(net.arc_tail(arcs[1]), 0);
        let mut none = 0;
        let mut g2 = Graph::new(3);
        g2.add_unit_edge(0, 1).unwrap();
        let net2 = CsrNet::from_graph(&g2);
        let mut ws2 = DijkstraWorkspace::new(3);
        net2.dijkstra(0, &[1.0; 2], &mut ws2);
        assert!(!ws2.walk_path(&net2, 2, |_| none += 1));
        assert_eq!(none, 0);
    }

    /// Bitwise equality of everything downstream code can observe:
    /// capacities, inverse capacities, adjacency arrays, and live-arc
    /// bookkeeping. Identity tokens are deliberately excluded — every
    /// materially-new view mints a fresh `id`.
    fn assert_views_bitwise_equal(a: &CsrNet, b: &CsrNet, what: &str) {
        assert_eq!(a.node_count(), b.node_count(), "{what}: node count");
        assert_eq!(a.arc_count(), b.arc_count(), "{what}: arc count");
        assert_eq!(a.live_arc_count(), b.live_arc_count(), "{what}: live arcs");
        for arc in 0..a.arc_count() {
            assert_eq!(
                a.capacity(arc).to_bits(),
                b.capacity(arc).to_bits(),
                "{what}: capacity of arc {arc}"
            );
            assert_eq!(
                a.inv_capacity(arc).to_bits(),
                b.inv_capacity(arc).to_bits(),
                "{what}: inv capacity of arc {arc}"
            );
        }
        for v in 0..a.node_count() {
            assert_eq!(a.out_slots(v), b.out_slots(v), "{what}: adjacency of {v}");
        }
    }

    #[test]
    fn view_composition_stacked_disables_equal_union_disable() {
        let g = ring_with_chords(10, &[(0, 5), (2, 7), (4, 9)]);
        let base = CsrNet::from_graph(&g);
        let d1 = [0usize, 4]; // edges 0 and 2 (fwd arcs)
        let d2 = [9usize, 20]; // edge 4 (reverse arc) and edge 10
        let stacked = base
            .with_disabled_arcs(&d1)
            .unwrap()
            .with_disabled_arcs(&d2)
            .unwrap();
        let union: Vec<usize> = d1.iter().chain(&d2).copied().collect();
        let single = base.with_disabled_arcs(&union).unwrap();
        assert_views_bitwise_equal(&stacked, &single, "disable∘disable");
        // re-disabling an arc already dead in the lower layer is
        // idempotent: the upper layer treats it as a no-op entry
        let redundant = stacked.with_disabled_arcs(&d1).unwrap();
        assert_views_bitwise_equal(&redundant, &single, "idempotent re-disable");
        assert_eq!(redundant.id(), stacked.id(), "no-op layer is a plain clone");
    }

    #[test]
    fn view_composition_override_then_disable_equals_either_order() {
        let g = ring_with_chords(10, &[(0, 5), (2, 7)]);
        let base = CsrNet::from_graph(&g);
        // overrides and disables touch disjoint edges
        let overrides = [(2usize, 4.0), (21usize, 0.25)]; // edges 1 and 10
        let disabled = [6usize, 16]; // edges 3 and 8
        let override_first = base
            .with_capacity_overrides(&overrides)
            .unwrap()
            .with_disabled_arcs(&disabled)
            .unwrap();
        let disable_first = base
            .with_disabled_arcs(&disabled)
            .unwrap()
            .with_capacity_overrides(&overrides)
            .unwrap();
        assert_views_bitwise_equal(
            &override_first,
            &disable_first,
            "override/disable commute on disjoint edges",
        );
        // the stacked view keeps the overridden rates on surviving edges
        assert_eq!(override_first.capacity(2), 4.0);
        assert_eq!(override_first.capacity(3), 4.0);
        assert_eq!(override_first.capacity(6), 0.0);
    }

    #[test]
    fn view_composition_stacked_overrides_last_write_wins() {
        let g = ring_with_chords(8, &[(1, 5)]);
        let base = CsrNet::from_graph(&g);
        let stacked = base
            .with_capacity_overrides(&[(0, 2.0), (4, 8.0)])
            .unwrap()
            .with_capacity_overrides(&[(4, 3.0)])
            .unwrap();
        let merged = base.with_capacity_overrides(&[(0, 2.0), (4, 3.0)]).unwrap();
        assert_views_bitwise_equal(&stacked, &merged, "override∘override");
        // capacity-only layers preserve the base structure_id at any
        // stacking depth...
        assert_eq!(stacked.structure_id(), base.structure_id());
        // ...while each materially-new layer mints a fresh id
        assert_ne!(stacked.id(), base.id());
    }

    #[test]
    fn view_composition_structure_id_tracks_net_adjacency_of_stack() {
        let g = ring_with_chords(8, &[(0, 4)]);
        let base = CsrNet::from_graph(&g);
        let capped = base.with_capacity_overrides(&[(0, 5.0)]).unwrap();
        assert_eq!(capped.structure_id(), base.structure_id());
        let degraded = capped.with_disabled_arcs(&[8]).unwrap();
        assert_ne!(
            degraded.structure_id(),
            base.structure_id(),
            "a disabling layer refreshes the stack's structure_id"
        );
        let rerated = degraded.with_scaled_capacity(2.0).unwrap();
        assert_eq!(
            rerated.structure_id(),
            degraded.structure_id(),
            "a capacity-only layer on a degraded view keeps its structure_id"
        );
        // dead arcs stay dead through capacity-only layers
        assert_eq!(rerated.capacity(8), 0.0);
        assert_eq!(rerated.capacity(0).to_bits(), 10.0f64.to_bits());
    }

    #[test]
    fn view_composition_rejects_override_of_disabled_arc_in_any_order() {
        let g = ring_with_chords(8, &[(2, 6)]);
        let base = CsrNet::from_graph(&g);
        let dead = base.with_disabled_arcs(&[4]).unwrap();
        let err = dead.with_capacity_overrides(&[(4, 2.0)]).unwrap_err();
        assert!(matches!(err, GraphError::Unrealizable(_)));
        // the reverse arc of the same edge is equally dead
        let err = dead.with_capacity_overrides(&[(5, 2.0)]).unwrap_err();
        assert!(matches!(err, GraphError::Unrealizable(_)));
    }

    #[test]
    fn view_composition_scale_on_disabled_view_equals_disable_on_scaled() {
        let g = ring_with_chords(9, &[(0, 3), (1, 6)]);
        let base = CsrNet::from_graph(&g);
        let a = base
            .with_disabled_arcs(&[2, 10])
            .unwrap()
            .with_scaled_capacity(1.5)
            .unwrap();
        let b = base
            .with_scaled_capacity(1.5)
            .unwrap()
            .with_disabled_arcs(&[2, 10])
            .unwrap();
        assert_views_bitwise_equal(&a, &b, "scale/disable commute");
    }
}

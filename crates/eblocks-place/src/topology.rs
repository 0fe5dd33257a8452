//! The physical substrate: an existing network of deployment sites.
//!
//! The paper closes (§6) by proposing "to map to an existing underlying
//! network of sensor nodes". A [`Topology`] models that underlying network:
//! *sites* (places where a physical eBlock can be mounted — wall boxes,
//! ceiling mounts, pre-pulled wiring hubs) joined by *links* (wire runs or
//! radio adjacency). A logical wire between blocks hosted at non-adjacent
//! sites is routed along the shortest link path, and each hop costs wire
//! and power — the quantity placement minimizes.

use std::collections::BTreeMap;
use std::fmt;

/// Identifies a site within its [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub(crate) usize);

impl SiteId {
    /// The site's dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site{}", self.0)
    }
}

/// One deployment site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    name: String,
    capacity: usize,
}

impl Site {
    /// Human-readable site name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// How many blocks the site can host (a wiring hub may hold several).
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// An existing physical network of deployment sites.
///
/// # Examples
///
/// ```
/// use eblocks_place::Topology;
///
/// let t = Topology::grid(3, 2); // six sites in a 3×2 mesh
/// assert_eq!(t.num_sites(), 6);
/// assert_eq!(t.distance(t.site_at(0, 0).unwrap(), t.site_at(2, 1).unwrap()), Some(3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    sites: Vec<Site>,
    adjacency: Vec<Vec<usize>>,
    /// Grid width when built by [`Topology::grid`], for `site_at`.
    grid_width: Option<usize>,
}

impl Topology {
    /// An empty topology; add sites with [`add_site`](Self::add_site).
    pub fn new() -> Self {
        Self {
            sites: Vec::new(),
            adjacency: Vec::new(),
            grid_width: None,
        }
    }

    /// A `width × height` mesh: each site links to its 4-neighbors. Sites
    /// are named `r<row>c<col>` and hold one block each.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn grid(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be positive");
        let mut t = Self::new();
        for r in 0..height {
            for c in 0..width {
                t.add_site(format!("r{r}c{c}"), 1);
            }
        }
        for r in 0..height {
            for c in 0..width {
                let here = SiteId(r * width + c);
                if c + 1 < width {
                    t.link(here, SiteId(r * width + c + 1));
                }
                if r + 1 < height {
                    t.link(here, SiteId((r + 1) * width + c));
                }
            }
        }
        t.grid_width = Some(width);
        t
    }

    /// A line of `n` sites, each linked to the next — models blocks mounted
    /// along a corridor or fence.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn line(n: usize) -> Self {
        assert!(n > 0, "a line needs at least one site");
        let mut t = Self::new();
        for i in 0..n {
            t.add_site(format!("p{i}"), 1);
        }
        for i in 1..n {
            t.link(SiteId(i - 1), SiteId(i));
        }
        t
    }

    /// A hub with `leaves` spokes — models a wiring closet fanning out to
    /// rooms. The hub is site 0 with capacity `hub_capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is zero.
    pub fn star(leaves: usize, hub_capacity: usize) -> Self {
        assert!(leaves > 0, "a star needs at least one leaf");
        let mut t = Self::new();
        let hub = t.add_site("hub", hub_capacity);
        for i in 0..leaves {
            let leaf = t.add_site(format!("leaf{i}"), 1);
            t.link(hub, leaf);
        }
        t
    }

    /// A fully connected mesh of `n` sites — models a non-blocking switch
    /// fabric (every port one hop from every other, no shared transit
    /// site). Sites are named `port<i>` and hold one block each.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn full_mesh(n: usize) -> Self {
        assert!(n > 0, "a mesh needs at least one site");
        let mut t = Self::new();
        for i in 0..n {
            t.add_site(format!("port{i}"), 1);
        }
        for a in 0..n {
            for b in a + 1..n {
                t.link(SiteId(a), SiteId(b));
            }
        }
        t
    }

    /// Adds a site and returns its id.
    pub fn add_site(&mut self, name: impl Into<String>, capacity: usize) -> SiteId {
        let id = SiteId(self.sites.len());
        self.sites.push(Site {
            name: name.into(),
            capacity,
        });
        self.adjacency.push(Vec::new());
        id
    }

    /// Links two sites bidirectionally. Self-links and duplicates are
    /// ignored.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn link(&mut self, a: SiteId, b: SiteId) {
        assert!(
            a.0 < self.sites.len() && b.0 < self.sites.len(),
            "unknown site"
        );
        if a == b || self.adjacency[a.0].contains(&b.0) {
            return;
        }
        self.adjacency[a.0].push(b.0);
        self.adjacency[b.0].push(a.0);
    }

    /// Number of sites.
    pub fn num_sites(&self) -> usize {
        self.sites.len()
    }

    /// Total hosting capacity across all sites.
    pub fn total_capacity(&self) -> usize {
        self.sites.iter().map(Site::capacity).sum()
    }

    /// The site record for `id`, if it exists.
    pub fn site(&self, id: SiteId) -> Option<&Site> {
        self.sites.get(id.0)
    }

    /// Looks a site up by name.
    pub fn site_by_name(&self, name: &str) -> Option<SiteId> {
        self.sites.iter().position(|s| s.name == name).map(SiteId)
    }

    /// For grid topologies, the site at `(col, row)`; `None` elsewhere or
    /// out of range.
    pub fn site_at(&self, col: usize, row: usize) -> Option<SiteId> {
        let width = self.grid_width?;
        if col >= width {
            return None;
        }
        let idx = row * width + col;
        (idx < self.sites.len()).then_some(SiteId(idx))
    }

    /// Iterates over all site ids.
    pub fn sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        (0..self.sites.len()).map(SiteId)
    }

    /// Sites directly linked to `id`.
    pub fn neighbors(&self, id: SiteId) -> impl Iterator<Item = SiteId> + '_ {
        self.adjacency
            .get(id.0)
            .into_iter()
            .flatten()
            .map(|&i| SiteId(i))
    }

    /// Hop distance between two sites along the link graph, or `None` when
    /// they are in different connected components.
    pub fn distance(&self, from: SiteId, to: SiteId) -> Option<usize> {
        let path = self.paths([(from, to)]).pop().flatten()?;
        Some(path.len() - 1)
    }

    /// Shortest site-paths for a batch of `(from, to)` pairs, in pair
    /// order. Each is exactly what [`path_matrix`](Self::path_matrix)
    /// reconstructs for the pair: inclusive of both endpoints, a one-site
    /// path for a same-site pair, and `None` when the sites are
    /// disconnected or either does not exist.
    ///
    /// Each search stops once it discovers its destination and the batch
    /// shares one scratch table, so the cost follows the sites the
    /// searches visit: routing a few pairs on a huge topology builds no
    /// per-source rows.
    pub fn paths(
        &self,
        pairs: impl IntoIterator<Item = (SiteId, SiteId)>,
    ) -> Vec<Option<Vec<SiteId>>> {
        let n = self.sites.len();
        let mut search = Search::new(self);
        pairs
            .into_iter()
            .map(|(from, to)| {
                (from.0 < n && to.0 < n && search.run(from.0, Some(to.0)))
                    .then(|| search.path_to(to.0))
            })
            .collect()
    }

    /// All-pairs hop distances (`usize::MAX` marks unreachable pairs), for
    /// callers that query distances in a hot loop.
    pub fn distance_matrix(&self) -> DistanceMatrix {
        let n = self.sites.len();
        let mut matrix = vec![usize::MAX; n * n];
        let mut search = Search::new(self);
        for start in 0..n {
            search.run(start, None);
            search.distances_into(&mut matrix[start * n..(start + 1) * n]);
        }
        DistanceMatrix { n, matrix }
    }

    /// All-pairs shortest-path structure: one BFS tree per source site,
    /// computed once, so repeated path queries (routing every wire of a
    /// design) do not re-run BFS per wire.
    ///
    /// Path selection matches per-query BFS exactly: neighbors are explored
    /// in the order their links were added (site order, for the built-in
    /// shapes), so among equal-length paths the first-linked corridor wins.
    pub fn path_matrix(&self) -> PathMatrix {
        self.path_matrix_for((0..self.sites.len()).map(SiteId))
    }

    /// [`path_matrix`](Self::path_matrix) restricted to the given source
    /// sites — BFS trees are built only for `sources`, so routing a few
    /// wires on a huge topology stays linear in the sites actually used.
    /// Queries from a source outside the set return `None`.
    pub fn path_matrix_for(&self, sources: impl IntoIterator<Item = SiteId>) -> PathMatrix {
        let n = self.sites.len();
        let mut rows: BTreeMap<usize, PathRow> = BTreeMap::new();
        let mut search = Search::new(self);
        for source in sources {
            let start = source.0;
            if start >= n || rows.contains_key(&start) {
                continue;
            }
            search.run(start, None);
            let mut dist = vec![usize::MAX; n];
            search.distances_into(&mut dist);
            // The search's parent table is already a row's encoding.
            let parent = search.parent.clone();
            rows.insert(start, PathRow { parent, dist });
        }
        PathMatrix { n, rows }
    }

    /// Whether every site can reach every other site.
    pub fn is_connected(&self) -> bool {
        let n = self.sites.len();
        if n <= 1 {
            return true;
        }
        let mut search = Search::new(self);
        search.run(0, None);
        search.order.len() == n
    }
}

/// [`Search::parent`] of a site the current search has not reached.
const UNSEEN: usize = usize::MAX;

/// Breadth-first search over one topology's links, reusable across a batch
/// of searches.
///
/// Neighbors are explored in adjacency order and a site's first discoverer
/// becomes its parent, so every search from one source grows the same tree.
/// A search that stops once its destination is discovered has already
/// fixed that destination's whole parent chain, so its path is the full
/// tree's path. The discovery list doubles as the queue and as the list of
/// sites the next search resets, so a search costs the sites it visits,
/// not the topology's size.
struct Search<'t> {
    adjacency: &'t [Vec<usize>],
    /// Per site: its BFS parent, the site itself for the source, or
    /// [`UNSEEN`].
    parent: Vec<usize>,
    /// Sites the current search reached, in discovery order.
    order: Vec<usize>,
}

impl<'t> Search<'t> {
    fn new(topology: &'t Topology) -> Self {
        Self {
            adjacency: &topology.adjacency,
            parent: vec![UNSEEN; topology.sites.len()],
            order: Vec::new(),
        }
    }

    /// Searches from `from` until `to` is discovered, or over every
    /// reachable site when `to` is `None`. Returns whether `to` was
    /// reached.
    fn run(&mut self, from: usize, to: Option<usize>) -> bool {
        for &site in &self.order {
            self.parent[site] = UNSEEN;
        }
        self.order.clear();
        self.parent[from] = from;
        self.order.push(from);
        if to == Some(from) {
            return true;
        }
        let adjacency = self.adjacency;
        let mut head = 0;
        while let Some(&cur) = self.order.get(head) {
            head += 1;
            for &next in &adjacency[cur] {
                if self.parent[next] == UNSEEN {
                    self.parent[next] = cur;
                    self.order.push(next);
                    if to == Some(next) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Writes the current search's hop distances into `dist`, indexed by
    /// site; sites it did not reach keep their entries. A site is
    /// discovered after its parent, so one pass in discovery order
    /// suffices.
    fn distances_into(&self, dist: &mut [usize]) {
        for &site in &self.order {
            let parent = self.parent[site];
            dist[site] = if parent == site { 0 } else { dist[parent] + 1 };
        }
    }

    /// The current search's path from its source to `to`, which it
    /// reached.
    fn path_to(&self, to: usize) -> Vec<SiteId> {
        let mut path = vec![SiteId(to)];
        let mut at = to;
        while self.parent[at] != at {
            at = self.parent[at];
            path.push(SiteId(at));
        }
        path.reverse();
        path
    }
}

impl Default for Topology {
    fn default() -> Self {
        Self::new()
    }
}

/// Precomputed all-pairs hop distances for a [`Topology`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceMatrix {
    n: usize,
    matrix: Vec<usize>,
}

impl DistanceMatrix {
    /// Hop distance, or `None` when unreachable.
    pub fn get(&self, from: SiteId, to: SiteId) -> Option<usize> {
        let d = *self.matrix.get(from.0 * self.n + to.0)?;
        (d != usize::MAX).then_some(d)
    }
}

/// One source site's BFS tree: parent pointers and hop distances
/// (`usize::MAX` = unreachable, own index = BFS root).
#[derive(Debug, Clone, PartialEq, Eq)]
struct PathRow {
    parent: Vec<usize>,
    dist: Vec<usize>,
}

/// Precomputed shortest paths (BFS trees) for a [`Topology`].
///
/// Built once by [`Topology::path_matrix`] (every source) or
/// [`Topology::path_matrix_for`] (selected sources); [`path`](Self::path)
/// then reconstructs any shortest site-path without re-running BFS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathMatrix {
    n: usize,
    rows: BTreeMap<usize, PathRow>,
}

impl PathMatrix {
    /// Hop distance, or `None` when unreachable (or `from` is not among
    /// the computed sources).
    pub fn distance(&self, from: SiteId, to: SiteId) -> Option<usize> {
        let d = *self.rows.get(&from.0)?.dist.get(to.0)?;
        (d != usize::MAX).then_some(d)
    }

    /// A shortest site-path from `from` to `to`, inclusive of both
    /// endpoints (a same-site query yields a single-element path), or
    /// `None` when unreachable (or `from` is not among the computed
    /// sources).
    pub fn path(&self, from: SiteId, to: SiteId) -> Option<Vec<SiteId>> {
        let row = self.rows.get(&from.0)?;
        if *row.parent.get(to.0)? == usize::MAX {
            return None;
        }
        let mut path = vec![to];
        let mut at = to.0;
        while at != from.0 {
            at = row.parent[at];
            path.push(SiteId(at));
        }
        path.reverse();
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_structure() {
        let t = Topology::grid(4, 3);
        assert_eq!(t.num_sites(), 12);
        assert_eq!(t.total_capacity(), 12);
        let corner = t.site_at(0, 0).unwrap();
        let opposite = t.site_at(3, 2).unwrap();
        assert_eq!(t.distance(corner, opposite), Some(5));
        assert_eq!(t.neighbors(corner).count(), 2);
        let center = t.site_at(1, 1).unwrap();
        assert_eq!(t.neighbors(center).count(), 4);
        assert!(t.is_connected());
    }

    #[test]
    fn line_distances() {
        let t = Topology::line(5);
        assert_eq!(t.distance(SiteId(0), SiteId(4)), Some(4));
        assert_eq!(t.distance(SiteId(2), SiteId(2)), Some(0));
    }

    #[test]
    fn star_shape() {
        let t = Topology::star(6, 3);
        assert_eq!(t.num_sites(), 7);
        assert_eq!(t.total_capacity(), 9);
        let hub = t.site_by_name("hub").unwrap();
        assert_eq!(t.neighbors(hub).count(), 6);
        assert_eq!(
            t.distance(SiteId(1), SiteId(2)),
            Some(2),
            "leaf to leaf via hub"
        );
    }

    #[test]
    fn full_mesh_is_one_hop_everywhere() {
        let t = Topology::full_mesh(5);
        assert_eq!(t.num_sites(), 5);
        assert_eq!(t.total_capacity(), 5);
        assert!(t.is_connected());
        for a in t.sites() {
            assert_eq!(t.neighbors(a).count(), 4);
            for b in t.sites() {
                let expected = usize::from(a != b);
                assert_eq!(t.distance(a, b), Some(expected));
            }
        }
    }

    #[test]
    fn disconnected_components() {
        let mut t = Topology::new();
        let a = t.add_site("a", 1);
        let b = t.add_site("b", 1);
        let c = t.add_site("c", 1);
        t.link(a, b);
        assert_eq!(t.distance(a, b), Some(1));
        assert_eq!(t.distance(a, c), None);
        assert!(!t.is_connected());
        let m = t.distance_matrix();
        assert_eq!(m.get(a, c), None);
        assert_eq!(m.get(b, a), Some(1));
    }

    #[test]
    fn duplicate_and_self_links_ignored() {
        let mut t = Topology::new();
        let a = t.add_site("a", 1);
        let b = t.add_site("b", 1);
        t.link(a, b);
        t.link(b, a);
        t.link(a, a);
        assert_eq!(t.neighbors(a).count(), 1);
        assert_eq!(t.neighbors(b).count(), 1);
    }

    #[test]
    fn lookup_by_name_and_coordinates() {
        let t = Topology::grid(2, 2);
        assert_eq!(t.site_by_name("r1c0"), Some(SiteId(2)));
        assert_eq!(t.site_at(1, 1), Some(SiteId(3)));
        assert_eq!(t.site_at(2, 0), None);
        assert!(Topology::line(3).site_at(0, 0).is_none(), "not a grid");
    }

    /// Five shapes: a grid, a line, a star, a full mesh, and two islands
    /// linked out of site order (a triangle with a tail, 0-2-1-0 and 1-3,
    /// and a pair, 5-4) beside a lone site 6.
    fn shapes() -> [Topology; 5] {
        let mut islands = Topology::new();
        let s: Vec<SiteId> = (0..7)
            .map(|i| islands.add_site(format!("s{i}"), 1))
            .collect();
        for (a, b) in [(0, 2), (2, 1), (1, 0), (1, 3), (5, 4)] {
            islands.link(s[a], s[b]);
        }
        [
            Topology::grid(7, 5),
            Topology::line(9),
            Topology::star(6, 0),
            Topology::full_mesh(5),
            islands,
        ]
    }

    #[test]
    fn matrix_matches_pointwise_distance() {
        for t in [Topology::grid(3, 3)].into_iter().chain(shapes()) {
            let m = t.distance_matrix();
            let p = t.path_matrix();
            for a in t.sites() {
                for b in t.sites() {
                    assert_eq!(m.get(a, b), t.distance(a, b), "{a} -> {b}");
                    assert_eq!(p.distance(a, b), t.distance(a, b), "{a} -> {b}");
                }
            }
        }
    }

    #[test]
    fn path_matrix_paths_are_shortest_and_contiguous() {
        let t = Topology::grid(3, 3);
        let p = t.path_matrix();
        for a in t.sites() {
            for b in t.sites() {
                let path = p.path(a, b).unwrap();
                assert_eq!(path.first(), Some(&a));
                assert_eq!(path.last(), Some(&b));
                assert_eq!(path.len() - 1, t.distance(a, b).unwrap(), "{a} -> {b}");
                assert_eq!(p.distance(a, b), t.distance(a, b));
                for leg in path.windows(2) {
                    assert!(
                        t.neighbors(leg[0]).any(|s| s == leg[1]),
                        "consecutive path sites must be linked"
                    );
                }
            }
        }
        assert_eq!(p.path(SiteId(0), SiteId(0)), Some(vec![SiteId(0)]));
    }

    #[test]
    fn path_matrix_reports_unreachable() {
        let mut t = Topology::new();
        let a = t.add_site("a", 1);
        let b = t.add_site("b", 1);
        let c = t.add_site("c", 1);
        t.link(a, b);
        let p = t.path_matrix();
        assert_eq!(p.path(a, c), None);
        assert_eq!(p.distance(a, c), None);
        assert_eq!(p.path(a, b), Some(vec![a, b]));
    }

    #[test]
    fn pair_paths_equal_the_path_matrix() {
        for t in shapes() {
            let matrix = t.path_matrix();
            let pairs: Vec<(SiteId, SiteId)> = t
                .sites()
                .flat_map(|a| t.sites().map(move |b| (a, b)))
                .collect();
            // One batch: every search after the first reuses the scratch.
            let paths = t.paths(pairs.iter().copied());
            assert_eq!(paths.len(), pairs.len());
            for (&(a, b), path) in pairs.iter().zip(&paths) {
                assert_eq!(path, &matrix.path(a, b), "{a} -> {b}");
                let hops = path.as_ref().map(|p| p.len() - 1);
                assert_eq!(t.distance(a, b), hops, "{a} -> {b}");
            }
            let outside = SiteId(t.num_sites());
            assert_eq!(
                t.paths([(SiteId(0), outside), (outside, SiteId(0))]),
                [None, None]
            );
        }
    }

    #[test]
    fn restricted_path_matrix_covers_only_its_sources() {
        let t = Topology::line(4);
        let p = t.path_matrix_for([SiteId(1), SiteId(1), SiteId(9)]);
        assert_eq!(
            p.path(SiteId(1), SiteId(3)),
            Some(vec![SiteId(1), SiteId(2), SiteId(3)])
        );
        assert_eq!(p.distance(SiteId(1), SiteId(0)), Some(1));
        // Site 0 was not requested as a source; site 9 does not exist.
        assert_eq!(p.path(SiteId(0), SiteId(1)), None);
        assert_eq!(p.path(SiteId(9), SiteId(0)), None);
    }
}

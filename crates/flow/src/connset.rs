//! Connection sets: the per-host neighbor sets the algorithms consume.
//!
//! Section 3.1 of the paper: "A connection is a pair consisting of a
//! source host address and a destination host address. The connection set
//! of a host, `C(h)`, is the set `{a | a ∈ I and there is a connection
//! between h and a}`." Connections are undirected ("almost all
//! communication between hosts in the intranets is bidirectional",
//! Section 4.1), so flows in either direction contribute the same pair.
//!
//! # Representation
//!
//! [`ConnectionSets`] is columnar: member addresses live in one sorted
//! vector (`addrs`), whose positions are the *rows* every other column
//! is keyed by. Undirected pairs are `(lo_row, hi_row)` entries sorted
//! lexicographically (which, rows being address-sorted, is exactly
//! address order), with a parallel [`PairStats`] column. Each member's
//! dense identity ([`HostId`], issued by the owning [`HostTable`]) sits
//! in a parallel `ids` column, so downstream layers can key state by a
//! stable `u32` instead of address bytes. The CSR adjacency
//! (`offsets`/`nbrs` over rows) is derived from the pair column on first
//! use and cached; `netgraph` borrows it directly instead of rebuilding
//! its own.
//!
//! The retired map-based twin lives in the dev-only `roleclass-spec`
//! crate as the executable spec; parity tests pin this representation
//! bit-identical to it.

use crate::addr::{Cidr, HostAddr};
use crate::intern::{HostId, HostTable};
use crate::record::FlowRecord;
use crate::window::TimeWindow;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::{Arc, OnceLock};

/// Metric names the flow layer registers, sorted; `tests/metric_names.rs`
/// lints the naming scheme.
pub const FLOW_METRIC_NAMES: &[&str] = &[
    "roleclass_flow_connset_build_seconds",
    "roleclass_flow_interner_hosts",
];

/// Traffic totals for one undirected host pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairStats {
    /// Number of flow records observed between the pair.
    pub flows: u64,
    /// Total packets.
    pub packets: u64,
    /// Total bytes.
    pub bytes: u64,
}

/// Derived CSR adjacency over rows: `nbrs[offsets[r]..offsets[r+1]]` are
/// the (ascending) neighbor rows of row `r`.
#[derive(Clone, Debug, Default)]
struct CsrIndex {
    offsets: Vec<u32>,
    nbrs: Vec<u32>,
}

fn build_index(rows: usize, pairs: &[(u32, u32)]) -> CsrIndex {
    let mut offsets = vec![0u32; rows + 1];
    for &(a, b) in pairs {
        offsets[a as usize + 1] += 1;
        offsets[b as usize + 1] += 1;
    }
    for i in 0..rows {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor: Vec<u32> = offsets[..rows].to_vec();
    let mut nbrs = vec![0u32; pairs.len() * 2];
    // Pairs are sorted by (lo, hi); visiting them in order appends each
    // row's neighbors in ascending row (= address) order.
    for &(a, b) in pairs {
        nbrs[cursor[a as usize] as usize] = b;
        cursor[a as usize] += 1;
        nbrs[cursor[b as usize] as usize] = a;
        cursor[b as usize] += 1;
    }
    CsrIndex { offsets, nbrs }
}

/// The connection sets of a host population.
///
/// Stores, for every host of the analyzed network, the set of hosts it
/// communicated with, plus per-pair traffic totals. This is the *only*
/// input the grouping algorithm needs; everything else in the pipeline
/// exists to produce one of these.
#[derive(Clone, Debug, Default)]
pub struct ConnectionSets {
    /// The identity arena the `ids` column points into. Shared with the
    /// producer (e.g. the aggregator's master table snapshot).
    table: Arc<HostTable>,
    /// Member addresses, sorted ascending. Positions are rows.
    addrs: Vec<HostAddr>,
    /// Dense interned identity of each row, parallel to `addrs`.
    ids: Vec<HostId>,
    /// Undirected pairs as `(lo_row, hi_row)`, sorted lexicographically.
    pairs: Vec<(u32, u32)>,
    /// Traffic totals, parallel to `pairs`.
    pair_stats: Vec<PairStats>,
    /// Per-host `(initiated, accepted)` flow counts, sorted by address.
    /// Keyed by address, not row: direction counts survive host removal
    /// (Section 4.1 keeps directionality separate from the undirected
    /// sets the core algorithm consumes).
    direction: Vec<(HostAddr, u64, u64)>,
    /// Lazily derived CSR adjacency; invalidated by structural mutation.
    index: OnceLock<CsrIndex>,
}

impl PartialEq for ConnectionSets {
    fn eq(&self, other: &Self) -> bool {
        // Rows are positional: with equal address vectors the row spaces
        // coincide and pair rows compare directly. Identity tables are
        // deliberately ignored — they are plumbing, not content.
        self.addrs == other.addrs
            && self.pairs == other.pairs
            && self.pair_stats == other.pair_stats
            && self.direction == other.direction
    }
}

/// A view of one host's connection set `C(h)`: the sorted neighbor rows
/// of the columnar adjacency, materialized to addresses on demand.
#[derive(Clone, Copy)]
pub struct Neighbors<'a> {
    rows: &'a [u32],
    addrs: &'a [HostAddr],
}

impl<'a> Neighbors<'a> {
    /// Number of neighbors, `|C(h)|`.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` for an isolated host.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates over neighbor addresses in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = HostAddr> + 'a {
        let addrs = self.addrs;
        self.rows.iter().map(move |&r| addrs[r as usize])
    }

    /// Returns `true` if `h` is in the set.
    pub fn contains(&self, h: HostAddr) -> bool {
        self.rows
            .binary_search_by(|&r| self.addrs[r as usize].cmp(&h))
            .is_ok()
    }
}

impl IntoIterator for Neighbors<'_> {
    type Item = HostAddr;
    type IntoIter = std::vec::IntoIter<HostAddr>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter().collect::<Vec<_>>().into_iter()
    }
}

// Views over different `ConnectionSets` compare by address content, so a
// "same neighbors in both windows" check is a plain `==`.
impl PartialEq for Neighbors<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Neighbors<'_> {}

impl std::fmt::Debug for Neighbors<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl ConnectionSets {
    /// Creates an empty collection with its own fresh identity table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The identity table the `ids` column points into.
    pub fn table(&self) -> &Arc<HostTable> {
        &self.table
    }

    /// Member addresses in row (= address) order.
    pub fn member_addrs(&self) -> &[HostAddr] {
        &self.addrs
    }

    /// Dense ids of the members, parallel to [`ConnectionSets::member_addrs`].
    pub fn member_ids(&self) -> &[HostId] {
        &self.ids
    }

    /// The dense id of `h`, if it is a member.
    pub fn host_id(&self, h: HostAddr) -> Option<HostId> {
        self.row_of(h).map(|r| self.ids[r])
    }

    /// The borrowed CSR adjacency `(offsets, neighbor_rows)` over rows:
    /// row `r` is `member_addrs()[r]`, its neighbors are
    /// `nbrs[offsets[r] as usize..offsets[r + 1] as usize]`, ascending.
    /// `netgraph` consumes this directly instead of re-deriving its own
    /// index mapping.
    pub fn csr(&self) -> (&[u32], &[u32]) {
        let ix = self.index();
        (&ix.offsets, &ix.nbrs)
    }

    fn index(&self) -> &CsrIndex {
        self.index
            .get_or_init(|| build_index(self.addrs.len(), &self.pairs))
    }

    fn row_of(&self, h: HostAddr) -> Option<usize> {
        self.addrs.binary_search(&h).ok()
    }

    fn row_slice(&self, r: usize) -> &[u32] {
        let ix = self.index();
        &ix.nbrs[ix.offsets[r] as usize..ix.offsets[r + 1] as usize]
    }

    /// Ensures `h` is present (with a possibly empty neighbor set).
    ///
    /// Isolated hosts are legitimate members of `I`: the paper's idle
    /// hosts have tiny connection sets, and a host can appear in a trace
    /// only as a scanner's victim.
    pub fn add_host(&mut self, h: HostAddr) {
        let Err(r) = self.addrs.binary_search(&h) else {
            return;
        };
        let id = Arc::make_mut(&mut self.table).intern(h);
        self.addrs.insert(r, h);
        self.ids.insert(r, id);
        let r = r as u32;
        for p in &mut self.pairs {
            if p.0 >= r {
                p.0 += 1;
            }
            if p.1 >= r {
                p.1 += 1;
            }
        }
        self.index.take();
    }

    /// Records an undirected connection between `a` and `b`, accumulating
    /// `stats` onto the pair. Self-pairs are ignored.
    pub fn add_connection(&mut self, a: HostAddr, b: HostAddr, stats: PairStats) {
        if a == b {
            return;
        }
        self.add_host(a);
        self.add_host(b);
        let ra = self.row_of(a).expect("just added") as u32;
        let rb = self.row_of(b).expect("just added") as u32;
        let key = (ra.min(rb), ra.max(rb));
        match self.pairs.binary_search(&key) {
            Ok(i) => {
                let e = &mut self.pair_stats[i];
                e.flows += stats.flows;
                e.packets += stats.packets;
                e.bytes += stats.bytes;
            }
            Err(i) => {
                self.pairs.insert(i, key);
                self.pair_stats.insert(i, stats);
                self.index.take();
            }
        }
    }

    /// Records a plain connection with unit flow stats.
    pub fn add_pair(&mut self, a: HostAddr, b: HostAddr) {
        self.add_connection(
            a,
            b,
            PairStats {
                flows: 1,
                packets: 1,
                bytes: 64,
            },
        );
    }

    /// Number of hosts (`|I|`).
    pub fn host_count(&self) -> usize {
        self.addrs.len()
    }

    /// Number of undirected connections (host pairs).
    pub fn connection_count(&self) -> usize {
        self.pairs.len()
    }

    /// Returns `true` if no hosts are present.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Returns `true` if `h` is a known host.
    pub fn contains(&self, h: HostAddr) -> bool {
        self.row_of(h).is_some()
    }

    /// Iterates over all hosts in address order.
    pub fn hosts(&self) -> impl Iterator<Item = HostAddr> + '_ {
        self.addrs.iter().copied()
    }

    /// The connection set `C(h)`, or `None` if `h` is unknown.
    pub fn neighbors(&self, h: HostAddr) -> Option<Neighbors<'_>> {
        let r = self.row_of(h)?;
        Some(Neighbors {
            rows: self.row_slice(r),
            addrs: &self.addrs,
        })
    }

    /// `|C(h)|`, or `None` if `h` is unknown.
    pub fn degree(&self, h: HostAddr) -> Option<usize> {
        let r = self.row_of(h)?;
        let ix = self.index();
        Some((ix.offsets[r + 1] - ix.offsets[r]) as usize)
    }

    /// Returns `true` if `a` and `b` are connected.
    pub fn connected(&self, a: HostAddr, b: HostAddr) -> bool {
        self.pair_row(a, b).is_some()
    }

    fn pair_row(&self, a: HostAddr, b: HostAddr) -> Option<usize> {
        let ra = self.row_of(a)? as u32;
        let rb = self.row_of(b)? as u32;
        self.pairs.binary_search(&(ra.min(rb), ra.max(rb))).ok()
    }

    /// Traffic totals between `a` and `b`, if connected.
    pub fn pair_stats(&self, a: HostAddr, b: HostAddr) -> Option<PairStats> {
        self.pair_row(a, b).map(|i| self.pair_stats[i])
    }

    /// Iterates over all undirected pairs with their stats, in order.
    pub fn pairs(&self) -> impl Iterator<Item = ((HostAddr, HostAddr), PairStats)> + '_ {
        self.pairs
            .iter()
            .zip(self.pair_stats.iter())
            .map(move |(&(a, b), &s)| ((self.addrs[a as usize], self.addrs[b as usize]), s))
    }

    /// Collects the undirected edge list.
    pub fn edges(&self) -> Vec<(HostAddr, HostAddr)> {
        self.pairs
            .iter()
            .map(|&(a, b)| (self.addrs[a as usize], self.addrs[b as usize]))
            .collect()
    }

    /// The number of common neighbors `|C(a) ∩ C(b)|` — the paper's
    /// host-level `similarity` (Equation 1). Returns 0 if either host is
    /// unknown.
    pub fn similarity(&self, a: HostAddr, b: HostAddr) -> usize {
        let (Some(ra), Some(rb)) = (self.row_of(a), self.row_of(b)) else {
            return 0;
        };
        let (xs, ys) = (self.row_slice(ra), self.row_slice(rb));
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < xs.len() && j < ys.len() {
            match xs[i].cmp(&ys[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    /// Removes host `h` and all its connections. Returns `true` if the
    /// host existed. Direction counts are kept, mirroring the original
    /// map semantics.
    pub fn remove_host(&mut self, h: HostAddr) -> bool {
        let Some(r) = self.row_of(h) else {
            return false;
        };
        self.addrs.remove(r);
        self.ids.remove(r);
        let r = r as u32;
        let mut kept = 0;
        for i in 0..self.pairs.len() {
            let (mut a, mut b) = self.pairs[i];
            if a == r || b == r {
                continue;
            }
            if a > r {
                a -= 1;
            }
            if b > r {
                b -= 1;
            }
            self.pairs[kept] = (a, b);
            self.pair_stats[kept] = self.pair_stats[i];
            kept += 1;
        }
        self.pairs.truncate(kept);
        self.pair_stats.truncate(kept);
        self.index.take();
        true
    }

    /// Restricts the host population to `keep`, dropping all other hosts
    /// and their connections — Section 5.2's "strip arrivals/departures"
    /// step in its literal form. (`roleclass`'s correlation maps both
    /// snapshots onto their common rows instead of restricting copies.)
    ///
    /// One merged pass over the sorted member and `keep` sequences plus
    /// one pass over the pair column — no per-host scans.
    pub fn retain_hosts(&mut self, keep: &BTreeSet<HostAddr>) {
        let rows = self.addrs.len();
        let mut remap = vec![u32::MAX; rows];
        let mut next = 0u32;
        let mut ki = keep.iter().peekable();
        let mut new_addrs = Vec::with_capacity(keep.len().min(rows));
        let mut new_ids = Vec::with_capacity(keep.len().min(rows));
        for (r, &a) in self.addrs.iter().enumerate() {
            while let Some(&&k) = ki.peek() {
                if k < a {
                    ki.next();
                } else {
                    break;
                }
            }
            if ki.peek() == Some(&&a) {
                remap[r] = next;
                next += 1;
                new_addrs.push(a);
                new_ids.push(self.ids[r]);
            }
        }
        if new_addrs.len() == rows {
            return; // nothing dropped
        }
        self.addrs = new_addrs;
        self.ids = new_ids;
        let mut kept = 0;
        for i in 0..self.pairs.len() {
            let (a, b) = self.pairs[i];
            let (na, nb) = (remap[a as usize], remap[b as usize]);
            if na == u32::MAX || nb == u32::MAX {
                continue;
            }
            self.pairs[kept] = (na, nb);
            self.pair_stats[kept] = self.pair_stats[i];
            kept += 1;
        }
        self.pairs.truncate(kept);
        self.pair_stats.truncate(kept);
        self.index.take();
    }

    /// Hosts present here but not in `other` — one merged pass over the
    /// two sorted member vectors.
    pub fn hosts_not_in(&self, other: &ConnectionSets) -> BTreeSet<HostAddr> {
        let mut out = BTreeSet::new();
        let mut oi = other.addrs.iter().peekable();
        for &a in &self.addrs {
            while let Some(&&o) = oi.peek() {
                if o < a {
                    oi.next();
                } else {
                    break;
                }
            }
            if oi.peek() != Some(&&a) {
                out.insert(a);
            }
        }
        out
    }

    /// Maximum connection-set size over all hosts (`k_max` of the
    /// formation algorithm), or 0 when empty.
    pub fn max_degree(&self) -> usize {
        let ix = self.index();
        ix.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Records directional flow counts for a host (used by
    /// [`crate::ConnsetBuilder`]; available for callers constructing
    /// connection sets by hand).
    pub fn add_direction_counts(&mut self, h: HostAddr, initiated: u64, accepted: u64) {
        if initiated == 0 && accepted == 0 {
            return;
        }
        match self.direction.binary_search_by_key(&h, |&(x, _, _)| x) {
            Ok(i) => {
                self.direction[i].1 += initiated;
                self.direction[i].2 += accepted;
            }
            Err(i) => self.direction.insert(i, (h, initiated, accepted)),
        }
    }

    /// Number of flows this host initiated (was the source of).
    pub fn initiated_flows(&self, h: HostAddr) -> u64 {
        self.direction
            .binary_search_by_key(&h, |&(x, _, _)| x)
            .map(|i| self.direction[i].1)
            .unwrap_or(0)
    }

    /// Number of flows this host accepted (was the destination of).
    pub fn accepted_flows(&self, h: HostAddr) -> u64 {
        self.direction
            .binary_search_by_key(&h, |&(x, _, _)| x)
            .map(|i| self.direction[i].2)
            .unwrap_or(0)
    }

    /// Fraction of this host's flows that it *accepted*, in `[0, 1]` —
    /// a server-likeness score (servers accept, clients initiate).
    /// Returns `None` when no directional data was recorded for `h`.
    pub fn server_ratio(&self, h: HostAddr) -> Option<f64> {
        let i = self.initiated_flows(h);
        let a = self.accepted_flows(h);
        if i + a == 0 {
            None
        } else {
            Some(a as f64 / (i + a) as f64)
        }
    }

    /// Bulk constructor: the full population (isolated hosts included)
    /// plus one entry per observed connection. Duplicate pairs accumulate
    /// unit stats exactly like repeated [`ConnectionSets::add_pair`]
    /// calls; self-pairs are dropped. One compaction pass — use this
    /// instead of `add_pair` loops when building at scale.
    pub fn from_pairs(
        hosts: impl IntoIterator<Item = HostAddr>,
        pairs: impl IntoIterator<Item = (HostAddr, HostAddr)>,
    ) -> Self {
        let mut pair_list: Vec<(HostAddr, HostAddr)> = pairs
            .into_iter()
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| if a < b { (a, b) } else { (b, a) })
            .collect();
        pair_list.sort_unstable();
        let mut addrs: Vec<HostAddr> = hosts.into_iter().collect();
        addrs.extend(pair_list.iter().flat_map(|&(a, b)| [a, b]));
        addrs.sort_unstable();
        addrs.dedup();

        let mut merged: Vec<(HostAddr, HostAddr, PairStats)> = Vec::new();
        for (a, b) in pair_list {
            match merged.last_mut() {
                Some(last) if last.0 == a && last.1 == b => {
                    last.2.flows += 1;
                    last.2.packets += 1;
                    last.2.bytes += 64;
                }
                _ => {
                    merged.push((
                        a,
                        b,
                        PairStats {
                            flows: 1,
                            packets: 1,
                            bytes: 64,
                        },
                    ));
                }
            }
        }

        let mut table = HostTable::new();
        let ids: Vec<HostId> = addrs.iter().map(|&a| table.intern(a)).collect();
        Self::from_sorted_parts(Arc::new(table), addrs, ids, merged, Vec::new())
    }

    /// Assembles the columnar layout from already-sorted parts.
    /// `addr_pairs` must be sorted, deduplicated, lo/hi-normalized, and
    /// reference only members of `addrs`; `direction` must be sorted.
    fn from_sorted_parts(
        table: Arc<HostTable>,
        addrs: Vec<HostAddr>,
        ids: Vec<HostId>,
        addr_pairs: Vec<(HostAddr, HostAddr, PairStats)>,
        direction: Vec<(HostAddr, u64, u64)>,
    ) -> Self {
        let mut pairs = Vec::with_capacity(addr_pairs.len());
        let mut pair_stats = Vec::with_capacity(addr_pairs.len());
        for (a, b, s) in addr_pairs {
            let ra = addrs.binary_search(&a).expect("pair endpoint is a member") as u32;
            let rb = addrs.binary_search(&b).expect("pair endpoint is a member") as u32;
            pairs.push((ra.min(rb), ra.max(rb)));
            pair_stats.push(s);
        }
        ConnectionSets {
            table,
            addrs,
            ids,
            pairs,
            pair_stats,
            direction,
            index: OnceLock::new(),
        }
    }
}

/// Serde face: a self-contained, address-keyed document (hosts in order,
/// `(a, b, stats)` pairs, `(host, initiated, accepted)` direction rows).
/// Row indices and the identity table are rebuilt on deserialization —
/// persisted snapshots carry content, not plumbing.
#[derive(Serialize, Deserialize)]
struct ConnsetDoc {
    hosts: Vec<HostAddr>,
    pairs: Vec<(HostAddr, HostAddr, PairStats)>,
    #[serde(default)]
    direction: Vec<(HostAddr, u64, u64)>,
}

impl Serialize for ConnectionSets {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let doc = ConnsetDoc {
            hosts: self.addrs.clone(),
            pairs: self.pairs().map(|((a, b), st)| (a, b, st)).collect(),
            direction: self.direction.clone(),
        };
        doc.serialize(s)
    }
}

impl<'de> Deserialize<'de> for ConnectionSets {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let mut doc = ConnsetDoc::deserialize(d)?;
        doc.hosts.sort_unstable();
        doc.hosts.dedup();
        for p in &mut doc.pairs {
            if p.0 > p.1 {
                std::mem::swap(&mut p.0, &mut p.1);
            }
        }
        doc.pairs.sort_unstable_by_key(|&(a, b, _)| (a, b));
        doc.direction.sort_unstable_by_key(|&(h, _, _)| h);
        for (a, b, _) in &doc.pairs {
            for h in [a, b] {
                if doc.hosts.binary_search(h).is_err() {
                    return Err(serde::de::Error::custom(format!(
                        "pair endpoint {h} is not a listed host"
                    )));
                }
            }
        }
        let mut table = HostTable::new();
        let ids: Vec<HostId> = doc.hosts.iter().map(|&a| table.intern(a)).collect();
        Ok(Self::from_sorted_parts(
            Arc::new(table),
            doc.hosts,
            ids,
            doc.pairs,
            doc.direction,
        ))
    }
}

/// Builder turning a stream of [`FlowRecord`]s into [`ConnectionSets`],
/// with the scoping and noise filters a real deployment needs.
///
/// Staging is hash-based (cheap inserts on the hot ingest path); the
/// single compaction pass in [`ConnsetBuilder::build`] sorts once and
/// assembles the columnar layout directly.
#[derive(Clone, Debug, Default)]
pub struct ConnsetBuilder {
    scope: Vec<Cidr>,
    window: Option<TimeWindow>,
    min_flows: u64,
    min_packets: u64,
    staging: HashMap<(HostAddr, HostAddr), PairStats>,
    seen_hosts: HashSet<HostAddr>,
    /// Per-host `(initiated, accepted)` flow counts.
    direction: HashMap<HostAddr, (u64, u64)>,
}

impl ConnsetBuilder {
    /// Creates a builder with no filters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Restricts the analyzed host set `I` to addresses inside any of the
    /// given CIDR blocks. Flows with an out-of-scope endpoint are
    /// dropped entirely; an empty scope list accepts everything.
    pub fn scope(mut self, blocks: impl IntoIterator<Item = Cidr>) -> Self {
        self.scope.extend(blocks);
        self
    }

    /// Only accepts flows whose start time falls inside `window`.
    pub fn window(mut self, window: TimeWindow) -> Self {
        self.window = Some(window);
        self
    }

    /// Requires at least `n` flow records between a pair before it counts
    /// as a connection. Filters one-off noise (e.g., stray scans) out of
    /// long observation windows, per the paper's "transient changes"
    /// property (Section 1, property 3).
    pub fn min_flows(mut self, n: u64) -> Self {
        self.min_flows = n;
        self
    }

    /// Requires at least `n` packets between a pair before it counts as a
    /// connection.
    pub fn min_packets(mut self, n: u64) -> Self {
        self.min_packets = n;
        self
    }

    fn in_scope(&self, h: HostAddr) -> bool {
        self.scope.is_empty() || self.scope.iter().any(|c| c.contains(h))
    }

    /// Feeds one flow record.
    pub fn add_record(&mut self, r: &FlowRecord) {
        if r.src == r.dst {
            return;
        }
        if let Some(w) = self.window {
            if !w.contains(r.start_ms) {
                return;
            }
        }
        if !self.in_scope(r.src) || !self.in_scope(r.dst) {
            return;
        }
        self.seen_hosts.insert(r.src);
        self.seen_hosts.insert(r.dst);
        // Infer the conversation's initiator. A probe on a link sees
        // both directions of a conversation as separate flows, so raw
        // src/dst alone would average out to nothing; the classic
        // well-known-port heuristic recovers the true client/server
        // orientation whenever exactly one side uses a service port.
        let (initiator, acceptor) = if r.dst_port != 0 && r.dst_port < 1024 && r.src_port >= 1024 {
            (r.src, r.dst)
        } else if r.src_port != 0 && r.src_port < 1024 && r.dst_port >= 1024 {
            // Reply direction of a client/server conversation.
            (r.dst, r.src)
        } else {
            (r.src, r.dst)
        };
        self.direction.entry(initiator).or_default().0 += 1;
        self.direction.entry(acceptor).or_default().1 += 1;
        let key = r.undirected_pair();
        let e = self.staging.entry(key).or_default();
        e.flows += 1;
        e.packets += r.packets as u64;
        e.bytes += r.bytes;
    }

    /// Feeds many flow records.
    pub fn add_records<'a>(&mut self, records: impl IntoIterator<Item = &'a FlowRecord>) {
        for r in records {
            self.add_record(r);
        }
    }

    /// Finalizes into [`ConnectionSets`], applying the noise thresholds.
    ///
    /// Hosts observed only on filtered-out pairs are still part of the
    /// population (with empty connection sets).
    pub fn build(self) -> ConnectionSets {
        self.build_with_stats().0
    }

    /// Like [`ConnsetBuilder::build`], but also reports how much input
    /// the noise thresholds discarded — the aggregator records this per
    /// window so a degraded run can be told apart from a quiet one.
    pub fn build_with_stats(self) -> (ConnectionSets, BuildStats) {
        let mut table = HostTable::new();
        self.build_into(&mut table, None)
    }

    /// Finalizes against a shared identity table: member addresses are
    /// interned into `table` (in address order, so fresh ids are issued
    /// deterministically) and the result snapshots it. The aggregator
    /// threads one master table through every window this way, keeping
    /// [`HostId`]s stable across windows and checkpoints.
    pub fn build_with_stats_into(self, table: &mut HostTable) -> (ConnectionSets, BuildStats) {
        self.build_into(table, None)
    }

    /// [`ConnsetBuilder::build_with_stats_into`] with telemetry: emits
    /// the `flow.connset_build` span, the build-phase histogram, and the
    /// interner population gauge (see [`FLOW_METRIC_NAMES`]).
    pub fn build_with_telemetry(
        self,
        table: &mut HostTable,
        rec: Option<&telemetry::Recorder>,
    ) -> (ConnectionSets, BuildStats) {
        self.build_into(table, rec)
    }

    fn build_into(
        self,
        table: &mut HostTable,
        rec: Option<&telemetry::Recorder>,
    ) -> (ConnectionSets, BuildStats) {
        let _span = telemetry::span(rec, "flow.connset_build");
        let started = rec.map(|_| std::time::Instant::now());

        let mut addrs: Vec<HostAddr> = self.seen_hosts.into_iter().collect();
        addrs.sort_unstable();

        let mut kept: Vec<(HostAddr, HostAddr, PairStats)> = Vec::new();
        let mut kept_flows = 0u64;
        let mut dropped_flows = 0u64;
        let mut dropped_pairs = 0usize;
        for ((a, b), stats) in self.staging {
            if stats.flows >= self.min_flows && stats.packets >= self.min_packets {
                kept_flows += stats.flows;
                kept.push((a, b, stats));
            } else {
                dropped_flows += stats.flows;
                dropped_pairs += 1;
            }
        }
        kept.sort_unstable_by_key(|&(a, b, _)| (a, b));

        let mut direction: Vec<(HostAddr, u64, u64)> = self
            .direction
            .into_iter()
            .map(|(h, (i, a))| (h, i, a))
            .collect();
        direction.sort_unstable_by_key(|&(h, _, _)| h);

        let ids: Vec<HostId> = addrs.iter().map(|&a| table.intern(a)).collect();
        let out =
            ConnectionSets::from_sorted_parts(Arc::new(table.clone()), addrs, ids, kept, direction);

        if let (Some(r), Some(t0)) = (rec, started) {
            let reg = r.registry();
            reg.histogram(
                "roleclass_flow_connset_build_seconds",
                telemetry::DURATION_BUCKETS,
            )
            .observe(t0.elapsed().as_secs_f64());
            reg.gauge("roleclass_flow_interner_hosts")
                .set(table.len() as i64);
        }

        (
            out,
            BuildStats {
                kept_flows,
                dropped_flows,
                dropped_pairs,
            },
        )
    }
}

/// What the noise thresholds did while finalizing a build.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BuildStats {
    /// Flow records that contributed to a surviving connection.
    pub kept_flows: u64,
    /// Flow records discarded because their pair fell below
    /// `min_flows`/`min_packets`.
    pub dropped_flows: u64,
    /// Host pairs discarded entirely.
    pub dropped_pairs: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(x: u32) -> HostAddr {
        HostAddr::v4(x)
    }

    #[test]
    fn add_pair_is_symmetric() {
        let mut cs = ConnectionSets::new();
        cs.add_pair(h(1), h(2));
        assert!(cs.connected(h(1), h(2)));
        assert!(cs.connected(h(2), h(1)));
        assert_eq!(cs.degree(h(1)), Some(1));
        assert_eq!(cs.degree(h(2)), Some(1));
        assert_eq!(cs.host_count(), 2);
        assert_eq!(cs.connection_count(), 1);
    }

    #[test]
    fn self_pairs_ignored() {
        let mut cs = ConnectionSets::new();
        cs.add_pair(h(1), h(1));
        assert_eq!(cs.connection_count(), 0);
        assert_eq!(cs.host_count(), 0);
    }

    #[test]
    fn stats_accumulate() {
        let mut cs = ConnectionSets::new();
        cs.add_pair(h(1), h(2));
        cs.add_pair(h(2), h(1));
        let s = cs.pair_stats(h(1), h(2)).unwrap();
        assert_eq!(s.flows, 2);
    }

    #[test]
    fn similarity_counts_common_neighbors() {
        let mut cs = ConnectionSets::new();
        // 1 and 2 both talk to 10 and 11; 2 also talks to 12.
        for n in [10, 11] {
            cs.add_pair(h(1), h(n));
            cs.add_pair(h(2), h(n));
        }
        cs.add_pair(h(2), h(12));
        assert_eq!(cs.similarity(h(1), h(2)), 2);
        assert_eq!(cs.similarity(h(1), h(99)), 0);
    }

    #[test]
    fn remove_host_cleans_pairs() {
        let mut cs = ConnectionSets::new();
        cs.add_pair(h(1), h(2));
        cs.add_pair(h(1), h(3));
        assert!(cs.remove_host(h(1)));
        assert!(!cs.remove_host(h(1)));
        assert!(!cs.contains(h(1)));
        assert_eq!(cs.connection_count(), 0);
        assert_eq!(cs.degree(h(2)), Some(0));
    }

    #[test]
    fn retain_hosts_strips_everything_else() {
        let mut cs = ConnectionSets::new();
        cs.add_pair(h(1), h(2));
        cs.add_pair(h(2), h(3));
        let keep: BTreeSet<_> = [h(2), h(3)].into_iter().collect();
        cs.retain_hosts(&keep);
        assert_eq!(cs.host_count(), 2);
        assert!(cs.connected(h(2), h(3)));
        assert!(!cs.contains(h(1)));
    }

    #[test]
    fn hosts_not_in_diff() {
        let mut a = ConnectionSets::new();
        a.add_pair(h(1), h(2));
        let mut b = ConnectionSets::new();
        b.add_pair(h(2), h(3));
        assert_eq!(a.hosts_not_in(&b), [h(1)].into_iter().collect());
        assert_eq!(b.hosts_not_in(&a), [h(3)].into_iter().collect());
    }

    #[test]
    fn builder_scope_filters_foreign_flows() {
        let scope: Cidr = "10.0.0.0/8".parse().unwrap();
        let mut b = ConnsetBuilder::new().scope([scope]);
        let inside = FlowRecord::pair("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap());
        let cross = FlowRecord::pair("10.0.0.1".parse().unwrap(), "8.8.8.8".parse().unwrap());
        b.add_record(&inside);
        b.add_record(&cross);
        let cs = b.build();
        assert_eq!(cs.host_count(), 2);
        assert_eq!(cs.connection_count(), 1);
    }

    #[test]
    fn builder_min_flows_filters_noise_but_keeps_hosts() {
        let mut b = ConnsetBuilder::new().min_flows(2);
        let f = FlowRecord::pair(h(1), h(2));
        b.add_record(&f);
        let g = FlowRecord::pair(h(3), h(4));
        b.add_record(&g);
        b.add_record(&g);
        let cs = b.build();
        assert!(!cs.connected(h(1), h(2)));
        assert!(cs.connected(h(3), h(4)));
        // Hosts 1 and 2 stay in the population with empty sets.
        assert_eq!(cs.degree(h(1)), Some(0));
        assert_eq!(cs.host_count(), 4);
    }

    #[test]
    fn build_with_stats_counts_filtered_input() {
        let mut b = ConnsetBuilder::new().min_flows(2);
        let noise = FlowRecord::pair(h(1), h(2));
        b.add_record(&noise);
        let real = FlowRecord::pair(h(3), h(4));
        b.add_record(&real);
        b.add_record(&real);
        let (cs, stats) = b.build_with_stats();
        assert_eq!(cs.connection_count(), 1);
        assert_eq!(stats.kept_flows, 2);
        assert_eq!(stats.dropped_flows, 1);
        assert_eq!(stats.dropped_pairs, 1);
    }

    #[test]
    fn builder_window_filters_by_start_time() {
        let mut b = ConnsetBuilder::new().window(TimeWindow::new(100, 200));
        let mut early = FlowRecord::pair(h(1), h(2));
        early.start_ms = 50;
        let mut inside = FlowRecord::pair(h(3), h(4));
        inside.start_ms = 150;
        b.add_record(&early);
        b.add_record(&inside);
        let cs = b.build();
        assert!(!cs.contains(h(1)));
        assert!(cs.connected(h(3), h(4)));
    }

    #[test]
    fn builder_folds_directions() {
        let mut b = ConnsetBuilder::new();
        let f = FlowRecord::pair(h(1), h(2));
        b.add_record(&f);
        b.add_record(&f.reversed());
        let cs = b.build();
        assert_eq!(cs.connection_count(), 1);
        assert_eq!(cs.pair_stats(h(1), h(2)).unwrap().flows, 2);
    }

    #[test]
    fn max_degree_is_kmax() {
        let mut cs = ConnectionSets::new();
        for n in 2..7 {
            cs.add_pair(h(1), h(n));
        }
        cs.add_pair(h(2), h(3));
        assert_eq!(cs.max_degree(), 5);
        assert_eq!(ConnectionSets::new().max_degree(), 0);
    }

    #[test]
    fn direction_counts_track_initiation() {
        let mut b = ConnsetBuilder::new();
        let client = h(1);
        let server = h(2);
        // Client opens three flows to the server; server never initiates.
        for _ in 0..3 {
            b.add_record(&FlowRecord::pair(client, server));
        }
        let cs = b.build();
        assert_eq!(cs.initiated_flows(client), 3);
        assert_eq!(cs.accepted_flows(client), 0);
        assert_eq!(cs.initiated_flows(server), 0);
        assert_eq!(cs.accepted_flows(server), 3);
        assert_eq!(cs.server_ratio(server), Some(1.0));
        assert_eq!(cs.server_ratio(client), Some(0.0));
        assert_eq!(cs.server_ratio(h(99)), None);
    }

    #[test]
    fn reply_flows_attribute_to_the_true_initiator() {
        let mut b = ConnsetBuilder::new();
        let mut req = FlowRecord::pair(h(1), h(2));
        req.src_port = 51_000;
        req.dst_port = 80;
        b.add_record(&req);
        // The observed reply: server back to client.
        b.add_record(&req.reversed());
        let cs = b.build();
        assert_eq!(cs.initiated_flows(h(1)), 2);
        assert_eq!(cs.accepted_flows(h(2)), 2);
        assert_eq!(cs.server_ratio(h(2)), Some(1.0));
    }

    #[test]
    fn direction_counts_survive_serde() {
        let mut b = ConnsetBuilder::new();
        b.add_record(&FlowRecord::pair(h(1), h(2)));
        let cs = b.build();
        let json = serde_json::to_string(&cs).unwrap();
        let back: ConnectionSets = serde_json::from_str(&json).unwrap();
        assert_eq!(back.initiated_flows(h(1)), 1);
        assert_eq!(back.accepted_flows(h(2)), 1);
    }

    #[test]
    fn serde_round_trip() {
        let mut cs = ConnectionSets::new();
        cs.add_pair(h(1), h(2));
        cs.add_pair(h(2), h(3));
        let json = serde_json::to_string(&cs).unwrap();
        let back: ConnectionSets = serde_json::from_str(&json).unwrap();
        assert_eq!(cs, back);
    }

    #[test]
    fn deserialize_rejects_unknown_pair_endpoints() {
        let json = r#"{"hosts":["0.0.0.1"],"pairs":[["0.0.0.1","0.0.0.2",{"flows":1,"packets":1,"bytes":64}]]}"#;
        assert!(serde_json::from_str::<ConnectionSets>(json).is_err());
    }

    #[test]
    fn neighbors_view_is_sorted_and_comparable() {
        let mut cs = ConnectionSets::new();
        cs.add_pair(h(5), h(1));
        cs.add_pair(h(5), h(9));
        cs.add_pair(h(5), h(3));
        let v = cs.neighbors(h(5)).unwrap();
        assert_eq!(v.len(), 3);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![h(1), h(3), h(9)]);
        assert!(v.contains(h(3)) && !v.contains(h(5)));
        // Equality compares address content across different connsets.
        let mut other = ConnectionSets::new();
        other.add_pair(h(5), h(3));
        other.add_pair(h(5), h(1));
        other.add_pair(h(5), h(9));
        other.add_pair(h(1), h(3)); // extra edge elsewhere, same C(5)
        assert_eq!(cs.neighbors(h(5)), other.neighbors(h(5)));
        assert_ne!(cs.neighbors(h(1)), other.neighbors(h(1)));
    }

    #[test]
    fn csr_rows_match_neighbor_views() {
        let mut cs = ConnectionSets::new();
        cs.add_pair(h(1), h(2));
        cs.add_pair(h(1), h(3));
        cs.add_pair(h(2), h(3));
        cs.add_host(h(7));
        let (offsets, nbrs) = cs.csr();
        assert_eq!(offsets.len(), cs.host_count() + 1);
        for (r, &a) in cs.member_addrs().iter().enumerate() {
            let row = &nbrs[offsets[r] as usize..offsets[r + 1] as usize];
            let via_view: Vec<HostAddr> = cs.neighbors(a).unwrap().iter().collect();
            let via_rows: Vec<HostAddr> =
                row.iter().map(|&n| cs.member_addrs()[n as usize]).collect();
            assert_eq!(via_view, via_rows);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "rows sorted");
        }
    }

    #[test]
    fn from_pairs_matches_incremental_build() {
        let hosts = [h(1), h(2), h(3), h(4), h(9)];
        let pair_list = [(h(2), h(1)), (h(1), h(2)), (h(3), h(1)), (h(4), h(3))];
        let bulk = ConnectionSets::from_pairs(hosts, pair_list);
        let mut inc = ConnectionSets::new();
        for x in hosts {
            inc.add_host(x);
        }
        for (a, b) in pair_list {
            inc.add_pair(a, b);
        }
        assert_eq!(bulk, inc);
        assert_eq!(bulk.pair_stats(h(1), h(2)).unwrap().flows, 2);
    }

    #[test]
    fn member_ids_are_dense_for_fresh_builds() {
        let mut b = ConnsetBuilder::new();
        b.add_record(&FlowRecord::pair(h(3), h(1)));
        b.add_record(&FlowRecord::pair(h(2), h(1)));
        let cs = b.build();
        // Fresh table, interned in address order: ids are 0..n.
        let ids: Vec<u32> = cs.member_ids().iter().map(|i| i.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(cs.table().addr(cs.host_id(h(2)).unwrap()), h(2));
    }

    #[test]
    fn shared_table_keeps_ids_stable_across_windows() {
        let mut master = HostTable::new();
        let mut b1 = ConnsetBuilder::new();
        b1.add_record(&FlowRecord::pair(h(1), h(2)));
        let (w1, _) = b1.build_with_stats_into(&mut master);
        let mut b2 = ConnsetBuilder::new();
        b2.add_record(&FlowRecord::pair(h(2), h(3)));
        let (w2, _) = b2.build_with_stats_into(&mut master);
        // Host 2 keeps its id in the second window; host 3 gets a new one.
        assert_eq!(w1.host_id(h(2)), w2.host_id(h(2)));
        assert_eq!(master.len(), 3);
        assert_eq!(w2.table().len(), 3);
    }
}

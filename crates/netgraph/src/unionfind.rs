//! Disjoint-set union (union-find) with path halving and union by size.

/// A disjoint-set forest over the dense indices `0..n`.
///
/// Used by [`crate::components`] and available to callers that need to
/// accumulate groupings incrementally (e.g., merging role groups).
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    sets: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            sets: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if there are no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently represented.
    pub fn set_count(&self) -> usize {
        self.sets
    }

    /// Finds the representative of `x`, compressing paths as it goes.
    ///
    /// # Panics
    ///
    /// Panics if `x >= self.len()`.
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            // Path halving: point to grandparent.
            let gp = self.parent[self.parent[x] as usize];
            self.parent[x] = gp;
            x = gp as usize;
        }
        x
    }

    /// Unions the sets of `a` and `b`; returns `true` if they were
    /// previously distinct.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        self.sets -= 1;
        true
    }

    /// Returns `true` if `a` and `b` belong to the same set.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Collects the current sets as sorted vectors of member indices.
    pub fn sets(&mut self) -> Vec<Vec<usize>> {
        use std::collections::HashMap;
        let mut by_root: HashMap<usize, Vec<usize>> = HashMap::new();
        for x in 0..self.len() {
            let r = self.find(x);
            by_root.entry(r).or_default().push(x);
        }
        let mut out: Vec<Vec<usize>> = by_root.into_values().collect();
        out.sort_by_key(|s| s[0]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_as_singletons() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.set_count(), 4);
        for i in 0..4 {
            assert_eq!(uf.find(i), i);
        }
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert_eq!(uf.set_count(), 3);
        assert!(uf.same(0, 2));
        assert!(!uf.same(0, 3));
    }

    #[test]
    fn sets_reports_all_members() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 4);
        uf.union(1, 2);
        let sets = uf.sets();
        assert_eq!(sets, vec![vec![0, 4], vec![1, 2], vec![3]]);
    }

    #[test]
    fn empty_union_find() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.set_count(), 0);
        assert!(uf.sets().is_empty());
    }

    #[test]
    fn long_chain_path_compresses() {
        let n = 10_000;
        let mut uf = UnionFind::new(n);
        for i in 0..n - 1 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.set_count(), 1);
        assert!(uf.same(0, n - 1));
    }
}

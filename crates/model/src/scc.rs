//! Strongly connected components: the workspace's one iterative Tarjan.
//!
//! Every reach structure in the workspace condenses a digraph before it
//! folds anything over it: the provider→provider consumption graph in
//! `core::reach` (indirect dependency chains can form cycles, and every
//! member of a cycle reaches the same sites) and the call graph and
//! lock-order graph in `webdeps-lint`. [`condense`] is the single
//! implementation they share; each caller keeps only its
//! per-component fold.
//!
//! The traversal is fully determined by its inputs: roots are tried in
//! ascending node id, and each node's successors are walked in exactly
//! the order the successor closure yields them. Components are numbered
//! in Tarjan emission order, which is reverse topological — every edge
//! that leaves a component points at a component with a *smaller* id —
//! so a fold over `0..len()` sees every successor component finished
//! before the component that consumes it.
//!
//! The successor closure returns an iterator rather than a slice so a
//! caller can filter a CSR row on the fly; for the reach index that is
//! cheaper than materializing a filtered adjacency first.

/// Component id of a node the filter excluded.
pub const EXCLUDED: u32 = u32::MAX;

/// The SCC condensation of a digraph over nodes `0..n`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Condensation {
    /// Node → component id ([`EXCLUDED`] for filtered-out nodes).
    comp_of: Vec<u32>,
    /// CSR row starts into `members`; `len() + 1` entries.
    offsets: Vec<u32>,
    /// Component members, grouped by component, each group in the
    /// order the Tarjan stack popped them (the component's root last).
    members: Vec<u32>,
}

impl Condensation {
    /// Node → component id, [`EXCLUDED`] for nodes the filter dropped.
    pub fn comp_of(&self) -> &[u32] {
        &self.comp_of
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Whether the condensation has no components.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The member nodes of component `c`.
    pub fn members(&self, c: usize) -> &[u32] {
        &self.members[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }

    /// Consumes the condensation, keeping only the node → component map.
    pub fn into_comp_of(self) -> Vec<u32> {
        self.comp_of
    }
}

/// Condenses the subgraph induced by the nodes `v < n` with
/// `include(v)`, whose out-edges are `successors(v)`. Successors that
/// `include` rejects are skipped.
///
/// Panics when `n` does not fit the `u32` component-id space.
pub fn condense<I, F>(n: usize, include: impl Fn(usize) -> bool, mut successors: F) -> Condensation
where
    I: IntoIterator<Item = usize>,
    F: FnMut(usize) -> I,
{
    assert!(
        u32::try_from(n).is_ok(),
        "scc: {n} nodes exhaust the u32 id space"
    );
    // `index_of` doubles as the visited marker (0 = unvisited, else
    // DFS index + 1).
    let mut index_of = vec![0u32; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut comp_of = vec![EXCLUDED; n];
    let mut offsets: Vec<u32> = vec![0];
    let mut members: Vec<u32> = Vec::new();
    let mut next_index = 1u32;
    // DFS frame: (node, its not-yet-walked successors).
    let mut dfs: Vec<(usize, I::IntoIter)> = Vec::new();

    for root in 0..n {
        if index_of[root] != 0 || !include(root) {
            continue;
        }
        let mut enter = Some(root);
        loop {
            if let Some(w) = enter.take() {
                index_of[w] = next_index;
                low[w] = next_index;
                next_index += 1;
                stack.push(w as u32);
                on_stack[w] = true;
                dfs.push((w, successors(w).into_iter()));
            }
            let Some((v, succ)) = dfs.last_mut() else {
                break;
            };
            let v = *v;
            if let Some(w) = succ.find(|&w| include(w)) {
                if index_of[w] == 0 {
                    enter = Some(w);
                } else if on_stack[w] {
                    low[v] = low[v].min(index_of[w]);
                }
                continue;
            }
            // v is exhausted: pop, merge its low link into the parent,
            // and emit a component when v is its root.
            dfs.pop();
            if let Some(&(p, _)) = dfs.last() {
                low[p] = low[p].min(low[v]);
            }
            if low[v] != index_of[v] {
                continue;
            }
            let c = (offsets.len() - 1) as u32;
            while let Some(w) = stack.pop() {
                on_stack[w as usize] = false;
                comp_of[w as usize] = c;
                members.push(w);
                if w as usize == v {
                    break;
                }
            }
            offsets.push(members.len() as u32);
        }
    }

    Condensation {
        comp_of,
        offsets,
        members,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adj_condense(adj: &[Vec<usize>]) -> Condensation {
        condense(adj.len(), |_| true, |v| adj[v].iter().copied())
    }

    #[test]
    fn cycles_collapse_and_ids_are_reverse_topological() {
        // 0 → 1 → 2 → 0 is one cycle; it feeds 3, which feeds the
        // self-contained pair 4 ⇄ 5.
        let adj = [vec![1], vec![2], vec![0, 3], vec![4], vec![5], vec![4]];
        let scc = adj_condense(&adj);
        assert_eq!(scc.len(), 3);
        assert_eq!(scc.comp_of(), &[2, 2, 2, 1, 0, 0]);
        assert_eq!(scc.members(0), &[5, 4]);
        assert_eq!(scc.members(1), &[3]);
        assert_eq!(scc.members(2), &[2, 1, 0]);
    }

    #[test]
    fn excluded_nodes_are_skipped_as_roots_and_successors() {
        // 1 is excluded, so 0 → 1 → 2 → 0 is no cycle.
        let adj = [vec![1], vec![2], vec![0]];
        let scc = condense(3, |v| v != 1, |v| adj[v].iter().copied());
        assert_eq!(scc.comp_of(), &[0, EXCLUDED, 1]);
        assert_eq!(scc.len(), 2);
    }

    #[test]
    fn empty_graph() {
        let scc = adj_condense(&[]);
        assert!(scc.is_empty());
        assert!(scc.comp_of().is_empty());
    }
}

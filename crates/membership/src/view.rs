use std::fmt;

use serde::{Deserialize, Serialize};

use pmcast_addr::{Address, Component, Depth, Prefix};
use pmcast_interest::{Event, Interest, InterestSummary};

use crate::{GroupTree, TreeTopology};

/// One line of a view table (Figure 2): a populated sibling subgroup,
/// identified by its *infix* (the next address component), with its
/// regrouped interests, its delegates (or the single neighbour process at
/// the leaf depth) and the total process count below it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ViewEntry {
    infix: Component,
    prefix: Prefix,
    delegates: Vec<Address>,
    summary: InterestSummary,
    process_count: usize,
}

impl ViewEntry {
    /// Creates a view entry.
    pub fn new(
        prefix: Prefix,
        delegates: Vec<Address>,
        summary: InterestSummary,
        process_count: usize,
    ) -> Self {
        let infix = prefix.last_component().unwrap_or(0);
        Self {
            infix,
            prefix,
            delegates,
            summary,
            process_count,
        }
    }

    /// The next address component distinguishing this subgroup from its
    /// siblings (the *Infix* column of Figure 2).
    pub fn infix(&self) -> Component {
        self.infix
    }

    /// The full prefix of the subgroup this entry describes.
    pub fn prefix(&self) -> &Prefix {
        &self.prefix
    }

    /// The delegates representing the subgroup (a single process at the leaf
    /// depth).
    pub fn delegates(&self) -> &[Address] {
        &self.delegates
    }

    /// The regrouped interests of all processes below the subgroup.
    pub fn summary(&self) -> &InterestSummary {
        &self.summary
    }

    /// The total number of processes below the subgroup (used by the
    /// round-estimation heuristics, Section 2.3 "Process count").
    pub fn process_count(&self) -> usize {
        self.process_count
    }

    /// Returns `true` if, according to the regrouped interests, some process
    /// below this subgroup is interested in the event.
    pub fn interested_in(&self, event: &Event) -> bool {
        self.summary.matches(event)
    }
}

impl fmt::Display for ViewEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} | {} | {} processes | delegates: ",
            self.infix, self.summary, self.process_count
        )?;
        let mut first = true;
        for d in &self.delegates {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
            first = false;
        }
        Ok(())
    }
}

/// The table a process holds for one depth of the tree: the populated
/// sibling subgroups below its own prefix of that depth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DepthTable {
    depth: Depth,
    prefix: Prefix,
    entries: Vec<ViewEntry>,
}

impl DepthTable {
    /// Creates the table of the given depth, under the given (own) prefix.
    pub fn new(depth: Depth, prefix: Prefix, entries: Vec<ViewEntry>) -> Self {
        Self {
            depth,
            prefix,
            entries,
        }
    }

    /// The depth of this table (1 = root level).
    pub fn depth(&self) -> Depth {
        self.depth
    }

    /// The prefix shared by all subgroups of this table (the owner's prefix
    /// of this depth).
    pub fn prefix(&self) -> &Prefix {
        &self.prefix
    }

    /// The view lines, ordered by infix.
    pub fn entries(&self) -> &[ViewEntry] {
        &self.entries
    }

    /// Returns the line describing the subgroup with the given infix.
    pub fn entry(&self, infix: Component) -> Option<&ViewEntry> {
        self.entries.iter().find(|e| e.infix == infix)
    }

    /// Number of lines (`|view[depth]|` in Figure 3).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if this table has no lines.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All processes appearing in this table (delegates of every line).
    pub fn known_processes(&self) -> Vec<Address> {
        let mut processes: Vec<Address> = self
            .entries
            .iter()
            .flat_map(|e| e.delegates.iter().cloned())
            .collect();
        processes.sort();
        processes.dedup();
        processes
    }

    /// Total number of processes represented (sum of line process counts).
    pub fn represented_processes(&self) -> usize {
        self.entries.iter().map(|e| e.process_count).sum()
    }

    /// The *matching rate* of an event at this depth: the fraction of lines
    /// whose regrouped interests match the event (the `GETRATE` function of
    /// Figure 3 evaluates hits over `|view[depth]| · R`; dividing hits by the
    /// line count gives the same rate because every line contributes `R`
    /// delegates).
    pub fn matching_rate(&self, event: &Event) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        let hits = self.entries.iter().filter(|e| e.interested_in(event)).count();
        hits as f64 / self.entries.len() as f64
    }
}

impl fmt::Display for DepthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "View of Depth {} (Prefix = {})", self.depth, self.prefix)?;
        for entry in &self.entries {
            writeln!(f, "  {entry}")?;
        }
        Ok(())
    }
}

/// The complete per-process membership state: one [`DepthTable`] per depth,
/// from the root (depth 1) down to the process's immediate neighbourhood
/// (depth `d`), exactly as pictured in Figure 2 of the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ViewTable {
    owner: Address,
    views: Vec<DepthTable>,
}

impl ViewTable {
    /// Creates a view table from its per-depth tables.
    ///
    /// # Panics
    ///
    /// Panics if `views` is empty or the depths are not `1..=d` in order.
    pub fn new(owner: Address, views: Vec<DepthTable>) -> Self {
        assert!(!views.is_empty(), "a view table has at least one depth");
        for (index, view) in views.iter().enumerate() {
            assert_eq!(view.depth(), index + 1, "views must be ordered by depth");
        }
        Self { owner, views }
    }

    /// Builds the table of the given member from the authoritative group
    /// tree (what the bootstrap/contact procedure of Section 2.3 transfers
    /// to a joining process).
    pub fn build(tree: &GroupTree, owner: &Address, r: usize) -> Self {
        let depth = tree.depth();
        let mut views = Vec::with_capacity(depth);
        for view_depth in 1..=depth {
            let parent = owner.prefix_of_depth(view_depth);
            let mut entries = Vec::new();
            if view_depth == depth {
                for neighbour in tree.members_under(&parent) {
                    let summary = InterestSummary::from_filters(
                        tree.subscription(&neighbour).cloned(),
                    );
                    entries.push(ViewEntry::new(
                        neighbour.as_prefix(),
                        vec![neighbour.clone()],
                        summary,
                        1,
                    ));
                }
            } else {
                for component in tree.populated_children(&parent) {
                    let child = parent.child(component);
                    entries.push(ViewEntry::new(
                        child.clone(),
                        tree.delegates(&child, r),
                        tree.subtree_summary(&child),
                        tree.subtree_size(&child),
                    ));
                }
            }
            views.push(DepthTable::new(view_depth, parent, entries));
        }
        Self {
            owner: owner.clone(),
            views,
        }
    }

    /// The process owning this table.
    pub fn owner(&self) -> &Address {
        &self.owner
    }

    /// The tree depth `d` covered by this table.
    pub fn depth(&self) -> Depth {
        self.views.len()
    }

    /// The table of the given depth (1-based).
    ///
    /// # Panics
    ///
    /// Panics if the depth is out of range.
    pub fn view(&self, depth: Depth) -> &DepthTable {
        assert!(
            depth >= 1 && depth <= self.views.len(),
            "depth {depth} out of range 1..={}",
            self.views.len()
        );
        &self.views[depth - 1]
    }

    /// Iterates over the per-depth tables from the root depth downwards.
    pub fn iter(&self) -> impl Iterator<Item = &DepthTable> {
        self.views.iter()
    }

    /// Total number of process entries known by the owner across all depths
    /// (Equation 2 of the paper).
    pub fn knowledge_size(&self) -> usize {
        self.views
            .iter()
            .map(|view| {
                view.entries()
                    .iter()
                    .map(|e| e.delegates().len())
                    .sum::<usize>()
            })
            .sum()
    }

    /// Rough memory footprint of the table in bytes (address components plus
    /// interest summaries), used to validate the membership-scalability
    /// claim experimentally.
    pub fn footprint(&self) -> usize {
        self.views
            .iter()
            .flat_map(|view| view.entries())
            .map(|e| {
                e.delegates()
                    .iter()
                    .map(|d| std::mem::size_of_val(d.components()))
                    .sum::<usize>()
                    + e.summary().footprint()
                    + std::mem::size_of::<usize>()
            })
            .sum()
    }
}

impl fmt::Display for ViewTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "View table of {}", self.owner)?;
        for view in &self.views {
            write!(f, "{view}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcast_addr::AddressSpace;
    use pmcast_interest::{Filter, Predicate};

    fn small_tree() -> GroupTree {
        let space = AddressSpace::regular(3, 3).unwrap();
        let mut tree = GroupTree::new(space.clone());
        for (index, address) in space.iter().enumerate() {
            // Half the processes want b > 0, the other half want b < 0.
            let filter = if index % 2 == 0 {
                Filter::new().with("b", Predicate::gt(0.0))
            } else {
                Filter::new().with("b", Predicate::lt(0.0))
            };
            tree.join(address, filter).unwrap();
        }
        tree
    }

    #[test]
    fn build_produces_one_view_per_depth() {
        let tree = small_tree();
        let owner: Address = "1.2.0".parse().unwrap();
        let table = ViewTable::build(&tree, &owner, 2);
        assert_eq!(table.depth(), 3);
        assert_eq!(table.owner(), &owner);
        // Depth 1: one line per depth-2 subgroup (3 of them), R delegates each.
        assert_eq!(table.view(1).len(), 3);
        assert!(table.view(1).entries().iter().all(|e| e.delegates().len() == 2));
        // Depth 3: the owner's 3 immediate neighbours, one process per line.
        assert_eq!(table.view(3).len(), 3);
        assert!(table.view(3).entries().iter().all(|e| e.delegates().len() == 1));
        assert_eq!(table.view(3).prefix(), &owner.prefix_of_depth(3));
    }

    #[test]
    fn knowledge_size_matches_equation_2() {
        let tree = small_tree();
        let owner: Address = "2.2.2".parse().unwrap();
        let table = ViewTable::build(&tree, &owner, 2);
        // R·a·(d−1) + a = 2·3·2 + 3 = 15.
        assert_eq!(table.knowledge_size(), 15);
        assert!(table.footprint() > 0);
    }

    #[test]
    fn matching_rate_reflects_interests() {
        let tree = small_tree();
        let owner: Address = "0.0.0".parse().unwrap();
        let table = ViewTable::build(&tree, &owner, 2);
        let hot = Event::builder(1).int("b", 5).build();
        // Every depth-2 subgroup contains both kinds of subscribers, so all
        // lines of depth 1 match: rate 1.0.
        assert!((table.view(1).matching_rate(&hot) - 1.0).abs() < f64::EPSILON);
        // At the leaf depth roughly half the neighbours match.
        let leaf_rate = table.view(3).matching_rate(&hot);
        assert!(leaf_rate > 0.0 && leaf_rate < 1.0);
        // An event matching nobody has rate 0 at every depth.
        let nobody = Event::builder(2).str("e", "Eve").build();
        for depth in 1..=3 {
            assert_eq!(table.view(depth).matching_rate(&nobody), 0.0);
        }
    }

    #[test]
    fn entry_accessors_and_lookup() {
        let tree = small_tree();
        let table = ViewTable::build(&tree, &"0.0.0".parse().unwrap(), 2);
        let view = table.view(2);
        assert_eq!(view.depth(), 2);
        let entry = view.entry(1).expect("subgroup 0.1 is populated");
        assert_eq!(entry.infix(), 1);
        assert_eq!(entry.prefix(), &Prefix::from_components(vec![0, 1]));
        assert_eq!(entry.process_count(), 3);
        assert!(view.entry(9).is_none());
        assert_eq!(view.known_processes().len(), 6);
        assert_eq!(view.represented_processes(), 9);
        assert!(!view.is_empty());
    }

    #[test]
    fn display_renders_figure_2_like_tables() {
        let tree = small_tree();
        let table = ViewTable::build(&tree, &"0.0.0".parse().unwrap(), 2);
        let text = table.to_string();
        assert!(text.contains("View of Depth 1"));
        assert!(text.contains("View of Depth 3"));
        assert!(text.contains("processes"));
    }

    #[test]
    #[should_panic(expected = "ordered by depth")]
    fn new_rejects_out_of_order_views() {
        let owner: Address = "0.0.0".parse().unwrap();
        let view = DepthTable::new(2, Prefix::root(), vec![]);
        let _ = ViewTable::new(owner, vec![view]);
    }

    #[test]
    fn view_and_entry_serde_round_trip() {
        let tree = small_tree();
        let table = ViewTable::build(&tree, &"1.1.1".parse().unwrap(), 2);
        let json = serde_json::to_string(&table).unwrap();
        let back: ViewTable = serde_json::from_str(&json).unwrap();
        assert_eq!(table, back);
    }
}

use std::collections::{BTreeMap, BTreeSet};

use pmcast_addr::{Address, AddressSpace, Component, Prefix};
use pmcast_interest::{Event, Filter, Interest, InterestSummary};

use crate::{MembershipError, TreeTopology, ViewTable};

/// An explicit group membership: the set of populated addresses together
/// with each process's subscription.
///
/// `GroupTree` is the reference (oracle-side) implementation of the tree of
/// Section 2: it supports arbitrary populated subsets of the address space,
/// joins and leaves, per-subtree process counts, regrouped interest
/// summaries and per-process view-table construction (Figure 2).  It is the
/// structure a simulation or a bootstrap service would hold; individual
/// processes hold only their [`ViewTable`].
///
/// # Example
///
/// ```rust
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use pmcast_addr::{AddressSpace, Prefix};
/// use pmcast_interest::{Filter, Predicate};
/// use pmcast_membership::{GroupTree, TreeTopology};
///
/// let space = AddressSpace::regular(2, 8)?;
/// let mut tree = GroupTree::new(space);
/// tree.join("0.1".parse()?, Filter::new().with("b", Predicate::gt(0.0)))?;
/// tree.join("0.5".parse()?, Filter::new().with("b", Predicate::lt(0.0)))?;
/// tree.join("3.2".parse()?, Filter::match_all())?;
///
/// assert_eq!(tree.member_count(), 3);
/// assert_eq!(tree.subtree_size(&Prefix::from_components(vec![0])), 2);
/// assert_eq!(tree.populated_children(&Prefix::root()), vec![0, 3]);
/// # Ok(())
/// # }
/// ```
pub struct GroupTree {
    space: AddressSpace,
    members: BTreeMap<Address, Filter>,
    /// Number of processes below every populated prefix (including the root
    /// and full addresses).
    subtree_counts: BTreeMap<Prefix, usize>,
    /// Populated child components of every populated internal prefix.
    children: BTreeMap<Prefix, BTreeSet<Component>>,
}

impl std::fmt::Debug for GroupTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupTree")
            .field("space", &self.space)
            .field("member_count", &self.members.len())
            .finish_non_exhaustive()
    }
}

impl GroupTree {
    /// Creates an empty group over the given address space.
    pub fn new(space: AddressSpace) -> Self {
        Self {
            space,
            members: BTreeMap::new(),
            subtree_counts: BTreeMap::new(),
            children: BTreeMap::new(),
        }
    }

    /// Creates a fully populated group where every process uses the given
    /// subscription.  Intended for tests and examples over small spaces.
    pub fn fully_populated(space: AddressSpace, filter: Filter) -> Self {
        let mut tree = Self::new(space.clone());
        for address in space.iter() {
            tree.join(address, filter.clone())
                .expect("addresses from the space are valid and unique");
        }
        tree
    }

    /// Adds a process with its subscription.
    ///
    /// # Errors
    ///
    /// Returns an error if the address is invalid for the space or already a
    /// member.
    pub fn join(&mut self, address: Address, filter: Filter) -> Result<(), MembershipError> {
        self.space.validate(&address)?;
        if self.members.contains_key(&address) {
            return Err(MembershipError::AlreadyMember(address));
        }
        // Count the process under every one of its prefixes (from the root
        // down to its full address) and record the populated child links.
        for len in 0..=self.space.depth() {
            let prefix = Prefix::from_components(address.components()[..len].to_vec());
            *self.subtree_counts.entry(prefix.clone()).or_insert(0) += 1;
            if len < self.space.depth() {
                self.children
                    .entry(prefix)
                    .or_default()
                    .insert(address.components()[len]);
            }
        }
        self.members.insert(address, filter);
        Ok(())
    }

    /// Removes a process (graceful leave or crash exclusion).
    ///
    /// # Errors
    ///
    /// Returns an error if the address is not a member.
    pub fn leave(&mut self, address: &Address) -> Result<Filter, MembershipError> {
        let filter = self
            .members
            .remove(address)
            .ok_or_else(|| MembershipError::NotAMember(address.clone()))?;
        // Decrement the process count of every prefix of the address.
        for len in 0..=self.space.depth() {
            let prefix = Prefix::from_components(address.components()[..len].to_vec());
            if let Some(count) = self.subtree_counts.get_mut(&prefix) {
                *count -= 1;
                if *count == 0 {
                    self.subtree_counts.remove(&prefix);
                }
            }
        }
        // Remove child links whose subtree emptied out.
        for len in 0..self.space.depth() {
            let parent = Prefix::from_components(address.components()[..len].to_vec());
            let child = parent.child(address.components()[len]);
            if !self.subtree_counts.contains_key(&child) {
                if let Some(set) = self.children.get_mut(&parent) {
                    set.remove(&address.components()[len]);
                    if set.is_empty() {
                        self.children.remove(&parent);
                    }
                }
            }
        }
        Ok(filter)
    }

    /// Replaces a member's subscription, returning the previous one.
    ///
    /// # Errors
    ///
    /// Returns an error if the address is not a member.
    pub fn resubscribe(
        &mut self,
        address: &Address,
        filter: Filter,
    ) -> Result<Filter, MembershipError> {
        match self.members.get_mut(address) {
            Some(existing) => Ok(std::mem::replace(existing, filter)),
            None => Err(MembershipError::NotAMember(address.clone())),
        }
    }

    /// Returns a member's subscription.
    pub fn subscription(&self, address: &Address) -> Option<&Filter> {
        self.members.get(address)
    }

    /// Iterates over `(address, subscription)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (&Address, &Filter)> {
        self.members.iter()
    }

    /// The regrouped interests of the whole subtree below the prefix
    /// (Section 2.3: interest regrouping).
    pub fn subtree_summary(&self, prefix: &Prefix) -> InterestSummary {
        InterestSummary::from_filters(
            self.members_range(prefix).map(|(_, filter)| filter.clone()),
        )
    }

    /// Number of processes below the prefix interested in the given event,
    /// evaluated exactly against the individual subscriptions.
    pub fn interested_count_under(&self, prefix: &Prefix, event: &Event) -> usize {
        self.members_range(prefix)
            .filter(|(_, filter)| filter.matches(event))
            .count()
    }

    /// The processes below the prefix interested in the given event.
    pub fn interested_under(&self, prefix: &Prefix, event: &Event) -> Vec<Address> {
        self.members_range(prefix)
            .filter(|(_, filter)| filter.matches(event))
            .map(|(address, _)| address.clone())
            .collect()
    }

    /// Builds the per-depth view table of a member process (Figure 2),
    /// including delegate lists, regrouped interests and process counts.
    ///
    /// # Errors
    ///
    /// Returns an error if the address is not a member.
    pub fn view_table_for(
        &self,
        address: &Address,
        r: usize,
    ) -> Result<ViewTable, MembershipError> {
        if !self.members.contains_key(address) {
            return Err(MembershipError::NotAMember(address.clone()));
        }
        Ok(ViewTable::build(self, address, r))
    }

    /// Iterates over the members below a prefix without allocating.
    fn members_range(&self, prefix: &Prefix) -> impl Iterator<Item = (&Address, &Filter)> {
        // Addresses sharing a prefix are contiguous in the ordered map; a
        // range scan from the first possible address under the prefix until
        // the prefix no longer matches enumerates exactly the subtree.
        let prefix = prefix.clone();
        self.members
            .range(std::ops::RangeFrom {
                start: lower_bound_address(&prefix, &self.space),
            })
            .take_while(move |(address, _)| address.has_prefix(&prefix))
    }
}

/// Smallest possible address under a prefix (used as a range scan lower
/// bound).  For the root prefix this is the all-zero address.
fn lower_bound_address(prefix: &Prefix, space: &AddressSpace) -> Address {
    let mut components = prefix.components().to_vec();
    components.resize(space.depth(), 0);
    Address::new(components)
}

impl TreeTopology for GroupTree {
    fn space(&self) -> &AddressSpace {
        &self.space
    }

    fn member_count(&self) -> usize {
        self.members.len()
    }

    fn contains(&self, address: &Address) -> bool {
        self.members.contains_key(address)
    }

    fn members(&self) -> Vec<Address> {
        self.members.keys().cloned().collect()
    }

    fn populated_children(&self, prefix: &Prefix) -> Vec<Component> {
        self.children
            .get(prefix)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default()
    }

    fn subtree_size(&self, prefix: &Prefix) -> usize {
        if prefix.is_empty() {
            return self.members.len();
        }
        self.subtree_counts.get(prefix).copied().unwrap_or(0)
    }

    /// The paper's election rule (Section 2.3): the `r` smallest member
    /// addresses below the prefix, so every process agrees on the same
    /// delegates without an agreement protocol.
    fn delegates(&self, prefix: &Prefix, r: usize) -> Vec<Address> {
        self.members_range(prefix)
            .take(r)
            .map(|(address, _)| address.clone())
            .collect()
    }

    fn members_under(&self, prefix: &Prefix) -> Vec<Address> {
        self.members_range(prefix)
            .map(|(address, _)| address.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcast_interest::Predicate;

    fn space() -> AddressSpace {
        AddressSpace::regular(3, 4).unwrap()
    }

    fn populated_tree() -> GroupTree {
        GroupTree::fully_populated(space(), Filter::match_all())
    }

    #[test]
    fn join_and_leave_maintain_counts() {
        let mut tree = GroupTree::new(space());
        assert_eq!(tree.member_count(), 0);
        tree.join("0.1.2".parse().unwrap(), Filter::match_all()).unwrap();
        tree.join("0.1.3".parse().unwrap(), Filter::match_all()).unwrap();
        tree.join("2.0.0".parse().unwrap(), Filter::match_all()).unwrap();
        assert_eq!(tree.member_count(), 3);
        assert_eq!(tree.subtree_size(&Prefix::from_components(vec![0])), 2);
        assert_eq!(tree.subtree_size(&Prefix::from_components(vec![0, 1])), 2);
        assert_eq!(tree.subtree_size(&Prefix::from_components(vec![2])), 1);
        assert_eq!(tree.subtree_size(&Prefix::from_components(vec![3])), 0);
        assert_eq!(tree.populated_children(&Prefix::root()), vec![0, 2]);

        tree.leave(&"0.1.3".parse().unwrap()).unwrap();
        assert_eq!(tree.member_count(), 2);
        assert_eq!(tree.subtree_size(&Prefix::from_components(vec![0, 1])), 1);
        tree.leave(&"0.1.2".parse().unwrap()).unwrap();
        assert_eq!(tree.subtree_size(&Prefix::from_components(vec![0])), 0);
        assert_eq!(tree.populated_children(&Prefix::root()), vec![2]);
    }

    #[test]
    fn join_rejects_duplicates_and_invalid_addresses() {
        let mut tree = GroupTree::new(space());
        let address: Address = "1.1.1".parse().unwrap();
        tree.join(address.clone(), Filter::match_all()).unwrap();
        assert_eq!(
            tree.join(address.clone(), Filter::match_all()),
            Err(MembershipError::AlreadyMember(address))
        );
        assert!(matches!(
            tree.join("9.9.9".parse().unwrap(), Filter::match_all()),
            Err(MembershipError::InvalidAddress(_))
        ));
        assert!(matches!(
            tree.join("1.1".parse().unwrap(), Filter::match_all()),
            Err(MembershipError::InvalidAddress(_))
        ));
    }

    #[test]
    fn leave_rejects_non_members() {
        let mut tree = GroupTree::new(space());
        assert!(matches!(
            tree.leave(&"1.1.1".parse().unwrap()),
            Err(MembershipError::NotAMember(_))
        ));
    }

    #[test]
    fn delegates_are_deterministic_smallest() {
        let tree = populated_tree();
        let delegates = tree.delegates(&Prefix::from_components(vec![1]), 3);
        let rendered: Vec<String> = delegates.iter().map(|a| a.to_string()).collect();
        assert_eq!(rendered, vec!["1.0.0", "1.0.1", "1.0.2"]);
    }

    #[test]
    fn explicit_and_implicit_trees_agree_when_fully_populated() {
        let explicit = populated_tree();
        let implicit = crate::ImplicitRegularTree::new(space());
        assert_eq!(explicit.member_count(), implicit.member_count());
        for prefix in [
            Prefix::root(),
            Prefix::from_components(vec![2]),
            Prefix::from_components(vec![3, 1]),
        ] {
            assert_eq!(explicit.subtree_size(&prefix), implicit.subtree_size(&prefix));
            assert_eq!(
                explicit.populated_children(&prefix),
                implicit.populated_children(&prefix)
            );
            assert_eq!(explicit.delegates(&prefix, 3), implicit.delegates(&prefix, 3));
        }
        let address: Address = "2.3.1".parse().unwrap();
        assert_eq!(
            explicit.view_of(&address, 2, 3),
            implicit.view_of(&address, 2, 3)
        );
        assert_eq!(
            explicit.knowledge_size(&address, 3),
            implicit.knowledge_size(&address, 3)
        );
    }

    #[test]
    fn subscriptions_and_interest_queries() {
        let mut tree = GroupTree::new(space());
        tree.join(
            "0.0.0".parse().unwrap(),
            Filter::new().with("b", Predicate::gt(5.0)),
        )
        .unwrap();
        tree.join(
            "0.1.0".parse().unwrap(),
            Filter::new().with("b", Predicate::lt(0.0)),
        )
        .unwrap();
        tree.join(
            "3.0.0".parse().unwrap(),
            Filter::new().with("e", Predicate::eq_str("Bob")),
        )
        .unwrap();

        let hot = Event::builder(1).int("b", 10).build();
        let cold = Event::builder(2).int("b", -3).build();
        let bob = Event::builder(3).str("e", "Bob").build();

        let zero_subtree = Prefix::from_components(vec![0]);
        assert_eq!(tree.interested_count_under(&zero_subtree, &hot), 1);
        assert_eq!(tree.interested_count_under(&zero_subtree, &cold), 1);
        assert_eq!(tree.interested_count_under(&zero_subtree, &bob), 0);
        assert_eq!(tree.interested_count_under(&Prefix::root(), &bob), 1);
        assert_eq!(
            tree.interested_under(&Prefix::root(), &hot),
            vec!["0.0.0".parse::<Address>().unwrap()]
        );

        // The regrouped summary of subtree 0 accepts both hot and cold.
        let summary = tree.subtree_summary(&zero_subtree);
        assert!(summary.matches(&hot));
        assert!(summary.matches(&cold));
        assert!(!summary.matches(&bob));
    }

    #[test]
    fn resubscribe_changes_matching() {
        let mut tree = GroupTree::new(space());
        let address: Address = "1.2.3".parse().unwrap();
        tree.join(address.clone(), Filter::new().with("b", Predicate::gt(0.0)))
            .unwrap();
        let event = Event::builder(1).int("b", -1).build();
        assert_eq!(tree.interested_count_under(&Prefix::root(), &event), 0);
        let previous = tree
            .resubscribe(&address, Filter::new().with("b", Predicate::lt(0.0)))
            .unwrap();
        assert_eq!(previous, Filter::new().with("b", Predicate::gt(0.0)));
        assert_eq!(tree.interested_count_under(&Prefix::root(), &event), 1);
        assert!(tree
            .resubscribe(&"0.0.0".parse().unwrap(), Filter::match_all())
            .is_err());
    }

    #[test]
    fn view_table_for_requires_membership() {
        let tree = populated_tree();
        assert!(tree.view_table_for(&"0.0.0".parse().unwrap(), 3).is_ok());
        let mut partial = GroupTree::new(space());
        partial
            .join("0.0.0".parse().unwrap(), Filter::match_all())
            .unwrap();
        assert!(partial.view_table_for(&"1.1.1".parse().unwrap(), 3).is_err());
    }

    #[test]
    fn members_iteration_is_sorted() {
        let tree = populated_tree();
        let members = tree.members();
        let mut sorted = members.clone();
        sorted.sort();
        assert_eq!(members, sorted);
        assert_eq!(tree.iter().count(), 64);
    }
}

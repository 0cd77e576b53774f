//! [`RouteBatch`]: the messages of one routed step, stored flat.

use crate::{ModelError, NodeId, Words};

/// The messages of one routed step whose recipients the caller simulates
/// locally ([`crate::Communicator::route_batch`]).
///
/// Messages are stored flat: one `(src, dst)` pair per message, in
/// staging order, plus one contiguous word buffer that holds every
/// payload back to back. A caller keeps one batch, and
/// [`clear`](RouteBatch::clear)s and refills it on every step, so a warm
/// batch stages a step without allocating.
///
/// ```
/// use cc_model::{Clique, Communicator, RouteBatch};
///
/// let mut clique = Clique::new(4);
/// let mut batch = RouteBatch::new();
/// batch.push(0, 3, [7, 8]);
/// batch.push(2, 3, [9]);
/// clique.route_batch(&batch).unwrap();
/// assert_eq!(clique.ledger().total_rounds(), clique.config().lenzen_rounds);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RouteBatch {
    /// `(src, dst, end)` per message: `words[previous end..end]` is the
    /// payload.
    messages: Vec<(NodeId, NodeId, usize)>,
    words: Words,
}

impl RouteBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes every message, keeping the buffers' capacity.
    pub fn clear(&mut self) {
        self.messages.clear();
        self.words.clear();
    }

    /// Stages one message from `src` to `dst`.
    pub fn push(&mut self, src: NodeId, dst: NodeId, payload: impl IntoIterator<Item = u64>) {
        self.words.extend(payload);
        self.messages.push((src, dst, self.words.len()));
    }

    /// The staged messages as `(src, dst, payload)`, in staging order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId, &[u64])> + '_ {
        let starts = std::iter::once(0).chain(self.messages.iter().map(|&(_, _, end)| end));
        (self.messages.iter().zip(starts))
            .map(|(&(src, dst, end), start)| (src, dst, &self.words[start..end]))
    }

    /// [`ModelError::InvalidNode`] for the first staged source, in
    /// staging order, that is not a node of an `n`-clique.
    pub(crate) fn check_sources(&self, n: usize) -> Result<(), ModelError> {
        match self.messages.iter().find(|&&(src, _, _)| src >= n) {
            Some(&(node, _, _)) => Err(ModelError::InvalidNode { node, n }),
            None => Ok(()),
        }
    }

    /// The owned outboxes [`crate::Communicator::route`] takes: `n` rows,
    /// each holding its source's messages in staging order.
    /// Destinations are not checked; `route` checks them.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidNode`] for the first out-of-range source in
    /// staging order.
    pub fn outboxes(&self, n: usize) -> Result<Vec<Vec<(NodeId, Words)>>, ModelError> {
        self.check_sources(n)?;
        let mut outboxes = vec![Vec::new(); n];
        for (src, dst, payload) in self.iter() {
            outboxes[src].push((dst, payload.to_vec()));
        }
        Ok(outboxes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outboxes_keep_staging_order_per_source() {
        let mut batch = RouteBatch::new();
        batch.push(2, 0, [1, 2]);
        batch.push(0, 1, []);
        batch.push(2, 1, [3]);
        let outboxes = batch.outboxes(3).unwrap();
        assert_eq!(
            outboxes,
            vec![
                vec![(1, vec![])],
                vec![],
                vec![(0, vec![1, 2]), (1, vec![3])]
            ]
        );
        batch.clear();
        assert_eq!(batch.iter().count(), 0);
        assert_eq!(batch.outboxes(3).unwrap(), vec![Vec::new(); 3]);
    }

    #[test]
    fn out_of_range_source_is_the_first_in_staging_order() {
        let mut batch = RouteBatch::new();
        batch.push(0, 9, [1]);
        batch.push(7, 0, [1]);
        batch.push(5, 0, [1]);
        assert_eq!(
            batch.outboxes(3).unwrap_err(),
            ModelError::InvalidNode { node: 7, n: 3 }
        );
    }
}

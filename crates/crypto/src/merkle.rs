//! Merkle trees and inclusion proofs.
//!
//! Basil replicas amortize signature generation by batching replies: the
//! replica builds a Merkle tree over the batch, signs only the root, and sends
//! each client its own reply together with the sibling path needed to
//! recompute the root (Section 4.4, Figure 2). This module provides the tree
//! and proof machinery — the one-shot [`MerkleTree`] and the incremental
//! [`MerkleFrontier`] used on the reply-batching hot path; [`crate::batch`]
//! wires them to signing.
//!
//! ## Hashing
//!
//! A **leaf** is `SHA-256(0x00 ‖ payload)`: payloads vary in length, so they
//! get the full hash with its length padding.
//!
//! An **interior node** is one application of the SHA-256 compression
//! function: the 64-byte block `left ‖ right` absorbed into `NODE_IV`, the
//! chaining value SHA-256 reaches after the constant block `NODE_TAG`. In
//! other words, the state of `SHA-256(NODE_TAG ‖ left ‖ right)` before its
//! final padding block. SHA-256's padding (Merkle–Damgård strengthening)
//! exists to keep inputs of *different lengths* from colliding; every
//! interior input is exactly 64 bytes, so there is nothing for it to
//! separate, and what remains — two different `left ‖ right` blocks giving
//! one output under a fixed chaining value — is a collision of the
//! compression function itself, the assumption SHA-256's own security proof
//! starts from. This halves the cost of an interior node against
//! `SHA-256(0x01 ‖ left ‖ right)` (65 bytes: two compressions and a
//! finalisation).
//!
//! Leaf and interior domains stay separate: every leaf input starts with
//! `0x00` and `NODE_TAG` starts with `0x01`, so no leaf computation passes
//! through `NODE_IV`, and a leaf digest equal to a node digest would again be
//! a compression-function collision (between different chaining values).
//! That is what stops a two-leaf root from being presented as the one-leaf
//! root of the payload `left ‖ right`.

use crate::digest::Digest;
use crate::sha256::{self, Sha256};

/// Domain-separation prefix of leaf hashes.
const LEAF_PREFIX: &[u8] = &[0x00];

/// The constant block whose absorption defines the interior-node domain: a
/// label, zero-filled. Its first byte differs from [`LEAF_PREFIX`].
const NODE_TAG: [u8; 64] = {
    let label = b"\x01basil-crypto/merkle/interior-node/v1";
    let mut block = [0u8; 64];
    block.split_at_mut(label.len()).0.copy_from_slice(label);
    block
};

/// SHA-256 chaining value after [`NODE_TAG`]; interior nodes start from it.
const NODE_IV: [u32; 8] = sha256::chaining_value_after(&NODE_TAG);

/// Hashes a leaf payload.
pub fn leaf_hash(data: &[u8]) -> Digest {
    Sha256::digest_parts(&[LEAF_PREFIX, data])
}

/// Hashes two child digests into a parent digest: one compression of
/// `left ‖ right` under the interior-node chaining value (see the module
/// docs).
pub fn node_hash(left: &Digest, right: &Digest) -> Digest {
    let mut block = [0u8; 64];
    block[..32].copy_from_slice(left.as_bytes());
    block[32..].copy_from_slice(right.as_bytes());
    sha256::compress_fixed(&NODE_IV, &block)
}

/// A Merkle tree over a batch of leaf payloads.
///
/// The tree keeps every level so inclusion proofs can be extracted for any
/// leaf. An odd node at the end of a level is promoted (paired with itself is
/// avoided; we copy it up unchanged), matching the common "Bitcoin-style
/// duplicate-free" construction.
#[derive(Clone, Debug)]
pub struct MerkleTree {
    /// `levels[0]` holds the leaf hashes; the last level holds the root only.
    levels: Vec<Vec<Digest>>,
}

/// An inclusion proof: the sibling digests from the leaf up to the root,
/// together with the leaf's index (the index encodes left/right orientation
/// at each level).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf within the batch.
    pub leaf_index: usize,
    /// Number of leaves in the batch.
    pub leaf_count: usize,
    /// Sibling hashes from the leaf level upward. Levels where the node has
    /// no sibling (odd tail) contribute `None`.
    pub siblings: Vec<Option<Digest>>,
}

/// Extracts the inclusion proof for leaf `index` from fully materialized
/// levels (`levels[0]` = leaf hashes, last level = root). Shared by
/// [`MerkleTree::prove`] and [`SealedFrontier::prove`] so the two
/// constructions emit bit-identical proofs.
fn prove_levels(levels: &[Vec<Digest>], index: usize) -> MerkleProof {
    let leaf_count = levels[0].len();
    assert!(index < leaf_count, "leaf index out of range");
    let mut siblings = Vec::with_capacity(levels.len().saturating_sub(1));
    let mut idx = index;
    for level in &levels[..levels.len() - 1] {
        let sibling_idx = if idx.is_multiple_of(2) {
            idx + 1
        } else {
            idx - 1
        };
        siblings.push(level.get(sibling_idx).copied());
        idx /= 2;
    }
    MerkleProof {
        leaf_index: index,
        leaf_count,
        siblings,
    }
}

impl MerkleTree {
    /// Builds a tree over the given leaf payloads. Panics if `leaves` is empty.
    pub fn build<T: AsRef<[u8]>>(leaves: &[T]) -> Self {
        assert!(!leaves.is_empty(), "Merkle tree needs at least one leaf");
        let leaf_level: Vec<Digest> = leaves.iter().map(|l| leaf_hash(l.as_ref())).collect();
        Self::from_leaf_hashes(leaf_level)
    }

    /// Builds a tree from already-hashed leaves.
    pub fn from_leaf_hashes(leaf_level: Vec<Digest>) -> Self {
        assert!(
            !leaf_level.is_empty(),
            "Merkle tree needs at least one leaf"
        );
        let mut levels = vec![leaf_level];
        while levels.last().expect("non-empty").len() > 1 {
            let prev = levels.last().expect("non-empty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            let mut i = 0;
            while i < prev.len() {
                if i + 1 < prev.len() {
                    next.push(node_hash(&prev[i], &prev[i + 1]));
                } else {
                    // Odd tail: promote unchanged.
                    next.push(prev[i]);
                }
                i += 2;
            }
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// The root digest of the tree.
    pub fn root(&self) -> Digest {
        self.levels.last().expect("non-empty")[0]
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.levels[0].len()
    }

    /// Extracts the inclusion proof for leaf `index`. Panics if out of range.
    pub fn prove(&self, index: usize) -> MerkleProof {
        prove_levels(&self.levels, index)
    }
}

/// An incremental Merkle accumulator for reply batching.
///
/// [`MerkleTree::build`] re-hashes every leaf at flush time, so a batch of
/// `b` replies pays `O(b)` leaf hashes plus the full interior rebuild in one
/// burst on the flush path. The frontier instead hashes each leaf when it is
/// appended and eagerly folds completed sibling pairs upward (a binary-carry
/// walk: amortized `O(1)` interior hashes per append, `O(log b)` worst
/// case), so [`MerkleFrontier::seal`] only has to materialize the odd-tail
/// promotions along the right edge — `O(log b)` work — before handing out
/// the root and inclusion proofs.
///
/// The sealed levels are bit-identical to what [`MerkleTree::build`] produces
/// for the same payload sequence: same root, same proofs (pinned by tests
/// for every batch size 1..=257).
///
/// Lifecycle: `append` leaves, `seal` to extract root/proofs, then `reset`
/// before the next batch. `reset` keeps the per-level allocations, so a
/// long-lived signer reaches a steady state with zero allocation per batch.
#[derive(Clone, Debug, Default)]
pub struct MerkleFrontier {
    /// `levels[0]` holds leaf hashes; `levels[i + 1]` holds the hashes of
    /// completed sibling pairs of `levels[i]`. Between `seal` and `reset`
    /// the prefix `levels[..sealed_depth]` is fully materialized (equal to
    /// [`MerkleTree`]'s levels).
    levels: Vec<Vec<Digest>>,
    /// Number of levels in use by the sealed tree; 0 while accumulating.
    sealed_depth: usize,
}

/// A sealed view of a [`MerkleFrontier`]: the fully materialized tree for
/// the current batch, from which the root and inclusion proofs are read.
#[derive(Debug)]
pub struct SealedFrontier<'a> {
    levels: &'a [Vec<Digest>],
}

impl MerkleFrontier {
    /// An empty frontier.
    pub fn new() -> Self {
        MerkleFrontier {
            levels: vec![Vec::new()],
            sealed_depth: 0,
        }
    }

    /// Appends one leaf payload, hashing it and folding completed sibling
    /// pairs upward.
    pub fn append(&mut self, payload: &[u8]) {
        self.append_leaf_hash(leaf_hash(payload));
    }

    /// Appends an already-hashed leaf.
    pub fn append_leaf_hash(&mut self, leaf: Digest) {
        assert_eq!(self.sealed_depth, 0, "reset a sealed frontier first");
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        self.levels[0].push(leaf);
        // Binary carry: whenever a level's length turns even, its last two
        // entries form a finished sibling pair — fold them into the level
        // above and continue there.
        let mut i = 0;
        while self.levels[i].len().is_multiple_of(2) {
            let len = self.levels[i].len();
            let parent = node_hash(&self.levels[i][len - 2], &self.levels[i][len - 1]);
            if i + 1 == self.levels.len() {
                self.levels.push(Vec::new());
            }
            self.levels[i + 1].push(parent);
            i += 1;
        }
    }

    /// Number of leaves appended since the last reset.
    pub fn len(&self) -> usize {
        self.levels.first().map_or(0, Vec::len)
    }

    /// True when no leaves have been appended since the last reset.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Completes the tree for the current batch and returns a view exposing
    /// the root and inclusion proofs. Panics on an empty frontier.
    ///
    /// Appends eagerly folded every *completed* pair, so the only missing
    /// interior nodes are along the right edge: per level, at most one
    /// odd-tail promotion or one final pair — an `O(log b)` walk.
    pub fn seal(&mut self) -> SealedFrontier<'_> {
        assert!(!self.is_empty(), "cannot seal an empty frontier");
        if self.sealed_depth == 0 {
            let mut i = 0;
            self.sealed_depth = loop {
                let len = self.levels[i].len();
                if len == 1 {
                    break i + 1;
                }
                let folded = self.levels.get(i + 1).map_or(0, Vec::len);
                let carry = match len - 2 * folded {
                    0 => None,
                    // Odd tail: promote unchanged, as `from_leaf_hashes` does.
                    1 => Some(self.levels[i][len - 1]),
                    2 => Some(node_hash(
                        &self.levels[i][len - 2],
                        &self.levels[i][len - 1],
                    )),
                    _ => unreachable!("append leaves at most one unfolded pair per level"),
                };
                if let Some(digest) = carry {
                    if i + 1 == self.levels.len() {
                        self.levels.push(Vec::new());
                    }
                    self.levels[i + 1].push(digest);
                }
                i += 1;
            };
        }
        SealedFrontier {
            levels: &self.levels[..self.sealed_depth],
        }
    }

    /// Clears the frontier for the next batch, retaining the per-level
    /// allocations.
    pub fn reset(&mut self) {
        for level in &mut self.levels {
            level.clear();
        }
        self.sealed_depth = 0;
    }
}

impl SealedFrontier<'_> {
    /// The root digest of the sealed batch.
    pub fn root(&self) -> Digest {
        self.levels[self.levels.len() - 1][0]
    }

    /// Number of leaves in the sealed batch.
    pub fn leaf_count(&self) -> usize {
        self.levels[0].len()
    }

    /// Extracts the inclusion proof for leaf `index`; bit-identical to
    /// [`MerkleTree::prove`] over the same payloads.
    pub fn prove(&self, index: usize) -> MerkleProof {
        prove_levels(self.levels, index)
    }
}

impl MerkleProof {
    /// The proof of the only leaf of a one-leaf batch: no siblings, the leaf
    /// hash is the root.
    pub const fn single_leaf() -> Self {
        MerkleProof {
            leaf_index: 0,
            leaf_count: 1,
            siblings: Vec::new(),
        }
    }

    /// Recomputes the root implied by this proof for the given leaf payload.
    pub fn compute_root(&self, leaf_payload: &[u8]) -> Digest {
        self.compute_root_from_hash(leaf_hash(leaf_payload))
    }

    /// Recomputes the root starting from an already-hashed leaf.
    pub fn compute_root_from_hash(&self, leaf: Digest) -> Digest {
        let mut current = leaf;
        let mut idx = self.leaf_index;
        for sibling in &self.siblings {
            current = match sibling {
                Some(s) if idx.is_multiple_of(2) => node_hash(&current, s),
                Some(s) => node_hash(s, &current),
                // Odd tail: node promoted unchanged.
                None => current,
            };
            idx /= 2;
        }
        current
    }

    /// Verifies that `leaf_payload` is included under `expected_root`.
    pub fn verify(&self, leaf_payload: &[u8], expected_root: &Digest) -> bool {
        self.compute_root(leaf_payload) == *expected_root
    }

    /// The number of sibling hashes shipped with the proof (log2 of batch size).
    pub fn len(&self) -> usize {
        self.siblings.len()
    }

    /// True when the proof is for a single-leaf batch.
    pub fn is_empty(&self) -> bool {
        self.siblings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payloads(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("reply-{i}").into_bytes()).collect()
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let tree = MerkleTree::build(&[b"only".as_slice()]);
        assert_eq!(tree.root(), leaf_hash(b"only"));
        assert_eq!(tree.leaf_count(), 1);
        let proof = tree.prove(0);
        assert!(proof.verify(b"only", &tree.root()));
        assert!(proof.is_empty());
    }

    #[test]
    fn proofs_verify_for_all_leaves_and_sizes() {
        for n in 1..=33usize {
            let leaves = payloads(n);
            let tree = MerkleTree::build(&leaves);
            for (i, leaf) in leaves.iter().enumerate() {
                let proof = tree.prove(i);
                assert!(
                    proof.verify(leaf, &tree.root()),
                    "proof failed for leaf {i} of {n}"
                );
            }
        }
    }

    #[test]
    fn proof_rejects_wrong_payload() {
        let leaves = payloads(8);
        let tree = MerkleTree::build(&leaves);
        let proof = tree.prove(3);
        assert!(!proof.verify(b"reply-4", &tree.root()));
        assert!(!proof.verify(b"garbage", &tree.root()));
    }

    #[test]
    fn proof_rejects_wrong_root() {
        let leaves = payloads(8);
        let tree = MerkleTree::build(&leaves);
        let other = MerkleTree::build(&payloads(7));
        let proof = tree.prove(0);
        assert!(!proof.verify(b"reply-0", &other.root()));
    }

    #[test]
    fn proof_rejects_transplanted_index() {
        let leaves = payloads(8);
        let tree = MerkleTree::build(&leaves);
        let mut proof = tree.prove(2);
        proof.leaf_index = 3;
        assert!(!proof.verify(b"reply-2", &tree.root()));
    }

    #[test]
    fn different_batches_have_different_roots() {
        let a = MerkleTree::build(&payloads(8));
        let b = MerkleTree::build(&payloads(9));
        assert_ne!(a.root(), b.root());
    }

    /// A leaf whose payload is two concatenated digests must not hash to the
    /// interior node over those digests, or a two-leaf batch could be passed
    /// off as the one-leaf batch of that payload (and vice versa).
    #[test]
    fn leaf_and_node_domains_are_separated() {
        let l = leaf_hash(b"x");
        let r = leaf_hash(b"y");
        let concat = [*l.as_bytes(), *r.as_bytes()].concat();
        assert_ne!(leaf_hash(&concat), node_hash(&l, &r));
        // Nor is the interior node plain or prefix-less SHA-256 of its input.
        assert_ne!(Sha256::digest(&concat), node_hash(&l, &r));

        let two_leaf_root = MerkleTree::build(&[b"x".as_slice(), b"y"]).root();
        assert_eq!(two_leaf_root, node_hash(&l, &r));
        assert!(!MerkleProof::single_leaf().verify(&concat, &two_leaf_root));
    }

    /// Pins the interior-node construction (value from an independent
    /// implementation of the compression function): one compression of
    /// `left ‖ right` under the chaining value after `NODE_TAG`, one
    /// compression in all.
    #[test]
    fn node_hash_known_answer_and_cost() {
        let (l, r) = (leaf_hash(b"x"), leaf_hash(b"y"));
        assert_eq!(
            node_hash(&l, &r).to_hex(),
            "1ef4145c0a3d91b5d9d0aea7eac99f68b39ad7ca4011cb5851b8d685e0e2babe"
        );
        assert_ne!(node_hash(&l, &r), node_hash(&r, &l));
        assert_eq!(sha256::count_compressions(|| node_hash(&l, &r)), 1);
        assert_ne!(NODE_TAG[0], LEAF_PREFIX[0]);
    }

    /// Flipping any single bit of any sibling, or claiming any other leaf
    /// position, breaks the proof.
    #[test]
    fn any_sibling_bit_flip_or_index_change_fails() {
        for n in [2usize, 3, 5, 8, 13, 16] {
            let leaves = payloads(n);
            let tree = MerkleTree::build(&leaves);
            let root = tree.root();
            for (i, leaf) in leaves.iter().enumerate() {
                let proof = tree.prove(i);
                for level in 0..proof.siblings.len() {
                    for bit in 0..256 {
                        let mut forged = proof.clone();
                        let Some(sibling) = &mut forged.siblings[level] else {
                            break;
                        };
                        sibling.0[bit / 8] ^= 1 << (bit % 8);
                        assert!(
                            !forged.verify(leaf, &root),
                            "n={n} leaf={i} level={level} bit={bit}"
                        );
                    }
                }
                // In a full tree every level has a sibling, so every index
                // bit selects an orientation.
                if n.is_power_of_two() {
                    for other in (0..n).filter(|&other| other != i) {
                        let mut moved = proof.clone();
                        moved.leaf_index = other;
                        assert!(!moved.verify(leaf, &root), "n={n} leaf={i} as {other}");
                    }
                }
            }
        }
    }

    #[test]
    fn proof_depth_is_logarithmic() {
        let tree = MerkleTree::build(&payloads(16));
        assert_eq!(tree.prove(0).len(), 4);
        let tree = MerkleTree::build(&payloads(32));
        assert_eq!(tree.prove(31).len(), 5);
    }

    /// The tentpole pin: for every batch size 1..=257 (crossing every
    /// power-of-two boundary up to 256), the incremental frontier yields the
    /// same root and bit-identical inclusion proofs as the one-shot build,
    /// and every one of those proofs verifies.
    #[test]
    fn frontier_matches_build_for_sizes_1_through_257() {
        let mut frontier = MerkleFrontier::new();
        for n in 1..=257usize {
            let leaves = payloads(n);
            let tree = MerkleTree::build(&leaves);
            frontier.reset();
            for leaf in &leaves {
                frontier.append(leaf);
            }
            assert_eq!(frontier.len(), n);
            let sealed = frontier.seal();
            assert_eq!(sealed.root(), tree.root(), "root mismatch at n={n}");
            assert_eq!(sealed.leaf_count(), n);
            for (i, leaf) in leaves.iter().enumerate() {
                let proof = sealed.prove(i);
                assert_eq!(proof, tree.prove(i), "proof mismatch at leaf {i} of {n}");
                assert!(proof.verify(leaf, &tree.root()), "leaf {i} of {n}");
            }
        }
    }

    #[test]
    fn frontier_seal_is_idempotent_and_reset_reuses_allocations() {
        let mut frontier = MerkleFrontier::new();
        for leaf in payloads(5) {
            frontier.append(&leaf);
        }
        let root_a = frontier.seal().root();
        let root_b = frontier.seal().root();
        assert_eq!(root_a, root_b, "sealing twice must not re-carry");
        assert_eq!(root_a, MerkleTree::build(&payloads(5)).root());

        frontier.reset();
        assert!(frontier.is_empty());
        for leaf in payloads(8) {
            frontier.append(&leaf);
        }
        assert_eq!(
            frontier.seal().root(),
            MerkleTree::build(&payloads(8)).root(),
            "a reused frontier must not leak state from the previous batch"
        );
    }

    #[test]
    #[should_panic(expected = "cannot seal an empty frontier")]
    fn sealing_an_empty_frontier_panics() {
        let _ = MerkleFrontier::new().seal();
    }

    #[test]
    #[should_panic(expected = "reset a sealed frontier first")]
    fn appending_to_a_sealed_frontier_panics() {
        let mut frontier = MerkleFrontier::new();
        frontier.append(b"x");
        let _ = frontier.seal();
        frontier.append(b"y");
    }
}

//! # basil-crypto
//!
//! From-scratch cryptographic substrate for the Basil reproduction.
//!
//! The paper's prototype uses ed25519 signatures (ed25519-donna) and SHA-256
//! hashing, and amortizes signature costs with Merkle-tree reply batching and
//! a signature cache (Section 4.4). This crate provides:
//!
//! * [`sha256`] — a from-scratch SHA-256 implementation (FIPS 180-4), tested
//!   against the NIST vectors. Used for transaction identifiers, Merkle
//!   leaves, the frame check, and message digests.
//! * [`frame`] — the one `[len][check][payload]` frame that carries WAL
//!   records, wire messages and results-file records, and its check
//!   function.
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104), the MAC underlying the signature
//!   scheme below, with a prepared-key form ([`hmac::HmacKey`]) that absorbs
//!   the two pad blocks once per key.
//! * [`sig`] — a keyed signature scheme with a key registry: HMAC tags under
//!   per-node keys derived from a deployment seed. It is a shared-secret
//!   substitute for the paper's ed25519 (see the module docs for what that
//!   does and does not authenticate in the simulator and in the `basil-net`
//!   process cluster). The *CPU cost* of real ed25519 signing/verification
//!   is modelled separately by [`cost::CostModel`].
//! * [`merkle`] — Merkle trees and inclusion proofs used for reply batching.
//! * [`batch`] — the reply-batching construction of Figure 2: a replica signs
//!   only the root of a batch of replies and ships each client its reply, the
//!   root signature, and the sibling path; verifiers cache root signatures.
//! * [`cost`] — the crypto cost model (sign / verify / hash latencies) charged
//!   by the cluster simulator so that throughput reflects cryptographic load,
//!   reproducing Figures 5a, 5c and 6b.
//!
//! ## The hashing core
//!
//! When signatures are really computed (`CryptoMode::Real`, and always in
//! the `basil-net` deployment) most of a commit's CPU time is SHA-256
//! compressions, so the crate is built to do few of them and to do each one
//! fast:
//!
//! * **Merkle interior nodes are one compression.** `node_hash(left, right)`
//!   absorbs the 64-byte block `left ‖ right` into a fixed, domain-separated
//!   chaining value and stops — no padding block. Padding exists to separate
//!   inputs of different lengths; interior inputs all have the same length,
//!   so collision resistance rests directly on the compression function, as
//!   SHA-256's own does. Leaves keep full SHA-256 with a `0x00` prefix.
//!   [`merkle`] has the construction and the argument.
//! * **HMAC keys are prepared once.** A [`KeyPair`] and every precomputed
//!   [`KeyRegistry`] entry hold an [`hmac::HmacKey`], so signing or checking
//!   a root is two compressions instead of four.
//! * **The compression function uses the CPU's SHA extensions when it has
//!   them.** On `x86_64` with the `sha` feature the hardware routine runs;
//!   everywhere else, and as the reference in tests, the portable one does.
//!   The choice is made once per process from CPU feature detection — it is
//!   not configurable. [`sha256`] describes both.
//!
//! ## Unsafe code
//!
//! The crate denies `unsafe_code` except in one private module,
//! `sha256::sha_ni`, which holds the single `unsafe` block of the workspace:
//! the call from ordinary code into the `#[target_feature]` function that
//! uses the SHA instructions. Its only precondition is that the CPU has the
//! features, and the call is reachable only through a witness value that the
//! feature check alone can construct.

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod batch;
pub mod cost;
pub mod digest;
pub mod frame;
pub mod hmac;
pub mod merkle;
pub mod sha256;
pub mod sig;

pub use batch::{sign_frontier, BatchProof, SignatureCache};
pub use cost::CostModel;
pub use digest::Digest;
pub use merkle::{MerkleFrontier, MerkleProof, MerkleTree, SealedFrontier};
pub use sha256::Sha256;
pub use sig::{KeyPair, KeyRegistry, Signature};

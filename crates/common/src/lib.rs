//! # basil-common
//!
//! Shared foundation types for the Basil BFT transactional key-value store
//! reproduction: participant identifiers, multiversion timestamps, shard and
//! quorum configuration, simulated time, abort reasons, and [`codec`], the one
//! bounds-checked byte reader and writer under every binary format.
//!
//! Every other crate in the workspace builds on these definitions, so this
//! crate deliberately has no dependency on the protocol, the storage engine,
//! or the simulator.
//!
//! The quorum arithmetic in [`config::ShardConfig`] follows Sections 3 and 4.5
//! of the paper: each shard uses `n = 5f + 1` replicas, a commit quorum of
//! `3f + 1`, an abort quorum of `f + 1`, a fast-commit quorum of `5f + 1`, a
//! fast-abort quorum of `3f + 1`, and a stage-2 logging quorum of `n - f = 4f + 1`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bounded;
pub mod codec;
pub mod config;
pub mod error;
pub mod fasthash;
pub mod hist;
pub mod ids;
pub mod kv;
pub mod ops;
pub mod prng;
pub mod time;
pub mod timestamp;

pub use bounded::BoundedFifoMap;
pub use config::{ReadQuorum, ShardConfig, SystemConfig};
pub use fasthash::{FastHashMap, FastHashSet, FxBuildHasher, FxHasher};
pub use hist::LatencyHistogram;
pub use ids::{ClientId, NodeId, ReplicaId, ShardId, TxId};
pub use kv::{Key, Value};
pub use ops::{Op, ScriptedGenerator, TxGenerator, TxProfile};
pub use prng::SmallPrng;
pub use time::{Duration, SimTime};
pub use timestamp::Timestamp;

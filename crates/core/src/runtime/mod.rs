//! The SecureBlox distributed runtime: tuple serialization, the
//! authenticated update-stream envelope, cryptographic user-defined
//! functions, the simulated distributed query processor, and multi-replica
//! durability fan-out.

pub mod codec;
pub mod durable;
pub mod engine;
mod env;
mod export;
mod node;
pub mod reactor;
pub mod replication;
pub mod shard;
pub mod stream;
pub mod udfs;

pub use codec::{deserialize_tuple, serialize_tuple, DeltaOp, UpdateDelta, UpdateEnvelope};
pub use durable::{CheckpointInfo, DurabilityError};
pub use engine::{CircuitSpec, Deployment, DeploymentConfig, DeploymentReport, NodeSpec};
pub use reactor::ReactorConfig;
pub use replication::{ReplicaState, ReplicaSyncReport};
pub use shard::{shard_hash, RepartitionReport, ShardMap, ShardReport, ShardRing, ShardSegment};
pub use stream::{LinkOutbox, StreamingConfig};
pub use udfs::register_crypto_udfs;

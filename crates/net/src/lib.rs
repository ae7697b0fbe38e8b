//! # secureblox-net
//!
//! Simulated distributed substrate for the SecureBlox reproduction.
//!
//! The paper evaluates SecureBlox on a 36-machine cluster whose nodes
//! exchange UDP messages (§5.1, §8).  This crate replaces that testbed with a
//! **discrete-event network simulation**: nodes are identified by
//! [`NodeId`]s, messages carry opaque byte payloads, a [`LatencyModel`]
//! converts message sizes into propagation + transmission delays, and a
//! [`SimNetwork`] priority queue delivers messages in virtual-time order.
//! The per-node traffic and timing figures the paper's evaluation reports are
//! kept by the nodes themselves, one [`NodeLedger`] each, and folded over
//! the nodes by the functions of [`stats`].
//!
//! Compute time is *not* simulated: the distributed runtime in the
//! `secureblox` crate measures the real wall-clock duration of each local
//! transaction (crypto included) and advances the owning node's virtual clock
//! by that amount, so N simulated nodes appear to run in parallel exactly as
//! the paper's cluster nodes did.  DESIGN.md documents this substitution.

pub mod message;
pub mod node;
pub mod sim;
pub mod stats;
pub mod topology;

pub use message::{Message, MessageKind};
pub use node::{NodeId, NodeInfo};
pub use sim::{record_message_latency, LatencyModel, LinkLanes, SimNetwork, VirtualTime};
pub use stats::{LinkTraffic, NodeLedger, NodeTraffic};
pub use topology::Topology;

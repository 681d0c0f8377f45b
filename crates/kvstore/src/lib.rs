//! An etcd-like distributed key-value store for failure-recovery
//! coordination.
//!
//! GEMINI's failure-recovery module (paper §3.2) coordinates through a
//! distributed key-value store: worker agents publish their machine's
//! health status under a lease, the root agent scans those statuses, and
//! root-machine failover uses the store's leader-election primitive. This
//! crate reproduces exactly the API surface that machinery needs — keyed
//! puts and borrowing reads, one prefix scan, compare-and-swap, TTL leases
//! with keep-alives and lease-based leader election — driven entirely by
//! simulated time. Failures are detected by scanning, so the store keeps
//! no revision counter and no watch feed.
//!
//! The store itself is modelled as always available (etcd runs replicated
//! on machines outside the training fleet); what fails are the *clients*,
//! whose leases then expire and whose keys disappear, which is exactly the
//! failure-detection signal the agents consume.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod election;
pub mod lease;
pub mod retry;
pub mod store;

pub use election::{Campaign, Election, Seen};
pub use lease::{Lease, LeaseId};
pub use retry::RetryPolicy;
pub use store::{KvError, KvStore, VersionedValue};

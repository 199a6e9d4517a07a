//! Collective communication substrate for the GRACE reproduction.
//!
//! The paper runs Horovod's `Allreduce` / `Allgather` / `Broadcast` over
//! OpenMPI, NCCL or Gloo on 8 machines with 1/10/25 Gbps links and TCP or
//! RDMA transports (§V-A, §V-E). This crate provides the two pieces that
//! substitute for that testbed:
//!
//! 1. [`collectives`] — *real* multi-threaded collectives over a shared
//!    deposit board ([`net`]: over sockets), so the training loop runs with
//!    genuinely concurrent workers (used to validate the simulator);
//! 2. [`model`] — an α–β analytic cost model that converts byte-exact message
//!    sizes into simulated wall-clock time for each collective, parameterised
//!    by link bandwidth and transport (TCP vs RDMA), which is exactly the
//!    axis the paper's Figures 1, 6, 9 and 10 vary.
//!
//! # Example
//!
//! ```
//! use grace_comm::model::{NetworkModel, Transport};
//!
//! let net = NetworkModel::new(10.0, Transport::Tcp); // 10 Gbps, TCP
//! let t8 = net.allreduce_seconds(8, 100 << 20);
//! let t2 = net.allreduce_seconds(2, 100 << 20);
//! assert!(t8 > t2); // more workers, more ring steps
//! ```

pub mod clock;
pub mod collectives;
pub mod error;
pub mod fault;
pub mod model;
pub mod net;
mod shm;
pub mod traffic;

pub use clock::{ClockEstimator, ClockSample};
pub use collectives::{
    ring_allreduce_wire_bytes, ClusterIntrospect, ClusterOptions, Collective, GatherFrames,
    Reduction, SingleWorker, ThreadedCluster, WorkerHandle,
};
pub use error::ClusterError;
pub use fault::{
    FaultConfig, FaultKind, FaultPlan, FaultRates, FaultStats, FaultSummary, FaultyCollective,
};
pub use model::{NetworkModel, Transport};
pub use net::{
    run_socket_local, Endpoint, FramedStream, HubHandle, HubServer, NetConfig, NetStats,
    SocketCluster, TraceCtx,
};
pub use traffic::TrafficCounter;

//! Flow-record substrate for connection-pattern analysis.
//!
//! The role classification algorithms of Tan et al. (USENIX 2003) consume
//! nothing but *connection sets*: for each host, the set of hosts it has
//! exchanged traffic with during an observation window. The paper notes
//! (Section 7) that this information can come "from a variety of sources,
//! from summary formats like RMON and NetFlow to packet-level sniffers
//! like tcpdump". This crate provides that ingestion layer:
//!
//! * [`HostAddr`] — host addressing (IPv4 first, IPv6 carried).
//! * [`HostTable`] / [`HostId`] — dense host-identity interning: the
//!   aggregator's master table keeps ids stable across windows and
//!   checkpoints.
//! * [`FlowRecord`] — a normalized unidirectional flow observation.
//! * [`ConnectionSets`] — the aggregation of flows into per-host neighbor
//!   sets (columnar, CSR-indexed), with a noise filter.
//! * [`netflow`] — a binary NetFlow v5 reader/writer.
//! * [`pcap`] — a minimal pcap (Ethernet/IPv4/TCP+UDP) reader/writer,
//!   standing in for tcpdump capture files.
//! * [`rmon`] — RMON2 matrix-table dump parsing (the summary source the
//!   paper lists first).
//! * [`textlog`] — a whitespace/CSV text format for hand-written and
//!   generated traces.
//! * [`wirefmt`] — the binary batch encoding of flow records carried by
//!   the probe→aggregator wire transport.

pub mod addr;
pub mod connset;
pub mod error;
pub mod intern;
pub mod netflow;
pub mod pcap;
pub mod record;
pub mod rmon;
pub mod textlog;
pub mod window;
pub mod wirefmt;

pub use addr::HostAddr;
pub use connset::{
    BuildStats, ConnectionSets, ConnsetBuilder, Neighbors, PairStats, FLOW_METRIC_NAMES,
};
pub use error::FlowError;
pub use intern::{HostId, HostTable};
pub use record::{FlowRecord, Proto};
pub use window::{TimeWindow, WindowedFlows};

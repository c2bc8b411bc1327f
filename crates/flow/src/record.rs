//! Normalized flow records.

use crate::addr::HostAddr;
use serde::{Deserialize, Serialize};

/// Transport protocol of a flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Proto {
    /// TCP (IP protocol 6).
    Tcp,
    /// UDP (IP protocol 17).
    Udp,
    /// ICMP (IP protocol 1).
    Icmp,
    /// Any other IP protocol, by number.
    Other(u8),
}

impl Proto {
    /// Builds a [`Proto`] from an IP protocol number.
    pub fn from_ip_proto(p: u8) -> Self {
        match p {
            6 => Proto::Tcp,
            17 => Proto::Udp,
            1 => Proto::Icmp,
            other => Proto::Other(other),
        }
    }

    /// Returns the IP protocol number.
    pub fn ip_proto(self) -> u8 {
        match self {
            Proto::Tcp => 6,
            Proto::Udp => 17,
            Proto::Icmp => 1,
            Proto::Other(p) => p,
        }
    }
}

impl std::fmt::Display for Proto {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Proto::Tcp => write!(f, "tcp"),
            Proto::Udp => write!(f, "udp"),
            Proto::Icmp => write!(f, "icmp"),
            Proto::Other(p) => write!(f, "proto{p}"),
        }
    }
}

impl std::str::FromStr for Proto {
    type Err = crate::error::FlowError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "tcp" => Ok(Proto::Tcp),
            "udp" => Ok(Proto::Udp),
            "icmp" => Ok(Proto::Icmp),
            other => {
                let digits = other.strip_prefix("proto").unwrap_or(other);
                digits
                    .parse::<u8>()
                    .map(Proto::from_ip_proto)
                    .map_err(|_| crate::error::FlowError::BadAddress(s.to_string()))
            }
        }
    }
}

/// One observed unidirectional flow.
///
/// Timestamps are milliseconds from an arbitrary epoch chosen by the data
/// source; only their relative order and window membership matter to the
/// analysis. A probe report in the paper's system is exactly this tuple
/// (Section 2: "relevant information (including IP address/port tuples)").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FlowRecord {
    /// Source host.
    pub src: HostAddr,
    /// Destination host.
    pub dst: HostAddr,
    /// Transport protocol.
    pub proto: Proto,
    /// Source transport port (0 when not applicable).
    pub src_port: u16,
    /// Destination transport port (0 when not applicable).
    pub dst_port: u16,
    /// Packets observed.
    pub packets: u32,
    /// Bytes observed.
    pub bytes: u64,
    /// Flow start, in source-defined milliseconds.
    pub start_ms: u64,
    /// Flow end, in source-defined milliseconds.
    pub end_ms: u64,
}

impl FlowRecord {
    /// Builds a minimal TCP flow between two hosts; ports, sizes and
    /// times get neutral defaults. Handy for tests and generators where
    /// only the endpoint pair matters.
    pub fn pair(src: HostAddr, dst: HostAddr) -> Self {
        FlowRecord {
            src,
            dst,
            proto: Proto::Tcp,
            src_port: 0,
            dst_port: 0,
            packets: 1,
            bytes: 64,
            start_ms: 0,
            end_ms: 0,
        }
    }

    /// Returns the endpoint pair normalized so the smaller address comes
    /// first — the paper's undirected notion of a *connection*.
    pub fn undirected_pair(&self) -> (HostAddr, HostAddr) {
        if self.src <= self.dst {
            (self.src, self.dst)
        } else {
            (self.dst, self.src)
        }
    }

    /// Returns a copy with source and destination (hosts and ports)
    /// swapped — the reverse direction of the same conversation.
    pub fn reversed(&self) -> Self {
        FlowRecord {
            src: self.dst,
            dst: self.src,
            src_port: self.dst_port,
            dst_port: self.src_port,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(x: u32) -> HostAddr {
        HostAddr::v4(x)
    }

    #[test]
    fn proto_round_trip() {
        for p in [Proto::Tcp, Proto::Udp, Proto::Icmp, Proto::Other(89)] {
            assert_eq!(Proto::from_ip_proto(p.ip_proto()), p);
            let s = p.to_string();
            assert_eq!(s.parse::<Proto>().unwrap(), p);
        }
    }

    #[test]
    fn proto_parse_rejects_garbage() {
        assert!("tcpx".parse::<Proto>().is_err());
        assert!("proto999".parse::<Proto>().is_err());
    }

    #[test]
    fn undirected_pair_orders_endpoints() {
        let f = FlowRecord::pair(h(9), h(3));
        assert_eq!(f.undirected_pair(), (h(3), h(9)));
        let g = FlowRecord::pair(h(3), h(9));
        assert_eq!(g.undirected_pair(), (h(3), h(9)));
    }

    #[test]
    fn reversed_swaps_everything_directional() {
        let mut f = FlowRecord::pair(h(1), h(2));
        f.src_port = 1234;
        f.dst_port = 80;
        let r = f.reversed();
        assert_eq!(r.src, h(2));
        assert_eq!(r.dst, h(1));
        assert_eq!(r.src_port, 80);
        assert_eq!(r.dst_port, 1234);
        assert_eq!(r.bytes, f.bytes);
    }
}

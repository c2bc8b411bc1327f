//! Host addressing.
//!
//! IPv4 everywhere the paper's traces live, with IPv6 carried through
//! the same opaque identifier so interning ([`crate::intern`]) and the
//! dense data plane do not care which family an address came from.

use crate::error::FlowError;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::str::FromStr;

/// A host address.
///
/// The paper keys hosts by IP address (with the caveat that DHCP churn
/// needs an external identity service, Section 5.1); we follow suit and
/// treat [`HostAddr`] as the opaque, unique host identifier throughout
/// the workspace. Ordering is total: all IPv4 addresses sort before all
/// IPv6 addresses, numerically within each family.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HostAddr {
    /// An IPv4 address (network-order `u32`).
    V4(u32),
    /// An IPv6 address (network-order `u128`).
    V6(u128),
}

impl Default for HostAddr {
    fn default() -> Self {
        HostAddr::V4(0)
    }
}

// Serialized as the display string so it can key JSON maps and stays
// readable in persisted snapshots.
impl Serialize for HostAddr {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_str(self)
    }
}

impl<'de> Deserialize<'de> for HostAddr {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        s.parse().map_err(serde::de::Error::custom)
    }
}

impl HostAddr {
    /// Builds an IPv4 address from its raw network-order value.
    pub const fn v4(raw: u32) -> Self {
        HostAddr::V4(raw)
    }

    /// Builds an IPv6 address from its raw network-order value.
    pub const fn v6(raw: u128) -> Self {
        HostAddr::V6(raw)
    }

    /// Builds an IPv4 address from dotted-quad octets.
    pub const fn from_octets(a: u8, b: u8, c: u8, d: u8) -> Self {
        HostAddr::V4(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// Builds an IPv6 address from its sixteen octets, most significant
    /// first.
    pub const fn from_v6_octets(o: [u8; 16]) -> Self {
        HostAddr::V6(u128::from_be_bytes(o))
    }

    /// Returns `true` for an IPv4 address.
    pub const fn is_v4(self) -> bool {
        matches!(self, HostAddr::V4(_))
    }

    /// Returns the four IPv4 octets, most significant first.
    ///
    /// For IPv6 addresses this is the truncation of [`HostAddr::as_u32`];
    /// callers emitting IPv4-only wire formats must scope out IPv6 first.
    pub const fn octets(self) -> [u8; 4] {
        let v = self.as_u32();
        [(v >> 24) as u8, (v >> 16) as u8, (v >> 8) as u8, v as u8]
    }

    /// Raw 32-bit value (network order interpretation). IPv6 addresses
    /// truncate to their low 32 bits — lossy, for IPv4-only consumers
    /// (legacy wire formats, hashing).
    pub const fn as_u32(self) -> u32 {
        match self {
            HostAddr::V4(v) => v,
            HostAddr::V6(v) => v as u32,
        }
    }
}

impl std::fmt::Display for HostAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            HostAddr::V4(_) => {
                let [a, b, c, d] = self.octets();
                write!(f, "{a}.{b}.{c}.{d}")
            }
            HostAddr::V6(v) => write!(f, "{}", std::net::Ipv6Addr::from(v.to_be_bytes())),
        }
    }
}

impl std::fmt::Debug for HostAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for HostAddr {
    type Err = FlowError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.contains(':') {
            let v6: std::net::Ipv6Addr = s
                .parse()
                .map_err(|_| FlowError::BadAddress(s.to_string()))?;
            return Ok(HostAddr::from_v6_octets(v6.octets()));
        }
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for slot in &mut octets {
            let part = parts
                .next()
                .ok_or_else(|| FlowError::BadAddress(s.to_string()))?;
            *slot = part
                .parse::<u8>()
                .map_err(|_| FlowError::BadAddress(s.to_string()))?;
        }
        if parts.next().is_some() {
            return Err(FlowError::BadAddress(s.to_string()));
        }
        Ok(HostAddr::from_octets(
            octets[0], octets[1], octets[2], octets[3],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn octets_round_trip() {
        let a = HostAddr::from_octets(10, 0, 1, 18);
        assert_eq!(a.octets(), [10, 0, 1, 18]);
        assert_eq!(a.to_string(), "10.0.1.18");
    }

    #[test]
    fn parse_valid_address() {
        let a: HostAddr = "192.168.1.1".parse().unwrap();
        assert_eq!(a, HostAddr::from_octets(192, 168, 1, 1));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<HostAddr>().is_err());
        assert!("1.2.3".parse::<HostAddr>().is_err());
        assert!("1.2.3.4.5".parse::<HostAddr>().is_err());
        assert!("1.2.3.256".parse::<HostAddr>().is_err());
        assert!("a.b.c.d".parse::<HostAddr>().is_err());
        assert!(":::".parse::<HostAddr>().is_err());
    }

    #[test]
    fn ordering_is_numeric() {
        let lo: HostAddr = "10.0.0.1".parse().unwrap();
        let hi: HostAddr = "10.0.1.0".parse().unwrap();
        assert!(lo < hi);
    }

    #[test]
    fn v6_round_trips_and_sorts_after_v4() {
        let a: HostAddr = "2001:db8::1".parse().unwrap();
        assert!(!a.is_v4());
        assert_eq!(a.to_string(), "2001:db8::1");
        assert_eq!(a.to_string().parse::<HostAddr>().unwrap(), a);
        // The whole IPv4 space sorts before the whole IPv6 space.
        assert!(HostAddr::v4(u32::MAX) < HostAddr::v6(0));
        assert!(HostAddr::v6(1) < HostAddr::v6(2));
    }

    #[test]
    fn v6_serde_string_round_trip() {
        let a = HostAddr::from_v6_octets([0xfe, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9]);
        let json = serde_json::to_string(&a).unwrap();
        let back: HostAddr = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
    }
}

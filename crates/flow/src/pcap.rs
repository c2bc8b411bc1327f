//! Minimal pcap (libpcap capture file) reader and writer.
//!
//! The packet-level end of the paper's ingestion spectrum ("packet-level
//! sniffers like tcpdump", Section 7). Supports the classic pcap file
//! format with Ethernet II link type and IPv4/TCP/UDP payloads — enough
//! to extract the `(src, dst, proto, ports)` tuples that become
//! connections. Unparseable packets are skipped and counted rather than
//! failing the whole capture, mirroring how a probe deals with traffic it
//! does not understand.

use crate::addr::HostAddr;
use crate::error::FlowError;
use crate::record::{FlowRecord, Proto};
use bytes::{BufMut, BytesMut};

/// pcap magic for microsecond timestamps, big-endian layout on write.
pub const MAGIC_US: u32 = 0xa1b2_c3d4;
/// pcap magic with bytes swapped (little-endian writer).
pub const MAGIC_US_SWAPPED: u32 = 0xd4c3_b2a1;
/// Linktype Ethernet.
pub const LINKTYPE_ETHERNET: u32 = 1;
/// pcap global header length in bytes.
pub const GLOBAL_HEADER_LEN: usize = 24;
/// Per-packet record header length in bytes.
pub const PACKET_HEADER_LEN: usize = 16;

/// Outcome of parsing one capture file.
#[derive(Clone, Debug, Default)]
pub struct PcapParse {
    /// Flows extracted (one per parsed packet).
    pub records: Vec<FlowRecord>,
    /// Packets skipped because they were not Ethernet/IPv4/TCP-or-UDP or
    /// were internally truncated.
    pub skipped: usize,
}

/// Parses a pcap capture into flow records (one per packet).
///
/// Both byte orders are accepted. Only Ethernet II + IPv4 packets carrying
/// TCP or UDP produce records; everything else increments `skipped`.
pub fn parse_file(data: &[u8]) -> Result<PcapParse, FlowError> {
    if data.len() < GLOBAL_HEADER_LEN {
        return Err(FlowError::Truncated {
            context: "pcap global header",
            needed: GLOBAL_HEADER_LEN,
            available: data.len(),
        });
    }
    let magic = u32::from_be_bytes([data[0], data[1], data[2], data[3]]);
    let big_endian = match magic {
        MAGIC_US => true,
        MAGIC_US_SWAPPED => false,
        other => {
            return Err(FlowError::BadFormat {
                context: "pcap magic",
                detail: format!("unrecognized magic 0x{other:08x}"),
            })
        }
    };
    let read_u32 = |b: &[u8]| -> u32 {
        let arr = [b[0], b[1], b[2], b[3]];
        if big_endian {
            u32::from_be_bytes(arr)
        } else {
            u32::from_le_bytes(arr)
        }
    };
    let read_u16 = |b: &[u8]| -> u16 {
        let arr = [b[0], b[1]];
        if big_endian {
            u16::from_be_bytes(arr)
        } else {
            u16::from_le_bytes(arr)
        }
    };
    let version_major = read_u16(&data[4..6]);
    if version_major != 2 {
        return Err(FlowError::BadFormat {
            context: "pcap version",
            detail: format!("unsupported major version {version_major}"),
        });
    }
    let linktype = read_u32(&data[20..24]);
    if linktype != LINKTYPE_ETHERNET {
        return Err(FlowError::BadFormat {
            context: "pcap linktype",
            detail: format!("only Ethernet (1) is supported, got {linktype}"),
        });
    }

    let mut out = PcapParse::default();
    let mut off = GLOBAL_HEADER_LEN;
    while off + PACKET_HEADER_LEN <= data.len() {
        let ts_sec = read_u32(&data[off..off + 4]) as u64;
        let ts_usec = read_u32(&data[off + 4..off + 8]) as u64;
        let incl_len = read_u32(&data[off + 8..off + 12]) as usize;
        off += PACKET_HEADER_LEN;
        if off + incl_len > data.len() {
            return Err(FlowError::Truncated {
                context: "pcap packet body",
                needed: off + incl_len,
                available: data.len(),
            });
        }
        let body = &data[off..off + incl_len];
        off += incl_len;
        let ts_ms = ts_sec * 1000 + ts_usec / 1000;
        match parse_ethernet_ipv4(body, ts_ms) {
            Some(rec) => out.records.push(rec),
            None => out.skipped += 1,
        }
    }
    if off != data.len() {
        return Err(FlowError::Truncated {
            context: "pcap packet header",
            needed: off + PACKET_HEADER_LEN,
            available: data.len(),
        });
    }
    Ok(out)
}

/// Decodes Ethernet II → IPv4 → TCP/UDP. Returns `None` for anything the
/// probe should skip.
fn parse_ethernet_ipv4(body: &[u8], ts_ms: u64) -> Option<FlowRecord> {
    if body.len() < 14 {
        return None;
    }
    let ethertype = u16::from_be_bytes([body[12], body[13]]);
    if ethertype != 0x0800 {
        return None; // Not IPv4 (could be ARP, IPv6, VLAN...).
    }
    let ip = &body[14..];
    if ip.len() < 20 {
        return None;
    }
    let version = ip[0] >> 4;
    if version != 4 {
        return None;
    }
    let ihl = (ip[0] & 0x0f) as usize * 4;
    if ihl < 20 || ip.len() < ihl {
        return None;
    }
    let total_len = u16::from_be_bytes([ip[2], ip[3]]) as u64;
    let proto_num = ip[9];
    let src = HostAddr::v4(u32::from_be_bytes([ip[12], ip[13], ip[14], ip[15]]));
    let dst = HostAddr::v4(u32::from_be_bytes([ip[16], ip[17], ip[18], ip[19]]));
    let l4 = &ip[ihl..];
    let (src_port, dst_port) = match proto_num {
        6 | 17 => {
            if l4.len() < 4 {
                return None;
            }
            (
                u16::from_be_bytes([l4[0], l4[1]]),
                u16::from_be_bytes([l4[2], l4[3]]),
            )
        }
        _ => return None,
    };
    Some(FlowRecord {
        src,
        dst,
        proto: Proto::from_ip_proto(proto_num),
        src_port,
        dst_port,
        packets: 1,
        bytes: total_len,
        start_ms: ts_ms,
        end_ms: ts_ms,
    })
}

/// Serializes flow records as a big-endian pcap file, one synthetic
/// minimal packet per record (Ethernet II + IPv4 + 8 bytes of TCP/UDP
/// header prefix). ICMP and other protocols are emitted as bare IPv4 and
/// will round-trip as `skipped` packets.
pub fn write_file(records: &[FlowRecord]) -> Vec<u8> {
    let mut out = BytesMut::new();
    out.put_u32(MAGIC_US);
    out.put_u16(2); // version major
    out.put_u16(4); // version minor
    out.put_u32(0); // thiszone
    out.put_u32(0); // sigfigs
    out.put_u32(65_535); // snaplen
    out.put_u32(LINKTYPE_ETHERNET);
    for r in records {
        let l4_len: usize = match r.proto {
            Proto::Tcp | Proto::Udp => 8,
            _ => 0,
        };
        let ip_total = 20 + l4_len;
        let frame_len = 14 + ip_total;
        out.put_u32((r.start_ms / 1000) as u32);
        out.put_u32(((r.start_ms % 1000) * 1000) as u32);
        out.put_u32(frame_len as u32);
        out.put_u32(frame_len as u32);
        // Ethernet II header with synthetic MACs.
        out.put_slice(&[0x02, 0, 0, 0, 0, 1]);
        out.put_slice(&[0x02, 0, 0, 0, 0, 2]);
        out.put_u16(0x0800);
        // IPv4 header, no options.
        out.put_u8(0x45);
        out.put_u8(0);
        out.put_u16(ip_total as u16);
        out.put_u16(0); // identification
        out.put_u16(0); // flags/fragment
        out.put_u8(64); // ttl
        out.put_u8(r.proto.ip_proto());
        out.put_u16(0); // checksum (not validated by the parser)
        out.put_u32(r.src.as_u32());
        out.put_u32(r.dst.as_u32());
        if l4_len > 0 {
            out.put_u16(r.src_port);
            out.put_u16(r.dst_port);
            out.put_u32(0); // seq (tcp) / len+checksum (udp)
        }
    }
    out.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<FlowRecord> {
        (0..n)
            .map(|i| {
                let mut f =
                    FlowRecord::pair(HostAddr::v4(10 + i as u32), HostAddr::v4(20 + i as u32));
                f.src_port = 4000 + i as u16;
                f.dst_port = 443;
                f.start_ms = 1_000 * (i as u64 + 1);
                f.end_ms = f.start_ms;
                f
            })
            .collect()
    }

    #[test]
    fn round_trip_tcp_packets() {
        let records = sample(4);
        let file = write_file(&records);
        let parsed = parse_file(&file).unwrap();
        assert_eq!(parsed.skipped, 0);
        assert_eq!(parsed.records.len(), 4);
        for (orig, got) in records.iter().zip(&parsed.records) {
            assert_eq!(got.src, orig.src);
            assert_eq!(got.dst, orig.dst);
            assert_eq!(got.src_port, orig.src_port);
            assert_eq!(got.dst_port, orig.dst_port);
            assert_eq!(got.start_ms, orig.start_ms);
            assert_eq!(got.proto, Proto::Tcp);
        }
    }

    #[test]
    fn icmp_packets_are_skipped() {
        let mut records = sample(2);
        records[0].proto = Proto::Icmp;
        let file = write_file(&records);
        let parsed = parse_file(&file).unwrap();
        assert_eq!(parsed.skipped, 1);
        assert_eq!(parsed.records.len(), 1);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut file = write_file(&sample(1));
        file[0] = 0xff;
        assert!(matches!(
            parse_file(&file),
            Err(FlowError::BadFormat { .. })
        ));
    }

    #[test]
    fn truncated_body_rejected() {
        let file = write_file(&sample(1));
        assert!(matches!(
            parse_file(&file[..file.len() - 3]),
            Err(FlowError::Truncated { .. })
        ));
    }

    #[test]
    fn short_file_rejected() {
        assert!(matches!(
            parse_file(&[0u8; 5]),
            Err(FlowError::Truncated { .. })
        ));
    }

    #[test]
    fn empty_capture_ok() {
        let file = write_file(&[]);
        let parsed = parse_file(&file).unwrap();
        assert!(parsed.records.is_empty());
        assert_eq!(parsed.skipped, 0);
    }

    #[test]
    fn little_endian_files_accepted() {
        // Hand-build a little-endian global header with no packets.
        let mut file = Vec::new();
        file.extend_from_slice(&MAGIC_US.to_le_bytes());
        file.extend_from_slice(&2u16.to_le_bytes());
        file.extend_from_slice(&4u16.to_le_bytes());
        file.extend_from_slice(&0u32.to_le_bytes());
        file.extend_from_slice(&0u32.to_le_bytes());
        file.extend_from_slice(&65535u32.to_le_bytes());
        file.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        let parsed = parse_file(&file).unwrap();
        assert!(parsed.records.is_empty());
    }

    #[test]
    fn non_ethernet_linktype_rejected() {
        let mut file = write_file(&[]);
        file[23] = 101; // raw IP linktype
        assert!(matches!(
            parse_file(&file),
            Err(FlowError::BadFormat { .. })
        ));
    }
}

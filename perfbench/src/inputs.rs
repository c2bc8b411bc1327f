//! Workload definitions and the seeded inputs each one runs on.
//!
//! Everything here is set-up: it turns `(workload, scale, seed)` into
//! flow records per day-long window plus the ground truth of the last
//! window's network. The program under test only ever sees the records.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use role_classification::flow::{FlowRecord, HostAddr};
use role_classification::synthnet::model::SyntheticNetwork;
use role_classification::synthnet::{churn, scenarios, trace};

/// One day, the paper's observation window.
pub const DAY_MS: u64 = 86_400_000;

/// The named workloads of `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// ~20k-host department network, static, replayed in process.
    EnterpriseSteady,
    /// BigCompany (one scanner hub) with per-window host churn.
    HubChurn,
    /// ~2k-host department network over the wire, with storage and HTTP.
    OpsLongrun,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "enterprise-steady" => Some(Workload::EnterpriseSteady),
            "hub-churn" => Some(Workload::HubChurn),
            "ops-longrun" => Some(Workload::OpsLongrun),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::EnterpriseSteady => "enterprise-steady",
            Workload::HubChurn => "hub-churn",
            Workload::OpsLongrun => "ops-longrun",
        }
    }

    /// Whether windows arrive over the wire into a persisted, served
    /// aggregator (true) or are replayed in process without storage.
    pub fn is_ops(self) -> bool {
        self == Workload::OpsLongrun
    }
}

/// Full size for measurement; smoke size for the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Population and window counts of one workload at one scale.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Department network size (ignored by `hub-churn`).
    pub hosts: usize,
    /// Windows measured after the single warm-up window.
    pub measured_windows: usize,
}

pub fn shape(workload: Workload, scale: Scale) -> Shape {
    let (hosts, measured_windows) = match (workload, scale) {
        (Workload::EnterpriseSteady, Scale::Full) => (20_000, 3),
        (Workload::EnterpriseSteady, Scale::Smoke) => (600, 2),
        (Workload::HubChurn, Scale::Full) => (0, 16),
        (Workload::HubChurn, Scale::Smoke) => (0, 2),
        (Workload::OpsLongrun, Scale::Full) => (2_000, 30),
        (Workload::OpsLongrun, Scale::Smoke) => (300, 11),
    };
    Shape {
        hosts,
        measured_windows,
    }
}

/// One window's input: `[start_ms, start_ms + DAY_MS)` and its records.
pub struct Window {
    pub start_ms: u64,
    pub records: Vec<FlowRecord>,
}

/// Everything one pass feeds the program, plus what the gate checks
/// against.
pub struct Inputs {
    /// Window 0 is the warm-up; windows 1.. are measured.
    pub windows: Vec<Window>,
    /// Ground-truth role partition of the last window's network.
    pub truth: Vec<Vec<HostAddr>>,
    /// Hosts in the last window's network.
    pub hosts: usize,
}

impl Inputs {
    pub fn measured_records(&self) -> u64 {
        self.windows[1..]
            .iter()
            .map(|w| w.records.len() as u64)
            .sum()
    }
}

pub fn generate(workload: Workload, scale: Scale, seed: u64) -> Inputs {
    let shape = shape(workload, scale);
    let mut net = match (workload, scale) {
        (Workload::HubChurn, Scale::Full) => scenarios::big_company(seed),
        (Workload::HubChurn, Scale::Smoke) => scenarios::mazu(seed),
        _ => scenarios::department(shape.hosts, seed),
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut fresh_addr = 0xAC10_0000u32; // 172.16.0.0/12: unused by the scenarios
    let windows = (0..=shape.measured_windows as u64)
        .map(|w| {
            if workload == Workload::HubChurn && w > 0 {
                apply_churn(&mut net, &mut rng, &mut fresh_addr);
            }
            let opts = trace::TraceOptions {
                start_ms: w * DAY_MS,
                span_ms: DAY_MS,
                ..trace::TraceOptions::default()
            };
            Window {
                start_ms: w * DAY_MS,
                records: trace::expand(&net.connsets, opts, rng.gen()),
            }
        })
        .collect();
    Inputs {
        windows,
        truth: net.truth.partition(),
        hosts: net.host_count(),
    }
}

/// One window of churn: about 2% of hosts replaced by fresh addresses
/// that inherit their connections, plus three role swaps.
fn apply_churn(net: &mut SyntheticNetwork, rng: &mut StdRng, fresh_addr: &mut u32) {
    let mut hosts: Vec<HostAddr> = net.connsets.hosts().collect();
    let replacements = (hosts.len() / 50).max(1);
    for _ in 0..replacements {
        let old = hosts.swap_remove(rng.gen_range(0..hosts.len()));
        *fresh_addr += 1;
        churn::replace_host(net, old, HostAddr::v4(*fresh_addr));
    }
    for _ in 0..3 {
        let a = hosts.swap_remove(rng.gen_range(0..hosts.len()));
        let b = hosts.swap_remove(rng.gen_range(0..hosts.len()));
        churn::swap_hosts(net, a, b);
    }
}

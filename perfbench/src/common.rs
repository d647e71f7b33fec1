//! Shared pieces: run settings, input generation, the correctness oracle,
//! the determinism digest and the statistics the metrics are made of.

use sensjoin_core::{exact_join, JoinResult, SensorNetwork};
use sensjoin_query::CompiledQuery;
use sensjoin_relation::NodeId;
use sensjoin_sim::NetworkStats;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the run may write (trace file, checkpoint store).
    pub out_dir: PathBuf,
}

/// Ops every run performs at least, whatever `--seconds` says: enough for a
/// p90 with ten samples beyond it.
pub const MIN_OPS: usize = 100;

/// Set-ups per run; `setup_s` reports their median.
pub const SETUP_REPS: usize = 15;

/// A run stops adding ops after this much wall time, so it ends well within
/// the 180 s a run may take even on a much slower program.
pub const MAX_WALL: Duration = Duration::from_secs(120);

/// The op loop's stopping rule: at least `MIN_OPS` ops and `cfg.seconds` of
/// timed work, and no op started after `MAX_WALL`.
pub struct Budget {
    started: Instant,
    seconds: f64,
    min_ops: usize,
}

impl Budget {
    pub fn new(cfg: &Cfg, min_ops: usize) -> Self {
        Self {
            started: Instant::now(),
            seconds: cfg.seconds,
            min_ops,
        }
    }

    pub fn more(&self, ops: usize, timed_s: f64) -> bool {
        (ops < self.min_ops || timed_s < self.seconds) && self.started.elapsed() < MAX_WALL
    }
}

/// SplitMix64: the benchmark's own generator for its inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5EED_BE4C_0DE5_1A7E)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derives an independent seed for sub-stream `k` of `seed`.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut r = Rng::new(seed.wrapping_mul(0x1000_0000_01B3).wrapping_add(k));
    r.next_u64()
}

/// FNV-1a 64, the determinism digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A result, independent of row order.
    pub fn result(&mut self, r: &JoinResult) {
        match r {
            JoinResult::Rows(rows) => {
                // Each row's own digest, sorted: cheaper than sorting the
                // rows themselves.
                let mut keys: Vec<u64> = rows
                    .iter()
                    .map(|row| {
                        let mut d = Self::new();
                        row.iter().for_each(|v| d.u64(v.to_bits()));
                        d.value()
                    })
                    .collect();
                keys.sort_unstable();
                self.u64(keys.len() as u64);
                for k in keys {
                    self.u64(k);
                }
            }
            JoinResult::Aggregate(vals) => {
                for v in vals {
                    self.u64(v.map_or(u64::MAX, f64::to_bits));
                }
            }
        }
    }

    /// Per-phase radio statistics.
    pub fn stats(&mut self, s: &NetworkStats) {
        for (phase, st) in s.phases() {
            self.bytes(phase.as_bytes());
            self.u64(st.tx_packets);
            self.u64(st.tx_bytes);
            self.u64(st.energy_uj.to_bits());
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// A node's values per relation (`None`: not a member, or filtered by a
/// local predicate).
pub type PerRel = Vec<Option<Vec<f64>>>;

/// Node `v`'s locally-selected values per relation.
pub fn per_rel_values(snet: &SensorNetwork, cq: &CompiledQuery, v: NodeId) -> PerRel {
    (0..cq.num_relations())
        .map(|r| {
            let schema = cq.schema(r);
            if !snet.belongs(v, schema.name()) {
                return None;
            }
            let vals = snet.values_for(v, schema);
            cq.eval_local(r, &vals).then_some(vals)
        })
        .collect()
}

/// The nodes the routing tree reaches, with their values per relation,
/// skipping nodes that contribute to no relation.
pub fn reachable_values<'a>(
    snet: &'a SensorNetwork,
    cq: &'a CompiledQuery,
) -> impl Iterator<Item = (NodeId, PerRel)> + 'a {
    let routing = snet.net().routing();
    (0..snet.len() as u32)
        .map(NodeId)
        .filter(move |&v| routing.depth(v).is_some())
        .map(move |v| (v, per_rel_values(snet, cq, v)))
        .filter(|(_, per_rel)| per_rel.iter().any(Option::is_some))
}

/// Every node's locally-selected tuples, per relation — the input an exact
/// join over the whole network sees, bypassing the in-network protocol.
pub fn local_tuples(snet: &SensorNetwork, cq: &CompiledQuery) -> Vec<Vec<(NodeId, Vec<f64>)>> {
    let mut tuples = vec![Vec::new(); cq.num_relations()];
    for (v, per_rel) in reachable_values(snet, cq) {
        push_tuples(&mut tuples, v, per_rel);
    }
    tuples
}

/// Appends node `v`'s tuples to the per-relation lists.
pub fn push_tuples(tuples: &mut [Vec<(NodeId, Vec<f64>)>], v: NodeId, per_rel: PerRel) {
    for (r, vals) in per_rel.into_iter().enumerate() {
        if let Some(vals) = vals {
            tuples[r].push((v, vals));
        }
    }
}

/// The correctness oracle: the exact join over every node's local tuples.
/// Returns a description of the mismatch, if any.
pub fn check_result(
    snet: &SensorNetwork,
    cq: &CompiledQuery,
    result: &JoinResult,
    contributors: &BTreeSet<NodeId>,
) -> Result<(), String> {
    let want = exact_join(cq, &local_tuples(snet, cq));
    if !want.result.same_result(result) {
        return Err(format!(
            "result differs from the exact join: {} rows, want {}",
            result.len(),
            want.result.len()
        ));
    }
    if &want.contributors != contributors {
        return Err(format!(
            "contributors differ: {}, want {}",
            contributors.len(),
            want.contributors.len()
        ));
    }
    Ok(())
}

/// Radio cost of a phase class, by the phase label's leading digit
/// (`1-` collection, `2-` filter, `3-` final) — the convention of every
/// executor's phase constants.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseCost {
    pub packets: u64,
    pub bytes: u64,
}

/// Accumulated radio cost over a number of query-epochs.
#[derive(Debug, Default, Clone, Copy)]
pub struct Radio {
    pub qe: u64,
    pub packets: u64,
    pub bytes: u64,
    pub energy_uj: f64,
    /// Collection, filter, final.
    pub phases: [PhaseCost; 3],
}

impl Radio {
    /// Adds one execution's statistics, covering `qe` query-epochs.
    pub fn add(&mut self, s: &NetworkStats, qe: u64) {
        self.qe += qe;
        self.packets += s.total_tx_packets();
        self.bytes += s.total_tx_bytes();
        self.energy_uj += s.total_energy_uj();
        for (phase, st) in s.phases() {
            let class = match phase.as_bytes().first() {
                Some(b'1') => 0,
                Some(b'2') => 1,
                Some(b'3') => 2,
                _ => continue,
            };
            self.phases[class].packets += st.tx_packets;
            self.phases[class].bytes += st.tx_bytes;
        }
    }

    pub fn per_qe(&self, v: f64) -> f64 {
        v / self.qe.max(1) as f64
    }
}

/// Linear-interpolated quantile of unsorted samples (NaN when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The process's peak resident set (VmHWM) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times `f`, returning its output and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

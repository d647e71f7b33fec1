//! `continuous_durable`: a continuous Q1-style band query on the 1500-node
//! paper network, checkpointed every round.
//!
//! Between rounds `SensorNetwork::resample` generates the next snapshot
//! (not timed): the same spatial fields every round, with per-node noise
//! whose amplitude the seed redraws each round, so readings drift around a
//! fixed landscape and the result keeps a steady size. Op = `ContinuousSensJoin::execute_round` + one WAL record
//! with the round's result digest + one snapshot (`encode_state` +
//! `put_net_snapshot` + `save_snapshot`) — the CLI's
//! `--checkpoint-every 1`. At the end the run recovers from the store into
//! a fresh network and requires the next round to match the uninterrupted
//! run's bit for bit. The deployment is fixed; `--seed` drives the
//! noise amplitudes.

use crate::common::{self, check_result, Budget, Cfg, Digest, Radio, Rng, SETUP_REPS};
use crate::oneshot::{network, DEPLOYMENT};
use crate::probe::{self, Counters, IngestShadow};
use crate::report::Outcome;
use crate::trace::Tracer;
use sensjoin_core::persist::{self as codec, CheckpointStore, Reader, Writer};
use sensjoin_core::workload::RangeQueryFamily;
use sensjoin_core::{ContinuousSensJoin, JoinOutcome, SensorNetwork};
use sensjoin_field::{presets, FieldSpec};
use sensjoin_query::CompiledQuery;
use std::path::{Path, PathBuf};
use std::time::Instant;

const NODES: usize = 1500;
const CONTRIBUTORS: f64 = 0.05;
/// Rounds whose digest and radio cost are reported; every run executes at
/// least this many, so both depend on the seed alone.
const PREFIX_ROUNDS: usize = 400;
/// Seed of the spatial fields every snapshot shares.
const FIELD_SEED: u64 = 0xF1E1D;
/// Per-round noise amplitude: the preset's, scaled by up to `1 + DRIFT`.
const DRIFT: f64 = 4.0;
/// Tenants of the serving re-run.
const SERVE_TENANTS: usize = 8;

struct State {
    snet: SensorNetwork,
    cq: CompiledQuery,
    sql: String,
    /// The calibrated thresholds behind `sql`.
    thresholds: Vec<f64>,
    cont: ContinuousSensJoin,
    store: CheckpointStore,
}

/// The band query at `thresholds`, in the continuous dialect.
fn band_sql(thresholds: &[f64]) -> String {
    RangeQueryFamily::ratio_33()
        .sql(thresholds)
        .replace(" ONCE", " SAMPLE PERIOD 30")
}

/// Readings of round `r`: the fixed fields plus noise at this round's
/// amplitude. Round 0, which the query is calibrated on, has the preset's.
fn resample(tr: &mut Tracer, snet: &mut SensorNetwork, seed: u64, r: usize) {
    let scale = match r {
        0 => 1.0,
        _ => 1.0 + DRIFT * Rng::new(common::sub_seed(seed, r as u64)).unit(),
    };
    let specs: Vec<FieldSpec> = presets::indoor_climate()
        .into_iter()
        .map(|s| FieldSpec {
            noise: s.noise * scale,
            ..s
        })
        .collect();
    probe::resample(tr, snet, &specs, FIELD_SEED);
}

/// The digest of one round: result, per-phase radio cost, latency.
fn round_digest(out: &JoinOutcome) -> u64 {
    let mut d = Digest::new();
    d.result(&out.result);
    d.stats(&out.stats);
    d.u64(out.latency_us);
    d.value()
}

/// Op body: one round, its WAL record and its snapshot.
fn round(
    tr: &mut Tracer,
    c: &mut Counters,
    st: &mut State,
    r: usize,
) -> Result<JoinOutcome, String> {
    let out = tr
        .span("core.continuous.round", || {
            st.cont.execute_round(&mut st.snet, &st.cq)
        })
        .map_err(|e| format!("round failed: {e}"))?;
    let mut record = Writer::new();
    record.put_u64(r as u64);
    record.put_u64(round_digest(&out));
    let (snet, cont) = (&st.snet, &st.cont);
    probe::persist(
        tr,
        c,
        &mut st.store,
        r as u64 + 1,
        &record.into_bytes(),
        || {
            let mut w = Writer::new();
            cont.encode_state(&mut w);
            codec::put_net_snapshot(&mut w, &snet.net().export_state());
            w.into_bytes()
        },
    )?;
    Ok(out)
}

fn setup(seed: u64, dir: &Path, tr: &mut Tracer, c: &mut Counters) -> State {
    let _ = std::fs::remove_dir_all(dir);
    let mut snet = network(NODES, DEPLOYMENT);
    resample(tr, &mut snet, seed, 0);
    let family = RangeQueryFamily::ratio_33();
    let c_norm = family.calibrate(&snet, CONTRIBUTORS).normalized_threshold;
    let thresholds: Vec<f64> = family.sigmas(&snet).iter().map(|s| s * c_norm).collect();
    let sql = band_sql(&thresholds);
    let cq = probe::compile(tr, &snet, &sql);
    let mut st = State {
        snet,
        cq,
        sql,
        thresholds,
        cont: ContinuousSensJoin::new(),
        store: CheckpointStore::open(dir).expect("checkpoint dir opens"),
    };
    round(tr, c, &mut st, 0).expect("cold first round runs");
    st
}

/// A run restored from the checkpoint store.
struct Restored {
    snet: SensorNetwork,
    cq: CompiledQuery,
    cont: ContinuousSensJoin,
    /// Sequence number of the snapshot restored.
    seq: u64,
    /// The WAL's valid records.
    wal: Vec<Vec<u8>>,
}

/// Recovers the newest snapshot into a fresh network and executor.
fn recover(tr: &mut Tracer, sql: &str, dir: &Path) -> Result<Restored, String> {
    let mut snet = network(NODES, DEPLOYMENT);
    let cq = probe::compile(tr, &snet, sql);
    tr.enter("core.persist.recover");
    let recovered: Result<_, String> = (|| {
        let store = CheckpointStore::open(dir).map_err(|e| e.to_string())?;
        let rec = store.recover().map_err(|e| e.to_string())?;
        if rec.degraded {
            return Err("the store recovered degraded".to_owned());
        }
        let (seq, payload) = rec.snapshot.ok_or("no snapshot recovered")?;
        let mut cont = ContinuousSensJoin::new();
        let mut r = Reader::new(&payload);
        cont.restore_state(&mut r, &cq).map_err(|e| e.to_string())?;
        let snap = codec::get_net_snapshot(&mut r).map_err(|e| e.to_string())?;
        r.expect_end().map_err(|e| e.to_string())?;
        snet.net_mut().restore_state(&snap);
        Ok((cont, seq, rec.wal))
    })();
    tr.exit();
    let (cont, seq, wal) = recovered.map_err(|e| format!("recovery failed: {e}"))?;
    Ok(Restored {
        snet,
        cq,
        cont,
        seq,
        wal,
    })
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::new("continuous_durable");
    let mut tr = Tracer::new();
    let mut c = Counters::default();
    let dir: PathBuf = cfg
        .out_dir
        .join(format!("continuous-store-{}", std::process::id()));
    let mut st = None;
    for _ in 0..SETUP_REPS {
        // The previous set-up is dropped first, so that set-ups never
        // overlap in memory.
        drop(st.take());
        let (s, secs) = common::timed(|| setup(cfg.seed, &dir, &mut tr, &mut c));
        out.setup_s.push(secs);
        st = Some(s);
    }
    let mut st = st.expect("at least one set-up");
    c = Counters::default();

    let mut shadow = IngestShadow::new(&st.cq);
    let mut digest = Digest::new();
    let mut prefix = Radio::default();
    let mut response_us = 0u64;
    let mut last_digest = 0u64;
    let budget = Budget::new(cfg, PREFIX_ROUNDS);
    let mut i = 0usize;
    while budget.more(i, out.timed_s) {
        let r = i + 1;
        let traced = cfg.trace && i % 2 == 1;
        tr.set_op(i as u64);
        tr.set_on(traced);
        resample(&mut tr, &mut st.snet, cfg.seed, r);
        let delta0 = st.cont.delta_stats();

        let t = Instant::now();
        tr.enter("bench.op");
        let res = round(&mut tr, &mut c, &mut st, r);
        tr.exit();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tr.set_on(false);
        out.record_op(ms, traced);
        out.attempted += 1;

        let outcome = match res {
            Ok(o) => o,
            Err(e) => {
                out.fail(i, e);
                i += 1;
                continue;
            }
        };
        last_digest = round_digest(&outcome);
        if !outcome.complete {
            out.fail(i, "round reported an incomplete result".into());
        } else if let Err(e) =
            check_result(&st.snet, &st.cq, &outcome.result, &outcome.contributors)
        {
            out.fail(i, e);
        } else {
            out.qe += 1;
        }
        if i < PREFIX_ROUNDS {
            digest.u64(last_digest);
            prefix.add(&outcome.stats, 1);
            response_us += outcome.latency_us;
        }

        if traced {
            tr.set_on(true);
            tr.enter("bench.probe");
            c.radio.add(&outcome.stats, 1);
            let delta = st.cont.delta_stats();
            c.ingest_work(
                delta.candidates - delta0.candidates,
                (delta.rows_added - delta0.rows_added) + (delta.rows_removed - delta0.rows_removed),
            );
            shadow.feed(&mut tr, &st.snet);
            let cq = probe::compile(&mut tr, &st.snet, &st.sql);
            probe::engine(&mut tr, &mut c, &st.snet, &cq);
            let mut scratch = st.snet.clone();
            if let Err(e) = probe::sensjoin(&mut tr, &mut c, &mut scratch, &cq) {
                out.problem(e);
            }
            probe::topology_tree(&mut tr, &st.snet);
            tr.exit();
            tr.set_on(false);
        }
        i += 1;
    }
    out.peak_rss_mib = common::peak_rss_mib();
    out.finish_prefix(digest, prefix, response_us, PREFIX_ROUNDS.min(i));

    // Crash/restore check: the uninterrupted run's next round against the
    // same round after recovering from the store.
    tr.set_on(cfg.trace);
    tr.set_op(i as u64);
    tr.enter("bench.probe");
    let next = i + 1;
    resample(&mut tr, &mut st.snet, cfg.seed, next);
    let want = st
        .cont
        .execute_round(&mut st.snet, &st.cq)
        .map(|o| round_digest(&o));
    match (want, recover(&mut tr, &st.sql, &dir)) {
        (Err(e), _) => out.problem(format!("uninterrupted round {next} failed: {e}")),
        (_, Err(e)) => out.problem(e),
        (Ok(want), Ok(mut rs)) => {
            let (seq, wal) = (rs.seq, &rs.wal);
            if seq != i as u64 + 1 {
                out.problem(format!("recovered snapshot {seq}, want {}", i + 1));
            }
            let logged = wal.last().map(|rec| {
                let mut r = Reader::new(rec);
                (r.get_u64().unwrap_or(u64::MAX), r.get_u64().unwrap_or(0))
            });
            if wal.len() != i + 1 || logged != Some((i as u64, last_digest)) {
                out.problem(format!(
                    "WAL holds {} records ending {logged:?}, want {} ending ({i}, {last_digest})",
                    wal.len(),
                    i + 1
                ));
            }
            resample(&mut tr, &mut rs.snet, cfg.seed, next);
            match rs.cont.execute_round(&mut rs.snet, &rs.cq) {
                Ok(o) if round_digest(&o) == want => {
                    out.notes.push(format!(
                        "crash/restore check passed: round {next} digest {want:016x}"
                    ));
                }
                Ok(o) => out.problem(format!(
                    "restored round {next} digest {:016x}, uninterrupted {want:016x}",
                    round_digest(&o)
                )),
                Err(e) => out.problem(format!("restored round {next} failed: {e}")),
            }
        }
    }
    if cfg.trace {
        let sqls: Vec<String> = (0..SERVE_TENANTS)
            .map(|k| {
                let scale = 1.0 + 0.05 * k as f64;
                band_sql(&st.thresholds.iter().map(|t| t * scale).collect::<Vec<_>>())
            })
            .collect();
        if let Err(e) = probe::serve(&mut tr, &mut c, NODES, DEPLOYMENT, &sqls, 2) {
            out.problem(e);
        }
    }
    tr.exit();
    tr.set_on(false);
    if cfg.trace {
        out.layers_from(&tr, &c);
        out.write_trace(cfg, &tr);
    }
    drop(st);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

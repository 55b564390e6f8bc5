//! The Newton workloads: one render-farm job of the paper's animation,
//! on the in-process threads farm or over TCP loopback.

use crate::check::{mismatches, Refs};
use crate::mix::NEWTON;
use crate::out::{epoch, Json};
use crate::probe::{FarmProbe, TimedWorker, WorkerTimes};
use crate::{coherence, has, master_addr, need};
use now_anim::{scenes::from_spec, Animation};
use now_cluster::{
    connect_worker, ConnectConfig, RunReport, TcpClusterConfig, TcpMaster, TcpWorkerConn,
    ThreadCluster, WorkerLogic,
};
use now_core::{scene_fingerprint, FarmConfig, FarmMaster, FarmWorker};
use now_grid::GridSpec;
use now_raytrace::RenderSettings;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Worker processes or threads of a Newton round.
pub const WORKERS: usize = 2;

/// The farm configuration of both Newton workloads: frame division with
/// the paper's 80x80 sub-areas, one tile-pool thread per worker.
pub fn farm_config(coherence: bool) -> FarmConfig {
    FarmConfig {
        coherence,
        settings: RenderSettings {
            threads: 1,
            ..RenderSettings::default()
        },
        ..FarmConfig::paper_default()
    }
}

/// The grid both sides of the farm share.
pub fn shared_spec(anim: &Animation, cfg: &FarmConfig) -> GridSpec {
    GridSpec::for_scene(anim.swept_bounds(), cfg.grid_voxels)
}

/// Print one master's outcome: timestamps, checks and operation counts.
fn report_master(
    probe: FarmProbe,
    report: &RunReport,
    submitted: f64,
    refs: &Refs,
    coherent: bool,
    workers: &[WorkerTimes],
) -> Result<(), String> {
    let m = &probe.inner;
    let want = refs.get("newton")?;
    let bad_frames = mismatches(&m.frame_hashes, want);
    let regions = (m.units_done as usize)
        .checked_div(want.len())
        .unwrap_or(0)
        .max(1);
    let attempted = (want.len() * regions) as u64;
    let failed =
        (m.results_rejected + m.units_requeued + (bad_frames * regions) as u64).min(attempted);
    let rays = m.rays.total_rays();
    // a property of the method: coherence never fires more rays than the
    // plain renders of the same frames
    let rays_ok = !coherent || rays < refs.plain_rays;
    let mut j = Json::new();
    j.num("submitted", submitted)
        .num("first_lease", probe.first_lease.unwrap_or(0.0))
        .nums("frame_done", &probe.frame_done)
        .int("attempted", attempted)
        .int("failed", failed)
        .int("bad_frames", bad_frames as u64)
        .bool("correct", bad_frames == 0 && rays_ok)
        .int("rays", rays)
        .int("plain_rays", refs.plain_rays)
        .int("units", m.units_done)
        .int("units_requeued", m.units_requeued)
        .num("assign_s", probe.times.assign_s)
        .num("integrate_s", probe.times.integrate_s)
        .int("messages", report.messages);
    let wire: u64 = report
        .machines
        .iter()
        .map(|mr| mr.bytes_sent + mr.bytes_received)
        .sum();
    let rtts: Vec<f64> = report.machines.iter().map(|mr| mr.rtt_s).collect();
    j.int("wire_bytes", wire).nums("rtt_s", &rtts);
    let perform: f64 = workers.iter().map(|w| w.perform_s).sum();
    let wait: f64 = workers.iter().map(|w| w.unit_wait_s).sum();
    j.num("perform_s", perform).num("unit_wait_s", wait);
    j.print();
    Ok(())
}

/// `threads --coherence 0|1 --refs FILE [--traced]`: one job on the
/// in-process threads farm.
pub fn cmd_threads(args: &[String]) -> Result<(), String> {
    let cfg = farm_config(coherence(args)?);
    let refs = Refs::load(need(args, "--refs")?)?;
    let anim = Arc::new(from_spec(NEWTON)?);
    let spec = shared_spec(&anim, &cfg);
    let workers = (0..WORKERS).map(|_| FarmWorker::new(Arc::clone(&anim), spec, cfg.clone()));
    let master = FarmProbe::new(FarmMaster::new(&anim, &cfg, WORKERS), has(args, "--traced"));
    let cluster = ThreadCluster::new(WORKERS);
    let submitted = epoch();
    let (probe, report, times) = if has(args, "--traced") {
        let timed: Vec<TimedWorker<FarmWorker>> = workers.map(TimedWorker::new).collect();
        let clocks: Vec<Arc<Mutex<WorkerTimes>>> =
            timed.iter().map(|w| Arc::clone(&w.times)).collect();
        let (probe, report) = cluster.run(master, timed);
        let times = clocks
            .iter()
            .map(|c| *c.lock().expect("worker times lock"))
            .collect();
        (probe, report, times)
    } else {
        let (probe, report) = cluster.run(master, workers.collect::<Vec<_>>());
        (probe, report, Vec::new())
    };
    report_master(probe, &report, submitted, &refs, cfg.coherence, &times)
}

/// `tcp-master --coherence 0|1 --refs FILE [--traced]`: bind loopback,
/// print `listening ADDR`, run one job for [`WORKERS`] worker processes.
pub fn cmd_tcp_master(args: &[String]) -> Result<(), String> {
    let cfg = farm_config(coherence(args)?);
    let refs = Refs::load(need(args, "--refs")?)?;
    let anim = from_spec(NEWTON)?;
    let listener = TcpMaster::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
    println!("listening {addr}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let mut ccfg = TcpClusterConfig::new(WORKERS);
    ccfg.fingerprint = scene_fingerprint(&anim);
    let master = FarmProbe::new(FarmMaster::new(&anim, &cfg, WORKERS), has(args, "--traced"));
    let submitted = epoch();
    let (probe, report) = listener
        .run(master, &ccfg)
        .map_err(|e| format!("tcp master: {e}"))?;
    report_master(probe, &report, submitted, &refs, cfg.coherence, &[])
}

/// `tcp-worker --coherence 0|1 [--traced]`: build the worker, read the
/// master's address from stdin, serve until the master shuts it down.
pub fn cmd_tcp_worker(args: &[String]) -> Result<(), String> {
    let cfg = farm_config(coherence(args)?);
    let anim = from_spec(NEWTON)?;
    let connect = ConnectConfig {
        fingerprint: scene_fingerprint(&anim),
        ..ConnectConfig::default()
    };
    let spec = shared_spec(&anim, &cfg);
    let mut worker = FarmWorker::new(Arc::new(anim), spec, cfg);
    let addr = master_addr()?;
    let conn = connect_worker(&addr, &connect).map_err(|e| format!("connect {addr}: {e}"))?;
    serve_conn(conn, &mut worker, has(args, "--traced"))?.print();
    Ok(())
}

/// Serve an already handshaken connection; returns what the worker did.
pub fn serve_conn<W>(conn: TcpWorkerConn, worker: &mut W, traced: bool) -> Result<Json, String>
where
    W: WorkerLogic,
    W::Unit: now_cluster::Wire,
    W::Result: now_cluster::Wire,
{
    let mut timed = TimedWorker::new(worker);
    let summary = if traced {
        conn.serve(&mut timed)
    } else {
        conn.serve(&mut timed.inner)
    }
    .map_err(|e| format!("worker serve: {e}"))?;
    let times = *timed.times.lock().expect("worker times lock");
    let mut j = Json::new();
    j.int("units", summary.units)
        .num("perform_s", times.perform_s)
        .num("unit_wait_s", times.unit_wait_s);
    Ok(j)
}

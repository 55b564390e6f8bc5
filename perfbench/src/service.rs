//! The service-mix workload: `ServiceMaster` over TCP loopback with a
//! journaled durability root, two service workers, and one closed-loop
//! client process.

use crate::check::{fnv1a, job_hash, mismatches, Refs};
use crate::farm::{serve_conn, WORKERS};
use crate::mix::{self, MixJob, IN_FLIGHT, JOBS_PER_TENANT, TENANTS};
use crate::out::{epoch, Json};
use crate::probe::ServiceProbe;
use crate::{has, master_addr, need, seed};
use now_cluster::net::{encode_frame, read_frame, tag};
use now_cluster::{
    connect_worker, ConnectConfig, Decoder, Encoder, Message, TcpClusterConfig, TcpMaster, Wire,
};
use now_coherence::{PixelRegion, TileUpdate};
use now_core::service::ServiceConfig;
use now_core::{
    serve_service_worker_with, CostModel, JobSpec, JobState, JobStatus, ServiceMaster,
    ServiceWorker,
};
use now_raytrace::RenderSettings;
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

/// The `WELCOME` job header of a service master: the bytes `NOSV` that
/// `run_service_master` sends so workers know they joined a service.
const SERVICE_HEADER: [u8; 4] = *b"NOSV";

fn settings() -> RenderSettings {
    RenderSettings {
        threads: 1,
        ..RenderSettings::default()
    }
}

/// `svc-master --root DIR [--traced]`: bind loopback, print
/// `listening ADDR`, serve until a client drains the service.
pub fn cmd_master(args: &[String]) -> Result<(), String> {
    let cfg = ServiceConfig {
        settings: settings(),
        weights: TENANTS.iter().map(|&(t, w)| (t.to_string(), w)).collect(),
        root: Some(PathBuf::from(need(args, "--root")?)),
        ..ServiceConfig::default()
    };
    let master = ServiceProbe::new(ServiceMaster::new(cfg)?, has(args, "--traced"));
    let listener = TcpMaster::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
    println!("listening {addr}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let mut ccfg = TcpClusterConfig::new(WORKERS);
    ccfg.job_header = SERVICE_HEADER.to_vec();
    let (probe, report) = listener
        .run(master, &ccfg)
        .map_err(|e| format!("service master: {e}"))?;
    let c = probe.inner.counters;
    let waits: Vec<f64> = probe
        .first_unit
        .iter()
        .filter_map(|(id, t)| probe.admitted.get(id).map(|a| t - a))
        .collect();
    let wire: u64 = report
        .machines
        .iter()
        .map(|m| m.bytes_sent + m.bytes_received)
        .sum();
    let rtts: Vec<f64> = report.machines.iter().map(|m| m.rtt_s).collect();
    Json::new()
        .num("first_lease", probe.first_lease.unwrap_or(0.0))
        .nums("queue_wait_s", &waits)
        .int("submitted", c.submitted)
        .int("rejected", c.rejected)
        .int("completed", c.completed)
        .int("scene_lookups", probe.worker_jobs.len() as u64)
        .int("units", probe.times.integrates)
        .int("units_requeued", report.units_reassigned)
        .num("assign_s", probe.times.assign_s)
        .num("integrate_s", probe.times.integrate_s)
        .int("messages", report.messages)
        .int("wire_bytes", wire)
        .nums("rtt_s", &rtts)
        .print();
    Ok(())
}

/// `svc-worker [--traced]`: a scene-agnostic service worker of the
/// master whose address arrives on stdin.
pub fn cmd_worker(args: &[String]) -> Result<(), String> {
    let connect = ConnectConfig::default();
    let mut worker = ServiceWorker::new(settings(), CostModel::default());
    let addr = master_addr()?;
    let mut j = if has(args, "--traced") {
        let conn = connect_worker(&addr, &connect).map_err(|e| format!("connect {addr}: {e}"))?;
        if conn.job_header() != SERVICE_HEADER {
            conn.leave();
            return Err("master is not a render service".to_string());
        }
        serve_conn(conn, &mut worker, true)?
    } else {
        let s = serve_service_worker_with(&mut worker, &addr, &connect)?;
        let mut j = Json::new();
        j.int("units", s.units);
        j
    };
    j.int("scene_builds", worker.scene_builds()).print();
    Ok(())
}

/// One job the client is watching.
struct Track {
    tenant: usize,
    /// Index into the flattened mix (the reference file's key).
    index: usize,
    submitted: f64,
    width: u32,
    height: u32,
    /// Reassembled frames, quantised RGB, row-major.
    canvases: Vec<Vec<u8>>,
    /// Wall time at which each frame was reported finalized.
    frame_done: Vec<f64>,
    /// Set when the submission or the watch was refused.
    refused: bool,
}

/// Requests awaiting their in-order reply on the client connection.
enum Pending {
    Submit { id: u64, sent: f64 },
    Watch { id: u64 },
}

struct Client<'a> {
    stream: TcpStream,
    mix: &'a [Vec<MixJob>],
    refs: &'a Refs,
    next_of_tenant: Vec<usize>,
    next_id: u64,
    pending: VecDeque<Pending>,
    live: BTreeMap<u64, Track>,
    // per finished job
    attempted: u64,
    failed: u64,
    wrong: u64,
    job_submit: Vec<f64>,
    job_done: Vec<f64>,
    first_frame: Vec<f64>,
    frame_latency: Vec<f64>,
    submit_rtt: Vec<f64>,
}

fn frame(t: u32, payload: Vec<u8>) -> Result<Vec<u8>, String> {
    encode_frame(&Message {
        from: 0,
        to: 0,
        tag: t,
        payload,
    })
    .map_err(|e| format!("encode: {e}"))
}

impl Client<'_> {
    /// Submit the tenant's next job, if it has one, with its watch
    /// pipelined in the same write: the service reads both frames in one
    /// sweep, so the watch is registered before any unit of the job can
    /// be integrated and the stream covers every frame. The job id is
    /// predicted: this client is the service's only submitter and ids
    /// are handed out in order from 1.
    fn submit_next(&mut self, tenant: usize) -> Result<(), String> {
        let k = self.next_of_tenant[tenant];
        let Some(job) = self.mix[tenant].get(k) else {
            return Ok(());
        };
        self.next_of_tenant[tenant] += 1;
        let spec = JobSpec {
            tenant: TENANTS[tenant].0.to_string(),
            priority: job.priority,
            scene: job.scene.clone(),
            coherence: job.coherence,
            ..JobSpec::default()
        };
        let id = self.next_id;
        self.next_id += 1;
        let mut e = Encoder::new();
        spec.wire_encode(&mut e);
        let mut bytes = frame(tag::SUBMIT, e.finish())?;
        let mut e = Encoder::new();
        e.u64(id);
        bytes.extend(frame(tag::WATCH, e.finish())?);
        let sent = epoch();
        self.stream
            .write_all(&bytes)
            .map_err(|e| format!("send: {e}"))?;
        self.pending.push_back(Pending::Submit { id, sent });
        self.pending.push_back(Pending::Watch { id });
        self.live.insert(
            id,
            Track {
                tenant,
                index: tenant * JOBS_PER_TENANT + k,
                submitted: sent,
                width: 0,
                height: 0,
                canvases: Vec::new(),
                frame_done: Vec::new(),
                refused: false,
            },
        );
        self.attempted += 1;
        Ok(())
    }

    fn reply(&mut self, t: u32, payload: &[u8]) -> Result<(), String> {
        let req = self.pending.pop_front().ok_or("reply without a request")?;
        let mut d = Decoder::new(payload);
        match req {
            Pending::Submit { id, sent } => {
                let admitted = t == tag::JOB_OK && d.u64() == Ok(id);
                if admitted {
                    self.submit_rtt.push(epoch() - sent);
                } else if let Some(track) = self.live.get_mut(&id) {
                    track.refused = true;
                }
            }
            Pending::Watch { id } => {
                let ack = (t == tag::JOB_OK)
                    .then(|| -> Option<(JobStatus, u32, u32)> {
                        let st = JobStatus::wire_decode(&mut d).ok()?;
                        Some((st, d.u32().ok()?, d.u32().ok()?))
                    })
                    .flatten();
                let Some(track) = self.live.get_mut(&id) else {
                    return Ok(());
                };
                match ack {
                    Some((st, w, h)) if !track.refused && !st.state.terminal() => {
                        track.width = w;
                        track.height = h;
                        track.canvases = vec![Vec::new(); st.frames as usize];
                    }
                    _ => {
                        // refused, or it ended before the watch took: no
                        // stream will follow for this job
                        let tenant = track.tenant;
                        track.refused = true;
                        self.finish(id, None);
                        self.submit_next(tenant)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Apply one pushed tile to the job's reassembled frames; a frame's
    /// region starts from the previous frame's pixels, as the service's
    /// own watch client assembles them.
    fn delta(&mut self, payload: &[u8]) -> Result<(), String> {
        let mut d = Decoder::new(payload);
        let bad = |e| format!("bad frame delta: {e}");
        let job = d.u64().map_err(bad)?;
        let f = d.u32().map_err(bad)? as usize;
        let region = PixelRegion {
            x0: d.u32().map_err(bad)?,
            y0: d.u32().map_err(bad)?,
            w: d.u32().map_err(bad)?,
            h: d.u32().map_err(bad)?,
        };
        let tile = TileUpdate {
            mode: d.u8().map_err(bad)?,
            count: d.u32().map_err(bad)?,
            payload: d.bytes().map_err(bad)?.to_vec(),
        };
        let Some(track) = self.live.get_mut(&job) else {
            return Ok(());
        };
        let (w, area) = (track.width as usize, (track.width * track.height) as usize);
        if f >= track.canvases.len() || region.x0 + region.w > track.width {
            return Err(format!("frame delta outside job {job}"));
        }
        if track.canvases[f].is_empty() {
            track.canvases[f] = vec![0u8; 3 * area];
        }
        if f > 0 && !track.canvases[f - 1].is_empty() {
            let (before, after) = track.canvases.split_at_mut(f);
            let (prev, cur) = (&before[f - 1], &mut after[0]);
            for row in region.y0..region.y0 + region.h {
                let a = 3 * (row as usize * w + region.x0 as usize);
                let b = a + 3 * region.w as usize;
                if b <= cur.len() {
                    cur[a..b].copy_from_slice(&prev[a..b]);
                }
            }
        }
        let pixels = tile
            .decode(region, track.width, &mut None)
            .map_err(|e| format!("bad frame delta tile: {e}"))?;
        for (id, rgb) in pixels {
            let at = 3 * id as usize;
            let px = track.canvases[f]
                .get_mut(at..at + 3)
                .ok_or_else(|| format!("pixel {id} outside job {job}"))?;
            px.copy_from_slice(&rgb);
        }
        Ok(())
    }

    fn progress(&mut self, payload: &[u8]) -> Result<(), String> {
        let st = JobStatus::wire_decode(&mut Decoder::new(payload))
            .map_err(|e| format!("bad progress push: {e}"))?;
        let Some(track) = self.live.get_mut(&st.id) else {
            return Ok(());
        };
        let now = epoch();
        let done = (st.frames_done as usize).min(track.canvases.len());
        if done > track.frame_done.len() {
            track.frame_done.resize(done, now);
        }
        if st.state.terminal() {
            let tenant = track.tenant;
            self.finish(st.id, Some((st, now)));
            self.submit_next(tenant)?;
        }
        Ok(())
    }

    /// Retire a job: check it and record its latencies.
    fn finish(&mut self, id: u64, end: Option<(JobStatus, f64)>) {
        let Some(track) = self.live.remove(&id) else {
            return;
        };
        let Some((st, done_at)) = end.filter(|_| !track.refused) else {
            self.failed += 1;
            return;
        };
        let want = self.refs.get(&format!("job{}", track.index)).unwrap_or(&[]);
        let got: Vec<u64> = track
            .canvases
            .iter()
            .map(|c| fnv1a(c.iter().copied()))
            .collect();
        let frames_ok = !want.is_empty() && mismatches(&got, want) == 0;
        let hash_ok = st.job_hash == job_hash(want);
        if st.state != JobState::Done || !frames_ok || !hash_ok {
            self.failed += 1;
            if st.state == JobState::Done {
                self.wrong += 1;
            }
            return;
        }
        self.job_submit.push(track.submitted);
        self.job_done.push(done_at);
        if let Some(&first) = track.frame_done.first() {
            self.first_frame.push(first - track.submitted);
        }
        self.frame_latency
            .extend(track.frame_done.iter().map(|t| t - track.submitted));
    }
}

/// `svc-client --seed S --refs FILE`: connect to the master whose
/// address arrives on stdin, keep [`IN_FLIGHT`] jobs in flight per tenant
/// until every job of the seeded mix has finished, check each one, then
/// drain the service.
pub fn cmd_client(args: &[String]) -> Result<(), String> {
    let refs = Refs::load(need(args, "--refs")?)?;
    let mix = mix::service_mix(seed(args)?);
    let addr = master_addr()?;
    let stream = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| e.to_string())?;
    let mut c = Client {
        stream,
        mix: &mix,
        refs: &refs,
        next_of_tenant: vec![0; TENANTS.len()],
        next_id: 1,
        pending: VecDeque::new(),
        live: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        wrong: 0,
        job_submit: Vec::new(),
        job_done: Vec::new(),
        first_frame: Vec::new(),
        frame_latency: Vec::new(),
        submit_rtt: Vec::new(),
    };
    for tenant in 0..TENANTS.len() {
        for _ in 0..IN_FLIGHT {
            c.submit_next(tenant)?;
        }
    }
    while !c.live.is_empty() {
        let (msg, _) = read_frame(&mut c.stream).map_err(|e| format!("recv: {e}"))?;
        match msg.tag {
            tag::JOB_OK | tag::SVC_ERR => c.reply(msg.tag, &msg.payload)?,
            tag::FRAME_DELTA => c.delta(&msg.payload)?,
            tag::FRAME_PROGRESS => c.progress(&msg.payload)?,
            _ => {}
        }
    }
    let drain = frame(tag::DRAIN, Vec::new())?;
    c.stream
        .write_all(&drain)
        .map_err(|e| format!("send: {e}"))?;
    loop {
        let (msg, _) = read_frame(&mut c.stream).map_err(|e| format!("recv: {e}"))?;
        if msg.tag == tag::JOB_OK {
            break;
        }
    }
    Json::new()
        .int("attempted", c.attempted)
        .int("failed", c.failed)
        .bool("correct", c.wrong == 0)
        .nums("job_submit", &c.job_submit)
        .nums("job_done", &c.job_done)
        .nums("first_frame_s", &c.first_frame)
        .nums("frame_latency_s", &c.frame_latency)
        .nums("submit_rtt_s", &c.submit_rtt)
        .print();
    Ok(())
}

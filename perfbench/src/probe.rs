//! Wrappers around the program's master and worker logic.
//!
//! Untraced rounds still need three observations the program does not
//! publish: when the first unit was leased (the end of set-up), when each
//! frame was finalized (read from `FarmMaster::frames_finalized()` after
//! every integrate) and, for the service, when each job was admitted and
//! first leased. Those cost a counter read or a map insert per call. A
//! traced round also times every call into the master's
//! `assign`/`integrate` and the workers' `perform`, and the gap a worker
//! waits between units.

use crate::out::epoch;
use now_cluster::net::tag;
use now_cluster::{Decoder, MasterLogic, MasterWork, WorkCost, WorkerLogic};
use now_core::farm::UnitOutput;
use now_core::partition::RenderUnit;
use now_core::{FarmMaster, ServiceMaster, ServiceUnit};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Master-side call timings (traced rounds only).
#[derive(Debug, Default, Clone, Copy)]
pub struct MasterTimes {
    pub assign_s: f64,
    pub integrate_s: f64,
    pub integrates: u64,
}

fn timed<T>(on: bool, acc: &mut f64, f: impl FnOnce() -> T) -> T {
    if !on {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed().as_secs_f64();
    out
}

/// [`FarmMaster`] with set-up and frame-finalization timestamps.
pub struct FarmProbe {
    pub inner: FarmMaster,
    traced: bool,
    pub times: MasterTimes,
    pub first_lease: Option<f64>,
    /// Wall time at which each frame was finalized, in frame order.
    pub frame_done: Vec<f64>,
}

impl FarmProbe {
    pub fn new(inner: FarmMaster, traced: bool) -> FarmProbe {
        FarmProbe {
            inner,
            traced,
            times: MasterTimes::default(),
            first_lease: None,
            frame_done: Vec::new(),
        }
    }
}

impl MasterLogic for FarmProbe {
    type Unit = RenderUnit;
    type Result = UnitOutput;

    fn assign(&mut self, worker: usize) -> Option<RenderUnit> {
        let inner = &mut self.inner;
        let unit = timed(self.traced, &mut self.times.assign_s, || {
            inner.assign(worker)
        });
        if unit.is_some() && self.first_lease.is_none() {
            self.first_lease = Some(epoch());
        }
        unit
    }

    fn integrate(&mut self, w: usize, unit: RenderUnit, r: UnitOutput) -> Option<MasterWork> {
        let inner = &mut self.inner;
        let out = timed(self.traced, &mut self.times.integrate_s, || {
            inner.integrate(w, unit, r)
        });
        self.times.integrates += 1;
        let done = self.inner.frames_finalized();
        if done > self.frame_done.len() {
            let t = epoch();
            self.frame_done.resize(done, t);
        }
        out
    }

    fn unit_bytes(&self, unit: &RenderUnit) -> u64 {
        self.inner.unit_bytes(unit)
    }

    fn on_reassign(&mut self, from: usize, unit: &mut RenderUnit) {
        self.inner.on_reassign(from, unit)
    }

    fn on_worker_lost(&mut self, worker: usize) {
        self.inner.on_worker_lost(worker)
    }

    fn all_done(&self) -> bool {
        self.inner.all_done()
    }
}

/// [`ServiceMaster`] with admission, first-lease and set-up timestamps.
pub struct ServiceProbe {
    pub inner: ServiceMaster,
    traced: bool,
    pub times: MasterTimes,
    pub first_lease: Option<f64>,
    /// Job id -> wall time its submission was admitted.
    pub admitted: BTreeMap<u64, f64>,
    /// Job id -> wall time its first unit was leased.
    pub first_unit: BTreeMap<u64, f64>,
    /// (worker, job) pairs leased: each is one scene lookup on a worker.
    pub worker_jobs: BTreeSet<(usize, u64)>,
}

impl ServiceProbe {
    pub fn new(inner: ServiceMaster, traced: bool) -> ServiceProbe {
        ServiceProbe {
            inner,
            traced,
            times: MasterTimes::default(),
            first_lease: None,
            admitted: BTreeMap::new(),
            first_unit: BTreeMap::new(),
            worker_jobs: BTreeSet::new(),
        }
    }
}

impl MasterLogic for ServiceProbe {
    type Unit = ServiceUnit;
    type Result = UnitOutput;

    fn assign(&mut self, worker: usize) -> Option<ServiceUnit> {
        let inner = &mut self.inner;
        let unit = timed(self.traced, &mut self.times.assign_s, || {
            inner.assign(worker)
        });
        if let Some(u) = &unit {
            let t = epoch();
            self.first_lease.get_or_insert(t);
            self.first_unit.entry(u.job).or_insert(t);
            self.worker_jobs.insert((worker, u.job));
        }
        unit
    }

    fn integrate(&mut self, w: usize, unit: ServiceUnit, r: UnitOutput) -> Option<MasterWork> {
        let inner = &mut self.inner;
        let out = timed(self.traced, &mut self.times.integrate_s, || {
            inner.integrate(w, unit, r)
        });
        self.times.integrates += 1;
        out
    }

    fn unit_bytes(&self, unit: &ServiceUnit) -> u64 {
        self.inner.unit_bytes(unit)
    }

    fn on_reassign(&mut self, from: usize, unit: &mut ServiceUnit) {
        self.inner.on_reassign(from, unit)
    }

    fn on_worker_lost(&mut self, worker: usize) {
        self.inner.on_worker_lost(worker)
    }

    fn all_done(&self) -> bool {
        self.inner.all_done()
    }

    fn client_frame(&mut self, client: u64, t: u32, payload: &[u8]) -> Option<(u32, Vec<u8>)> {
        let reply = self.inner.client_frame(client, t, payload);
        if let (tag::SUBMIT, Some((tag::JOB_OK, body))) = (t, &reply) {
            if let Ok(id) = Decoder::new(body).u64() {
                self.admitted.insert(id, epoch());
            }
        }
        reply
    }

    fn client_pushes(&mut self) -> Vec<(u64, u32, Vec<u8>)> {
        self.inner.client_pushes()
    }

    fn client_gone(&mut self, client: u64) {
        self.inner.client_gone(client)
    }

    fn service_active(&self) -> bool {
        self.inner.service_active()
    }
}

/// Worker-side call timings, shared with the thread that runs the worker.
#[derive(Debug, Default, Clone, Copy)]
pub struct WorkerTimes {
    pub perform_s: f64,
    /// Time from returning one result to receiving the next unit.
    pub unit_wait_s: f64,
}

/// A worker whose `perform` calls are timed.
pub struct TimedWorker<W> {
    pub inner: W,
    pub times: Arc<Mutex<WorkerTimes>>,
    last_return: Option<Instant>,
}

impl<W> TimedWorker<W> {
    pub fn new(inner: W) -> TimedWorker<W> {
        TimedWorker {
            inner,
            times: Arc::default(),
            last_return: None,
        }
    }
}

impl<W: WorkerLogic> WorkerLogic for TimedWorker<W> {
    type Unit = W::Unit;
    type Result = W::Result;

    fn perform(&mut self, unit: &W::Unit) -> (W::Result, WorkCost) {
        let t0 = Instant::now();
        let out = self.inner.perform(unit);
        let t1 = Instant::now();
        let mut times = self.times.lock().expect("worker times lock");
        if let Some(prev) = self.last_return {
            times.unit_wait_s += t0.duration_since(prev).as_secs_f64();
        }
        times.perform_s += t1.duration_since(t0).as_secs_f64();
        self.last_return = Some(t1);
        out
    }
}

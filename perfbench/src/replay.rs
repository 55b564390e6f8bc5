//! The per-layer replay: one workload's units, re-run serially in one
//! process through the layer functions a worker and master call, each
//! call timed from here.
//!
//! Units come from the program's own `Scheduler` for the workload's
//! partition scheme, so the replay renders the same regions of the same
//! frames in the order one worker would. Per unit it calls:
//! `Animation::scene_at`, `GridAccel::build_with_spec`, then either a
//! plain `render_pixels_par` with a `NullListener` over the region, or
//! `CoherentRenderer::render_next` plus, to split its time,
//! `changed_voxels`, `CoherenceEngine::dirty_pixels` (on a copy of the
//! engine) and a `NullListener` render of the pixels it recomputed; then
//! `TileUpdate::encode` and `decode`. Journaled workloads also write each
//! frame with `image_io::tga_bytes` + `write_atomic` and append the
//! journal records with `JournalWriter::append`.

use crate::farm::{farm_config, shared_spec};
use crate::mix::{self, NEWTON};
use crate::out::Json;
use crate::{need, positional, seed};
use now_anim::{scenes::from_spec, Animation};
use now_cluster::{JournalFaultPlan, JournalWriter};
use now_coherence::{
    changed_voxels, ChangeSet, CoherentRenderer, PixelRegion, RegionBuffer, TileUpdate,
};
use now_core::partition::{PartitionScheme, Scheduler};
use now_core::{FarmConfig, JobSpec};
use now_raytrace::image_io::{tga_bytes, write_atomic};
use now_raytrace::{
    render_frame, render_pixels_par, Framebuffer, GridAccel, NullListener, PixelId, RayStats, Scene,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Add the wall time of `$e` to `$acc` and yield its value.
macro_rules! timed {
    ($acc:expr, $e:expr) => {{
        let t0 = Instant::now();
        let v = $e;
        $acc += t0.elapsed().as_secs_f64();
        v
    }};
}

/// Per-layer totals of one replay.
#[derive(Debug, Default)]
struct Layers {
    scene_at_s: f64,
    grid_build_s: f64,
    grid_builds: u64,
    trace_s: f64,
    rays: u64,
    mark_s: f64,
    marks: u64,
    recorded_rays: u64,
    change_s: f64,
    changed_voxels: u64,
    dirty_s: f64,
    recomputed: u64,
    /// recomputed pixels of frames after a stream's first
    incremental: u64,
    /// of those, pixels whose quantised colour changed
    useful: u64,
    engine_peak: usize,
    encode_s: f64,
    decode_s: f64,
    result_bytes: u64,
    frame_write_s: f64,
    journal_append_s: f64,
}

/// Coherence state of one region's frame sequence.
struct Stream {
    region: PixelRegion,
    next_frame: u32,
    renderer: CoherentRenderer,
    marks: u64,
    prev: Option<(Scene, Framebuffer)>,
}

/// Where a journaled job writes its frames and records.
struct JobIo {
    dir: PathBuf,
    journal: JournalWriter,
}

impl JobIo {
    fn create(dir: PathBuf) -> Result<JobIo, String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        let journal = open_journal(&dir.join("run.journal"))?;
        Ok(JobIo { dir, journal })
    }
}

fn open_journal(path: &Path) -> Result<JournalWriter, String> {
    JournalWriter::create(path, JournalFaultPlan::none())
        .map_err(|e| format!("create {}: {e}", path.display()))
}

fn append(l: &mut Layers, journal: &mut JournalWriter, len: usize) -> Result<(), String> {
    let record = vec![0x5a; len];
    timed!(l.journal_append_s, journal.append(&record)).map_err(|e| format!("append: {e}"))?;
    Ok(())
}

/// Record sizes of the farm journal: a unit record (kind, unit, pixel
/// hash) and a frame record (kind, frame, frame hash).
const UNIT_RECORD: usize = 1 + 24 + 8;
const FRAME_RECORD: usize = 1 + 4 + 8;

fn replay_job(
    anim: &Animation,
    cfg: &FarmConfig,
    mut io: Option<&mut JobIo>,
    l: &mut Layers,
) -> Result<(), String> {
    let (w, h) = (anim.base.camera.width(), anim.base.camera.height());
    let spec = shared_spec(anim, cfg);
    let mut sched = Scheduler::new(cfg.scheme, w, h, anim.frames as u32, 1);
    let mut stream: Option<Stream> = None;
    let (mut send, mut recv): (Option<RegionBuffer>, Option<RegionBuffer>) = (None, None);
    let mut wire_next = 0;
    while let Some(unit) = sched.next_unit(0) {
        let scene = timed!(l.scene_at_s, anim.scene_at(unit.frame as usize));
        let mut t_build = 0.0;
        let accel = timed!(t_build, GridAccel::build_with_spec(&scene, spec));
        l.grid_build_s += t_build;
        l.grid_builds += 1;
        let mut rays = RayStats::default();
        let (fb, ids) = if cfg.coherence {
            let fresh = unit.restart
                || stream
                    .as_ref()
                    .is_none_or(|s| s.region != unit.region || s.next_frame != unit.frame);
            if fresh {
                stream = Some(Stream {
                    region: unit.region,
                    next_frame: unit.frame,
                    renderer: CoherentRenderer::with_region_and_block(
                        spec,
                        w,
                        h,
                        unit.region,
                        1,
                        cfg.settings.clone(),
                    ),
                    marks: 0,
                    prev: None,
                });
            }
            let s = stream.as_mut().expect("stream just ensured");
            let (mut t_change, mut t_dirty, mut t_next, mut t_null) = (0.0, 0.0, 0.0, 0.0);
            if let Some((prev_scene, _)) = &s.prev {
                let change = timed!(t_change, changed_voxels(&spec, prev_scene, &scene));
                if let ChangeSet::Voxels(vs) = &change {
                    let mut engine = s.renderer.engine().clone();
                    timed!(t_dirty, engine.dirty_pixels(vs));
                }
            }
            let (fb, rep) = timed!(t_next, s.renderer.render_next(&scene));
            let mut scratch = Framebuffer::new(w, h);
            timed!(
                t_null,
                render_pixels_par(
                    &scene,
                    &accel,
                    &cfg.settings,
                    &mut scratch,
                    &rep.rendered,
                    &mut NullListener,
                    &mut rays,
                )
            );
            l.trace_s += t_null;
            l.change_s += t_change;
            l.dirty_s += t_dirty;
            l.mark_s += t_next - t_build - t_change - t_dirty - t_null;
            l.marks += rep.coherence.marks - s.marks;
            s.marks = rep.coherence.marks;
            l.recorded_rays += rep.rays.total_rays();
            l.changed_voxels += rep.changed_voxels as u64;
            l.recomputed += rep.pixels_rendered as u64;
            if let Some((_, prev_fb)) = &s.prev {
                l.incremental += rep.rendered.len() as u64;
                l.useful += rep
                    .rendered
                    .iter()
                    .filter(|&&id| fb.get_id(id).to_u8() != prev_fb.get_id(id).to_u8())
                    .count() as u64;
            }
            l.engine_peak = l.engine_peak.max(s.renderer.memory_bytes());
            s.prev = Some((scene, fb.clone()));
            s.next_frame = unit.frame + 1;
            (fb, rep.rendered)
        } else {
            let ids: Vec<PixelId> = unit.region.pixel_ids(w).collect();
            let mut fb = Framebuffer::new(w, h);
            timed!(
                l.trace_s,
                render_pixels_par(
                    &scene,
                    &accel,
                    &cfg.settings,
                    &mut fb,
                    &ids,
                    &mut NullListener,
                    &mut rays,
                )
            );
            (fb, ids)
        };
        l.rays += rays.total_rays();
        let pixels: Vec<(PixelId, [u8; 3])> = ids
            .iter()
            .map(|&id| {
                let (r, g, b) = fb.get_id(id).to_u8();
                (id, [r, g, b])
            })
            .collect();
        // the farm worker's stream discipline: any discontinuity sends a
        // stream-resetting FULL update
        let continuous = !unit.restart
            && wire_next == unit.frame
            && send.as_ref().is_some_and(|b| b.region() == unit.region);
        if !continuous {
            send = None;
            recv = None;
        }
        let update = timed!(
            l.encode_s,
            TileUpdate::encode(&pixels, unit.region, w, &mut send, true)
        );
        wire_next = unit.frame + 1;
        l.result_bytes += update.wire_len();
        timed!(l.decode_s, update.decode(unit.region, w, &mut recv))
            .map_err(|e| format!("replayed tile does not decode: {e}"))?;
        if let Some(io) = io.as_deref_mut() {
            // journaled jobs are one region each: every unit ends a frame
            append(l, &mut io.journal, UNIT_RECORD)?;
            let path = io.dir.join(format!("frame_{:04}.tga", unit.frame));
            timed!(l.frame_write_s, write_atomic(&path, &tga_bytes(&fb)))
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            append(l, &mut io.journal, FRAME_RECORD)?;
        }
    }
    Ok(())
}

/// Mean grid steps per ray over plain renders of `frames`, read from the
/// program's own `grid.steps_per_ray` trace histogram.
fn steps_per_ray(jobs: &[(&Animation, &FarmConfig)], frames: &[usize]) -> f64 {
    let ((), snap) = now_trace::capture(|| {
        for (anim, cfg) in jobs {
            let spec = shared_spec(anim, cfg);
            for &f in frames.iter().filter(|&&f| f < anim.frames) {
                let scene = anim.scene_at(f);
                let accel = GridAccel::build_with_spec(&scene, spec);
                let mut rays = RayStats::default();
                render_frame(&scene, &accel, &cfg.settings, &mut NullListener, &mut rays);
            }
        }
    });
    snap.hists
        .get("grid.steps_per_ray")
        .map_or(0.0, |h| h.mean())
}

/// `replay WORKLOAD --seed S --dir DIR`: replay one workload's units and
/// print the per-layer totals.
pub fn cmd_replay(args: &[String]) -> Result<(), String> {
    let workload = positional(args)?;
    let dir = PathBuf::from(need(args, "--dir")?);
    let mut l = Layers::default();
    let steps = if workload.starts_with("newton") {
        let anim = from_spec(NEWTON)?;
        let cfg = farm_config(workload == "newton-coherent-tcp");
        replay_job(&anim, &cfg, None, &mut l)?;
        steps_per_ray(&[(&anim, &cfg)], &[0, 11, 22, 33, 44])
    } else {
        let mix = mix::service_mix(seed(args)?);
        let mut jobs: Vec<(Animation, FarmConfig)> = Vec::new();
        for job in mix::flat(&mix) {
            let cfg = FarmConfig {
                scheme: PartitionScheme::SequenceDivision { adaptive: true },
                coherence: job.coherence,
                grid_voxels: JobSpec::default().grid_voxels,
                ..farm_config(job.coherence)
            };
            jobs.push((from_spec(&job.scene)?, cfg));
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        // the service journal: a submission and a completion per job
        let mut service = open_journal(&dir.join("service.journal"))?;
        for (i, (anim, cfg)) in jobs.iter().enumerate() {
            append(&mut l, &mut service, 64)?;
            let mut io = JobIo::create(dir.join(format!("job_{i:06}")))?;
            replay_job(anim, cfg, Some(&mut io), &mut l)?;
            append(&mut l, &mut service, 1 + 8 + 8 + 4)?;
        }
        let refs: Vec<(&Animation, &FarmConfig)> = jobs.iter().map(|(a, c)| (a, c)).collect();
        steps_per_ray(&refs, &[0])
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    Json::new()
        .int("raytrace.rays", l.rays)
        .num("raytrace.trace_s", l.trace_s)
        .num("raytrace.rays_per_s", ratio(l.rays as f64, l.trace_s))
        .num("grid.build_s", l.grid_build_s)
        .int("grid.builds", l.grid_builds)
        .num("grid.steps_per_ray", steps)
        .num("anim.scene_at_s", l.scene_at_s)
        .num("coherence.mark_s", l.mark_s)
        .num(
            "coherence.marks_per_ray",
            ratio(l.marks as f64, l.recorded_rays as f64),
        )
        .num("coherence.change_s", l.change_s)
        .int("coherence.changed_voxels", l.changed_voxels)
        .num("coherence.dirty_s", l.dirty_s)
        .int("coherence.recomputed_pixels", l.recomputed)
        .num(
            "coherence.useful_recompute_ratio",
            ratio(l.useful as f64, l.incremental as f64),
        )
        .num(
            "coherence.engine_mb",
            l.engine_peak as f64 / (1 << 20) as f64,
        )
        .num("coherence.encode_s", l.encode_s)
        .num("coherence.decode_s", l.decode_s)
        .int("coherence.result_bytes", l.result_bytes)
        .num("io.frame_write_s", l.frame_write_s)
        .num("journal.append_s", l.journal_append_s)
        .print();
    Ok(())
}

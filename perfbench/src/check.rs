//! Output checks made apart from the program.
//!
//! A reference frame is a plain, single-threaded `render_frame` of
//! `Animation::scene_at(f)` with its own grid: no coherence, tile pool,
//! partition, wire or master assembly takes part. Its hash is FNV-1a over
//! the quantised RGB bytes in row order, computed here. FNV-1a changes
//! whenever any single byte changes (each step is a bijection of the
//! state), so equal hashes mean the frames match byte for byte.

use crate::mix::{self, NEWTON};
use crate::out::Json;
use crate::{need, positional, seed};
use now_anim::{scenes::from_spec, Animation};
use now_raytrace::{render_frame, Framebuffer, GridAccel, NullListener, RayStats, RenderSettings};
use std::collections::BTreeMap;

/// FNV-1a, 64 bit.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Quantised RGB bytes of a frame, row-major.
pub fn rgb_bytes(fb: &Framebuffer) -> Vec<u8> {
    fb.pixels()
        .iter()
        .flat_map(|c| {
            let (r, g, b) = c.to_u8();
            [r, g, b]
        })
        .collect()
}

/// The hash a correct frame must carry.
pub fn frame_hash(fb: &Framebuffer) -> u64 {
    fnv1a(rgb_bytes(fb))
}

/// The service's job hash: FNV-1a over the frame hashes, little-endian.
pub fn job_hash(frames: &[u64]) -> u64 {
    fnv1a(frames.iter().flat_map(|h| h.to_le_bytes()))
}

/// Frames of `got` that differ from `want`; a missing or extra frame
/// counts as a mismatch.
pub fn mismatches(got: &[u64], want: &[u64]) -> usize {
    let differ = got.iter().zip(want).filter(|(g, w)| g != w).count();
    differ + got.len().abs_diff(want.len())
}

/// Plain renders of every frame: their hashes and total rays. Frames are
/// spread over two threads, each rendering whole frames serially.
pub fn reference(anim: &Animation) -> (Vec<u64>, u64) {
    let frames = anim.frames;
    let mut out: Vec<(u64, u64)> = vec![(0, 0); frames];
    let render = |f: usize| -> (u64, u64) {
        let scene = anim.scene_at(f);
        let accel = GridAccel::build(&scene);
        let mut rays = RayStats::default();
        let fb = render_frame(
            &scene,
            &accel,
            &RenderSettings::default(),
            &mut NullListener,
            &mut rays,
        );
        (frame_hash(&fb), rays.total_rays())
    };
    std::thread::scope(|s| {
        let (even, odd): (Vec<_>, Vec<_>) =
            out.iter_mut().enumerate().partition(|(i, _)| i % 2 == 0);
        let render = &render;
        let job = move |part: Vec<(usize, &mut (u64, u64))>| {
            for (f, slot) in part {
                *slot = render(f);
            }
        };
        let handle = s.spawn(move || job(odd));
        job(even);
        handle.join().expect("reference thread");
    });
    let rays = out.iter().map(|&(_, r)| r).sum();
    (out.into_iter().map(|(h, _)| h).collect(), rays)
}

/// References of one workload, as written by `refs` and read by the
/// round processes: frame hashes per key, plus the plain ray count.
#[derive(Debug, Default)]
pub struct Refs {
    pub frames: BTreeMap<String, Vec<u64>>,
    pub plain_rays: u64,
}

impl Refs {
    pub fn load(path: &str) -> Result<Refs, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let mut refs = Refs::default();
        for line in text.lines() {
            let mut words = line.split_whitespace();
            let Some(key) = words.next() else { continue };
            let vals: Result<Vec<u64>, _> = words.map(|w| u64::from_str_radix(w, 16)).collect();
            let vals = vals.map_err(|_| format!("bad reference line {line:?}"))?;
            if key == "rays" {
                refs.plain_rays = vals.first().copied().unwrap_or(0);
            } else {
                refs.frames.insert(key.to_string(), vals);
            }
        }
        Ok(refs)
    }

    pub fn get(&self, key: &str) -> Result<&[u64], String> {
        self.frames
            .get(key)
            .map(Vec::as_slice)
            .ok_or_else(|| format!("no reference for {key}"))
    }
}

/// `refs WORKLOAD --seed S --out FILE`: render the references of one
/// workload and write them as `KEY HASH...` lines (hex).
pub fn cmd_refs(args: &[String]) -> Result<(), String> {
    let workload = positional(args)?;
    let path = need(args, "--out")?;
    let mut text = String::new();
    let mut line = |key: &str, vals: &[u64]| {
        text.push_str(key);
        for v in vals {
            text.push_str(&format!(" {v:x}"));
        }
        text.push('\n');
    };
    let mut distinct = 0;
    if workload.starts_with("newton") {
        let (hashes, rays) = reference(&from_spec(NEWTON)?);
        line("newton", &hashes);
        line("rays", &[rays]);
        distinct = 1;
    } else {
        // one render per distinct scene content, however it is spelled
        let mix = mix::service_mix(seed(args)?);
        let mut by_content: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for (i, job) in mix::flat(&mix).into_iter().enumerate() {
            let anim = from_spec(&job.scene)?;
            let hashes = by_content
                .entry(format!("{anim:?}"))
                .or_insert_with(|| {
                    distinct += 1;
                    reference(&anim).0
                })
                .clone();
            line(&format!("job{i}"), &hashes);
        }
    }
    std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?;
    Json::new().int("distinct_scenes", distinct).print();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_frame() -> Framebuffer {
        let anim = from_spec("demo:glassball:2:24x18").unwrap();
        let scene = anim.scene_at(1);
        let mut rays = RayStats::default();
        render_frame(
            &scene,
            &GridAccel::build(&scene),
            &RenderSettings::default(),
            &mut NullListener,
            &mut rays,
        )
    }

    #[test]
    fn the_reference_hash_is_the_programs_frame_hash() {
        let fb = small_frame();
        assert_eq!(frame_hash(&fb), now_core::farm::frame_hash(&fb));
    }

    #[test]
    fn a_frame_one_pixel_off_fails_the_check() {
        let fb = small_frame();
        let want = vec![frame_hash(&fb), frame_hash(&fb)];
        assert_eq!(mismatches(&want, &want), 0);
        for pixel in [0, 7 * 24 + 11, 24 * 18 - 1] {
            for channel in 0..3 {
                let mut bytes = rgb_bytes(&fb);
                bytes[3 * pixel + channel] ^= 1;
                let got = vec![want[0], fnv1a(bytes)];
                assert_eq!(
                    mismatches(&got, &want),
                    1,
                    "pixel {pixel} channel {channel}"
                );
            }
        }
        assert_eq!(
            mismatches(&want[..1], &want),
            1,
            "a missing frame fails too"
        );
    }

    #[test]
    fn the_job_hash_follows_the_frame_hashes() {
        assert_ne!(job_hash(&[1, 2]), job_hash(&[2, 1]));
    }
}

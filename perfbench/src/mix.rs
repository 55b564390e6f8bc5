//! The benchmark's inputs, generated from the workload seed.
//!
//! The Newton workloads render the paper's animation, which no seed
//! changes. The service mix draws every job from the seed, but from a
//! fixed multiset of (scene, coherence) classes, so each seed asks for
//! about the same work and the figures of different seeds are comparable.

use now_testkit::Rng;

/// The paper's run: Newton's cradle, 45 frames at 320x240.
pub const NEWTON: &str = "demo:newton:45:320x240";

/// Tenants of the service mix and their fair-share weights.
pub const TENANTS: [(&str, u32); 3] = [("acme", 3), ("blue", 2), ("cedar", 1)];

/// Jobs each tenant keeps in flight (closed loop: the next is submitted
/// when one finishes).
pub const IN_FLIGHT: usize = 2;

/// Jobs each tenant submits in one round.
pub const JOBS_PER_TENANT: usize = 8;

/// One service job.
#[derive(Debug, Clone)]
pub struct MixJob {
    /// Index into [`TENANTS`].
    pub tenant: usize,
    pub priority: i32,
    pub scene: String,
    pub coherence: bool,
}

/// Shuffle `v` in place (Fisher-Yates).
fn shuffle<T>(rng: &mut Rng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.usize_in(0, i + 1);
        v.swap(i, j);
    }
}

/// A small scene-language animation: a chrome ball rolls over a box
/// floor past a coloured ball. `color` is the only free content; `note`
/// only changes the spelling (a comment and spacing), not the scene.
fn scene_text(color: [u32; 3], note: Option<u64>) -> String {
    let [r, g, b] = color.map(|c| c as f64 / 100.0);
    let mut s = String::new();
    if let Some(n) = note {
        s.push_str(&format!("# spelling {n}\n"));
    }
    let gap = if note.is_some() { "  " } else { " " };
    s.push_str(&format!(
        "camera eye 0 2 9 target 0 1 0 up 0 1 0 fov 55 size 96 72\n\
         background 0.05 0.05 0.1\n\
         light pos 5 8 5 color 1 1 1\n\
         material chrome name mirror tint 0.9 0.9 1.0\n\
         material matte name paint color {r} {g} {b}\n\
         material matte name floor color 0.6 0.6 0.6\n\
         box name ground min -5 -0.5 -5 max 5 0 5 material floor\n\
         sphere name ball center -2 0.7 0 radius 0.7 material mirror\n\
         sphere{gap}name dot center 1.5 0.5 -1 radius 0.5 material paint\n\
         frames 4\n\
         animate ball translate key 0 0 0 0 key 3 3 0 0\n"
    ));
    s
}

/// A shared scene: one content, spelled several ways, so the service
/// workers' fingerprint-keyed scene cache sees the same scene under
/// different spec strings.
fn shared_spelling(class: usize, spelling: u64) -> String {
    // demo specs parse leading zeros, so "4" and "04" are the same scene
    let z = if spelling % 2 == 1 { "0" } else { "" };
    match class {
        0 => format!("demo:glassball:{z}4:96x72"),
        1 => format!("demo:orbit:{z}4:96x{z}72"),
        2 => format!("demo:newton:{z}3:120x90"),
        _ => scene_text([80, 30, 20], (spelling % 2 == 1).then_some(spelling)),
    }
}

/// Shared scene classes, and the jobs of each class per round.
const SHARED_CLASSES: usize = 4;
const JOBS_PER_SHARED: usize = 4;

/// Every job of one service-mix round: per tenant, in submission order.
///
/// Of the 24 jobs, 16 draw from four shared scenes (4 jobs each, under
/// two spellings) and 8 are unique scene texts; exactly half of each
/// class render with coherence. The seed picks the spellings, the unique
/// colours, the priorities, which tenant gets which job and in what order.
pub fn service_mix(seed: u64) -> Vec<Vec<MixJob>> {
    let mut rng = Rng::with_seed(seed);
    let mut jobs: Vec<MixJob> = Vec::new();
    for class in 0..SHARED_CLASSES {
        for k in 0..JOBS_PER_SHARED {
            jobs.push(MixJob {
                tenant: 0,
                priority: 0,
                scene: shared_spelling(class, rng.u64()),
                coherence: k % 2 == 0,
            });
        }
    }
    let unique = TENANTS.len() * JOBS_PER_TENANT - jobs.len();
    for k in 0..unique {
        let color = [(); 3].map(|_| rng.u32_in(20, 90));
        jobs.push(MixJob {
            tenant: 0,
            priority: 0,
            scene: scene_text(color, None),
            coherence: k % 2 == 0,
        });
    }
    shuffle(&mut rng, &mut jobs);
    let mut per_tenant: Vec<Vec<MixJob>> = vec![Vec::new(); TENANTS.len()];
    for (i, mut job) in jobs.into_iter().enumerate() {
        job.tenant = i % TENANTS.len();
        job.priority = rng.u32_in(0, 5) as i32 - 2;
        per_tenant[job.tenant].push(job);
    }
    per_tenant
}

/// The mix flattened in a fixed order (tenant-major), the order the
/// reference file lists jobs in.
pub fn flat(mix: &[Vec<MixJob>]) -> Vec<&MixJob> {
    mix.iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mix_scene_parses_and_spellings_share_content() {
        for seed in 0..4 {
            let mix = service_mix(seed);
            let all = flat(&mix);
            assert_eq!(all.len(), TENANTS.len() * JOBS_PER_TENANT);
            assert_eq!(all.iter().filter(|j| j.coherence).count(), all.len() / 2);
            for job in all {
                now_anim::scenes::from_spec(&job.scene).expect("mix scene parses");
            }
        }
        for class in 0..SHARED_CLASSES {
            let a = now_anim::scenes::from_spec(&shared_spelling(class, 0)).unwrap();
            let b = now_anim::scenes::from_spec(&shared_spelling(class, 1)).unwrap();
            assert_ne!(shared_spelling(class, 0), shared_spelling(class, 1));
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn the_seed_fixes_the_mix() {
        let a: Vec<String> = flat(&service_mix(7))
            .iter()
            .map(|j| j.scene.clone())
            .collect();
        let b: Vec<String> = flat(&service_mix(7))
            .iter()
            .map(|j| j.scene.clone())
            .collect();
        let c: Vec<String> = flat(&service_mix(8))
            .iter()
            .map(|j| j.scene.clone())
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}

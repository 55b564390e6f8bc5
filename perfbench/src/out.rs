//! The one JSON object each subcommand prints as its last stdout line,
//! and the wall clock its timestamps use.

use std::fmt::Write as _;
use std::time::{SystemTime, UNIX_EPOCH};

/// Seconds since the Unix epoch. `run.py` stamps process launches with
/// Python's `time.time()`, which reads the same clock, so timestamps from
/// different processes of a round are comparable.
pub fn epoch() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after the epoch")
        .as_secs_f64()
}

/// A flat JSON object built field by field.
#[derive(Default)]
pub struct Json {
    body: String,
}

impl Json {
    pub fn new() -> Json {
        Json::default()
    }

    fn key(&mut self, k: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        let _ = write!(self.body, "\"{k}\":");
    }

    pub fn num(&mut self, k: &str, v: f64) -> &mut Json {
        self.key(k);
        push_f64(&mut self.body, v);
        self
    }

    pub fn int(&mut self, k: &str, v: u64) -> &mut Json {
        self.key(k);
        let _ = write!(self.body, "{v}");
        self
    }

    pub fn bool(&mut self, k: &str, v: bool) -> &mut Json {
        self.key(k);
        let _ = write!(self.body, "{v}");
        self
    }

    pub fn nums(&mut self, k: &str, vs: &[f64]) -> &mut Json {
        self.key(k);
        self.body.push('[');
        for (i, &v) in vs.iter().enumerate() {
            if i > 0 {
                self.body.push(',');
            }
            push_f64(&mut self.body, v);
        }
        self.body.push(']');
        self
    }

    /// Print as one line on stdout.
    pub fn print(&self) {
        println!("{{{}}}", self.body);
    }
}

fn push_f64(s: &mut String, v: f64) {
    // JSON has no NaN or infinity; a ratio over nothing reads as 0
    let v = if v.is_finite() { v } else { 0.0 };
    let _ = write!(s, "{v:?}");
}

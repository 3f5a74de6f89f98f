//! The `daemon-mix` workload: a `bwsa serve` child fed open-loop over two
//! connections with a fixed mix of analyze, allocate and subscribe
//! requests, every answer checked against a local run of the same bytes.

use crate::expect::allocation_json;
use crate::inputs::mix;
use crate::layers::{local_summary, Checks};
use bwsa::core::{Classified, Session, WindowConfig};
use bwsa::obs::json::Json;
use bwsa::server::{Client, ErrorCode, Response};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Window interval of subscribe requests, in dynamic branches.
const SUBSCRIBE_WINDOW: u64 = 1024;
/// p90 latency limit for a capacity step, in ms.
pub const LATENCY_LIMIT_MS: f64 = 100.0;
/// Offered rate of the fixed-rate step, in requests per second.
pub const FIXED_RATE: f64 = 25.0;
/// Offered rates of the capacity steps.
const CAPACITY_RATES: [f64; 5] = [100.0, 200.0, 300.0, 450.0, 600.0];
/// Requests per capacity step: enough for a p90 with ten samples beyond.
const STEP_REQUESTS: usize = 100;
/// Daemon spawns timed for `setup_s`; the last one serves the load.
const SETUPS: usize = 7;

/// A running `bwsa serve` child.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// The socket path a daemon in `dir` listens on.
    pub fn socket_in(dir: &Path) -> PathBuf {
        dir.join("bwsa.sock")
    }

    /// Spawns the daemon and waits until it answers a ping.
    pub fn spawn(bwsa: &Path, socket: &Path) -> Result<Daemon, String> {
        Daemon::spawn_timed(bwsa, socket).map(|(daemon, _)| daemon)
    }

    /// Spawns the daemon; also returns the time from spawn until the
    /// first answered ping.
    pub fn spawn_timed(bwsa: &Path, socket: &Path) -> Result<(Daemon, f64), String> {
        let _ = fs::remove_file(socket);
        let start = Instant::now();
        let child = Command::new(bwsa)
            .arg("serve")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bwsa.display()))?;
        let mut daemon = Daemon {
            child,
            socket: socket.to_owned(),
        };
        loop {
            if let Ok(mut client) = Client::connect(socket, "bench") {
                if let Ok(Response::Ok(_)) = client.ping() {
                    return Ok((daemon, start.elapsed().as_secs_f64()));
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("bwsa serve exited before answering: {status}"));
            }
            if start.elapsed() > Duration::from_secs(20) {
                let _ = daemon.child.kill();
                let _ = daemon.child.wait();
                return Err("bwsa serve did not answer a ping within 20 s".to_owned());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Peak resident memory so far (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read daemon status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in daemon status".to_owned())
    }

    /// Asks for a drain and waits for the child to exit cleanly.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Client::connect(&self.socket, "bench").and_then(|mut c| c.shutdown());
        if asked.is_err() {
            let _ = self.child.kill();
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        match asked {
            Ok(_) if status.success() => Ok(()),
            Ok(_) => Err(format!("bwsa serve exited with {status} after a drain")),
            Err(e) => Err(format!("cannot ask bwsa serve to drain: {e}")),
        }
    }
}

/// A daemon left running on an error path is killed and reaped.
impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The request kinds of the mix, with what a correct answer looks like.
#[derive(Debug)]
struct Payload {
    key: String,
    bytes: Vec<u8>,
    summary: String,
    allocation: String,
    windows: Vec<String>,
}

fn prepare(dir: &Path, keys: &[String]) -> Result<Vec<Payload>, String> {
    keys.iter()
        .map(|key| {
            let path = dir.join(format!("{key}.bwss"));
            let bytes = fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let (trace, analysis) = local_summary(&bytes)?;
            let allocation = analysis
                .allocation(Classified(true), 1024, &Default::default())
                .map_err(|e| e.to_string())?;
            let windowing = WindowConfig::branches(SUBSCRIBE_WINDOW).map_err(|e| e.to_string())?;
            let session = Session::new(&trace).with_windowing(windowing);
            let windowed = session.windowed().map_err(|e| e.to_string())?;
            Ok(Payload {
                key: key.clone(),
                summary: analysis.summary_json().to_pretty_string(),
                allocation: allocation_json(&allocation).to_pretty_string(),
                windows: windowed
                    .windows
                    .iter()
                    .map(|w| w.to_json().to_pretty_string())
                    .collect(),
                bytes,
            })
        })
        .collect()
}

/// One served request, timed from when it was due.
#[derive(Debug, Clone, Copy)]
struct Sample {
    latency_ms: f64,
    late_ms: f64,
    ok: bool,
    shed: bool,
}

/// Sends one request of the seeded mix and checks its answer.
fn request(client: &mut Client, p: &Payload, pick: u64) -> Result<(bool, bool, String), String> {
    let kind = pick % 20;
    let (response, windows) = if kind < 12 {
        (client.analyze(p.bytes.clone(), None), Vec::new())
    } else if kind < 17 {
        (client.allocate(p.bytes.clone(), None, 1024, true), Vec::new())
    } else {
        let mut windows = Vec::new();
        let r = client.subscribe(p.bytes.clone(), None, SUBSCRIBE_WINDOW, false, |w| {
            windows.push(w.to_owned())
        });
        (r, windows)
    };
    let response = response.map_err(|e| e.to_string())?;
    let (ok, what) = match (&response, kind) {
        (Response::Ok(doc), 0..=11) => (*doc == p.summary, "analyze"),
        (Response::Ok(doc), 12..=16) => (*doc == p.allocation, "allocate"),
        (Response::Ok(doc), _) => (*doc == p.summary && windows == p.windows, "subscribe"),
        (Response::Error { code, .. }, _) => {
            let shed = *code == ErrorCode::Overload;
            return Ok((false, shed, format!("{}: {response:?}", p.key)));
        }
        (Response::Window(_), _) => (false, "stray window"),
    };
    Ok((ok, false, format!("{} {what} answer differs from the local run", p.key)))
}

/// One open-loop step: `n` requests due at `rate` per second from `start`.
fn step(
    socket: &Path,
    payloads: &[Payload],
    seed: u64,
    rate: f64,
    n: usize,
    checks: &Mutex<Checks>,
) -> Result<Vec<Sample>, String> {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let interval = Duration::from_secs_f64(1.0 / rate);
    let samples = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| -> Result<(), String> {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| -> Result<(), String> {
                    let mut client = Client::connect(socket, "bench").map_err(|e| e.to_string())?;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return Ok(());
                        }
                        let due = start + interval * i as u32;
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let pick = mix(seed ^ (i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D));
                        let payload = &payloads[(pick >> 32) as usize % payloads.len()];
                        let (ok, shed, failure) = request(&mut client, payload, pick)?;
                        let done = Instant::now();
                        checks.lock().expect("checks lock").check(ok, || failure);
                        samples.lock().expect("samples lock").push(Sample {
                            latency_ms: (done - due).as_secs_f64() * 1e3,
                            late_ms: (sent - due).as_secs_f64() * 1e3,
                            ok,
                            shed,
                        });
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().map_err(|_| "load worker panicked".to_owned())??;
        }
        Ok(())
    })?;
    Ok(samples.into_inner().expect("samples lock"))
}

/// The nearest-rank `p`th percentile of a non-empty sample.
fn percentile(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Runs the whole workload for `seconds` and reports its samples.
pub fn run(bwsa: &Path, dir: &Path, keys: &[String], seed: u64, seconds: f64) -> Result<Json, String> {
    let payloads = prepare(dir, keys)?;
    let socket = Daemon::socket_in(dir);
    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..SETUPS {
        let (d, secs) = Daemon::spawn_timed(bwsa, &socket)?;
        setups.push(secs);
        if i + 1 < SETUPS {
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("the last spawn serves the load");
    let checks = Mutex::new(Checks::default());
    let fixed_n = ((seconds * 0.5 * FIXED_RATE) as usize).max(STEP_REQUESTS);
    let result = (|| -> Result<Json, String> {
        let fixed = step(&socket, &payloads, seed, FIXED_RATE, fixed_n, &checks)?;
        let mut steps = Vec::new();
        let mut max_rps = 0.0;
        for (i, &rate) in CAPACITY_RATES.iter().enumerate() {
            let samples = step(&socket, &payloads, seed ^ (i as u64 + 1), rate, STEP_REQUESTS, &checks)?;
            let mut lat: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
            let p90 = percentile(&mut lat, 90.0);
            // A growing backlog shows as the generator running late at the
            // end of the step.
            let late_end = samples.iter().map(|s| s.late_ms).fold(0.0, f64::max);
            let clean = samples.iter().all(|s| s.ok);
            let meets = p90 <= LATENCY_LIMIT_MS && late_end <= LATENCY_LIMIT_MS && clean;
            if meets {
                max_rps = rate;
            }
            steps.push(Json::object([
                ("rate", Json::Float(rate)),
                ("p90_ms", Json::Float(p90)),
                ("late_max_ms", Json::Float(late_end)),
                ("meets_limit", Json::Bool(meets)),
            ]));
        }
        let peak = daemon.peak_rss_mib()?;
        let shed = fixed.iter().filter(|s| s.shed).count() as u64;
        let late_max = fixed.iter().map(|s| s.late_ms).fold(0.0, f64::max);
        Ok(Json::object([
            ("setup_s", Json::Array(setups.iter().map(|&s| Json::Float(s)).collect())),
            (
                "latency_ms",
                Json::Array(fixed.iter().map(|s| Json::Float(s.latency_ms)).collect()),
            ),
            ("fixed_rate", Json::Float(FIXED_RATE)),
            ("late_max_ms", Json::Float(late_max)),
            ("shed", Json::UInt(shed)),
            ("steps", Json::Array(steps)),
            ("max_rps", Json::Float(max_rps)),
            ("peak_rss_mib", Json::Float(peak)),
        ]))
    })();
    let stopped = daemon.shutdown();
    let mut doc = result?;
    stopped?;
    let checks = checks.into_inner().expect("checks lock");
    if let Json::Object(pairs) = &mut doc {
        pairs.push(("attempted".to_owned(), Json::UInt(checks.attempted)));
        pairs.push((
            "failures".to_owned(),
            Json::Array(checks.failures.iter().map(|f| Json::from(f.as_str())).collect()),
        ));
    }
    Ok(doc)
}

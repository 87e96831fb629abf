//! `region_read`: sub-volume reads served by `fpsnr serve` over loopback.
//!
//! A 128³ Gaussian random field (α = 3) is compressed at 80 dB into a v4
//! chunk-grid container with 16³ chunks (512 blocks of 16 KiB) and served
//! by `fpsnr serve --cache-mb 4`. Two connections run a closed loop over
//! one seeded request sequence: 90% are 32³ cubes, four in five of them
//! inside one hot octant, and 10% are full k-planes. The field (8 MiB)
//! exceeds the 4 MiB cache; the hot octant (1 MiB) fits.
//!
//! The loop runs in rounds of half a second. Between rounds both
//! connections are idle and the host-speed reference is taken on both
//! vCPUs (see `calib`); latencies and the read rate are scaled by the
//! median of these factors. Request latency follows the host's speed only
//! loosely, so one round's factor would add more noise than it removes.
//!
//! Every response is checked bit for bit against slicing one in-process
//! full decompress; error frames count as failures.

use crate::calib::Reference;
use crate::outcome::Outcome;
use crate::stats::{median, percentile, psnr, ratio, MIB};
use crate::trace::Tracer;
use crate::SETUP_REPS;
use datagen::grf::grf_3d;
use fpsnr_core::fixed_psnr::{compress_fixed_psnr_only, FixedPsnrOptions};
use losslesskit::varint;
use ndfield::{Field, Shape};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};
use szlike::{Region, StoreOptions, SzStore};

pub const DIM: usize = 128;
pub const CHUNK: usize = 16;
pub const TARGET_DB: f64 = 80.0;
pub const CACHE_MB: usize = 4;
const CUBE: usize = 32;
const CONNECTIONS: usize = 2;
/// Measured rounds per timed compress + decompress of the whole field.
const ROUNDS_PER_ROUND_TRIP: usize = 2;
/// Length of one round of the closed loop.
const ROUND: Duration = Duration::from_millis(500);
/// Rounds that fill the caches and are not measured.
const WARM_UP_ROUNDS: usize = 2;
/// Length of the seeded request sequence (cycled if a run outlasts it).
const SEQUENCE: usize = 1 << 17;

const OP_READ: u8 = 1;
const OP_STATS: u8 = 2;
const OP_SHUTDOWN: u8 = 3;

/// splitmix64: the request sequence generator.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The request sequence for a seed.
fn requests(seed: u64) -> Vec<[Range<usize>; 3]> {
    let mut s = seed ^ 0xA076_1D64_78BD_642F;
    let half = DIM / 2;
    let octant: [usize; 3] = std::array::from_fn(|_| (next(&mut s) % 2) as usize * half);
    (0..SEQUENCE)
        .map(|_| {
            let u = next(&mut s) % 100;
            if u < 90 {
                let hot = u < 72; // four in five of the cubes
                std::array::from_fn(|a| {
                    let start = if hot {
                        octant[a] + (next(&mut s) % (half - CUBE + 1) as u64) as usize
                    } else {
                        (next(&mut s) % (DIM - CUBE + 1) as u64) as usize
                    };
                    start..start + CUBE
                })
            } else {
                let k = (next(&mut s) % DIM as u64) as usize;
                [0..DIM, 0..DIM, k..k + 1]
            }
        })
        .collect()
}

/// A running `fpsnr serve` child, killed and reaped on drop if it has not
/// been shut down.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    fn spawn(fpsnr: &Path, container: &Path) -> Result<Server, String> {
        let mut child = Command::new(fpsnr)
            .arg("serve")
            .arg("--input")
            .arg(container)
            .args(["--cache-mb", &CACHE_MB.to_string(), "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", fpsnr.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut server = |line: &mut String| -> Result<String, String> {
            stdout
                .read_line(line)
                .map_err(|e| format!("reading server banner: {e}"))?;
            line.trim()
                .rsplit_once(" on ")
                .map(|(_, a)| a.to_string())
                .ok_or_else(|| format!("unexpected server banner {line:?}"))
        };
        let mut line = String::new();
        match server(&mut line) {
            Ok(addr) => Ok(Server {
                child,
                stdout,
                addr,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    fn connect(&self) -> Result<TcpStream, String> {
        let s = TcpStream::connect(&self.addr).map_err(|e| format!("connecting: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(s)
    }

    /// Peak resident set of the server process (VmHWM), MiB.
    fn peak_rss_mib(&self) -> f64 {
        crate::vm_hwm_mib(&self.child.id().to_string())
    }

    /// Ask the server to stop, wait for it, and return its report.
    fn shutdown(mut self) -> Result<String, String> {
        let mut s = self.connect()?;
        ok_body(&call(&mut s, &[OP_SHUTDOWN])?)?;
        let exit = self
            .child
            .wait()
            .map_err(|e| format!("waiting for server: {e}"))?;
        let mut report = String::new();
        let _ = self.stdout.read_to_string(&mut report);
        if !exit.success() {
            return Err(format!("server exited with {exit}"));
        }
        Ok(report)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Send one request frame and read the response frame: status byte, then
/// the body.
fn call(s: &mut TcpStream, payload: &[u8]) -> Result<Vec<u8>, String> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    s.write_all(&frame).map_err(|e| format!("sending: {e}"))?;
    let mut len = [0u8; 4];
    s.read_exact(&mut len)
        .map_err(|e| format!("reading length: {e}"))?;
    let len = u32::from_le_bytes(len) as usize;
    if len == 0 || len > (DIM * DIM * DIM * 4 + 64) {
        return Err(format!("response frame of {len} bytes"));
    }
    let mut frame = vec![0u8; len];
    s.read_exact(&mut frame)
        .map_err(|e| format!("reading response: {e}"))?;
    Ok(frame)
}

/// A request's response, checked, on the status byte.
fn ok_body(frame: &[u8]) -> Result<&[u8], String> {
    match frame.split_first() {
        Some((0, body)) => Ok(body),
        Some((_, msg)) => Err(format!("error frame: {}", String::from_utf8_lossy(msg))),
        None => Err("empty response frame".into()),
    }
}

fn read_payload(region: &[Range<usize>; 3]) -> Vec<u8> {
    let mut p = vec![OP_READ, 3];
    for r in region {
        varint::write_u64(&mut p, r.start as u64);
        varint::write_u64(&mut p, r.end as u64);
    }
    p
}

/// Check a READ response body against the reference decompress; returns
/// the sample bytes served.
fn check_region(
    body: &[u8],
    region: &[Range<usize>; 3],
    full: &Field<f32>,
) -> Result<usize, String> {
    let mut pos = 2usize;
    if body.len() < 2 || body[0] != 4 || body[1] != 3 {
        return Err("bad READ response header".into());
    }
    for r in region {
        let d = varint::read_u64(body, &mut pos).map_err(|e| e.to_string())? as usize;
        if d != r.len() {
            return Err(format!("extent {d}, wanted {}", r.len()));
        }
    }
    let want = region.iter().map(|r| r.len()).product::<usize>() * 4;
    if body.len() - pos != want {
        return Err(format!("{} sample bytes, wanted {want}", body.len() - pos));
    }
    same_as_slice(&body[pos..], region, full)?;
    Ok(want)
}

/// Check that little-endian samples equal the reference sliced to `region`.
fn same_as_slice(le: &[u8], region: &[Range<usize>; 3], full: &Field<f32>) -> Result<(), String> {
    let data = full.as_slice();
    let mut k = 0usize;
    for i in region[0].clone() {
        for j in region[1].clone() {
            let row = (i * DIM + j) * DIM;
            for l in region[2].clone() {
                let got = u32::from_le_bytes(le[4 * k..4 * k + 4].try_into().expect("4 bytes"));
                if got != data[row + l].to_bits() {
                    return Err(format!(
                        "sample ({i},{j},{l}) differs from the full decompress"
                    ));
                }
                k += 1;
            }
        }
    }
    Ok(())
}

/// Mean |PSNR − target| over the 16³ blocks the store serves, each block's
/// PSNR taken with the whole field's value range: the accuracy a region
/// reader sees.
fn block_psnr_dev(orig: &Field<f32>, got: &Field<f32>) -> f64 {
    let vr = orig.value_range();
    let (a, b) = (orig.as_slice(), got.as_slice());
    let per_axis = DIM / CHUNK;
    let blocks = per_axis.pow(3);
    let mut total = 0.0;
    for block in 0..blocks {
        let i0 = block / (per_axis * per_axis) * CHUNK;
        let j0 = block / per_axis % per_axis * CHUNK;
        let k0 = block % per_axis * CHUNK;
        let mut sse = 0.0f64;
        for i in i0..i0 + CHUNK {
            for j in j0..j0 + CHUNK {
                let row = (i * DIM + j) * DIM;
                for k in k0..k0 + CHUNK {
                    let d = a[row + k] as f64 - b[row + k] as f64;
                    sse += d * d;
                }
            }
        }
        let mse = sse / CHUNK.pow(3) as f64;
        total += (fpsnr_metrics::psnr::psnr_from_mse(mse, vr) - TARGET_DB).abs();
    }
    total / blocks as f64
}

/// Parse the counters of a STATS response.
fn stats_counter(json: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\":");
    json.find(&pat)
        .map(|i| &json[i + pat.len()..])
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(f64::NAN)
}

fn stats(server: &Server) -> Result<String, String> {
    let mut s = server.connect()?;
    let frame = call(&mut s, &[OP_STATS])?;
    String::from_utf8(ok_body(&frame)?.to_vec()).map_err(|e| e.to_string())
}

/// One request: sequence index, round, start, latency, result.
struct Sample {
    idx: usize,
    round: usize,
    start: Instant,
    latency: Duration,
    result: Result<usize, String>,
}

struct Setup {
    field: Field<f32>,
    container: Vec<u8>,
    full: Field<f32>,
    server: Server,
}

pub fn run(
    fpsnr: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let path = work.join("region.fz");
    // Quantization bins pinned at the 65536 cap: adaptive selection flips
    // between 1024 and 2048 bins across realizations of this field at
    // 80 dB, which would split ratio and accuracy into two modes by seed.
    let opts = FixedPsnrOptions {
        chunk_dims: [CHUNK; 3],
        auto_intervals: false,
        ..FixedPsnrOptions::default()
    };
    let store_opts = StoreOptions {
        cache_budget: CACHE_MB << 20,
        ..StoreOptions::default()
    };
    let mut reference = Reference::new();
    let (mut setup_s, mut open_s) = (Vec::new(), Vec::new());
    let mut ready: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = ready.take() {
            prev.server.shutdown()?;
        }
        let scale = reference.scale();
        let t0 = Instant::now();
        let data: Vec<f32> = grf_3d(DIM, DIM, DIM, 3.0, seed)
            .into_iter()
            .map(|v| v as f32)
            .collect();
        let field = Field::from_vec(Shape::D3(DIM, DIM, DIM), data);
        let container = compress_fixed_psnr_only(&field, TARGET_DB, &opts)
            .map_err(|e| format!("building the container: {e}"))?;
        std::fs::write(&path, &container)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let server = Server::spawn(fpsnr, &path)?;
        let t2 = Instant::now();
        let store = SzStore::<f32>::open_with(container.clone(), store_opts)
            .map_err(|e| format!("opening the store: {e}"))?;
        open_s.push(t2.elapsed().as_secs_f64());
        drop(store);
        let full = szlike::decompress_with_threads::<f32>(&container, 1)
            .map_err(|e| format!("full decompress: {e}"))?;
        setup_s.push(t0.elapsed().as_secs_f64() * scale);
        ready = Some(Setup {
            field,
            container,
            full,
            server,
        });
    }
    let Setup {
        field,
        container,
        full,
        server,
    } = ready.expect("at least one set-up");
    let raw = (field.len() * 4) as f64;
    let achieved = psnr(&field, &full);
    out.record(
        "region container",
        if achieved.is_finite() {
            crate::stats::check_bound(
                &field,
                &full,
                fpsnr_core::bound::ebrel_for_psnr(TARGET_DB) * field.stats().range(),
            )
        } else {
            Err(format!("achieved PSNR {achieved} is not finite"))
        },
    );
    // The grid writer and full-field reader on their own, between rounds
    // of the read phase, so their median spans the run: every repeat must
    // give the same bytes and samples.
    let (mut compress_s, mut decompress_s) = (Vec::new(), Vec::new());
    let mut round_trip = |out: &mut Outcome, reference: &mut Reference| {
        let scale = reference.scale();
        let t0 = Instant::now();
        let again = compress_fixed_psnr_only(&field, TARGET_DB, &opts);
        compress_s.push(t0.elapsed().as_secs_f64() * scale);
        let scale = reference.scale();
        let t1 = Instant::now();
        let back = szlike::decompress_with_threads::<f32>(&container, 1);
        decompress_s.push(t1.elapsed().as_secs_f64() * scale);
        out.record(
            "grid round trip",
            match (again, back) {
                (Ok(a), Ok(b)) if a == container && b.as_slice() == full.as_slice() => Ok(()),
                (Err(e), _) => Err(format!("compress: {e}")),
                (_, Err(e)) => Err(format!("decompress: {e}")),
                _ => Err("repeat round trip differs from the first".into()),
            },
        );
    };
    let n_blocks = SzStore::<f32>::open(&container)
        .map_err(|e| e.to_string())?
        .grid()
        .n_blocks();
    out.stamp(
        "inputs",
        format!(
            "{{\"field\":\"grf_3d alpha 3\",\"shape\":\"{DIM}x{DIM}x{DIM}\",\"raw_bytes\":{raw},\
             \"chunk\":\"{CHUNK}x{CHUNK}x{CHUNK}\",\"blocks\":{n_blocks},\"container_bytes\":{},\
             \"target_db\":{TARGET_DB},\"cache_budget_bytes\":{},\"connections\":{CONNECTIONS}}}",
            container.len(),
            CACHE_MB << 20
        ),
    );

    // The closed loop: two connections share one request sequence, in
    // rounds. The main thread takes the reference while both connections
    // wait at the barrier, then releases them until the round's end.
    let seq = requests(seed);
    let counter = AtomicUsize::new(0);
    let rounds = WARM_UP_ROUNDS + (seconds / ROUND.as_secs_f64()).ceil().max(1.0) as usize;
    let barrier = Barrier::new(CONNECTIONS + 1);
    // (round, end) of the round being run; None stops the clients.
    let current: Mutex<Option<(usize, Instant)>> = Mutex::new(None);
    let mut warm_stats = String::new();
    // Per measured round: host factor and wall seconds.
    let mut round_scale = Vec::new();
    let mut round_s = Vec::new();
    let per_conn: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                sc.spawn(|| -> Result<Vec<Sample>, String> {
                    // Every client keeps every round, even without a
                    // connection, so the barrier is always full.
                    let mut conn = server.connect();
                    let connected = conn.as_ref().map(|_| ()).map_err(Clone::clone);
                    let mut samples = Vec::new();
                    loop {
                        barrier.wait();
                        let Some((round, end)) = *current.lock().expect("round lock") else {
                            return connected.map(|()| samples);
                        };
                        // A broken connection counts as a failed request and
                        // sends no more.
                        while let Ok(c) = conn.as_mut() {
                            let t0 = Instant::now();
                            if t0 >= end {
                                break;
                            }
                            let idx = counter.fetch_add(1, Ordering::Relaxed);
                            let region = &seq[idx % SEQUENCE];
                            let reply = call(c, &read_payload(region));
                            let latency = t0.elapsed();
                            let result = match reply {
                                Ok(frame) => {
                                    ok_body(&frame).and_then(|b| check_region(b, region, &full))
                                }
                                Err(e) => {
                                    conn = Err(e.clone());
                                    Err(e)
                                }
                            };
                            samples.push(Sample {
                                idx,
                                round,
                                start: t0,
                                latency,
                                result,
                            });
                        }
                        barrier.wait();
                    }
                })
            })
            .collect();
        for round in 0..rounds {
            if round == WARM_UP_ROUNDS {
                warm_stats = stats(&server).unwrap_or_default();
            }
            // Client and server keep both vCPUs busy.
            let scale = reference.scale_threads(CONNECTIONS);
            let t0 = Instant::now();
            *current.lock().expect("round lock") = Some((round, t0 + ROUND));
            barrier.wait();
            barrier.wait();
            if round >= WARM_UP_ROUNDS {
                round_scale.push(scale);
                round_s.push(t0.elapsed().as_secs_f64());
                if (round - WARM_UP_ROUNDS).is_multiple_of(ROUNDS_PER_ROUND_TRIP) {
                    round_trip(out, &mut reference);
                }
            }
        }
        *current.lock().expect("round lock") = None;
        barrier.wait();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut samples = Vec::new();
    for conn in per_conn {
        samples.extend(conn?);
    }
    samples.retain(|s| s.round >= WARM_UP_ROUNDS || s.result.is_err());
    samples.sort_by_key(|s| s.idx);
    let end_stats = stats(&server)?;
    let peak_rss = server.peak_rss_mib();
    server.shutdown()?;

    let run_scale = median(&round_scale);
    let mut lat = Vec::with_capacity(samples.len());
    let mut served = 0usize;
    for s in &samples {
        lat.push(s.latency.as_secs_f64() * run_scale);
        if let Ok(b) = s.result {
            served += b;
        }
        out.record(
            &format!("request {}", s.idx),
            s.result.as_ref().map(|_| ()).map_err(Clone::clone),
        );
    }
    // Host-scaled seconds the measured rounds ran.
    let window = round_s.iter().sum::<f64>() * run_scale;
    out.stamp(
        "samples",
        format!(
            "{{\"requests\":{},\"requests_beyond_p99\":{},\"rounds\":{},\"window_s\":{window}}}",
            lat.len(),
            lat.len() / 100,
            round_s.len()
        ),
    );
    out.stamp("host", reference.stamp());
    out.set("setup_s", median(&setup_s));
    out.set("compress_mib_s", raw / MIB / median(&compress_s));
    out.set("decompress_mib_s", raw / MIB / median(&decompress_s));
    out.set("ratio", raw / container.len() as f64);
    out.set("psnr_dev_db", block_psnr_dev(&field, &full));
    out.set("read_p50_us", median(&lat) * 1e6);
    out.set("read_p99_us", percentile(&lat, 0.99) * 1e6);
    out.set("read_mib_s", served as f64 / MIB / window);
    out.set("peak_rss_mib", peak_rss);
    out.set("snapshot_s", median(&compress_s));
    out.set("budget_util", 10f64.powf((TARGET_DB - achieved) / 10.0));
    out.set("snapshot_min_psnr_db", achieved);

    if tr.enabled() {
        let traced = Traced {
            samples: &samples,
            seq: &seq,
            container: &container,
            full: &full,
            warm_stats: &warm_stats,
            end_stats: &end_stats,
            store_opts,
            open_s: &open_s,
        };
        traced.layers(tr, out)?;
    }
    Ok(())
}

/// What the traced run's store and serve layers are measured from.
struct Traced<'a> {
    samples: &'a [Sample],
    seq: &'a [[Range<usize>; 3]],
    container: &'a [u8],
    full: &'a Field<f32>,
    warm_stats: &'a str,
    end_stats: &'a str,
    store_opts: StoreOptions,
    open_s: &'a [f64],
}

impl Traced<'_> {
    fn layers(&self, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
        let Traced {
            samples,
            seq,
            container,
            full,
            warm_stats,
            end_stats,
            store_opts,
            open_s,
        } = *self;
        for s in samples {
            tr.record(
                "fpsnr-cli::serve::READ(client)",
                s.start,
                s.latency,
                None,
                s.idx as u64,
            );
        }
        // The same request sequence, in order, against an in-process store
        // with the same cache budget: warm-up requests untimed.
        let store =
            SzStore::<f32>::open_with(container.to_vec(), store_opts).map_err(|e| e.to_string())?;
        let first = samples.first().map_or(0, |s| s.idx);
        for region in seq.iter().take(first) {
            store
                .read_region(&Region::new(region).map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?;
        }
        let mut store_lat = Vec::with_capacity(samples.len());
        for s in samples {
            let region = &seq[s.idx % SEQUENCE];
            let r = Region::new(region).map_err(|e| e.to_string())?;
            let (got, dt) = tr.time("szlike::store::read_region", None, s.idx as u64, || {
                store.read_region(&r)
            });
            store_lat.push(dt);
            let got = got.map_err(|e| e.to_string())?;
            let le: Vec<u8> = got
                .as_slice()
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect();
            out.record(
                "in-process read",
                same_as_slice(&le, region, full).map(|_| ()),
            );
        }
        // Per-block decode cost with caching off.
        let cold = SzStore::<f32>::open_with(
            container.to_vec(),
            StoreOptions {
                cache_budget: 0,
                ..store_opts
            },
        )
        .map_err(|e| e.to_string())?;
        let mut block_s = Vec::new();
        for b in 0..cold.grid().n_blocks() {
            let (r, dt) = tr.time("szlike::store::block(uncached)", None, b as u64, || {
                cold.block(b)
            });
            r.map_err(|e| e.to_string())?;
            block_s.push(dt);
        }

        let delta = |k: &str| stats_counter(end_stats, k) - stats_counter(warm_stats, k);
        let (hits, misses, waits) = (delta("hits"), delta("misses"), delta("waits"));
        let requests = hits + misses + waits;
        let regions = delta("regions");
        let client_p50 = median(
            &samples
                .iter()
                .map(|s| s.latency.as_secs_f64())
                .collect::<Vec<_>>(),
        );
        let m = [
            ("store.read_p50_us", median(&store_lat) * 1e6),
            ("store.read_p99_us", percentile(&store_lat, 0.99) * 1e6),
            (
                "serve.overhead_p50_us",
                (client_p50 - median(&store_lat)) * 1e6,
            ),
            ("store.hit_rate", ratio(hits, requests)),
            ("store.waits_frac", ratio(waits, requests)),
            (
                "store.evictions_per_read",
                ratio(delta("evictions"), regions),
            ),
            ("store.blocks_per_read", ratio(requests, regions)),
            (
                "store.decode_amp",
                ratio(delta("bytes_decoded"), delta("bytes_served")),
            ),
            ("store.block_decode_us", median(&block_s) * 1e6),
            ("store.open_ms", median(open_s) * 1e3),
        ];
        println!(
            "store / serve layers over {} measured requests",
            samples.len()
        );
        for (name, v) in m {
            println!("  {name:<26} {v:>12.3}");
            out.set(name, v);
        }
        Ok(())
    }
}

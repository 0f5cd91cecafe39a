//! Host-speed calibration. The reference box is shared, and its speed
//! drifts by up to a half over minutes, in CPU time as much as in wall
//! time. So an untraced run also times a fixed kernel of the harness's
//! own between jobs, and scales each job's times by the kernel's
//! reference time over its mean time in the passes just before and just
//! after the job. The scaled times read as they would at the speed the
//! reference time was taken at. A change to the program moves them,
//! while host drift slows the kernel too and mostly cancels out.

use crate::stats::splitmix64;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// The kernel's median pass time over 250 passes on the reference box
/// (2 vCPUs, Intel Xeon at 2.1 GHz), seconds.
pub const REFERENCE_KERNEL_S: f64 = 0.0202;

/// Words of the memory part's buffer: 8 MiB.
const MEM_WORDS: usize = 1 << 20;
/// Read-modify-writes per memory part.
const MEM_STEPS: usize = 2_000_000;
/// Hash steps per compute part.
const CPU_STEPS: u64 = 6_000_000;
/// Nodes of the message-passing part's graph.
const NODES: usize = 16_384;
/// Rounds per message-passing part.
const ROUNDS: usize = 150;

/// The kernel's state, kept warm between passes. Jobs slow down under
/// host load in different ways (the 64-node `table1` graphs stay in
/// cache, the 4000-node revocable graphs do not), so a pass has three
/// parts and reports their geometric mean.
struct Kernel {
    buf: Vec<u64>,
    adj: Vec<u32>,
    state: Vec<u64>,
    next: Vec<u64>,
}

impl Kernel {
    fn new() -> Kernel {
        let mut seed = 3u64;
        let mut adj = Vec::with_capacity(NODES * 4);
        for v in 0..NODES {
            adj.push(((v + 1) % NODES) as u32);
            adj.push(((v + NODES - 1) % NODES) as u32);
            adj.push((splitmix64(&mut seed) % NODES as u64) as u32);
            adj.push((splitmix64(&mut seed) % NODES as u64) as u32);
        }
        let mut k = Kernel {
            buf: vec![1; MEM_WORDS],
            adj,
            state: (0..NODES as u64).collect(),
            next: vec![0; NODES],
        };
        k.pass();
        k
    }

    /// Random read-modify-writes over 8 MiB: waits on memory.
    fn memory(&mut self) -> u64 {
        let (mut s, mut acc) = (1u64, 0u64);
        for _ in 0..MEM_STEPS {
            let x = splitmix64(&mut s);
            let i = (x % MEM_WORDS as u64) as usize;
            self.buf[i] = self.buf[i].wrapping_add(x);
            acc ^= self.buf[(i * 7 + 3) % MEM_WORDS];
        }
        acc
    }

    /// Hashing and data-dependent branches over a 4 KiB table.
    fn compute() -> u64 {
        let mut table = [0u64; 512];
        let (mut s, mut acc) = (7u64, 0u64);
        for i in 0..CPU_STEPS {
            let x = splitmix64(&mut s);
            let j = (x & 511) as usize;
            table[j] ^= x.rotate_left((i & 63) as u32);
            if table[j] & 1 == 0 {
                acc = acc.wrapping_add(table[j]);
            } else {
                acc ^= x;
            }
        }
        acc
    }

    /// Synchronous rounds in which every node of a 4-regular graph
    /// combines its neighbours' states: the engines' access pattern.
    fn rounds(&mut self) -> u64 {
        for _ in 0..ROUNDS {
            for v in 0..NODES {
                let mut acc = self.state[v];
                for &u in &self.adj[v * 4..v * 4 + 4] {
                    let mut m = self.state[u as usize] ^ v as u64;
                    acc = acc.wrapping_add(splitmix64(&mut m) >> 7);
                }
                self.next[v] = acc;
            }
            std::mem::swap(&mut self.state, &mut self.next);
        }
        self.state[0]
    }

    /// Times each part once; returns their geometric mean, seconds.
    fn pass(&mut self) -> f64 {
        let timed = |f: &mut dyn FnMut() -> u64| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        };
        let parts = [
            timed(&mut || self.memory()),
            timed(&mut Kernel::compute),
            timed(&mut || self.rounds()),
        ];
        (parts.iter().map(|t| t.ln()).sum::<f64>() / 3.0).exp()
    }
}

/// The `calibrate` subcommand: warms the kernel, then for every line on
/// stdin times one pass and prints the seconds.
pub fn serve_kernel() -> Result<(), String> {
    let mut kernel = Kernel::new();
    let mut out = std::io::stdout();
    for line in std::io::stdin().lines() {
        line.map_err(|e| e.to_string())?;
        writeln!(out, "{}", kernel.pass()).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// A helper process (this executable's `calibrate` subcommand) that times
/// kernel passes on request. Its buffers stay warm between passes and
/// never add to the harness's own RSS (see `proc::Exit::peak_rss_mb`).
/// Dropping this stops the helper.
pub struct Calibration {
    helper: Child,
    requests: Option<ChildStdin>,
    replies: BufReader<ChildStdout>,
    last: f64,
    factors: Vec<f64>,
}

impl Calibration {
    /// Starts the helper and times the first pass.
    pub fn start() -> Result<Calibration, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut helper = Command::new(&exe)
            .arg("calibrate")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let requests = helper.stdin.take();
        let replies = BufReader::new(helper.stdout.take().ok_or("no calibrate stdout")?);
        let mut c = Calibration {
            helper,
            requests,
            replies,
            last: 0.0,
            factors: Vec::new(),
        };
        c.last = c.pass()?;
        Ok(c)
    }

    fn pass(&mut self) -> Result<f64, String> {
        let requests = self.requests.as_mut().ok_or("calibrate stdin closed")?;
        writeln!(requests).map_err(|e| format!("calibrate: {e}"))?;
        let mut reply = String::new();
        self.replies
            .read_line(&mut reply)
            .map_err(|e| format!("calibrate: {e}"))?;
        reply
            .trim()
            .parse()
            .map_err(|_| format!("calibrate replied '{}'", reply.trim()))
    }

    /// Times another pass and returns the factor for what ran since the
    /// previous one: the reference time over the two passes' mean. A time
    /// measured in between, times this factor, reads at the reference
    /// speed (a rate divides by it).
    pub fn factor(&mut self) -> Result<f64, String> {
        let now = self.pass()?;
        let f = REFERENCE_KERNEL_S / ((self.last + now) / 2.0);
        self.last = now;
        self.factors.push(f);
        Ok(f)
    }

    /// Every factor returned so far.
    pub fn factors(&self) -> &[f64] {
        &self.factors
    }
}

impl Drop for Calibration {
    fn drop(&mut self) {
        // End of input ends the helper; wait for it.
        drop(self.requests.take());
        let _ = self.helper.wait();
    }
}

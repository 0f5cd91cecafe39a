//! Child processes and memory readings (Linux `/proc` and `wait4`).

use std::path::Path;
use std::process::Child;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen `long`s.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

const WNOHANG: i32 = 1;

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code, `None` when a signal ended it.
    pub code: Option<i32>,
    /// Peak resident set size of the child, MiB (`ru_maxrss`). It also
    /// holds the peak RSS of the process the child was spawned from, as
    /// the kernel records the address space the child leaves at `exec`.
    /// So spawners call [`reset_hwm`] first and keep no large allocation
    /// live across a spawn: the reading is then the child's own peak or
    /// the spawner's RSS at the spawn, whichever is larger.
    pub peak_rss_mb: f64,
}

fn reap(pid: u32, options: i32) -> Result<Option<Exit>, String> {
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        rest: [0; 13],
    };
    let pid = i32::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    // SAFETY: `status` and `usage` are live, writable locals whose
    // layouts match the C `int` and 64-bit Linux `struct rusage` that
    // wait4 writes; the pid is a child this process spawned.
    let r = unsafe { wait4(pid, &mut status, options, &mut usage) };
    match r {
        0 => Ok(None),
        r if r == pid => Ok(Some(Exit {
            code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
            peak_rss_mb: usage.maxrss_kb as f64 / 1024.0,
        })),
        _ => Err(format!("wait4({pid}): {}", std::io::Error::last_os_error())),
    }
}

/// Kills `child` (if still running) and reaps it.
pub fn kill_and_reap(child: &mut Child) -> Result<Exit, String> {
    let _ = child.kill();
    reap(child.id(), 0).map(|e| e.expect("blocking wait4 returns the child"))
}

/// What [`watch`] observed of one child.
#[derive(Debug, Clone, Copy)]
pub struct Watched {
    /// How it ended.
    pub exit: Exit,
    /// Spawn → exit.
    pub wall: Duration,
    /// Spawn → the first poll that saw `ready` exist, if one did.
    pub ready: Option<Duration>,
}

/// Polls `child` (spawned at `spawned`) every 100 µs until it exits,
/// noting when the file `ready` first exists. Kills it after `timeout`.
pub fn watch(
    child: &mut Child,
    spawned: Instant,
    ready: &Path,
    timeout: Duration,
) -> Result<Watched, String> {
    let mut ready_at = None;
    loop {
        if ready_at.is_none() && ready.exists() {
            ready_at = Some(spawned.elapsed());
        }
        if let Some(exit) = reap(child.id(), WNOHANG)? {
            let wall = spawned.elapsed();
            return Ok(Watched {
                exit,
                wall,
                ready: ready_at,
            });
        }
        if spawned.elapsed() > timeout {
            kill_and_reap(child)?;
            return Err(format!("timed out after {timeout:?}"));
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// `(VmRSS, VmHWM)` of this process, bytes.
pub fn self_rss_hwm() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| rest.split_whitespace().next()?.parse::<u64>().ok())
            .map_or(0, |kb| kb * 1024)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Resets this process's VmHWM to its current RSS.
pub fn reset_hwm() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

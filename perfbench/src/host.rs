//! Host readings: peak memory, run-queue wait, available parallelism.
//! Linux `/proc` only; each returns `None` where the file is missing.

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Seconds the calling thread has spent runnable but waiting for a CPU
/// (second field of `/proc/thread-self/schedstat`, nanoseconds).
pub fn runqueue_wait_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let ns: f64 = stat.split_whitespace().nth(1)?.parse().ok()?;
    Some(ns * 1e-9)
}

/// `std::thread::available_parallelism`, or 1 when unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

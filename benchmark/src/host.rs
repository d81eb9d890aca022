//! Host facts and process accounting: everything read from `/proc`, the
//! toolchain and the journal directory's filesystem, so numbers from
//! different machines (or different disks) are not compared blindly.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use crate::json::Value;
use crate::stats;

/// Kernel clock ticks per second behind `/proc/self/stat`'s utime/stime.
/// `USER_HZ` is 100 on every Linux ABI this runs on.
const CLK_TCK: f64 = 100.0;

/// User + system CPU time consumed by this process so far, milliseconds
/// (all threads; 10 ms granularity).
pub fn process_cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name, which may hold spaces.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime is field 14, stime field 15.
    let ticks = |i: usize| fields.get(i - 3).and_then(|f| f.parse::<f64>().ok());
    match (ticks(14), ticks(15)) {
        (Some(utime), Some(stime)) => (utime + stime) * 1000.0 / CLK_TCK,
        _ => 0.0,
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn rss_peak_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

fn status_kib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix(key))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`), or `"unknown"`.
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        // `<id> <parent> <dev> <root> <mount point> <opts> ... - <fstype> <src> <opts>`
        let Some((head, tail)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount_point), Some(fstype)) = (head.split(' ').nth(4), tail.split(' ').next())
        else {
            continue;
        };
        if path.starts_with(mount_point)
            && best
                .as_ref()
                .is_none_or(|(len, _)| mount_point.len() >= *len)
        {
            best = Some((mount_point.len(), fstype.to_owned()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fstype)| fstype)
}

/// Median microseconds of `rounds` x (4 KiB append + `sync_data`) in `dir`:
/// what one durable journal append costs on this disk at the very least.
pub fn fsync_probe_us(dir: &Path, rounds: usize) -> f64 {
    let path = dir.join(format!("fsync-probe-{}", std::process::id()));
    let block = [0x5au8; 4096];
    let mut samples = Vec::with_capacity(rounds);
    if let Ok(mut file) = OpenOptions::new().create(true).append(true).open(&path) {
        for _ in 0..rounds {
            let start = Instant::now();
            if file
                .write_all(&block)
                .and_then(|()| file.sync_data())
                .is_err()
            {
                break;
            }
            samples.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    std::fs::remove_file(&path).ok();
    stats::median(&samples)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_owned())
}

/// Host and toolchain metadata for `result.json`. `git` is only read
/// (`rev-parse HEAD`); outside a git checkout the revision is `unknown`.
pub fn metadata(journal_dir: &Path) -> Value {
    Value::obj()
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, usize::from),
        )
        .with("git_rev", command_line("git", &["rev-parse", "HEAD"]))
        .with("rustc", command_line("rustc", &["--version"]))
        .with("journal_dir", journal_dir.display().to_string())
        .with("journal_fs", fs_type(journal_dir))
        .with(
            "network",
            "all channel traffic crossed loopback TCP (127.0.0.1) inside one process",
        )
        .with(
            "crash_model",
            "QueueManager::crash() drops volatile state but keeps the OS page cache: recover_s is a warm-cache restart",
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_live_values() {
        assert!(rss_peak_mib() > 0.0);
        let before = process_cpu_ms();
        let mut x = 0u64;
        let spin = Instant::now();
        while spin.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_ms() >= before + 20.0);
        assert_ne!(fs_type(Path::new("/proc")), "unknown");
    }
}

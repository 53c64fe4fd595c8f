//! The host descriptor every output carries, and the process's own peak
//! memory. Everything here is best effort: a field that cannot be read is
//! reported as `"unknown"`, never guessed.

use std::path::Path;
use std::process::Command;

/// What the numbers were measured on.
#[derive(Clone, Debug)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub l2: String,
    pub l3: String,
    pub isa: String,
    pub work_dir_fs: String,
    pub rustc: String,
    pub git_commit: String,
}

fn unknown() -> String {
    "unknown".into()
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path).map_or_else(|_| unknown(), |s| s.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(unknown)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(unknown)
}

fn isa() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut found = Vec::new();
        if std::arch::is_x86_feature_detected!("avx2") {
            found.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            found.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            found.push("avx512f");
        }
        if found.is_empty() {
            "x86_64".into()
        } else {
            found.join("+")
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        std::env::consts::ARCH.into()
    }
}

/// Filesystem type of the mount holding `dir` (longest mount-point prefix
/// in `/proc/self/mounts`). A tmpfs work directory would make every fsync
/// free, so the reader must see this beside the deposit timings.
fn fs_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return unknown();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return unknown();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_dev, point, kind) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(unknown, |(_, kind)| kind)
}

impl Host {
    pub fn describe(work_dir: &Path) -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu_model: cpu_model(),
            l2: read_trimmed("/sys/devices/system/cpu/cpu0/cache/index2/size"),
            l3: read_trimmed("/sys/devices/system/cpu/cpu0/cache/index3/size"),
            isa: isa(),
            work_dir_fs: fs_type(work_dir),
            rustc: command_line("rustc", &["-V"]),
            git_commit: command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        }
    }

    /// The descriptor as JSON object fields (no braces).
    pub fn json_fields(&self) -> String {
        let q = crate::json_string;
        format!(
            "\"nproc\":{},\"cpu_model\":{},\"l2\":{},\"l3\":{},\"isa\":{},\"work_dir_fs\":{},\"rustc\":{},\"git_commit\":{}",
            self.nproc,
            q(&self.cpu_model),
            q(&self.l2),
            q(&self.l3),
            q(&self.isa),
            q(&self.work_dir_fs),
            q(&self.rustc),
            q(&self.git_commit)
        )
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

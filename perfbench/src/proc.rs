//! Child processes and their memory, read from `/proc`.

use std::fs;

/// Peak resident set (`VmHWM`) of `pid`, in MiB; 0 if unreadable.
pub fn peak_rss_mb(pid: u32) -> f64 {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `pid` and every process descended from it.
pub fn process_tree(pid: u32) -> Vec<u32> {
    let mut out = vec![pid];
    let mut next = 0;
    while next < out.len() {
        let parent = out[next];
        next += 1;
        let Ok(tasks) = fs::read_dir(format!("/proc/{parent}/task")) else {
            continue;
        };
        for task in tasks.flatten() {
            if let Ok(children) = fs::read_to_string(task.path().join("children")) {
                out.extend(
                    children
                        .split_whitespace()
                        .filter_map(|c| c.parse::<u32>().ok()),
                );
            }
        }
    }
    out
}

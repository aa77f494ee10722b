//! The services of the untraced stream workloads, run in a child
//! process of their own. The child holds the monitors, the gateway and
//! the WAL and none of the benchmark's inputs, so its peak resident
//! set is the services' own.
//!
//! The child is this binary, started as `e2ebench host <kind>`. It
//! prints the addresses it serves on one stdout line (the endpoint the
//! load connects to first, then any backends) and serves until its
//! stdin closes; then it shuts the services down and exits.

use crate::lag::host_gateway;
use crate::stream::host_monitor;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::process::{ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// One WAL monitor (`stream-durable`).
pub const WAL_MONITOR: &str = "wal-monitor";
/// A gateway over two in-memory monitors (`gateway-lag`).
pub const GATEWAY: &str = "gateway";

/// The child side: serves `kind` until stdin closes.
pub fn serve(kind: &str) -> Result<(), String> {
    let (addrs, services): (Vec<String>, Box<dyn std::any::Any>) = match kind {
        WAL_MONITOR => {
            let m = host_monitor(true)?;
            (vec![m.addr.clone()], Box::new(m))
        }
        GATEWAY => {
            let s = host_gateway(vec![host_monitor(false)?, host_monitor(false)?])?;
            let mut addrs = vec![s.addr.clone()];
            addrs.extend(s.backends.iter().map(|b| b.addr.clone()));
            (addrs, Box::new(s))
        }
        other => return Err(format!("unknown host kind '{other}'")),
    };
    let mut out = std::io::stdout().lock();
    writeln!(out, "{}", addrs.join(" "))
        .and_then(|()| out.flush())
        .map_err(|e| format!("announce addresses: {e}"))?;
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    drop(services);
    Ok(())
}

/// The parent side: a running child and the addresses it serves.
pub struct Child {
    child: std::process::Child,
    stdin: Option<ChildStdin>,
    pub addrs: Vec<String>,
}

impl Child {
    pub fn spawn(kind: &str) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        let mut child = Command::new(exe)
            .args(["host", kind])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("start {kind} host: {e}"))?;
        let stdin = child.stdin.take();
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|s| BufReader::new(s).read_line(&mut line));
        let mut host = Child {
            child,
            stdin,
            addrs: line.split_whitespace().map(str::to_string).collect(),
        };
        match read {
            Some(Ok(n)) if n > 0 && !host.addrs.is_empty() => Ok(host),
            _ => {
                host.stop();
                Err(format!("{kind} host announced no address"))
            }
        }
    }

    /// The child's peak resident set (`VmHWM`), in MiB.
    pub fn rss_peak_mb(&self) -> Result<f64, String> {
        crate::status_mb(&format!("/proc/{}/status", self.child.id()), "VmHWM:")
    }

    /// The stats counters of the endpoint at `addrs[i]`.
    pub fn counters(&self, i: usize) -> Result<BTreeMap<String, u64>, String> {
        use hb_tracefmt::wire::{read_frame, write_frame, ClientMsg, ServerMsg};
        let addr = self.addrs.get(i).ok_or("no such endpoint")?;
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let mut w = BufWriter::new(s.try_clone().map_err(|e| e.to_string())?);
        write_frame(&mut w, &ClientMsg::Stats).map_err(|e| e.to_string())?;
        match read_frame::<_, ServerMsg>(&mut BufReader::new(s)) {
            Ok(Some(ServerMsg::Stats { counters })) => Ok(counters),
            other => Err(format!("stats from {addr}: {other:?}")),
        }
    }

    /// Closes the child's stdin and waits for it to exit; kills it if
    /// it has not exited within 30 seconds.
    fn stop(&mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                _ => return,
            }
        }
        eprintln!(
            "e2ebench: host {} did not stop; killing it",
            self.child.id()
        );
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        self.stop();
    }
}

//! The process under test: `lpbench serve-child` runs the real front end
//! (`server::serve` over a `ServiceManager`) in a process of its own, so its memory
//! and CPU time can be read apart from the load generator's, and so each round
//! starts from a fresh address space.
//!
//! Protocol: the child pins itself, builds the manager, binds an ephemeral
//! loopback port and prints `READY <port>`; it serves until its stdin closes (or
//! says anything), shuts the server down gracefully and prints `DONE`.

use crate::sys;
use server::{serve, ServerConfig};
use service::{ServiceManager, StorageConfig, TenantDefaults};
use std::io::{self, BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// How a server child is provisioned. Quotas stay unlimited and the time trigger
/// stays at its 600 s default, far past any run: nothing fires on a timer.
#[derive(Debug, Clone)]
pub struct ChildSpec {
    /// Durable storage root (`fsync` on); `None` serves in-memory topics.
    pub root: Option<PathBuf>,
    /// Recover the topics already under `root` (`ServiceManager::open`) instead of
    /// starting empty.
    pub reopen: bool,
    /// `volume_threshold` of every tenant's topics.
    pub volume_threshold: u64,
    pub tenants: Vec<String>,
}

impl ChildSpec {
    /// The manager this spec describes; the library twin is built by the same call.
    pub fn build_manager(&self) -> io::Result<ServiceManager> {
        let mut manager = match (&self.root, self.reopen) {
            (Some(root), true) => ServiceManager::open_with(root, StorageConfig::default())?,
            (Some(root), false) => ServiceManager::durable(root, StorageConfig::default())?,
            (None, _) => ServiceManager::new(),
        };
        for tenant in &self.tenants {
            manager.set_tenant_defaults(
                tenant,
                TenantDefaults {
                    volume_threshold: self.volume_threshold,
                    ..TenantDefaults::default()
                },
            );
        }
        Ok(manager)
    }

    fn to_args(&self, cpus: usize) -> Vec<String> {
        vec![
            "serve-child".to_string(),
            cpus.to_string(),
            self.root
                .as_ref()
                .map_or_else(|| "-".to_string(), |p| p.display().to_string()),
            u8::from(self.reopen).to_string(),
            self.volume_threshold.to_string(),
            self.tenants.join(","),
        ]
    }

    fn from_args(args: &[String]) -> Option<(usize, ChildSpec)> {
        let [cpus, root, reopen, volume, tenants] = args else {
            return None;
        };
        Some((
            cpus.parse().ok()?,
            ChildSpec {
                root: (root != "-").then(|| PathBuf::from(root)),
                reopen: reopen == "1",
                volume_threshold: volume.parse().ok()?,
                tenants: tenants.split(',').map(str::to_string).collect(),
            },
        ))
    }
}

/// The front-end configuration both the child and nothing else uses: library
/// defaults, except that no timeout or back-pressure bound may fire inside a run.
pub fn server_config() -> ServerConfig {
    let mut config = ServerConfig::default();
    config.http.keep_alive_timeout = Duration::from_secs(600);
    config.http.request_timeout = Duration::from_secs(120);
    config.engine.engine_wait = Duration::from_secs(120);
    config
}

/// Entry point of `lpbench serve-child <cpus> <root|-> <reopen> <volume> <tenants>`.
pub fn serve_child_main(args: &[String]) -> Result<(), String> {
    let (cpus, spec) = ChildSpec::from_args(args).ok_or("serve-child: bad arguments")?;
    // Before any thread exists, so every server thread inherits the mask.
    sys::pin(0, 0..cpus);
    let manager = spec
        .build_manager()
        .map_err(|e| format!("open manager: {e}"))?;
    let server = serve(manager, server_config()).map_err(|e| format!("serve: {e}"))?;
    println!("READY {}", server.addr().port());
    io::stdout().flush().map_err(|e| e.to_string())?;
    let mut line = String::new();
    // Blocks until the parent writes or closes the pipe (also when the parent dies).
    let _ = io::stdin().lock().read_line(&mut line);
    drop(server.shutdown());
    println!("DONE");
    Ok(())
}

/// Handle of a running server child, owned by the load generator.
#[derive(Debug)]
pub struct ServerChild {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

/// What the child cost, read from `/proc` just before it is asked to stop.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChildUsage {
    pub peak_rss_mb: f64,
    pub cpu_s: f64,
}

impl ServerChild {
    /// Spawn the child on cores `0..server_cpus` and wait until it serves.
    pub fn spawn(spec: &ChildSpec, server_cpus: usize) -> io::Result<ServerChild> {
        let mut child = Command::new(std::env::current_exe()?)
            .args(spec.to_args(server_cpus))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let port = line
            .strip_prefix("READY ")
            .and_then(|p| p.trim().parse::<u16>().ok());
        let Some(port) = port else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!("server child said {line:?}")));
        };
        Ok(ServerChild {
            child,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], port)),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn usage(&self) -> ChildUsage {
        let pid = self.child.id();
        ChildUsage {
            peak_rss_mb: sys::peak_rss_mb(pid).unwrap_or(0.0),
            cpu_s: sys::cpu_seconds(pid).unwrap_or(0.0),
        }
    }

    /// Graceful stop: the child drains, flushes and exits; returns once it has.
    pub fn stop(mut self) -> io::Result<()> {
        drop(self.child.stdin.take());
        let mut line = String::new();
        self.stdout.read_line(&mut line)?;
        let status = self.child.wait()?;
        if line.trim() == "DONE" && status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!(
                "server child ended with {status} after {line:?}"
            )))
        }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        // After `stop` these are no-ops; on an error path they keep the run from
        // leaving a server behind.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

//! Live-service walk-through: run the pinpoint daemon in-process over a
//! simulated feed and poke its HTTP surface like an operator would.
//!
//! The daemon is the deployment shape of the pipeline (§8's "Internet
//! Health Report"): a collector thread pulls bin *n+1* from the feed
//! while the executor's session analyzes bin *n*, joined by bounded
//! queues (a slow stage stalls the one above it — never a backlog), and
//! a reporter renders each report once — the moment its bin is analyzed
//! — into an immutable cache that the HTTP workers serve
//! byte-identically to every client. The rendered bytes are the same
//! bytes the offline `scenarios::run` path produces — the determinism contract, extended to the service
//! (`tests/service_parity.rs`).
//!
//! ```sh
//! cargo run --release --example live_service
//! ```

use pinpoint::scenarios::{steady, Scale};
use pinpoint::service::{Daemon, ServiceConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One raw HTTP/1.1 request — the daemon's surface is plain std TCP, so
/// a plain std client is all it takes.
fn http(addr: SocketAddr, method: &str, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("daemon is listening");
    stream
        .write_all(format!("{method} {path} HTTP/1.1\r\nHost: pinpointd\r\n\r\n").as_bytes())
        .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    raw.split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or(raw)
}

fn main() {
    // A quiet week-end of hourly bins from the steady-state scenario.
    let case = steady::case_study(2015, Scale::Small);
    let window = (case.start_bin.0, case.start_bin.0 + 8);
    let feed = case
        .platform
        .collect_bins(case.start_bin, pinpoint::model::BinId(window.1));

    // Ephemeral port, default bounded queues (4/4), 8 HTTP workers.
    let daemon = Daemon::spawn(ServiceConfig::default(), case.analyzer(), feed.into_iter())
        .expect("daemon spawns");
    let addr = daemon.local_addr();
    println!("pinpointd listening on http://{addr}");

    // The feed is finite: wait until every bin is collected, analyzed,
    // rendered, and cached.
    daemon.state().wait_done();

    println!("\nGET /health\n{}", http(addr, "GET", "/health"));
    println!("\nGET /bins\n{}", http(addr, "GET", "/bins"));
    let last = window.1 - 1;
    let report = http(addr, "GET", &format!("/bins/{last}/report"));
    println!("\nGET /bins/{last}/report ({} bytes)", report.len());
    println!("{}…", &report[..report.len().min(160)]);
    println!(
        "\nGET /alarms/graph\n{}",
        http(addr, "GET", "/alarms/graph")
    );
    println!("\nGET /stats\n{}", http(addr, "GET", "/stats"));

    // The cache is immutable: every client reads the identical bytes.
    let again = http(addr, "GET", &format!("/bins/{last}/report"));
    assert_eq!(report, again, "cached report must be byte-stable");

    // Graceful shutdown: drains the pipeline, joins every thread.
    println!("\nPOST /shutdown\n{}", http(addr, "POST", "/shutdown"));
    daemon.join().expect("clean exit");
    println!("daemon drained and stopped");
}

//! Integration tests for the rd-live loopback scrape endpoint: bind,
//! serve, scrape concurrently, shut down cleanly, release the port.
//! Everything here talks real TCP against `127.0.0.1` — no mocks — so
//! the properties the round loop relies on (readers never block the
//! writer, shutdown leaves nothing behind) are tested end to end.

use rd_obs::archive::parse_status;
use rd_obs::sink::prom_check_conformance;
use rd_obs::{http_get, DropTally, LiveBus, LiveServer, LiveSnapshot, RunMeta};
use std::sync::Arc;

fn sample_snapshot(round: u64) -> LiveSnapshot {
    LiveSnapshot {
        meta: RunMeta {
            algorithm: "hm".into(),
            topology: "3-out".into(),
            engine: "sharded:4".into(),
            n: 1024,
            seed: 42,
            workers: 4,
            latency_model: None,
        },
        round,
        max_rounds: 100_000,
        messages: round * 3000,
        retransmissions: 5,
        drops: DropTally {
            coin: 17,
            partition: 3,
            ..DropTally::default()
        },
        knowledge_total: round * 10_000,
        knowledge_target: 1_048_576,
        shard_busy_ns: vec![100, 200, 300, 400],
        round_wall_ns: 450,
        resident_bytes: 8 * 1024 * 1024,
        ..Default::default()
    }
}

fn serve_sample(round: u64) -> (LiveServer, String) {
    let bus = Arc::new(LiveBus::new());
    let server = LiveServer::start("127.0.0.1:0", bus.clone()).expect("bind ephemeral loopback");
    bus.publish_blocking(&sample_snapshot(round));
    let addr = server.addr().to_string();
    (server, addr)
}

#[test]
fn healthz_is_up_before_any_snapshot() {
    let bus = Arc::new(LiveBus::new());
    let server = LiveServer::start("127.0.0.1:0", bus).expect("bind");
    let addr = server.addr().to_string();
    let (code, body) = http_get(&addr, "/healthz").expect("GET /healthz");
    assert_eq!(code, 200);
    assert_eq!(body, "ok\n");
    // No snapshot published yet: data endpoints say 503, not garbage.
    let (code, _) = http_get(&addr, "/status").expect("GET /status");
    assert_eq!(code, 503);
    let (code, _) = http_get(&addr, "/metrics").expect("GET /metrics");
    assert_eq!(code, 503);
    server.shutdown();
}

#[test]
fn status_round_trips_through_the_serde_free_parser() {
    let (server, addr) = serve_sample(41);
    let (code, body) = http_get(&addr, "/status").expect("GET /status");
    assert_eq!(code, 200);
    // The served document reads back into the very snapshot published.
    let snap = parse_status(&body).expect("served /status is a snapshot");
    assert_eq!(snap, sample_snapshot(41));
    assert_eq!(snap.drops.coin, 17);
    assert_eq!(snap.shard_busy_ns.len(), 4);
    server.shutdown();
}

#[test]
fn metrics_pass_the_prometheus_conformance_checker() {
    let (server, addr) = serve_sample(7);
    let (code, body) = http_get(&addr, "/metrics").expect("GET /metrics");
    assert_eq!(code, 200);
    prom_check_conformance(&body).expect("served exposition is conformant");
    assert!(body.contains("rd_live_round"));
    assert!(body.contains("cause=\"coin\""));
    server.shutdown();
}

#[test]
fn unknown_paths_get_404() {
    let (server, addr) = serve_sample(1);
    let (code, _) = http_get(&addr, "/flamegraph").expect("GET unknown");
    assert_eq!(code, 404);
    server.shutdown();
}

#[test]
fn concurrent_scrapes_all_succeed_while_the_writer_publishes() {
    let bus = Arc::new(LiveBus::new());
    let server = LiveServer::start("127.0.0.1:0", bus.clone()).expect("bind");
    let addr = server.addr().to_string();
    bus.publish_blocking(&sample_snapshot(1));

    // Eight scrapers hammer all three endpoints while the writer keeps
    // publishing — readers must never see an error or a torn document.
    let writer_done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let scrapers: Vec<_> = (0..8)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let path = ["/status", "/metrics", "/healthz"][i % 3];
                for _ in 0..20 {
                    let (code, body) = http_get(&addr, path).expect("scrape succeeds");
                    assert_eq!(code, 200, "{path}");
                    if path == "/status" {
                        parse_status(&body).expect("never a torn document");
                    }
                }
            })
        })
        .collect();
    for round in 2..200 {
        bus.publish(&sample_snapshot(round));
        if writer_done.load(std::sync::atomic::Ordering::Relaxed) {
            break;
        }
    }
    for handle in scrapers {
        handle.join().expect("scraper thread panicked");
    }
    writer_done.store(true, std::sync::atomic::Ordering::Relaxed);
    server.shutdown();
}

#[test]
fn shutdown_releases_the_port_for_rebinding() {
    let bus = Arc::new(LiveBus::new());
    let server = LiveServer::start("127.0.0.1:0", bus).expect("bind");
    let addr = server.addr();
    server.shutdown();
    // The exact port must be immediately rebindable: shutdown() joined
    // the accept loop, so nothing holds the listener open.
    let bus = Arc::new(LiveBus::new());
    let server =
        LiveServer::start(&addr.to_string(), bus).expect("rebinding the released port succeeds");
    assert_eq!(server.addr(), addr);
    server.shutdown();
    // And after the final shutdown connections are refused — the
    // accept thread is really gone, not leaked.
    assert!(
        http_get(&addr.to_string(), "/healthz").is_err(),
        "server still answering after shutdown"
    );
}

#[test]
fn non_loopback_binds_are_refused() {
    let bus = Arc::new(LiveBus::new());
    match LiveServer::start("0.0.0.0:0", bus) {
        Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput),
        Ok(_) => panic!("wildcard bind must be refused"),
    }
}

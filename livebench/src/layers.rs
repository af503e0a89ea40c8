//! Per-layer metrics of a traced run. Each timing is the median of many
//! spans the benchmark records around one call into the layer's public
//! functions; each count is a counter delta per completed payment.

use crate::load::{route_id, MAX_AMOUNT};
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{shape, Measured, DEPOSIT};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use teechain::driver::CostModel;
use teechain::testkit::{Cluster, ClusterConfig};
use teechain::{ChannelId, Command, TeechainNode};
use teechain_crypto::{schnorr, Aead, PrivateKey};
use teechain_net::{EngineKind, LinkSpec, ReactorNet, Transport, TransportRx, TransportTx};
use teechain_persist::PersistentStore;
use teechain_tee::sealing::Sealer;
use teechain_tee::TrustRoot;
use teechain_util::rng::Xoshiro256;

/// One printed metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Median duration of the spans named `name`, in µs.
fn median_us(spans: &Spans, name: &str) -> f64 {
    median(&spans.durations(name)) / 1e3
}

/// Times `iters` calls of `f`, one span each.
fn spanned(spans: &mut Spans, name: &'static str, iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let parent = spans.open("layer.loop", 0, 0);
    for i in 0..iters {
        let open = spans.open(name, parent.id(), 0);
        f(i);
        spans.close(open);
    }
    spans.close(parent);
    median_us(spans, name)
}

/// Mean payload of one wire message on the closed loop, in bytes.
fn mean_msg_bytes(m: &Measured) -> usize {
    let msgs = m.counts.get("live.sent_msgs").copied().unwrap_or(0).max(1);
    (m.counts.get("live.sent_bytes").copied().unwrap_or(0) / msgs) as usize
}

/// Mean sealed WAL record on the closed loop, in bytes; workloads with
/// no store use their mean wire message instead.
fn mean_record_bytes(m: &Measured) -> usize {
    match m.counts.get("persist.records").copied().unwrap_or(0) {
        0 => mean_msg_bytes(m),
        records => (m.counts["persist.wal_bytes"] / records) as usize,
    }
}

fn crypto(spans: &mut Spans, msg_bytes: usize) -> Vec<Metric> {
    let aead = Aead::new(&[7u8; 32]);
    let overhead = aead.seal(0, b"", b"").len();
    let plaintext = vec![0x5Au8; msg_bytes.saturating_sub(overhead)];
    let sealed = aead.seal(1, b"", &plaintext);
    let seal = spanned(spans, "crypto.aead_seal", 4_000, |i| {
        black_box(aead.seal(i as u64, b"", black_box(&plaintext)));
    });
    let open = spanned(spans, "crypto.aead_open", 4_000, |_| {
        black_box(aead.open(1, b"", black_box(&sealed)).expect("authentic"));
    });
    let sk = PrivateKey::from_seed(&[3u8; 32]);
    let pk = sk.public_key();
    let peer = PrivateKey::from_seed(&[4u8; 32]).public_key();
    let msg = [0x11u8; 64];
    let sig = schnorr::sign(&sk, &msg);
    let sign = spanned(spans, "crypto.schnorr_sign", 200, |_| {
        black_box(schnorr::sign(black_box(&sk), black_box(&msg)));
    });
    let verify = spanned(spans, "crypto.schnorr_verify", 200, |_| {
        assert!(schnorr::verify(
            black_box(&pk),
            black_box(&msg),
            black_box(&sig)
        ));
    });
    let ecdh = spanned(spans, "crypto.ecdh", 200, |_| {
        black_box(teechain_crypto::shared_secret(
            black_box(&sk),
            black_box(&peer),
        ));
    });
    let block = [0xA5u8; 256];
    let sha = spanned(spans, "crypto.sha256_256b", 4_000, |_| {
        black_box(teechain_crypto::sha256(black_box(&block)));
    });
    vec![
        ("crypto.aead_seal_us", seal, "us"),
        ("crypto.aead_open_us", open, "us"),
        ("crypto.schnorr_sign_us", sign, "us"),
        ("crypto.schnorr_verify_us", verify, "us"),
        ("crypto.ecdh_us", ecdh, "us"),
        ("crypto.sha256_256b_us", sha, "us"),
    ]
}

/// Median round trip of a `bytes`-byte frame between two
/// `ReactorNet::localhost` endpoints, one side echoing, in µs.
fn reactor_rtt(spans: &mut Spans, bytes: usize) -> f64 {
    let mut eps = ReactorNet::localhost(2)
        .expect("bind the reactor listener")
        .into_iter();
    let (mut atx, mut arx) = eps.next().expect("endpoint 0").split();
    let (mut btx, mut brx) = eps.next().expect("endpoint 1").split();
    let stop = AtomicBool::new(false);
    let frame = vec![0x3Cu8; bytes.max(1)];
    let wait = Duration::from_secs(5);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                if let Ok(Some((from, msg))) = brx.recv_timeout(Duration::from_millis(20)) {
                    btx.send(from, msg).expect("echo");
                }
            }
        });
        // Warm the pooled connection before timing.
        atx.send(teechain_net::NodeId(1), frame.clone())
            .expect("send");
        arx.recv_timeout(wait).expect("echo").expect("echo in time");
        let rtt = spanned(spans, "reactor.rtt", 2_000, |_| {
            atx.send(teechain_net::NodeId(1), frame.clone())
                .expect("send");
            arx.recv_timeout(wait).expect("echo").expect("echo in time");
        });
        stop.store(true, Ordering::Relaxed);
        rtt
    })
}

/// Replays the workload single-threaded in the simulator with free CPU
/// and ideal links, with the live run's seed, shape and window, timing
/// every call into `testkit::Cluster`. Returns µs per channel set up and
/// µs per payment.
fn core_replay(spans: &mut Spans, workload: &str, seed: u64) -> (f64, f64) {
    let shape = shape(workload);
    let mut c = Cluster::new(ClusterConfig {
        n: shape.nodes,
        costs: CostModel::free(),
        default_link: LinkSpec::ideal(),
        durability: shape.durability,
        seed,
        engine: EngineKind::Seq,
    });
    let label = format!("replay-{workload}-{seed}");
    let parent = spans.open("core.replay", 0, 0);
    let mut setup_ns = 0u64;
    let mut chans: Vec<ChannelId> = Vec::new();
    for (k, &(a, b)) in shape.channels.iter().enumerate() {
        let (chan, ns) = spans.time("core.standard_channel", parent.id(), || {
            c.standard_channel(a, b, &format!("{label}-{k}"), DEPOSIT, 1)
        });
        setup_ns += ns;
        chans.push(chan);
    }
    let lanes = if shape.multihop { 1 } else { chans.len() };
    let mut amounts = Xoshiro256::new(seed ^ 0xC0DE);
    let mut pay_ns = 0u64;
    let mut payments = 0u64;
    for round in 0..shape.replay_rounds {
        for lane in 0..lanes {
            let payer = shape.channels[lane].0;
            for w in 0..shape.window {
                let amount = 1 + amounts.next_u64() % MAX_AMOUNT;
                let cmd = if shape.multihop {
                    Command::PayMultihop {
                        route: route_id(&format!("{label}-{round}-{w}")),
                        hops: c.ids.clone(),
                        channels: chans.clone(),
                        amount,
                    }
                } else {
                    Command::Pay {
                        id: chans[lane],
                        amount,
                        count: 1,
                    }
                };
                let (_, ns) = spans.time("core.submit", parent.id(), || c.submit(payer, cmd));
                pay_ns += ns;
                payments += 1;
            }
        }
        let (_, ns) = spans.time("core.settle_network", parent.id(), || c.settle_network());
        pay_ns += ns;
        for &(payer, _) in &shape.channels {
            c.node_mut(payer).completions.clear();
        }
    }
    spans.close(parent);
    (
        setup_ns as f64 / 1e3 / chans.len() as f64,
        pay_ns as f64 / 1e3 / payments as f64,
    )
}

fn persist_append(spans: &mut Spans, bytes: usize) -> f64 {
    let mut store = PersistentStore::in_memory();
    let record = vec![0x42u8; bytes.max(1)];
    spanned(spans, "persist.append", 2_000, |_| {
        store
            .append_commit(black_box(&record))
            .expect("in-memory append");
    })
}

fn tee_seal(spans: &mut Spans, seed: u64, bytes: usize) -> f64 {
    let device = TrustRoot::new(seed).issue_device(1);
    let sealer = Sealer::new(&device, &TeechainNode::measurement());
    let overhead = sealer.seal(0, b"").len();
    let state = vec![0x24u8; bytes.saturating_sub(overhead).max(1)];
    spanned(spans, "tee.seal", 2_000, |i| {
        black_box(sealer.seal(i as u64, black_box(&state)));
    })
}

/// Every per-layer metric for a traced run of `workload`.
pub fn measure(workload: &str, seed: u64, m: &Measured, spans: &mut Spans) -> Vec<Metric> {
    let msg = mean_msg_bytes(m);
    let record = mean_record_bytes(m);
    let mut out = crypto(spans, msg);
    let (core_channel, core_tx) = core_replay(spans, workload, seed);
    out.push(("core.us_per_tx", core_tx, "us"));
    out.push(("core.us_per_channel", core_channel, "us"));
    out.push(("live.us_per_tx", m.cpu_us_per_tx() - core_tx, "us"));
    out.push(("reactor.rtt_us", reactor_rtt(spans, msg), "us"));
    out.push(("wire.msgs_per_tx", m.per_tx("live.sent_msgs"), "count"));
    out.push(("wire.bytes_per_tx", m.per_tx("live.sent_bytes"), "B"));
    out.push(("admit.enqueued_per_tx", m.per_tx("admit.enqueued"), "count"));
    out.push(("admit.deferred_per_tx", m.per_tx("admit.deferred"), "count"));
    out.push((
        "persist.commits_per_tx",
        m.per_tx("persist.commits"),
        "count",
    ));
    out.push((
        "persist.wal_bytes_per_tx",
        m.per_tx("persist.wal_bytes"),
        "B",
    ));
    out.push(("persist.append_us", persist_append(spans, record), "us"));
    out.push(("tee.seal_us", tee_seal(spans, seed, record), "us"));
    out.push((
        "chain.txs_per_channel",
        m.chain_txs as f64 / m.channels as f64,
        "count",
    ));
    out.push((
        "trace.overhead_pct",
        m.trace_overhead_pct().unwrap_or(0.0),
        "%",
    ));
    out
}

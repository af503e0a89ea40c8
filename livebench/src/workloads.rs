//! The four workloads. Each builds a live cluster on the reactor runtime
//! (one scheduler worker), drives it from the generator, and checks the
//! outputs against the generator's own ledger.

use crate::ledger::{ChannelEnds, Checks, OpBook};
use crate::load::{Gen, Lane, Route, Slice, IDLE_POLL};
use crate::spans::Spans;
use crate::stats::{median, Sampled};
use crate::sys;
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};
use teechain::live::{LiveCluster, LiveConfig, DEFAULT_OP_TIMEOUT};
use teechain::ops::{OpResult, Settlement};
use teechain::{
    ChannelId, Command, Deposit, DurabilityBackend, OpId, OpOutput, PersistPolicy, TeechainNode,
};
use teechain_util::rng::Xoshiro256;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["direct", "multihop", "hub", "persist"];

/// Value each payer deposits into each channel it funds.
pub const DEPOSIT: u64 = 1 << 40;

/// Payments in flight on the `direct` closed loop (the §7.4 window):
/// deep enough that the worker always has a batch waiting.
const DIRECT_WINDOW: usize = 256;
/// Spokes on `hub`: enough that setting them all up takes about 0.4 s.
const HUB_SPOKES: usize = 64;
/// Payments in flight on the `persist` closed loop.
const PERSIST_WINDOW: usize = 8;

/// One workload's cluster and load, shared by the live run and its
/// simulator replay (`layers::core_replay`).
pub struct Shape {
    pub nodes: usize,
    pub durability: DurabilityBackend,
    /// `(payer, payee)` of every channel, in set-up order.
    pub channels: Vec<(usize, usize)>,
    /// One lane along every channel (a multi-hop route from the first
    /// payer to the last payee), instead of one lane per channel.
    pub multihop: bool,
    /// Payments in flight per lane on the closed loop.
    pub window: usize,
    /// Length of one closed-loop slice, in s; a run shorter than that
    /// is one slice.
    slice_s: f64,
    /// Set-ups before the closed loop; the last one builds the cluster
    /// the loop runs on.
    setups_first: usize,
    /// One more set-up (of a cluster shut down right after) between
    /// every `setup_every` slices of the closed loop; 0 for none. The
    /// host's speed drifts over seconds, so set-ups spread over the
    /// whole run give a median as steady as the slices'.
    setup_every: usize,
    /// Rounds of `window` payments per lane in the simulator replay.
    pub replay_rounds: usize,
}

/// The shape of workload `name`.
pub fn shape(name: &str) -> Shape {
    let pair = |durability, window, slice_s, setups_first, setup_every, replay_rounds| Shape {
        nodes: 2,
        durability,
        channels: vec![(0, 1)],
        multihop: false,
        window,
        slice_s,
        setups_first,
        setup_every,
        replay_rounds,
    };
    match name {
        "direct" => pair(DurabilityBackend::None, DIRECT_WINDOW, 1.0, 1, 1, 15),
        // Counter-throttled to about ten payments a second, so the whole
        // run is one slice, to keep the count large enough to resolve a
        // change of a tenth. Its set-up waits on counter increments, not
        // on the host's speed, so it is done before the loop.
        "persist" => pair(
            DurabilityBackend::persistent(),
            PERSIST_WINDOW,
            f64::INFINITY,
            3,
            0,
            25,
        ),
        // One payment in flight: with two, the pair either overlapped or
        // queued behind the route, and CPU per payment flipped between
        // 2.5 and 3.3 ms from one run to the next; with one it stays
        // within a few percent, and the loop doubles as the latency phase.
        "multihop" => Shape {
            nodes: 4,
            durability: DurabilityBackend::None,
            channels: (0..3).map(|i| (i, i + 1)).collect(),
            multihop: true,
            window: 1,
            slice_s: 1.0,
            setups_first: 1,
            setup_every: 1,
            replay_rounds: 200,
        },
        "hub" => Shape {
            nodes: HUB_SPOKES + 1,
            durability: DurabilityBackend::None,
            channels: (1..=HUB_SPOKES).map(|s| (0, s)).collect(),
            multihop: false,
            window: 1,
            slice_s: 1.0,
            setups_first: 1,
            setup_every: 1,
            replay_rounds: 30,
        },
        other => unreachable!("unknown workload {other}"),
    }
}

/// Everything one workload run measured, before it is turned into the
/// printed metrics.
pub struct Measured {
    /// Wall time of each set-up, in s.
    pub setups_s: Vec<f64>,
    /// Process CPU of each set-up, in s.
    pub setups_cpu_s: Vec<f64>,
    /// Closed-loop slices with spans off, and with spans on (trace runs
    /// alternate them).
    pub plain: Vec<Slice>,
    pub traced: Vec<Slice>,
    /// Closed-loop latency from submission, in ns.
    pub latency: Sampled,
    pub book: OpBook,
    pub checks: Checks,
    /// Counter deltas over the closed loop, and its completed payments.
    pub counts: BTreeMap<&'static str, u64>,
    pub closed_ok: u64,
    /// Channels the workload set up.
    pub channels: u64,
    /// Transactions on the chain when the run ended.
    pub chain_txs: u64,
    /// Nodes in the cluster.
    pub nodes: usize,
    /// Human-readable lines for the run summary.
    pub notes: Vec<String>,
}

impl Measured {
    pub fn setup_s(&self) -> f64 {
        median(&self.setups_s)
    }

    fn of(slices: &[Slice], f: impl Fn(&Slice) -> f64) -> f64 {
        let v: Vec<f64> = slices.iter().map(f).collect();
        median(&v)
    }

    /// Median slice throughput with spans off.
    pub fn tput(&self) -> f64 {
        Self::of(&self.plain, Slice::tput)
    }

    /// Median slice CPU per payment with spans off, in µs.
    pub fn cpu_us_per_tx(&self) -> f64 {
        Self::of(&self.plain, Slice::cpu_us_per_tx)
    }

    /// Relative CPU cost per payment of recording spans, in percent.
    pub fn trace_overhead_pct(&self) -> Option<f64> {
        if self.traced.is_empty() {
            return None;
        }
        let on = Self::of(&self.traced, Slice::cpu_us_per_tx);
        Some(100.0 * (on / self.cpu_us_per_tx() - 1.0))
    }

    /// A counter delta per completed closed-loop payment.
    pub fn per_tx(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0) as f64 / self.closed_ok.max(1) as f64
    }
}

/// Inputs every workload takes.
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
}

/// Waits until every op of `ops` has completed; returns their outputs
/// in order. Completions are read as the generator reads them, so a
/// set-up step costs the work of its ops and not one poll interval of
/// `LiveCluster::wait` per op. A failed set-up op ends the run.
fn await_all<T: OpResult>(net: &LiveCluster, ops: &[OpId]) -> Vec<T> {
    let slot: HashMap<OpId, usize> = ops.iter().enumerate().map(|(k, op)| (*op, k)).collect();
    let mut nodes: Vec<usize> = ops.iter().map(|op| op.node as usize).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let mut out: Vec<Option<OpOutput>> = vec![None; ops.len()];
    let mut left = ops.len();
    let deadline = Instant::now() + DEFAULT_OP_TIMEOUT;
    while left > 0 {
        let mut got = 0;
        for &n in &nodes {
            for c in net.take_completions(n) {
                if let Some(&k) = slot.get(&c.op) {
                    out[k] = Some(
                        c.outcome
                            .unwrap_or_else(|e| panic!("set-up op failed: {e:?}")),
                    );
                    got += 1;
                }
            }
        }
        left -= got;
        if got == 0 {
            assert!(Instant::now() < deadline, "set-up ops still pending");
            std::thread::sleep(IDLE_POLL);
        }
    }
    out.into_iter()
        .map(|o| T::from_output(o.expect("completed")).expect("output of the op's type"))
        .collect()
}

/// Sets up every channel of `pairs`, labelled `<label>-<k>`: every
/// session at once, then every open, every deposit, every approval and
/// every association, the steps `LiveCluster::standard_channel` takes
/// for one channel.
fn setup_channels(net: &LiveCluster, pairs: &[(usize, usize)], label: &str) -> Vec<ChannelId> {
    let ids = &net.ids;
    let each = |f: &dyn Fn(usize, usize, usize) -> OpId| -> Vec<OpId> {
        pairs
            .iter()
            .enumerate()
            .map(|(k, &(a, b))| f(k, a, b))
            .collect()
    };
    let _: Vec<OpOutput> = await_all(
        net,
        &each(&|_, a, b| net.submit(a, Command::StartSession { remote: ids[b] })),
    );
    let chans: Vec<ChannelId> = await_all(
        net,
        &each(&|k, a, b| {
            net.submit_open_channel(a, ChannelId::from_label(&format!("{label}-{k}")), ids[b])
        }),
    );
    let deposits: Vec<Deposit> = await_all(
        net,
        &each(&|_, a, _| net.submit_fund_deposit(a, DEPOSIT, 1)),
    );
    let _: Vec<OpOutput> = await_all(
        net,
        &each(&|k, a, b| {
            let outpoint = deposits[k].outpoint;
            net.submit(
                a,
                Command::ApproveDeposit {
                    remote: ids[b],
                    outpoint,
                },
            )
        }),
    );
    let _: Vec<OpOutput> = await_all(
        net,
        &each(&|k, a, _| {
            let outpoint = deposits[k].outpoint;
            net.submit(
                a,
                Command::AssociateDeposit {
                    id: chans[k],
                    outpoint,
                },
            )
        }),
    );
    chans
}

/// Wall and process CPU time of each set-up of a run, in s.
#[derive(Default)]
struct Setups {
    wall: Vec<f64>,
    cpu: Vec<f64>,
}

impl Setups {
    /// Builds a cluster of `shape` and sets up its channels, timing it
    /// from cluster start until every channel is ready.
    fn set_up(
        &mut self,
        shape: &Shape,
        seed: u64,
        label: &str,
        spans: &mut Spans,
    ) -> (LiveCluster, Vec<ChannelId>) {
        let open = spans.open("setup", 0, 0);
        let (t0, cpu0) = (Instant::now(), sys::process_cpu_ns());
        let net = LiveCluster::over_reactor(LiveConfig {
            n: shape.nodes,
            seed,
            durability: shape.durability,
            tracing: false,
            workers: 1,
        })
        .expect("bind the reactor listener");
        let chans = setup_channels(&net, &shape.channels, label);
        self.wall.push(t0.elapsed().as_secs_f64());
        self.cpu.push((sys::process_cpu_ns() - cpu0) as f64 / 1e9);
        spans.close(open);
        (net, chans)
    }
}

/// Counter deltas the closed loop is judged by.
const COUNTERS: [&str; 4] = [
    "live.sent_msgs",
    "live.sent_bytes",
    "admit.enqueued",
    "admit.deferred",
];

fn counters(net: &LiveCluster) -> [u64; 4] {
    let snap = net.observe();
    COUNTERS.map(|c| snap.counters.get(c).copied().unwrap_or(0))
}

fn store_totals(net: &LiveCluster) -> [u64; 3] {
    let mut t = [0u64; 3];
    for s in net.stores.iter().flatten() {
        let st = s.lock().stats();
        t[0] += st.commits;
        t[1] += st.wal_bytes;
        t[2] += st.records;
    }
    t
}

/// Runs the closed loop for `len` in slices of about `slice_s` seconds;
/// with spans recording, alternates slices with spans off and on (at
/// least one of each) so the recorder's own cost shows. Returns the
/// plain and traced slices, the counter deltas over the whole loop and
/// its successful payments.
fn measured_closed_loop(
    gen: &mut Gen<'_>,
    shape: &Shape,
    order: &[usize],
    len: Duration,
    probe: &mut dyn FnMut(&mut Spans),
) -> (Vec<Slice>, Vec<Slice>, BTreeMap<&'static str, u64>, u64) {
    let mut slices = ((len.as_secs_f64() / shape.slice_s).round() as usize).max(1);
    if gen.spans.on() {
        slices = slices.max(2);
    }
    let before = counters(gen.net);
    let stores_before = store_totals(gen.net);
    let ok_before: u64 = gen.book.succeeded.iter().sum();
    let phase = gen.spans.open("closed_loop", 0, 0);
    gen.phase_span = phase.id();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let slice_len = len / slices as u32;
    for (slice, on) in gen.closed_loop(
        shape.window,
        order,
        slices,
        slice_len,
        shape.setup_every,
        probe,
    ) {
        if on {
            traced.push(slice);
        } else {
            plain.push(slice);
        }
    }
    gen.spans.close(phase);
    let ok = gen.book.succeeded.iter().sum::<u64>() - ok_before;
    let after = counters(gen.net);
    let stores_after = store_totals(gen.net);
    let mut counts = BTreeMap::new();
    for (i, name) in COUNTERS.iter().enumerate() {
        counts.insert(*name, after[i] - before[i]);
    }
    counts.insert("persist.commits", stores_after[0] - stores_before[0]);
    counts.insert("persist.wal_bytes", stores_after[1] - stores_before[1]);
    counts.insert("persist.records", stores_after[2] - stores_before[2]);
    (plain, traced, counts, ok)
}

/// Both ends' balance views of `chan`, read from the final nodes.
fn ends(nodes: &[TeechainNode], payer: usize, payee: usize, chan: &ChannelId) -> ChannelEnds {
    let view = |i: usize| {
        nodes[i]
            .enclave
            .program()
            .and_then(|p| p.channel(chan))
            .map_or((0, 0), |c| (c.my_bal, c.remote_bal))
    };
    ChannelEnds {
        payer: view(payer),
        payee: view(payee),
    }
}

fn chain_txs(net: &LiveCluster) -> u64 {
    let chain = net.chain.lock();
    chain
        .blocks()
        .iter()
        .map(|b| b.txs.len() as u64)
        .sum::<u64>()
        + chain.mempool_len() as u64
}

fn seeded(seed: u64, stream: u64) -> Xoshiro256 {
    Xoshiro256::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Settles every channel on chain, all at once, and mines the
/// settlements; failures are counted in `book`.
fn settle_all(net: &LiveCluster, chans: &[ChannelId], book: &mut OpBook) {
    let ops: Vec<_> = chans
        .iter()
        .map(|c| net.submit(0, Command::Settle { id: *c }))
        .collect();
    book.attempted += ops.len() as u64;
    for op in ops {
        if let Err(e) = net.wait::<Settlement>(net.pending(op), DEFAULT_OP_TIMEOUT) {
            *book.failures.entry(e.label()).or_insert(0) += 1;
        }
    }
    net.chain.lock().mine_block();
}

/// Runs workload `name`: set-up, the closed loop for the whole of
/// `p.seconds`, on `hub` on-chain settlement of every channel, then the
/// output checks.
pub fn run(name: &str, p: &Params, spans: &mut Spans) -> Measured {
    let shape = shape(name);
    let label = format!("{name}-{}", p.seed);
    let mut setups = Setups::default();
    let mut built = None;
    for _ in 0..shape.setups_first {
        if let Some((net, _)) = built.take() {
            LiveCluster::shutdown(net);
        }
        built = Some(setups.set_up(&shape, p.seed, &label, spans));
    }
    let (net, chans) = built.expect("at least one set-up");
    let lanes: Vec<Lane> = if shape.multihop {
        vec![Lane {
            payer: shape.channels[0].0,
            route: Route::Multihop {
                hops: net.ids.clone(),
                channels: chans.clone(),
            },
        }]
    } else {
        shape
            .channels
            .iter()
            .zip(&chans)
            .map(|(&(payer, _), c)| Lane {
                payer,
                route: Route::Direct(*c),
            })
            .collect()
    };
    // The lanes are visited in a seeded order (it matters on `hub`).
    let mut order: Vec<usize> = (0..lanes.len()).collect();
    let mut shuffle = seeded(p.seed, 2);
    for i in (1..order.len()).rev() {
        order.swap(i, shuffle.next_below(i as u64 + 1) as usize);
    }
    let mut gen = Gen::new(&net, lanes, seeded(p.seed, 1), label.clone(), spans);
    let mut probe = |spans: &mut Spans| {
        let (probe, _) = setups.set_up(&shape, p.seed, &label, spans);
        LiveCluster::shutdown(probe);
    };
    let (plain, traced, counts, closed_ok) = measured_closed_loop(
        &mut gen,
        &shape,
        &order,
        Duration::from_secs_f64(p.seconds),
        &mut probe,
    );
    let latency = std::mem::take(&mut gen.latency);
    let mut book = std::mem::take(&mut gen.book);
    let mut notes = vec![format!(
        "closed loop: {} lane(s), {} in flight on each, latency from submission",
        order.len(),
        shape.window
    )];
    if name == "hub" {
        let settle = spans.open("settle", 0, 0);
        settle_all(&net, &chans, &mut book);
        spans.close(settle);
    }
    let txs = chain_txs(&net);
    let chain = net.chain.clone();
    let stores: Vec<_> = net.stores.iter().flatten().cloned().collect();
    let nodes = net.shutdown();

    let mut checks = Checks::default();
    checks.exactly_once(&book);
    for (k, (&(a, b), chan)) in shape.channels.iter().zip(&chans).enumerate() {
        // Along a route every channel carries the route's whole total.
        let paid = book.paid[if shape.multihop { 0 } else { k }];
        checks.channel(
            &format!("channel {k} ({a}->{b})"),
            ends(&nodes, a, b, chan),
            DEPOSIT,
            paid,
        );
    }
    if shape.multihop {
        for hop in 1..chans.len() {
            let incoming = ends(&nodes, hop - 1, hop, &chans[hop - 1]).payee;
            let outgoing = ends(&nodes, hop, hop + 1, &chans[hop]).payer;
            checks.forwards(&format!("node {hop}"), incoming, outgoing, DEPOSIT);
        }
    }
    if name == "hub" {
        let chain = chain.lock();
        for (k, (&(_, spoke), chan)) in shape.channels.iter().zip(&chans).enumerate() {
            let settled_to = nodes[spoke]
                .enclave
                .program()
                .and_then(|p| p.channel(chan))
                .map(|c| chain.balance_p2pk(&c.my_settlement));
            checks.expect(settled_to == Some(book.paid[k]), || {
                format!(
                    "spoke {spoke}: chain pays {settled_to:?}, ledger says {}",
                    book.paid[k]
                )
            });
        }
        checks.expect(
            chain.utxo_total() + chain.total_fees() == chain.total_minted(),
            || "on-chain value is not conserved".into(),
        );
    }
    for (i, s) in stores.iter().enumerate() {
        check_store(&mut checks, i, s, &mut notes);
    }
    Measured {
        setups_s: setups.wall,
        setups_cpu_s: setups.cpu,
        plain,
        traced,
        latency,
        book,
        checks,
        counts,
        closed_ok,
        channels: chans.len() as u64,
        chain_txs: txs,
        nodes: shape.nodes,
        notes,
    }
}

/// A recovered store shows no torn tail, and what it recovers agrees
/// with the writes its counters recorded: a snapshot exists exactly
/// when one was installed, and the log holds every record appended when
/// no snapshot compacted it, and fewer than one snapshot interval's
/// worth when one did.
fn check_store(
    checks: &mut Checks,
    node: usize,
    store: &teechain_persist::SharedStore,
    notes: &mut Vec<String>,
) {
    let mut s = store.lock();
    let stats = s.stats();
    let rec = match s.recover() {
        Ok(r) => r,
        Err(e) => {
            checks.expect(false, || format!("node {node}: recover failed: {e}"));
            return;
        }
    };
    checks.expect(!rec.torn_tail, || format!("node {node}: torn WAL tail"));
    checks.expect(rec.snapshot.is_some() == (stats.compactions > 0), || {
        format!(
            "node {node}: snapshot present {} but {} compactions",
            rec.snapshot.is_some(),
            stats.compactions
        )
    });
    let log_bytes: u64 = rec.log.iter().map(|r| r.len() as u64).sum();
    let n = rec.log.len() as u64;
    if stats.compactions == 0 {
        checks.expect(n == stats.records && log_bytes == stats.wal_bytes, || {
            format!(
                "node {node}: recovered {n} records / {log_bytes} B, wrote {} / {} B",
                stats.records, stats.wal_bytes
            )
        });
    } else {
        let interval = u64::from(PersistPolicy::default().snapshot_every);
        checks.expect(
            n < interval && n <= stats.records && log_bytes <= stats.wal_bytes,
            || {
                format!(
                    "node {node}: recovered {n} records after a snapshot ({} written, snapshot every {interval})",
                    stats.records
                )
            },
        );
    }
    notes.push(format!(
        "node {node} store: {} commits, {} records, {} compactions, {} B WAL; recovered {n} records",
        stats.commits, stats.records, stats.compactions, stats.wal_bytes
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_a_shape_its_replay_can_use() {
        for name in NAMES {
            let s = shape(name);
            assert!(!s.channels.is_empty(), "{name}");
            for &(a, b) in &s.channels {
                assert!(a < s.nodes && b < s.nodes && a != b, "{name}: {a}->{b}");
            }
            if s.multihop {
                // The route runs from the first payer to the last payee,
                // each channel starting where the last one ended.
                for w in s.channels.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "{name}");
                }
            }
            assert!(s.window > 0 && s.replay_rounds > 0, "{name}");
            assert!(s.setups_first > 0, "{name}");
        }
    }
}

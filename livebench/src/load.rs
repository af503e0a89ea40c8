//! The load generator: one thread (the caller's) that keeps payments in
//! flight on a live cluster and reads completions back through the
//! cluster's public completion streams.

use crate::ledger::{Issued, OpBook};
use crate::spans::Spans;
use crate::stats::Sampled;
use crate::sys;
use std::time::{Duration, Instant};
use teechain::live::LiveCluster;
use teechain::{ChannelId, Command, RouteId};
use teechain_crypto::schnorr::PublicKey;
use teechain_util::rng::Xoshiro256;

/// Payment amounts are drawn uniformly from `1..=MAX_AMOUNT`.
pub const MAX_AMOUNT: u64 = 1_000;

/// The route id a multi-hop payment labelled `label` carries, derived
/// as `LiveCluster::pay_multihop` derives it.
pub fn route_id(label: &str) -> RouteId {
    RouteId(teechain_crypto::sha256::tagged_hash(
        "teechain/route",
        &[label.as_bytes()],
    ))
}

/// Where one lane's payments go.
pub enum Route {
    /// A direct payment on one channel.
    Direct(ChannelId),
    /// A multi-hop payment along `hops` over `channels`.
    Multihop {
        hops: Vec<PublicKey>,
        channels: Vec<ChannelId>,
    },
}

/// One source of payments: a payer node and where it pays.
pub struct Lane {
    pub payer: usize,
    pub route: Route,
}

/// What one measured slice of a closed loop saw.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub wall_s: f64,
    pub ok: u64,
    /// Process CPU minus the generator thread's own, in ns.
    pub cpu_ns: u64,
}

impl Slice {
    pub fn tput(&self) -> f64 {
        self.ok as f64 / self.wall_s
    }

    pub fn cpu_us_per_tx(&self) -> f64 {
        self.cpu_ns as f64 / 1e3 / self.ok.max(1) as f64
    }
}

/// The load generator over one live cluster.
pub struct Gen<'a> {
    pub net: &'a LiveCluster,
    lanes: Vec<Lane>,
    /// Distinct payer nodes, whose completion streams are read.
    payers: Vec<usize>,
    pub book: OpBook,
    amounts: Xoshiro256,
    route_label: String,
    routes: u64,
    pub spans: &'a mut Spans,
    /// Span-clock ns minus cluster-clock ns.
    clock_offset: i128,
    /// Latency samples, in ns.
    pub latency: Sampled,
    /// Span every op is parented under.
    pub phase_span: u64,
}

/// How long an op may stay in flight once the generator stops
/// submitting before the run gives up on it (it then fails the
/// exactly-once check).
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

/// Generator poll interval when no completion was waiting.
pub const IDLE_POLL: Duration = Duration::from_micros(50);

impl<'a> Gen<'a> {
    /// A generator over `lanes`; amounts are drawn from `amounts` in
    /// `1..=MAX_AMOUNT`, route labels from `route_label`.
    pub fn new(
        net: &'a LiveCluster,
        lanes: Vec<Lane>,
        amounts: Xoshiro256,
        route_label: String,
        spans: &'a mut Spans,
    ) -> Gen<'a> {
        let mut payers: Vec<usize> = lanes.iter().map(|l| l.payer).collect();
        payers.sort_unstable();
        payers.dedup();
        let clock_offset = spans.now_ns() as i128 - net.now_ns() as i128;
        let book = OpBook::new(lanes.len());
        // Whatever the blocking set-up calls left in the streams is not
        // one of the generator's ops.
        for &p in &payers {
            net.take_completions(p);
        }
        Gen {
            net,
            lanes,
            payers,
            book,
            amounts,
            route_label,
            routes: 0,
            spans,
            clock_offset,
            latency: Sampled::new(),
            phase_span: 0,
        }
    }

    /// Submits one payment on `lane`; its latency counts from `from_ns`
    /// on the cluster clock.
    fn submit(&mut self, lane: usize, from_ns: u64) {
        let amount = 1 + self.amounts.next_u64() % MAX_AMOUNT;
        let l = &self.lanes[lane];
        let cmd = match &l.route {
            Route::Direct(id) => Command::Pay {
                id: *id,
                amount,
                count: 1,
            },
            Route::Multihop { hops, channels } => {
                self.routes += 1;
                Command::PayMultihop {
                    route: route_id(&format!("{}-{}", self.route_label, self.routes)),
                    hops: hops.clone(),
                    channels: channels.clone(),
                    amount,
                }
            }
        };
        let op = self.net.submit(l.payer, cmd);
        self.book.submitted(
            op,
            Issued {
                lane,
                amount,
                from_ns,
            },
        );
    }

    /// Reads every waiting completion; returns how many succeeded.
    fn poll(&mut self) -> u64 {
        let mut ok = 0;
        for k in 0..self.payers.len() {
            for c in self.net.take_completions(self.payers[k]) {
                let outcome = c.outcome.as_ref().map(|_| ()).map_err(|e| e.label());
                let Some((issued, success)) = self.book.completed(c.op, outcome) else {
                    continue;
                };
                if success {
                    ok += 1;
                    self.latency
                        .record(c.time_ns.saturating_sub(issued.from_ns));
                }
                if self.spans.on() {
                    let start = (issued.from_ns as i128 + self.clock_offset).max(0) as u64;
                    let end = (c.time_ns as i128 + self.clock_offset).max(0) as u64;
                    let open = self
                        .spans
                        .open_at("live.op", self.phase_span, c.op.seq, start);
                    self.spans.close_at(open, end);
                }
            }
        }
        ok
    }

    /// Waits until nothing is in flight (or the drain limit passes).
    pub fn drain(&mut self) {
        let limit = Instant::now() + DRAIN_LIMIT;
        while self.book.in_flight() > 0 && Instant::now() < limit {
            if self.poll() == 0 {
                std::thread::sleep(IDLE_POLL);
            }
        }
    }

    /// Closed loop: keeps `window` payments in flight on every lane, in
    /// the lane order `order`, for `slices` back-to-back slices of
    /// `slice_len` each, then drains. Latency counts from submission.
    /// When spans are on, odd slices record them and even ones do not,
    /// so the recorder's own cost shows; each slice says which it was.
    /// After every `probe_every`-th slice but the last (never, if 0) it
    /// drains and calls `probe`, outside any slice.
    pub fn closed_loop(
        &mut self,
        window: usize,
        order: &[usize],
        slices: usize,
        slice_len: Duration,
        probe_every: usize,
        probe: &mut dyn FnMut(&mut Spans),
    ) -> Vec<(Slice, bool)> {
        let tracing = self.spans.on();
        let mut out = Vec::with_capacity(slices);
        for k in 0..slices {
            let traced = tracing && k % 2 == 1;
            self.spans.set_on(traced);
            let (t0, cpu0, gen0) = (Instant::now(), sys::process_cpu_ns(), sys::thread_cpu_ns());
            let mut ok = 0;
            while t0.elapsed() < slice_len {
                for &lane in order {
                    while self.book.in_flight_on(lane) < window {
                        let now = self.net.now_ns();
                        self.submit(lane, now);
                    }
                }
                let done = self.poll();
                ok += done;
                if done == 0 {
                    std::thread::sleep(IDLE_POLL);
                }
            }
            let (cpu1, gen1) = (sys::process_cpu_ns(), sys::thread_cpu_ns());
            let slice = Slice {
                wall_s: t0.elapsed().as_secs_f64(),
                ok,
                cpu_ns: (cpu1 - cpu0).saturating_sub(gen1 - gen0),
            };
            out.push((slice, traced));
            if probe_every > 0 && (k + 1) % probe_every == 0 && k + 1 < slices {
                self.drain();
                probe(self.spans);
            }
        }
        self.spans.set_on(tracing);
        self.drain();
        out
    }
}

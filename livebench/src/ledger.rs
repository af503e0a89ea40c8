//! The generator's own record of what it asked for, and the output
//! checks computed from it. Nothing here reads the program's idea of
//! what should have happened: expected balances come from the amounts
//! the generator drew, and from properties the protocol must have.

use std::collections::{BTreeMap, HashMap};
use teechain::OpId;

/// Which lane (channel or route) an in-flight op belongs to, its amount,
/// and the cluster-clock instant its latency is measured from.
#[derive(Debug, Clone, Copy)]
pub struct Issued {
    pub lane: usize,
    pub amount: u64,
    pub from_ns: u64,
}

/// Tracks every submitted op until its single completion.
#[derive(Default)]
pub struct OpBook {
    in_flight: HashMap<OpId, Issued>,
    lane_in_flight: Vec<usize>,
    /// Ops submitted.
    pub attempted: u64,
    /// Ops that completed with a typed failure, by `OpError` label.
    pub failures: BTreeMap<String, u64>,
    /// Completions for an op that was never submitted or had already
    /// completed: each breaks exactly-once delivery.
    pub unexpected: u64,
    /// Successfully applied amount per lane.
    pub paid: Vec<u64>,
    /// Successful payments per lane.
    pub succeeded: Vec<u64>,
}

impl OpBook {
    /// A book for `lanes` lanes.
    pub fn new(lanes: usize) -> OpBook {
        OpBook {
            lane_in_flight: vec![0; lanes],
            paid: vec![0; lanes],
            succeeded: vec![0; lanes],
            ..OpBook::default()
        }
    }

    /// Records a submission.
    pub fn submitted(&mut self, op: OpId, issued: Issued) {
        self.attempted += 1;
        self.lane_in_flight[issued.lane] += 1;
        if self.in_flight.insert(op, issued).is_some() {
            // The program handed out one op id twice.
            self.unexpected += 1;
        }
    }

    /// Records a completion; returns the op's submission record and
    /// whether it succeeded, or `None` for a completion that was not
    /// expected (counted in `unexpected`).
    pub fn completed(&mut self, op: OpId, ok: Result<(), String>) -> Option<(Issued, bool)> {
        let Some(issued) = self.in_flight.remove(&op) else {
            self.unexpected += 1;
            return None;
        };
        self.lane_in_flight[issued.lane] -= 1;
        match ok {
            Ok(()) => {
                self.paid[issued.lane] += issued.amount;
                self.succeeded[issued.lane] += 1;
                Some((issued, true))
            }
            Err(label) => {
                *self.failures.entry(label).or_insert(0) += 1;
                Some((issued, false))
            }
        }
    }

    /// Ops submitted and not yet completed.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// In-flight ops on `lane`.
    pub fn in_flight_on(&self, lane: usize) -> usize {
        self.lane_in_flight[lane]
    }

    /// Ops that completed with a failure.
    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }
}

/// The outcome of the output checks: one line per violated property.
#[derive(Default)]
pub struct Checks {
    pub violations: Vec<String>,
}

impl Checks {
    /// Records a violation unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// True if every check held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Every submitted op completed exactly once.
    pub fn exactly_once(&mut self, book: &OpBook) {
        self.expect(book.unexpected == 0, || {
            format!(
                "{} completions were unexpected or repeated",
                book.unexpected
            )
        });
        self.expect(book.in_flight() == 0, || {
            format!("{} submitted ops never completed", book.in_flight())
        });
    }

    /// A channel funded only by its payer: both ends hold mirror images
    /// of one state, the payer holds the deposit minus what the ledger
    /// says it paid, and the payee holds exactly that.
    pub fn channel(&mut self, name: &str, ends: ChannelEnds, deposit: u64, paid: u64) {
        self.expect(ends.payer == (ends.payee.1, ends.payee.0), || {
            format!(
                "{name}: ends disagree: payer sees {:?}, payee sees {:?}",
                ends.payer, ends.payee
            )
        });
        let want = (deposit.checked_sub(paid), Some(paid));
        self.expect((Some(ends.payer.0), Some(ends.payer.1)) == want, || {
            format!(
                "{name}: payer holds {:?}, ledger expects {:?}",
                ends.payer, want
            )
        });
    }

    /// A middle hop of a payment line forwards exactly what it receives:
    /// its gain on the incoming channel equals its loss on the outgoing
    /// one. `incoming` is the hop's `(my, remote)` view of the channel it
    /// was paid on, `outgoing` its view of the channel it funded with
    /// `deposit`.
    pub fn forwards(
        &mut self,
        name: &str,
        incoming: (u64, u64),
        outgoing: (u64, u64),
        deposit: u64,
    ) {
        let gain = incoming.0;
        let loss = deposit.checked_sub(outgoing.0);
        self.expect(loss == Some(gain), || {
            format!("{name}: gained {gain} in, lost {loss:?} out")
        });
    }
}

/// Both ends' `(my_bal, remote_bal)` views of one channel.
#[derive(Debug, Clone, Copy)]
pub struct ChannelEnds {
    pub payer: (u64, u64),
    pub payee: (u64, u64),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(seq: u64) -> OpId {
        OpId { node: 0, seq }
    }

    fn issued(lane: usize, amount: u64) -> Issued {
        Issued {
            lane,
            amount,
            from_ns: 0,
        }
    }

    #[test]
    fn book_counts_each_completion_once() {
        let mut b = OpBook::new(2);
        b.submitted(op(1), issued(0, 10));
        b.submitted(op(2), issued(1, 5));
        b.submitted(op(3), issued(0, 7));
        assert_eq!(b.in_flight_on(0), 2);
        assert!(b.completed(op(1), Ok(())).is_some());
        assert!(b
            .completed(op(3), Err("remote:ChannelLocked".into()))
            .is_some());
        assert!(b.completed(op(1), Ok(())).is_none(), "repeat");
        assert!(b.completed(op(9), Ok(())).is_none(), "never submitted");
        assert_eq!((b.paid[0], b.succeeded[0]), (10, 1));
        assert_eq!(b.failed(), 1);
        assert_eq!(b.unexpected, 2);
        let mut c = Checks::default();
        c.exactly_once(&b);
        assert_eq!(c.violations.len(), 2, "{:?}", c.violations);
        assert!(b.completed(op(2), Ok(())).is_some());
        let mut c = Checks::default();
        c.exactly_once(&b);
        assert_eq!(c.violations.len(), 1, "only the repeats remain");
    }

    #[test]
    fn channel_check_uses_the_ledger_not_the_program() {
        let good = ChannelEnds {
            payer: (900, 100),
            payee: (100, 900),
        };
        let mut c = Checks::default();
        c.channel("ok", good, 1_000, 100);
        assert!(c.passed(), "{:?}", c.violations);

        let mut c = Checks::default();
        c.channel("short", good, 1_000, 99);
        assert_eq!(c.violations.len(), 1);

        let disagree = ChannelEnds {
            payer: (900, 100),
            payee: (101, 900),
        };
        let mut c = Checks::default();
        c.channel("disagree", disagree, 1_000, 100);
        assert_eq!(c.violations.len(), 1);

        // Paying more than the deposit cannot be explained by any state.
        let mut c = Checks::default();
        c.channel("overdrawn", good, 50, 100);
        assert!(!c.passed());
    }

    #[test]
    fn forwarding_hop_neither_creates_nor_loses_value() {
        let mut c = Checks::default();
        c.forwards("hop", (30, 970), (970, 30), 1_000);
        assert!(c.passed());
        c.forwards("thief", (30, 970), (975, 25), 1_000);
        c.forwards("overdrawn", (30, 0), (2_000, 0), 1_000);
        assert_eq!(c.violations.len(), 2);
    }
}

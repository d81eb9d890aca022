//! Clean negatives: consistent lock order, a respected never-hold
//! discipline, discharged custody (strict and err-reverts), matching
//! registry emissions, a `for` loop whose pattern head destructures a
//! struct (its braces are not the loop body) — and a `//` inside a string
//! literal that must NOT be lexed as a comment (the string even spells
//! out a lint annotation; treating it as one would fabricate a
//! violation) — and the notify that wakes `signal.rs`'s condvar.

use parking_lot::Mutex;

use crate::signal::Signal;

/// Registry for the one metric this crate emits.
// lint: registry metric-name
pub const METRICS: &[&str] = &["clean.ticks"];

pub struct Message;

pub enum Error {
    Closed,
}

pub struct Step {
    pub first: bool,
    pub by: u32,
}

pub struct Clean {
    // lint: never-hold(Clean.a) across tick
    a: Mutex<u32>,
    b: Mutex<u32>,
    open: bool,
    signal: Signal,
}

impl Clean {
    /// Wakes whoever waits on the signal's condvar.
    pub fn bump(&self) {
        *self.signal.seq.lock() += 1;
        self.signal.changed.notify_all();
    }

    /// Both fns take `a` before `b`: no inversion.
    pub fn first(&self) -> u32 {
        let ga = self.a.lock();
        let gb = self.b.lock();
        let sum = *ga + *gb;
        drop(gb);
        drop(ga);
        sum
    }

    pub fn second(&self) -> u32 {
        let ga = self.a.lock();
        let gb = self.b.lock();
        let sum = *ga * *gb;
        drop(gb);
        drop(ga);
        sum
    }

    /// `b`'s guard lives only inside the `if`, so `a` is never taken under
    /// it. A parser that took the pattern's `{ first, by }` for the loop
    /// body would lose that scope and report `b` held across `a.lock()`
    /// (the reverse of `first`'s order).
    pub fn apply(&self, steps: Vec<Step>) {
        for Step { first, by } in steps {
            if first {
                let mut gb = self.b.lock();
                *gb += by;
            }
            *self.a.lock() += by;
        }
    }

    /// The declared discipline is respected: `tick` runs after drop.
    pub fn advance(&self) {
        let mut ga = self.a.lock();
        *ga += 1;
        drop(ga);
        self.tick();
    }

    fn tick(&self) {}

    /// Strict custody discharged on the only path.
    // lint: custody(msg)
    pub fn put(&self, msg: Message) {
        self.store(msg);
    }

    /// err-reverts: the `?` hands custody back to the caller.
    // lint: custody(msg, err-reverts)
    pub fn deliver(&self, msg: Message) -> Result<(), Error> {
        self.check()?;
        self.store(msg);
        Ok(())
    }

    fn store(&self, msg: Message) {
        let _ = msg;
    }

    fn check(&self) -> Result<(), Error> {
        if self.open {
            Ok(())
        } else {
            Err(Error::Closed)
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        name.len() as u64
    }

    pub fn observe(&self) -> u64 {
        self.counter("clean.ticks")
    }

    /// The `//` in these strings is string content, not a comment; a
    /// lexer that treated it as one would swallow the closing quote
    /// and register the embedded text as a real annotation.
    pub fn describe(&self) -> String {
        let url = "https://example.com/locking#discipline";
        let trap = "not a comment: // lint: never-hold(Clean.b) across first";
        format!("{url} {trap}")
    }
}

//! One compiled form per distinct condition.
//!
//! Applications send the same condition again and again. A messenger keeps
//! one [`Shape`] per condition it has pending — the compiled tree, the
//! static analysis's verdict on it, its encoded bytes and each leaf's
//! original as a message template — and every send, recovery and release
//! of that condition shares it, so the tree is compiled (and validated)
//! and analyzed once, not once per message: the verdict depends on the
//! condition alone. Counter `cond.analyze.runs` counts the analyses.
//!
//! The key is the condition's wire encoding, the bytes its send record
//! carries: two conditions share a shape exactly when those bytes are
//! equal. The table holds a shape only while something else does — a
//! pending evaluation, a send, a verdict or a release in progress: each
//! entry is weak, and the shape's last holder removes it. So the table
//! never holds more shapes than the messenger has messages in hand, and
//! needs no bound of its own. Gauge `cond.shapes` reads the live shapes,
//! with high water.

use std::collections::HashMap;
use std::sync::{Arc, Weak};

use bytes::Bytes;
use mq::{Counter, Gauge, Message};
use parking_lot::Mutex;

use crate::analyze::{analyze, AnalyzeError};
use crate::condition::Condition;
use crate::config::DEFAULT_ACK_QUEUE;
use crate::error::CondResult;
use crate::eval::CompiledCondition;
use crate::wire;

/// A condition as a messenger sends it: compiled, encoded, and each leaf's
/// original up to the payload and the conditional message id.
#[derive(Debug)]
pub(crate) struct Shape {
    compiled: CompiledCondition,
    /// Why the static analysis refuses to send the condition, if it does.
    refusal: Option<AnalyzeError>,
    /// The condition's wire encoding: the table's key.
    encoded: Bytes,
    /// One per leaf, in leaf-index order.
    leaves: Vec<ShapeLeaf>,
    /// The detail a send traces: `<n> leaves`.
    send_detail: Arc<str>,
    table: Arc<ShapeTable>,
}

/// What every original of one leaf shares.
#[derive(Debug)]
pub(crate) struct ShapeLeaf {
    /// The original without its payload and correlation id.
    pub template: Message,
    /// The leaf's `manager/queue`, as the trace names it.
    pub dest: Arc<str>,
}

impl Shape {
    /// The compiled condition.
    pub fn compiled(&self) -> &CompiledCondition {
        &self.compiled
    }

    /// Why a send of the condition is refused ([`crate::analyze`]), if it
    /// is.
    pub fn refusal(&self) -> Option<&AnalyzeError> {
        self.refusal.as_ref()
    }

    /// Each leaf's template and destination, in leaf-index order.
    pub fn leaves(&self) -> &[ShapeLeaf] {
        &self.leaves
    }

    /// What the trace says of a send of this shape.
    pub fn send_detail(&self) -> &Arc<str> {
        &self.send_detail
    }
}

/// The last holder of a shape takes its entry out of the table — unless
/// the key was interned again meanwhile, to a shape of its own.
impl Drop for Shape {
    fn drop(&mut self) {
        let mut shapes = self.table.shapes.lock();
        if shapes
            .get(&self.encoded)
            .is_some_and(|entry| entry.strong_count() == 0)
        {
            shapes.remove(&self.encoded);
        }
        self.table.live.set(shapes.len() as u64);
    }
}

/// A messenger's shapes, by encoded condition.
#[derive(Debug)]
pub(crate) struct ShapeTable {
    // lint: never-hold(ShapeTable.shapes) across append
    shapes: Mutex<HashMap<Bytes, Weak<Shape>>>,
    /// `cond.shapes`.
    live: Arc<Gauge>,
    /// `cond.analyze.runs`.
    analyses: Arc<Counter>,
    /// The manager the originals name as their sender.
    sender_manager: String,
}

impl ShapeTable {
    pub fn new(
        live: Arc<Gauge>,
        analyses: Arc<Counter>,
        sender_manager: &str,
    ) -> Arc<ShapeTable> {
        Arc::new(ShapeTable {
            shapes: Mutex::new(HashMap::new()),
            live,
            analyses,
            sender_manager: sender_manager.to_owned(),
        })
    }

    /// The live shape of `condition`, whose wire encoding is `encoded`, or
    /// a new one, compiled and analyzed, when there is none. The table is
    /// not held while the new one is made: of two threads that both miss,
    /// the first to insert wins and the other's shape is never used.
    ///
    /// # Errors
    ///
    /// [`CondError::InvalidCondition`](crate::CondError::InvalidCondition)
    /// from the compile; nothing is interned then.
    pub fn intern(
        self: &Arc<Self>,
        encoded: &Bytes,
        condition: &Condition,
    ) -> CondResult<Arc<Shape>> {
        let live = |shapes: &HashMap<Bytes, Weak<Shape>>| shapes.get(encoded)?.upgrade();
        if let Some(shape) = live(&self.shapes.lock()) {
            return Ok(shape);
        }
        let compiled = CompiledCondition::compile(condition)?;
        self.analyses.incr();
        let refusal = analyze(condition).into_error().ok();
        let leaves: Vec<ShapeLeaf> = compiled
            .leaves()
            .iter()
            .map(|leaf| ShapeLeaf {
                template: wire::original_template(leaf, &self.sender_manager, DEFAULT_ACK_QUEUE),
                dest: leaf.queue.to_string().into(),
            })
            .collect();
        let mut shapes = self.shapes.lock();
        if let Some(shape) = live(&shapes) {
            return Ok(shape);
        }
        let shape = Arc::new(Shape {
            compiled,
            refusal,
            encoded: encoded.clone(),
            send_detail: format!("{} leaves", leaves.len()).into(),
            leaves,
            table: Arc::clone(self),
        });
        shapes.insert(encoded.clone(), Arc::downgrade(&shape));
        self.live.set(shapes.len() as u64);
        Ok(shape)
    }
}

//! Seeded gate/directory inversion: a queue manager whose directory is one
//! plain `RwLock<HashMap>`. `create_queue` takes the mutation gate, then
//! the directory (the declared order); `snapshot` takes the directory,
//! then the gate.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

pub struct Queue;

pub struct QueueManager {
    mutation_gate: Arc<RwLock<()>>,
    queues: RwLock<HashMap<String, Arc<Queue>>>,
}

impl QueueManager {
    pub fn create_queue(&self, name: String) {
        let _gate = self.mutation_gate.read();
        let mut queues = self.queues.write();
        queues.insert(name, Arc::new(Queue));
    }

    pub fn snapshot(&self) -> usize {
        let queues = self.queues.read();
        let _gate = self.mutation_gate.write();
        queues.len()
    }
}

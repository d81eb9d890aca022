//! cond-verify: inter-procedural static analysis passes.
//!
//! Three passes run over the parsed workspace (see [`crate::parser`]):
//!
//! * [`lockorder`] — propagates held-lock sets through the call graph,
//!   reporting potential ABBA inversions and violations of declared
//!   `// lint: never-hold(<lock>) across <fn>` disciplines, with both
//!   acquisition sites in each diagnostic.
//! * [`custody`] — checks that functions annotated
//!   `// lint: custody(<var>)` move their message to exactly one
//!   terminal on every path (deliver, dead-letter, journaled handoff,
//!   or rollback), flagging early returns / `?` exits that leak it.
//! * [`registry`] — checks every emitted metric name, trace stage,
//!   journal record tag, and frame kind against its single declared
//!   `// lint: registry <kind>` registry, and scans `scenarios/*.toml`
//!   so every `metric = "…"` / `stage = "…"` a scenario oracle asserts
//!   on names something the observability layer actually emits.
//!
//! The annotation grammar and the soundness caveats of the lightweight
//! parser are documented in DESIGN.md §14.

pub mod custody;
pub mod lockorder;
pub mod registry;

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::Path;

use crate::parser::{Call, FnDef, ParsedFile, Recv};
use crate::Finding;

/// Methods that acquire a lock when called on a lock-typed field (or on
/// an accessor annotated `returns-lock`).
pub const LOCK_METHODS: &[&str] = &[
    "lock",
    "read",
    "write",
    "try_lock",
    "try_read",
    "try_write",
    "upgradable_read",
];

/// Wrapper type names skipped when extracting the core type of a field
/// or return-type string.
const TYPE_WRAPPERS: &[&str] = &[
    "Arc", "Box", "Rc", "Weak", "RefCell", "Cell", "Option", "Result", "MqResult", "CondResult",
    "Vec", "VecDeque", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "BinaryHeap", "Mutex",
    "RwLock", "Reverse", "PhantomData", "io", "std", "crate", "dyn", "mut", "Self",
];

/// Index of a function in [`Workspace::fns`].
pub type FnId = usize;

/// A declared never-hold discipline.
#[derive(Debug)]
pub struct NeverHold {
    /// Canonical lock id (`Owner.field`).
    pub lock: String,
    /// Function name that must not be reached while the lock is held.
    pub target: String,
    /// File the annotation lives in.
    pub path: String,
    /// Line of the annotation.
    pub line: u32,
}

/// The resolved core type of an expression/field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeRef {
    /// A workspace struct/enum.
    Concrete(String),
    /// A `dyn Trait` object.
    Dyn(String),
    /// Resolved to a type that is not defined in this workspace (e.g.
    /// `std::fs::File`): its methods are definitely not workspace
    /// functions, so no name-only fallback applies.
    Foreign,
    /// Not resolvable.
    Unknown,
}

/// Parsed workspace plus derived resolution tables.
pub struct Workspace {
    /// Parsed files (non-test only).
    pub files: Vec<ParsedFile>,
    /// All functions, flattened.
    pub fns: Vec<FnDef>,
    /// Struct name → field table.
    pub fields: HashMap<String, HashMap<String, String>>,
    /// Known type names (structs + enums).
    pub types: HashSet<String>,
    /// Trait → implementing types.
    pub impls_of_trait: HashMap<String, Vec<String>>,
    /// (owner, method) → fn ids.
    pub by_owner: HashMap<(String, String), Vec<FnId>>,
    /// method name → fn ids with a body.
    pub by_name: HashMap<String, Vec<FnId>>,
    /// free fn name → fn ids.
    pub free_by_name: HashMap<String, Vec<FnId>>,
    /// trait name → default-method fn ids.
    pub trait_defaults: HashMap<(String, String), Vec<FnId>>,
    /// Declared never-hold disciplines.
    pub never_holds: Vec<NeverHold>,
    /// Lock alias map (alias → canonical).
    pub aliases: HashMap<String, String>,
    /// path → lines carrying a `custody-ok` annotation.
    pub custody_ok: HashMap<String, HashSet<u32>>,
}

impl Workspace {
    /// Builds the workspace from parsed files.
    pub fn build(files: Vec<ParsedFile>) -> Self {
        let mut ws = Workspace {
            files: Vec::new(),
            fns: Vec::new(),
            fields: HashMap::new(),
            types: HashSet::new(),
            impls_of_trait: HashMap::new(),
            by_owner: HashMap::new(),
            by_name: HashMap::new(),
            free_by_name: HashMap::new(),
            trait_defaults: HashMap::new(),
            never_holds: Vec::new(),
            aliases: HashMap::new(),
            custody_ok: HashMap::new(),
        };
        for f in &files {
            for s in &f.structs {
                ws.types.insert(s.name.clone());
                let entry = ws.fields.entry(s.name.clone()).or_default();
                for (n, t) in &s.fields {
                    entry.insert(n.clone(), t.clone());
                }
            }
            for (tr, ty) in &f.trait_impls {
                ws.impls_of_trait.entry(tr.clone()).or_default().push(ty.clone());
            }
            for ann in &f.annotations {
                if let Some(rest) = ann.text.strip_prefix("never-hold(") {
                    if let Some(close) = rest.find(')') {
                        let lock = rest[..close].trim().to_owned();
                        let after = rest[close + 1..].trim();
                        if let Some(target) = after.strip_prefix("across ") {
                            ws.never_holds.push(NeverHold {
                                lock,
                                target: target.trim().to_owned(),
                                path: f.path.clone(),
                                line: ann.line,
                            });
                        }
                    }
                } else if let Some(rest) = ann.text.strip_prefix("lock-alias ") {
                    let mut parts = rest.split_whitespace();
                    if let (Some(a), Some(b)) = (parts.next(), parts.next()) {
                        ws.aliases.insert(a.to_owned(), b.to_owned());
                    }
                } else if ann.text.starts_with("custody-ok") {
                    ws.custody_ok.entry(f.path.clone()).or_default().insert(ann.line);
                }
            }
        }
        for f in files {
            for d in f.fns {
                let id = ws.fns.len();
                if let Some(owner) = &d.owner {
                    ws.by_owner.entry((owner.clone(), d.name.clone())).or_default().push(id);
                } else if let Some(tr) = &d.trait_name {
                    // Trait default method (owner unknown until dyn use).
                    ws.trait_defaults.entry((tr.clone(), d.name.clone())).or_default().push(id);
                } else {
                    ws.free_by_name.entry(d.name.clone()).or_default().push(id);
                }
                if d.body.is_some() {
                    ws.by_name.entry(d.name.clone()).or_default().push(id);
                }
                ws.fns.push(d);
            }
            ws.files.push(ParsedFile {
                path: f.path,
                structs: f.structs,
                traits: f.traits,
                trait_impls: f.trait_impls,
                fns: Vec::new(),
                registries: f.registries,
                sinks: f.sinks,
                annotations: f.annotations,
            });
        }
        // Canonicalize never-hold locks through aliases.
        for nh in &mut ws.never_holds {
            let mut lock = nh.lock.clone();
            let mut hops = 0;
            while let Some(next) = ws.aliases.get(&lock) {
                lock = next.clone();
                hops += 1;
                if hops > 4 {
                    break;
                }
            }
            nh.lock = lock;
        }
        ws
    }

    /// Resolves a lock id through the alias map.
    pub fn canon(&self, id: &str) -> String {
        let mut lock = id.to_owned();
        let mut hops = 0;
        while let Some(next) = self.aliases.get(&lock) {
            lock = next.clone();
            hops += 1;
            if hops > 4 {
                break;
            }
        }
        lock
    }

    /// Extracts the core workspace type from a type string.
    pub fn core_type(&self, ty: &str) -> TypeRef {
        let words: Vec<&str> = ty
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty())
            .collect();
        for (k, w) in words.iter().enumerate() {
            if *w == "dyn" {
                if let Some(next) = words.get(k + 1) {
                    return TypeRef::Dyn((*next).to_owned());
                }
            }
        }
        for w in &words {
            if TYPE_WRAPPERS.contains(w) {
                continue;
            }
            if self.types.contains(*w) {
                return TypeRef::Concrete((*w).to_owned());
            }
        }
        TypeRef::Unknown
    }

    /// Walks a field chain from `owner`, returning the last field's
    /// declared type string (and the type that declares it).
    pub fn field_chain(&self, owner: &str, fields: &[String]) -> Option<(String, String)> {
        let mut ty = owner.to_owned();
        let mut last: Option<(String, String)> = None;
        for f in fields {
            let ft = self.fields.get(&ty)?.get(f)?.clone();
            last = Some((ty.clone(), ft.clone()));
            ty = match self.core_type(&ft) {
                TypeRef::Concrete(t) => t,
                // A dyn/unknown mid-chain ends resolution unless this was
                // the final field.
                _ => String::new(),
            };
        }
        last
    }

    /// Methods on a resolved receiver type.
    fn methods_of(&self, t: &TypeRef, name: &str) -> Vec<FnId> {
        match t {
            TypeRef::Concrete(ty) => self
                .by_owner
                .get(&(ty.clone(), name.to_owned()))
                .cloned()
                .unwrap_or_default(),
            TypeRef::Dyn(tr) => {
                let mut out = Vec::new();
                if let Some(owners) = self.impls_of_trait.get(tr) {
                    for o in owners {
                        if let Some(ids) = self.by_owner.get(&(o.clone(), name.to_owned())) {
                            out.extend_from_slice(ids);
                        }
                    }
                }
                if out.is_empty() {
                    if let Some(ids) = self.trait_defaults.get(&(tr.clone(), name.to_owned())) {
                        out.extend_from_slice(ids);
                    }
                }
                out
            }
            TypeRef::Foreign | TypeRef::Unknown => Vec::new(),
        }
    }

    /// Fallback: all same-name methods if they share a single owner.
    fn fallback_unique(&self, name: &str) -> Vec<FnId> {
        let ids = match self.by_name.get(name) {
            Some(ids) => ids,
            None => return Vec::new(),
        };
        let mut owner: Option<&str> = None;
        for id in ids {
            match (&self.fns[*id].owner, owner) {
                (Some(o), None) => owner = Some(o),
                (Some(o), Some(prev)) if o == prev => {}
                _ => return Vec::new(),
            }
        }
        ids.clone()
    }

    /// Type of the receiver of `call` in `caller` (locals give inferred
    /// local-variable types).
    fn recv_type(&self, caller: &FnDef, call: &Call, locals: &HashMap<String, String>) -> TypeRef {
        match &call.recv {
            Recv::SelfChain(fields) if fields.is_empty() => match &caller.owner {
                Some(o) => TypeRef::Concrete(o.clone()),
                None => TypeRef::Unknown,
            },
            Recv::SelfChain(fields) => {
                let Some(owner) = &caller.owner else { return TypeRef::Unknown };
                match self.field_chain(owner, fields) {
                    Some((_, ft)) => match self.core_type(&ft) {
                        TypeRef::Unknown => TypeRef::Foreign,
                        t => t,
                    },
                    None => TypeRef::Unknown,
                }
            }
            Recv::Local(base, fields) => {
                let Some(bt) = locals.get(base) else { return TypeRef::Unknown };
                if fields.is_empty() {
                    TypeRef::Concrete(bt.clone())
                } else {
                    match self.field_chain(bt, fields) {
                        Some((_, ft)) => match self.core_type(&ft) {
                            TypeRef::Unknown => TypeRef::Foreign,
                            t => t,
                        },
                        None => TypeRef::Unknown,
                    }
                }
            }
            _ => TypeRef::Unknown,
        }
    }

    /// Resolves a call to candidate function definitions.
    pub fn resolve_call(
        &self,
        caller: &FnDef,
        call: &Call,
        locals: &HashMap<String, String>,
    ) -> Vec<FnId> {
        // Tuple-struct / enum constructors are not calls.
        if call.name.chars().next().is_some_and(char::is_uppercase) {
            return Vec::new();
        }
        match &call.recv {
            Recv::SelfChain(_) | Recv::Local(..) => {
                let t = self.recv_type(caller, call, locals);
                let ids = self.methods_of(&t, &call.name);
                if !ids.is_empty() {
                    return ids;
                }
                if matches!(t, TypeRef::Unknown) {
                    return self.fallback_unique(&call.name);
                }
                Vec::new()
            }
            Recv::Type(t) => {
                let ty = if t == "Self" {
                    caller.owner.clone().unwrap_or_default()
                } else {
                    t.clone()
                };
                if self.types.contains(&ty) {
                    return self.methods_of(&TypeRef::Concrete(ty), &call.name);
                }
                Vec::new()
            }
            Recv::Chained { prev } => {
                // Resolve the previous call (same-owner method first, then
                // unique name), then look up on its return core type.
                let prev_ids = match &caller.owner {
                    Some(o) => {
                        let ids = self
                            .by_owner
                            .get(&(o.clone(), prev.clone()))
                            .cloned()
                            .unwrap_or_default();
                        if ids.is_empty() { self.fallback_unique(prev) } else { ids }
                    }
                    None => self.fallback_unique(prev),
                };
                let mut out = Vec::new();
                for pid in prev_ids {
                    let rt = self.core_type(&self.fns[pid].ret);
                    out.extend(self.methods_of(&rt, &call.name));
                }
                out.sort_unstable();
                out.dedup();
                out
            }
            Recv::Free => {
                // Same-file free fns first, then workspace-unique free fn.
                if let Some(ids) = self.free_by_name.get(&call.name) {
                    let same_file: Vec<FnId> = ids
                        .iter()
                        .copied()
                        .filter(|id| self.fns[*id].path == caller.path)
                        .collect();
                    if !same_file.is_empty() {
                        return same_file;
                    }
                    if ids.len() == 1 {
                        return ids.clone();
                    }
                }
                Vec::new()
            }
            Recv::Opaque => Vec::new(),
        }
    }

    /// If `call` is a lock acquisition, returns the canonical lock id.
    pub fn lock_id_of(
        &self,
        caller: &FnDef,
        call: &Call,
        locals: &HashMap<String, String>,
    ) -> Option<String> {
        if !LOCK_METHODS.contains(&call.name.as_str()) {
            return None;
        }
        match &call.recv {
            Recv::SelfChain(fields) if !fields.is_empty() => {
                let owner = caller.owner.as_ref()?;
                let (declared_on, ft) = self.field_chain(owner, fields)?;
                if is_lock_type(&ft) {
                    Some(self.canon(&format!("{declared_on}.{}", fields.last()?)))
                } else {
                    None
                }
            }
            Recv::Local(base, fields) if !fields.is_empty() => {
                let bt = locals.get(base)?;
                let (declared_on, ft) = self.field_chain(bt, fields)?;
                if is_lock_type(&ft) {
                    Some(self.canon(&format!("{declared_on}.{}", fields.last()?)))
                } else {
                    None
                }
            }
            Recv::Chained { prev } => {
                // `self.accessor().read()` where the accessor is annotated
                // `// lint: returns-lock(<id>)`.
                let ids = match &caller.owner {
                    Some(o) => {
                        let ids = self
                            .by_owner
                            .get(&(o.clone(), prev.clone()))
                            .cloned()
                            .unwrap_or_default();
                        if ids.is_empty() { self.fallback_unique(prev) } else { ids }
                    }
                    None => self.fallback_unique(prev),
                };
                for id in ids {
                    for ann in &self.fns[id].anns {
                        if let Some(rest) = ann.strip_prefix("returns-lock(") {
                            if let Some(close) = rest.find(')') {
                                return Some(self.canon(rest[..close].trim()));
                            }
                        }
                    }
                }
                None
            }
            _ => None,
        }
    }
}

/// Whether a declared field type is a lock.
pub fn is_lock_type(ty: &str) -> bool {
    ty.contains("Mutex<") || ty.contains("RwLock<")
}

/// Runs all verify passes over the parsed non-test files of the workspace
/// rooted at `root` (which also holds the scenario TOMLs).
pub fn run(root: &Path, files: Vec<ParsedFile>) -> io::Result<Vec<Finding>> {
    let ws = Workspace::build(files);
    let mut findings = Vec::new();
    findings.extend(lockorder::run(&ws));
    findings.extend(custody::run(&ws));
    findings.extend(registry::run(&ws));
    findings.extend(registry::scan_scenarios(root, &ws)?);
    Ok(findings)
}

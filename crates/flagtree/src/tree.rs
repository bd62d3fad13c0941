//! The tree structure, activation resolution, and canonicalisation.

use jtune_flags::{FlagId, FlagValue, JvmConfig, Registry};

/// Index of a node within a [`FlagTree`] arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) u32);

/// Index of a selector within a [`FlagTree`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SelectorId(pub(crate) u32);

/// One option of a [`Selector`].
#[derive(Clone, Debug)]
pub struct SelectorOption {
    /// Human-readable label (`"g1"`, `"tiered"`, …).
    pub label: &'static str,
    /// Flag assignments applied when this option is chosen. The first
    /// assignment is the option's *marker*: a configuration is detected as
    /// having chosen this option when its marker flag holds the marker
    /// value.
    pub assignments: Vec<(FlagId, FlagValue)>,
    /// Subtree active only while this option is chosen.
    pub children: Vec<NodeId>,
}

/// A one-of-N structural choice.
#[derive(Clone, Debug)]
pub struct Selector {
    /// Dotted-path name used in reports (`"gc.collector"`).
    pub name: &'static str,
    /// The options, in detection-priority order. The *last* option is the
    /// fallback selected when no marker matches.
    pub options: Vec<SelectorOption>,
}

impl Selector {
    /// Index of the option a configuration currently selects: the first
    /// option whose marker matches, else the last option.
    pub fn detect(&self, config: &JvmConfig) -> usize {
        for (i, opt) in self.options.iter().enumerate() {
            if let Some(&(flag, value)) = opt.assignments.first() {
                if config.get(flag) == value {
                    return i;
                }
            }
        }
        self.options.len() - 1
    }
}

/// Payload of one tree node.
#[derive(Clone, Debug)]
pub enum NodeData {
    /// Structural grouping.
    Group {
        /// Display name.
        name: &'static str,
    },
    /// One-of-N choice; see [`Selector`].
    SelectorNode(SelectorId),
    /// Boolean flag activating its children when equal to `active_when`.
    /// The gate flag itself is always an active tunable.
    Gate {
        /// The gating flag.
        flag: FlagId,
        /// Polarity under which the children are active.
        active_when: bool,
    },
    /// A tunable flag.
    Leaf {
        /// The flag.
        flag: FlagId,
    },
}

/// One arena node.
#[derive(Clone, Debug)]
pub struct Node {
    /// Payload.
    pub data: NodeData,
    /// Children (unused for selector nodes, whose children live per-option).
    pub children: Vec<NodeId>,
}

/// The flag hierarchy over a specific [`Registry`].
///
/// A tree is built against one registry and must only be used with
/// configurations of that registry; the constructor records the registry
/// length and methods debug-assert against it.
#[derive(Clone, Debug)]
pub struct FlagTree {
    nodes: Vec<Node>,
    selectors: Vec<Selector>,
    root: NodeId,
    registry_len: usize,
    /// Indexed by [`FlagId`]: does the flag appear in any selector
    /// assignment (structurally determined, never independently tuned)?
    assigned: Vec<bool>,
}

impl FlagTree {
    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// All selectors.
    pub fn selectors(&self) -> &[Selector] {
        &self.selectors
    }

    /// A selector by id.
    pub fn selector(&self, id: SelectorId) -> &Selector {
        &self.selectors[id.0 as usize]
    }

    /// Ids of all selectors.
    pub fn selector_ids(&self) -> impl Iterator<Item = SelectorId> {
        (0..self.selectors.len() as u32).map(SelectorId)
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Total node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a tree with no nodes (never produced by the builder).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Is `flag` structurally determined by some selector (and therefore
    /// not independently tunable)?
    pub fn is_assigned(&self, flag: FlagId) -> bool {
        self.assigned[flag.index()]
    }

    /// The flags *active* under `config`: every leaf and gate flag whose
    /// ancestors are all active, in deterministic pre-order. Selector
    /// marker/assignment flags are excluded (they are chosen through the
    /// selector, not directly).
    pub fn active_flags(&self, config: &JvmConfig) -> Vec<FlagId> {
        debug_assert_eq!(config.len(), self.registry_len);
        let mut out = Vec::with_capacity(128);
        self.walk_active(self.root, config, &mut |flag| out.push(flag));
        out
    }

    /// Visit every active tunable flag without allocating.
    pub fn for_each_active(&self, config: &JvmConfig, f: &mut impl FnMut(FlagId)) {
        self.walk_active(self.root, config, f);
    }

    fn walk_active(&self, id: NodeId, config: &JvmConfig, f: &mut impl FnMut(FlagId)) {
        let node = self.node(id);
        match &node.data {
            NodeData::Group { .. } => {
                for &c in &node.children {
                    self.walk_active(c, config, f);
                }
            }
            NodeData::SelectorNode(sid) => {
                let sel = self.selector(*sid);
                let chosen = sel.detect(config);
                for &c in &sel.options[chosen].children {
                    self.walk_active(c, config, f);
                }
            }
            NodeData::Gate { flag, active_when } => {
                f(*flag);
                if config.get(*flag) == FlagValue::Bool(*active_when) {
                    for &c in &node.children {
                        self.walk_active(c, config, f);
                    }
                }
            }
            NodeData::Leaf { flag } => f(*flag),
        }
    }

    /// Canonicalise `config` in place, in one walk from the root that
    /// neither allocates nor visits a node twice:
    ///
    /// - a live selector detects its chosen option and writes **all** of
    ///   that option's assignments (restoring mutual exclusion after
    ///   arbitrary mutations); only the chosen option's subtree stays
    ///   live;
    /// - a live gate keeps its children live only while its flag equals
    ///   `active_when`;
    /// - every leaf and gate flag in a dead subtree (a selector's other
    ///   options, a closed gate's children) is reset to its registry
    ///   default.
    ///
    /// After `enforce`, two configurations that differ only in dead flags
    /// compare equal — the search space the tuner sees is exactly the
    /// pruned space of the paper's hierarchy.
    ///
    /// Deciding liveness during the same walk that writes assignments is
    /// exact because [`TreeBuilder::build`] guarantees that every tree flag
    /// is placed once, that no tree flag is selector-assigned, that no flag
    /// is assigned by two selectors or twice by one option, and that no
    /// option's assignments give an earlier option's marker its marker
    /// value. A reset therefore never moves a selector or a gate visited
    /// later, and a selector detects the same option after its own and
    /// every other selector's writes as before them.
    pub fn enforce(&self, registry: &Registry, config: &mut JvmConfig) {
        debug_assert_eq!(config.len(), registry.len());
        self.canon(registry, self.root, true, config);
    }

    fn canon(&self, registry: &Registry, id: NodeId, alive: bool, config: &mut JvmConfig) {
        let node = self.node(id);
        match node.data {
            NodeData::Group { .. } => {
                for &c in &node.children {
                    self.canon(registry, c, alive, config);
                }
            }
            NodeData::SelectorNode(sid) => {
                let sel = self.selector(sid);
                let chosen = alive.then(|| {
                    let chosen = sel.detect(config);
                    self.assign_selector(config, sid, chosen);
                    chosen
                });
                for (i, opt) in sel.options.iter().enumerate() {
                    for &c in &opt.children {
                        self.canon(registry, c, chosen == Some(i), config);
                    }
                }
            }
            NodeData::Gate { flag, active_when } => {
                let open = alive && config.get(flag) == FlagValue::Bool(active_when);
                if !alive {
                    config.set(flag, registry.spec(flag).default);
                }
                for &c in &node.children {
                    self.canon(registry, c, open, config);
                }
            }
            NodeData::Leaf { flag } => {
                if !alive {
                    config.set(flag, registry.spec(flag).default);
                }
            }
        }
    }

    /// Current option index of a selector under `config`.
    pub fn selector_state(&self, id: SelectorId, config: &JvmConfig) -> usize {
        self.selector(id).detect(config)
    }

    /// Choose option `option` of selector `id`, applying its assignments
    /// and canonicalising the configuration.
    ///
    /// # Panics
    /// Panics if `option` is out of range for the selector.
    pub fn set_selector(
        &self,
        registry: &Registry,
        config: &mut JvmConfig,
        id: SelectorId,
        option: usize,
    ) {
        self.assign_selector(config, id, option);
        self.enforce(registry, config);
    }

    /// Write option `option`'s assignments of selector `id` without
    /// canonicalising. A move that picks several selectors writes each
    /// choice with this and canonicalises once at the end; in between,
    /// [`FlagTree::active_flags`] already reflects every choice, since
    /// activation never reads a dead flag.
    ///
    /// # Panics
    /// Panics if `option` is out of range for the selector.
    pub fn assign_selector(&self, config: &mut JvmConfig, id: SelectorId, option: usize) {
        let sel = self.selector(id);
        assert!(
            option < sel.options.len(),
            "selector {} has no option {option}",
            sel.name
        );
        for &(flag, value) in &sel.options[option].assignments {
            config.set(flag, value);
        }
    }

    /// Pretty-print the tree skeleton (groups, selectors, gates, and leaf
    /// counts) for the E3 report.
    pub fn render_skeleton(&self, registry: &Registry) -> String {
        let mut out = String::new();
        self.render_node(registry, self.root, 0, &mut out);
        out
    }

    fn render_node(&self, registry: &Registry, id: NodeId, depth: usize, out: &mut String) {
        use std::fmt::Write as _;
        let node = self.node(id);
        let pad = "  ".repeat(depth);
        match &node.data {
            NodeData::Group { name } => {
                let leaves = node
                    .children
                    .iter()
                    .filter(|c| matches!(self.node(**c).data, NodeData::Leaf { .. }))
                    .count();
                let _ = writeln!(out, "{pad}{name}/ ({leaves} direct flags)");
                for &c in &node.children {
                    if !matches!(self.node(c).data, NodeData::Leaf { .. }) {
                        self.render_node(registry, c, depth + 1, out);
                    }
                }
            }
            NodeData::SelectorNode(sid) => {
                let sel = self.selector(*sid);
                let _ = writeln!(out, "{pad}<{}> one of:", sel.name);
                for opt in &sel.options {
                    let leaves = count_leaves(self, &opt.children);
                    let _ = writeln!(out, "{pad}  = {} ({} flags)", opt.label, leaves);
                    for &c in &opt.children {
                        if !matches!(self.node(c).data, NodeData::Leaf { .. }) {
                            self.render_node(registry, c, depth + 2, out);
                        }
                    }
                }
            }
            NodeData::Gate { flag, active_when } => {
                let leaves = count_leaves(self, &node.children);
                let _ = writeln!(
                    out,
                    "{pad}[{}{}] gates {} flags",
                    if *active_when { "+" } else { "-" },
                    registry.spec(*flag).name,
                    leaves
                );
                for &c in &node.children {
                    if !matches!(self.node(c).data, NodeData::Leaf { .. }) {
                        self.render_node(registry, c, depth + 1, out);
                    }
                }
            }
            NodeData::Leaf { .. } => {}
        }
    }
}

fn count_leaves(tree: &FlagTree, children: &[NodeId]) -> usize {
    let mut n = 0;
    for &c in children {
        let node = tree.node(c);
        match &node.data {
            NodeData::Leaf { .. } => n += 1,
            NodeData::Gate { .. } => n += 1 + count_leaves(tree, &node.children),
            NodeData::Group { .. } => n += count_leaves(tree, &node.children),
            NodeData::SelectorNode(sid) => {
                for opt in &tree.selector(*sid).options {
                    n += count_leaves(tree, &opt.children);
                }
            }
        }
    }
    n
}

/// Arena-based tree construction.
pub struct TreeBuilder<'r> {
    registry: &'r Registry,
    nodes: Vec<Node>,
    selectors: Vec<Selector>,
    root: NodeId,
}

impl<'r> TreeBuilder<'r> {
    /// Start a tree with an empty root group.
    pub fn new(registry: &'r Registry) -> Self {
        let nodes = vec![Node {
            data: NodeData::Group { name: "jvm" },
            children: Vec::new(),
        }];
        Self {
            registry,
            nodes,
            selectors: Vec::new(),
            root: NodeId(0),
        }
    }

    /// The root group.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The registry being built against.
    pub fn registry(&self) -> &'r Registry {
        self.registry
    }

    fn push(&mut self, parent: NodeId, data: NodeData) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            data,
            children: Vec::new(),
        });
        self.nodes[parent.0 as usize].children.push(id);
        id
    }

    /// Add a group under `parent`.
    pub fn group(&mut self, parent: NodeId, name: &'static str) -> NodeId {
        self.push(parent, NodeData::Group { name })
    }

    /// Add a leaf flag (by name) under `parent`.
    ///
    /// # Panics
    /// Panics on unknown flag names: the built-in tree is constructed from
    /// the built-in registry, so a miss is a programming error.
    pub fn leaf(&mut self, parent: NodeId, name: &str) -> NodeId {
        let flag = self
            .registry
            .id(name)
            .unwrap_or_else(|| panic!("unknown flag {name} while building tree"));
        self.push(parent, NodeData::Leaf { flag })
    }

    /// Add a gate (by flag name) under `parent`.
    pub fn gate(&mut self, parent: NodeId, name: &str, active_when: bool) -> NodeId {
        let flag = self
            .registry
            .id(name)
            .unwrap_or_else(|| panic!("unknown gate flag {name} while building tree"));
        self.push(parent, NodeData::Gate { flag, active_when })
    }

    /// Add a selector under `parent`. Options are added with
    /// [`TreeBuilder::option`] and gain children through the returned
    /// `NodeId`-like handle pattern: each `option` call returns a staging
    /// group node that is moved into the option on `finish_selector`.
    pub fn selector(&mut self, parent: NodeId, name: &'static str) -> SelectorDraft {
        let sid = SelectorId(self.selectors.len() as u32);
        self.selectors.push(Selector {
            name,
            options: Vec::new(),
        });
        let node = self.push(parent, NodeData::SelectorNode(sid));
        SelectorDraft { sid, _node: node }
    }

    /// Add one option to a draft selector. `assignments` are
    /// `(flag_name, value)` pairs, the first being the detection marker.
    /// Returns a staging group: attach the option's subtree under it.
    pub fn option(
        &mut self,
        draft: &SelectorDraft,
        label: &'static str,
        assignments: &[(&str, FlagValue)],
    ) -> NodeId {
        let assignments: Vec<(FlagId, FlagValue)> = assignments
            .iter()
            .map(|(name, value)| {
                let id = self
                    .registry
                    .id(name)
                    .unwrap_or_else(|| panic!("unknown assignment flag {name}"));
                (id, *value)
            })
            .collect();
        assert!(
            !assignments.is_empty(),
            "selector option {label} needs a marker assignment"
        );
        // Staging node: becomes the option's sole child container.
        let staging = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            data: NodeData::Group { name: label },
            children: Vec::new(),
        });
        self.selectors[draft.sid.0 as usize]
            .options
            .push(SelectorOption {
                label,
                assignments,
                children: vec![staging],
            });
        staging
    }

    /// Freeze into a [`FlagTree`].
    ///
    /// # Panics
    /// Panics, naming the flag or option, on a tree that breaks an
    /// invariant [`FlagTree::enforce`]'s single walk relies on: a flag
    /// placed twice; a leaf or gate flag that a selector also assigns; a
    /// flag assigned by two selectors or twice by one option; an option
    /// whose assignments give an earlier option's marker its marker value.
    pub fn build(self) -> FlagTree {
        let name = |flag: FlagId| self.registry.spec(flag).name;
        // The selector assigning each flag, indexed by `FlagId`.
        let mut assigner: Vec<Option<usize>> = vec![None; self.registry.len()];
        for (s, sel) in self.selectors.iter().enumerate() {
            for (i, opt) in sel.options.iter().enumerate() {
                for (k, &(flag, value)) in opt.assignments.iter().enumerate() {
                    assert!(
                        opt.assignments[..k].iter().all(|&(f, _)| f != flag),
                        "option {} of selector {} assigns {} twice",
                        opt.label,
                        sel.name,
                        name(flag)
                    );
                    if let Some(other) = assigner[flag.index()].replace(s) {
                        assert!(
                            other == s,
                            "flag {} is assigned by selectors {} and {}",
                            name(flag),
                            self.selectors[other].name,
                            sel.name
                        );
                    }
                    if let Some(earlier) = sel.options[..i]
                        .iter()
                        .find(|e| e.assignments[0] == (flag, value))
                    {
                        panic!(
                            "option {} of selector {} sets {} to the marker value of \
                             earlier option {}",
                            opt.label,
                            sel.name,
                            name(flag),
                            earlier.label
                        );
                    }
                }
            }
        }
        let mut placed = vec![false; self.registry.len()];
        for node in &self.nodes {
            if let NodeData::Leaf { flag } | NodeData::Gate { flag, .. } = node.data {
                assert!(
                    !std::mem::replace(&mut placed[flag.index()], true),
                    "flag {} placed twice in the tree",
                    name(flag)
                );
                if let Some(s) = assigner[flag.index()] {
                    panic!(
                        "tree flag {} is also assigned by selector {}",
                        name(flag),
                        self.selectors[s].name
                    );
                }
            }
        }
        FlagTree {
            assigned: assigner.iter().map(Option::is_some).collect(),
            nodes: self.nodes,
            selectors: self.selectors,
            root: self.root,
            registry_len: self.registry.len(),
        }
    }
}

/// Handle to a selector under construction.
pub struct SelectorDraft {
    sid: SelectorId,
    _node: NodeId,
}

/// The two-pass canonicalisation [`FlagTree::enforce`] replaced, kept as
/// the reference the single walk is tested against: pass 1 applies the
/// chosen options' assignments, pass 2 collects the active set and resets
/// every other tree flag.
#[cfg(test)]
impl FlagTree {
    /// Every flag mentioned anywhere in the tree (active or not), including
    /// gate flags but excluding selector-assigned flags.
    pub(crate) fn all_tree_flags(&self) -> Vec<FlagId> {
        let mut out = Vec::new();
        for node in &self.nodes {
            match &node.data {
                NodeData::Leaf { flag } | NodeData::Gate { flag, .. } => out.push(*flag),
                _ => {}
            }
        }
        out
    }

    pub(crate) fn reference_enforce(&self, registry: &Registry, config: &mut JvmConfig) {
        debug_assert_eq!(config.len(), registry.len());
        // Pass 1: selector assignments.
        self.apply_selector_assignments(self.root, config);
        // Pass 2: reset inactive flags. Collect active set first.
        let mut active: std::collections::HashSet<FlagId> =
            std::collections::HashSet::with_capacity(256);
        self.for_each_active(config, &mut |flag| {
            active.insert(flag);
        });
        for flag in self.all_tree_flags() {
            if !active.contains(&flag) {
                config.set(flag, registry.spec(flag).default);
            }
        }
    }

    fn apply_selector_assignments(&self, id: NodeId, config: &mut JvmConfig) {
        let node = self.node(id).clone();
        match node.data {
            NodeData::Group { .. } => {
                for c in node.children {
                    self.apply_selector_assignments(c, config);
                }
            }
            NodeData::SelectorNode(sid) => {
                let sel = self.selector(sid).clone();
                let chosen = sel.detect(config);
                for &(flag, value) in &sel.options[chosen].assignments {
                    config.set(flag, value);
                }
                for c in &sel.options[chosen].children {
                    self.apply_selector_assignments(*c, config);
                }
            }
            NodeData::Gate { flag, active_when } => {
                if config.get(flag) == FlagValue::Bool(active_when) {
                    for c in node.children {
                        self.apply_selector_assignments(c, config);
                    }
                }
            }
            NodeData::Leaf { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jtune_flags::{hotspot_registry, Domain};
    use jtune_util::{Rng, Xoshiro256pp};

    fn tiny_tree() -> (&'static Registry, FlagTree) {
        let r = hotspot_registry();
        let mut b = TreeBuilder::new(r);
        let root = b.root();
        let heap = b.group(root, "heap");
        b.leaf(heap, "MaxHeapSize");
        b.leaf(heap, "NewRatio");
        let gc = b.group(root, "gc");
        let sel = b.selector(gc, "gc.collector");
        let par = b.option(
            &sel,
            "parallel",
            &[
                ("UseParallelGC", FlagValue::Bool(true)),
                ("UseSerialGC", FlagValue::Bool(false)),
            ],
        );
        b.leaf(par, "ParallelGCThreads");
        let asp = b.gate(par, "UseAdaptiveSizePolicy", true);
        b.leaf(asp, "PausePadding");
        let ser = b.option(
            &sel,
            "serial",
            &[
                ("UseSerialGC", FlagValue::Bool(true)),
                ("UseParallelGC", FlagValue::Bool(false)),
            ],
        );
        b.leaf(ser, "MaxTenuringThreshold");
        let tlab = b.gate(root, "UseTLAB", true);
        b.leaf(tlab, "TLABSize");
        (r, b.build())
    }

    #[test]
    fn active_flags_follow_selector() {
        let (r, tree) = tiny_tree();
        let mut c = JvmConfig::default_for(r);
        tree.enforce(r, &mut c);
        let names = |c: &JvmConfig| -> Vec<&str> {
            tree.active_flags(c)
                .into_iter()
                .map(|f| r.spec(f).name)
                .collect()
        };
        // Default config: UseParallelGC=true, so "parallel" is detected.
        let active = names(&c);
        assert!(active.contains(&"ParallelGCThreads"));
        assert!(!active.contains(&"MaxTenuringThreshold"));
        // Switch to serial.
        let sid = SelectorId(0);
        tree.set_selector(r, &mut c, sid, 1);
        assert_eq!(c.get_by_name(r, "UseSerialGC"), Some(FlagValue::Bool(true)));
        assert_eq!(
            c.get_by_name(r, "UseParallelGC"),
            Some(FlagValue::Bool(false))
        );
        let active = names(&c);
        assert!(active.contains(&"MaxTenuringThreshold"));
        assert!(!active.contains(&"ParallelGCThreads"));
    }

    #[test]
    fn gate_controls_children() {
        let (r, tree) = tiny_tree();
        let mut c = JvmConfig::default_for(r);
        let names = |c: &JvmConfig| -> Vec<&str> {
            tree.active_flags(c)
                .into_iter()
                .map(|f| r.spec(f).name)
                .collect()
        };
        // UseTLAB defaults to true: gate open, TLABSize active.
        assert!(names(&c).contains(&"TLABSize"));
        c.set_by_name(r, "UseTLAB", FlagValue::Bool(false)).unwrap();
        let active = names(&c);
        assert!(active.contains(&"UseTLAB"), "gate flag itself stays active");
        assert!(!active.contains(&"TLABSize"));
    }

    #[test]
    fn enforce_resets_dead_flags_to_defaults() {
        let (r, tree) = tiny_tree();
        let mut c = JvmConfig::default_for(r);
        // Close the TLAB gate but scribble on its child.
        c.set_by_name(r, "UseTLAB", FlagValue::Bool(false)).unwrap();
        c.set_by_name(r, "TLABSize", FlagValue::Int(1 << 20))
            .unwrap();
        // Also scribble on the serial subtree while parallel is selected.
        c.set_by_name(r, "MaxTenuringThreshold", FlagValue::Int(3))
            .unwrap();
        tree.enforce(r, &mut c);
        assert_eq!(
            c.get_by_name(r, "TLABSize"),
            Some(r.spec(r.id("TLABSize").unwrap()).default)
        );
        assert_eq!(
            c.get_by_name(r, "MaxTenuringThreshold"),
            Some(r.spec(r.id("MaxTenuringThreshold").unwrap()).default)
        );
    }

    #[test]
    fn enforce_restores_mutual_exclusion() {
        let (r, tree) = tiny_tree();
        let mut c = JvmConfig::default_for(r);
        // A naive mutation turns both collectors on.
        c.set_by_name(r, "UseSerialGC", FlagValue::Bool(true))
            .unwrap();
        assert_eq!(
            c.get_by_name(r, "UseParallelGC"),
            Some(FlagValue::Bool(true))
        );
        tree.enforce(r, &mut c);
        // Detection order prefers "parallel" (option 0); serial is cleared.
        assert_eq!(
            c.get_by_name(r, "UseSerialGC"),
            Some(FlagValue::Bool(false))
        );
        assert_eq!(
            c.get_by_name(r, "UseParallelGC"),
            Some(FlagValue::Bool(true))
        );
    }

    #[test]
    fn enforce_is_idempotent() {
        let (r, tree) = tiny_tree();
        let mut c = JvmConfig::default_for(r);
        c.set_by_name(r, "UseSerialGC", FlagValue::Bool(true))
            .unwrap();
        tree.enforce(r, &mut c);
        let once = c.clone();
        tree.enforce(r, &mut c);
        assert_eq!(c, once);
    }

    #[test]
    fn assigned_flags_are_tracked() {
        let (r, tree) = tiny_tree();
        assert!(tree.is_assigned(r.id("UseSerialGC").unwrap()));
        assert!(tree.is_assigned(r.id("UseParallelGC").unwrap()));
        assert!(!tree.is_assigned(r.id("MaxHeapSize").unwrap()));
    }

    #[test]
    fn active_flags_exclude_assigned_selector_flags() {
        let (r, tree) = tiny_tree();
        let c = JvmConfig::default_for(r);
        let active = tree.active_flags(&c);
        for f in &active {
            assert!(!tree.is_assigned(*f), "{} leaked", r.spec(*f).name);
        }
    }

    #[test]
    fn skeleton_renders() {
        let (r, tree) = tiny_tree();
        let s = tree.render_skeleton(r);
        assert!(s.contains("gc.collector"));
        assert!(s.contains("parallel"));
        assert!(s.contains("UseTLAB"));
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_leaf_panics() {
        let r = hotspot_registry();
        let mut b = TreeBuilder::new(r);
        let root = b.root();
        b.leaf(root, "NotARealFlag");
    }

    /// A configuration no tuner move would produce: every flag is
    /// rewritten with probability `p` to a random in-domain value, so
    /// several collectors are on at once, gates open and close anywhere,
    /// and dead subtrees hold scribbled values.
    fn scribbled(r: &Registry, rng: &mut Xoshiro256pp, p: f64) -> JvmConfig {
        let mut c = JvmConfig::default_for(r);
        for (id, spec) in r.iter() {
            if !rng.next_bool(p) {
                continue;
            }
            let value = match spec.domain {
                Domain::Bool => FlagValue::Bool(rng.next_bool(0.5)),
                Domain::IntRange { lo, hi, .. } => FlagValue::Int(rng.next_range_i64(lo, hi)),
                Domain::DoubleRange { lo, hi } => FlagValue::Double(rng.next_range_f64(lo, hi)),
            };
            c.set(id, value);
        }
        c
    }

    fn assert_walk_matches_reference(r: &Registry, tree: &FlagTree, seed: u64, n: usize) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut dead_resets = 0;
        for i in 0..n {
            let input = scribbled(r, &mut rng, [0.05, 0.3, 0.9][i % 3]);
            let mut want = input.clone();
            tree.reference_enforce(r, &mut want);
            let mut got = input.clone();
            tree.enforce(r, &mut got);
            assert_eq!(got, want, "config {i}: walk differs from the reference");
            assert_eq!(got.fingerprint(), want.fingerprint());
            let mut again = got.clone();
            tree.enforce(r, &mut again);
            assert_eq!(again, got, "config {i}: enforce is not idempotent");
            let live = tree.active_flags(&got);
            dead_resets += tree
                .all_tree_flags()
                .into_iter()
                .filter(|f| !live.contains(f) && input.get(*f) != got.get(*f))
                .count();
        }
        // The generator does reach the reset path.
        assert!(dead_resets > n / 4, "only {dead_resets} dead flags reset");
    }

    #[test]
    fn single_walk_equals_two_pass_reference_on_tiny_tree() {
        let (r, tree) = tiny_tree();
        assert_walk_matches_reference(r, &tree, 19, 600);
    }

    #[test]
    fn single_walk_equals_two_pass_reference_on_hotspot_tree() {
        let r = hotspot_registry();
        assert_walk_matches_reference(r, crate::hotspot_tree(), 1900, 1500);
    }

    #[test]
    fn set_selector_then_enforce_matches_reference() {
        let (r, tree) = tiny_tree();
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        for _ in 0..200 {
            let mut got = scribbled(r, &mut rng, 0.5);
            let option = rng.next_below(2) as usize;
            let mut want = got.clone();
            tree.assign_selector(&mut want, SelectorId(0), option);
            tree.reference_enforce(r, &mut want);
            tree.set_selector(r, &mut got, SelectorId(0), option);
            assert_eq!(got, want);
            assert_eq!(tree.selector_state(SelectorId(0), &got), option);
        }
    }

    /// A builder over `tiny_tree`'s collector flags, for the invariant
    /// checks below.
    fn collector_builder() -> (TreeBuilder<'static>, SelectorDraft) {
        let mut b = TreeBuilder::new(hotspot_registry());
        let root = b.root();
        let sel = b.selector(root, "gc.collector");
        (b, sel)
    }

    #[test]
    #[should_panic(expected = "flag TLABSize placed twice in the tree")]
    fn build_rejects_a_flag_placed_twice() {
        let (r, _) = tiny_tree();
        let mut b = TreeBuilder::new(r);
        let root = b.root();
        let tlab = b.gate(root, "UseTLAB", true);
        b.leaf(tlab, "TLABSize");
        b.leaf(root, "TLABSize");
        b.build();
    }

    #[test]
    #[should_panic(expected = "tree flag UseSerialGC is also assigned by selector gc.collector")]
    fn build_rejects_a_tree_flag_that_a_selector_assigns() {
        let (mut b, sel) = collector_builder();
        b.option(&sel, "serial", &[("UseSerialGC", FlagValue::Bool(true))]);
        let root = b.root();
        b.leaf(root, "UseSerialGC");
        b.build();
    }

    #[test]
    #[should_panic(expected = "option both of selector gc.collector sets UseSerialGC")]
    fn build_rejects_an_option_that_sets_an_earlier_marker() {
        let (mut b, sel) = collector_builder();
        b.option(&sel, "serial", &[("UseSerialGC", FlagValue::Bool(true))]);
        b.option(
            &sel,
            "both",
            &[
                ("UseParallelGC", FlagValue::Bool(true)),
                ("UseSerialGC", FlagValue::Bool(true)),
            ],
        );
        b.build();
    }

    #[test]
    #[should_panic(
        expected = "flag UseSerialGC is assigned by selectors gc.collector and gc.other"
    )]
    fn build_rejects_a_flag_assigned_by_two_selectors() {
        let (mut b, sel) = collector_builder();
        b.option(&sel, "serial", &[("UseSerialGC", FlagValue::Bool(true))]);
        let root = b.root();
        let other = b.selector(root, "gc.other");
        b.option(&other, "off", &[("UseSerialGC", FlagValue::Bool(false))]);
        b.build();
    }

    #[test]
    #[should_panic(expected = "option flip of selector gc.collector assigns UseSerialGC twice")]
    fn build_rejects_an_option_assigning_a_flag_twice() {
        let (mut b, sel) = collector_builder();
        b.option(
            &sel,
            "flip",
            &[
                ("UseSerialGC", FlagValue::Bool(true)),
                ("UseSerialGC", FlagValue::Bool(false)),
            ],
        );
        b.build();
    }
}

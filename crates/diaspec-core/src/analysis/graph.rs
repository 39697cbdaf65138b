//! Pass 1: the analyzer's one lowering of a design — the whole-design
//! Sense-Compute-Control dataflow graph.
//!
//! [`DesignGraph::build`] is the only walk of the model's activations
//! and bindings in the analyzer: every other pass, the functional chains
//! ([`crate::chains`]), the requirements estimate and the DOT view read
//! its nodes and edges. Nodes are device sources, contexts, controllers,
//! and device actions. Each declared clause is one edge — a trigger, a
//! `get`, a binding's trigger or a `do` — in declaration order, never
//! merged with another. An edge carries the interaction kind, the device
//! family as the clause writes it, and its origin (the clause's index in
//! its component), from which a pass reads back spans, publish modes
//! and groupings. Device references are *attribute-refined sets*: a
//! clause against a device names its whole `extends` family, so overlap
//! questions (conflicts, feedback) are answered on families, not names.

use crate::model::{Activation, ActivationTrigger, CheckedSpec, ControllerBinding, InputRef};
use crate::span::Span;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// A node of the dataflow graph.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Node {
    /// A device sensing facet, attributed to its declaring device.
    Source {
        /// Device declaring the source.
        device: String,
        /// Source name.
        source: String,
    },
    /// A context component.
    Context(String),
    /// A controller component.
    Controller(String),
    /// A device actuating facet, attributed to the `do` target device.
    Action {
        /// Device targeted by the `do` clause.
        device: String,
        /// Action name.
        action: String,
    },
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Node::Source { device, source } => write!(f, "{device}.{source}"),
            Node::Context(name) => write!(f, "[{name}]"),
            Node::Controller(name) => write!(f, "({name})"),
            Node::Action { device, action } => write!(f, "{device}.{action}()"),
        }
    }
}

/// The interaction kind an edge was built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EdgeKind {
    /// Event-driven flow: `when provided` subscriptions and
    /// context-to-controller triggers.
    Event,
    /// Periodic batched delivery.
    Periodic {
        /// Delivery period in milliseconds.
        period_ms: u64,
        /// The `every <W>` aggregation window in milliseconds, when the
        /// clause declares one.
        window_ms: Option<u64>,
    },
    /// Query-driven read: a `get` clause (the paper's loop arrows).
    Query,
    /// A controller `do` clause.
    Do,
}

impl EdgeKind {
    /// Whether this edge pushes data on its own (event or periodic), as
    /// opposed to being pulled (`get`) or being an actuation.
    pub(crate) fn is_flow(self) -> bool {
        matches!(self, EdgeKind::Event | EdgeKind::Periodic { .. })
    }
}

/// A directed edge of the dataflow graph: one declared clause.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge {
    /// Index of the origin node in [`DesignGraph::nodes`].
    pub from: usize,
    /// Index of the destination node in [`DesignGraph::nodes`].
    pub to: usize,
    /// Interaction kind.
    pub kind: EdgeKind,
    /// The device family as the clause names it: `from Leaf` stays
    /// `Leaf` though the source node is the declaring device's, and a
    /// `do ... on K` is `K`. `None` between two components.
    pub family: Option<String>,
    /// The declaring clause's index in its component: the activation of
    /// the context an edge enters, or the binding of the controller a
    /// trigger edge enters or a `do` edge leaves.
    pub clause: usize,
    /// A `do` edge's index among its binding's actions; `None` for every
    /// other edge.
    pub action: Option<usize>,
}

/// The dataflow graph of a whole design: its one lowering.
///
/// Built once by [`DesignGraph::build`] and shared by the conflict,
/// feedback-loop, reachability, rate and partition passes, the
/// functional chains and the DOT view.
#[derive(Debug, Clone)]
pub struct DesignGraph {
    /// Nodes: every declared source (devices in name order, each
    /// device's own sources in declaration order), every context and
    /// every controller (in name order), then each action in the order
    /// of its first `do` clause.
    pub nodes: Vec<Node>,
    /// One edge per declared clause: contexts in name order, each
    /// activation's trigger then its `get`s; then controllers in name
    /// order, each binding's trigger then its `do`s.
    pub edges: Vec<Edge>,
    index: BTreeMap<Node, usize>,
}

impl DesignGraph {
    /// Builds the dataflow graph of `spec`.
    ///
    /// Source references are normalized to the device that *declares* the
    /// source (walking `extends` upward), so a subscription against a
    /// subtype and one against its ancestor meet at the same node; the
    /// edge keeps the family the clause names.
    #[must_use]
    pub fn build(spec: &CheckedSpec) -> Self {
        let mut graph = DesignGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            index: BTreeMap::new(),
        };
        for device in spec.devices() {
            for source in device
                .sources
                .iter()
                .filter(|s| s.declared_in == device.name)
            {
                graph.intern(Node::Source {
                    device: device.name.clone(),
                    source: source.name.clone(),
                });
            }
        }
        for ctx in spec.contexts() {
            graph.intern(Node::Context(ctx.name.clone()));
        }
        for ctrl in spec.controllers() {
            graph.intern(Node::Controller(ctrl.name.clone()));
        }

        for ctx in spec.contexts() {
            let to = Node::Context(ctx.name.clone());
            for (clause, activation) in ctx.activations.iter().enumerate() {
                let mut push = |from: Node, kind: EdgeKind, family: Option<&String>| {
                    graph.push(from, to.clone(), kind, family, clause, None);
                };
                match &activation.trigger {
                    ActivationTrigger::DeviceSource { device, source } => {
                        push(
                            source_node(spec, device, source),
                            EdgeKind::Event,
                            Some(device),
                        );
                    }
                    ActivationTrigger::Periodic {
                        device,
                        source,
                        period_ms,
                    } => {
                        let kind = EdgeKind::Periodic {
                            period_ms: *period_ms,
                            window_ms: activation.grouping.as_ref().and_then(|g| g.window_ms),
                        };
                        push(source_node(spec, device, source), kind, Some(device));
                    }
                    ActivationTrigger::Context(from) => {
                        push(Node::Context(from.clone()), EdgeKind::Event, None);
                    }
                    ActivationTrigger::OnDemand => {}
                }
                for get in &activation.gets {
                    match get {
                        InputRef::DeviceSource { device, source } => {
                            push(
                                source_node(spec, device, source),
                                EdgeKind::Query,
                                Some(device),
                            );
                        }
                        InputRef::Context(name) => {
                            push(Node::Context(name.clone()), EdgeKind::Query, None);
                        }
                    }
                }
            }
        }
        for ctrl in spec.controllers() {
            let node = Node::Controller(ctrl.name.clone());
            for (clause, binding) in ctrl.bindings.iter().enumerate() {
                let trigger = Node::Context(binding.context.clone());
                graph.push(trigger, node.clone(), EdgeKind::Event, None, clause, None);
                for (index, (action, device)) in binding.actions.iter().enumerate() {
                    let target = Node::Action {
                        device: device.clone(),
                        action: action.clone(),
                    };
                    graph.push(
                        node.clone(),
                        target,
                        EdgeKind::Do,
                        Some(device),
                        clause,
                        Some(index),
                    );
                }
            }
        }
        graph
    }

    fn push(
        &mut self,
        from: Node,
        to: Node,
        kind: EdgeKind,
        family: Option<&String>,
        clause: usize,
        action: Option<usize>,
    ) {
        let (from, to) = (self.intern(from), self.intern(to));
        self.edges.push(Edge {
            from,
            to,
            kind,
            family: family.cloned(),
            clause,
            action,
        });
    }

    fn intern(&mut self, node: Node) -> usize {
        if let Some(&id) = self.index.get(&node) {
            return id;
        }
        let id = self.nodes.len();
        self.nodes.push(node.clone());
        self.index.insert(node, id);
        id
    }

    /// Looks up a node's index.
    pub(crate) fn node_id(&self, node: &Node) -> Option<usize> {
        self.index.get(node).copied()
    }

    /// The index of context `name`'s node.
    pub(crate) fn context_id(&self, name: &str) -> Option<usize> {
        self.node_id(&Node::Context(name.to_owned()))
    }

    /// The activation an edge entering a context was declared in.
    pub(crate) fn activation<'s>(
        &self,
        spec: &'s CheckedSpec,
        edge: &Edge,
    ) -> Option<&'s Activation> {
        match &self.nodes[edge.to] {
            Node::Context(name) => spec.context(name)?.activations.get(edge.clause),
            _ => None,
        }
    }

    /// The binding a controller's trigger or `do` edge was declared in.
    pub(crate) fn binding<'s>(
        &self,
        spec: &'s CheckedSpec,
        edge: &Edge,
    ) -> Option<&'s ControllerBinding> {
        let controller = match (&self.nodes[edge.from], &self.nodes[edge.to]) {
            (Node::Controller(name), _) | (_, Node::Controller(name)) => name,
            _ => return None,
        };
        spec.controller(controller)?.bindings.get(edge.clause)
    }

    /// The span of an edge's clause: the whole `when ...;` interaction of
    /// an activation, a binding's trigger-context name, or a `do` clause.
    pub(crate) fn span(&self, spec: &CheckedSpec, edge: &Edge) -> Span {
        if let Some(binding) = self.binding(spec, edge) {
            return edge
                .action
                .map_or(binding.context_span, |index| binding.action_span(index));
        }
        self.activation(spec, edge).map_or(Span::DUMMY, |a| a.span)
    }

    /// Whether context `from` reaches context `to` along
    /// context-to-context edges, returning the path (inclusive of both
    /// endpoints) when it does.
    ///
    /// With `include_query` false only event-driven subscription edges are
    /// followed; with it true, `get` edges count as well. A context
    /// trivially reaches itself (path of length one).
    #[must_use]
    pub fn context_path(&self, from: &str, to: &str, include_query: bool) -> Option<Vec<String>> {
        if from == to {
            return Some(vec![from.to_owned()]);
        }
        let start = self.node_id(&Node::Context(from.to_owned()))?;
        let goal = self.node_id(&Node::Context(to.to_owned()))?;
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue = VecDeque::from([start]);
        let mut seen = BTreeSet::from([start]);
        while let Some(at) = queue.pop_front() {
            for edge in &self.edges {
                if edge.from != at
                    || !matches!(self.nodes[edge.to], Node::Context(_))
                    || !(edge.kind.is_flow() || (include_query && edge.kind == EdgeKind::Query))
                {
                    continue;
                }
                if seen.insert(edge.to) {
                    parent.insert(edge.to, at);
                    if edge.to == goal {
                        let mut path = vec![goal];
                        let mut cursor = goal;
                        while let Some(&prev) = parent.get(&cursor) {
                            path.push(prev);
                            cursor = prev;
                        }
                        path.reverse();
                        return Some(
                            path.into_iter()
                                .map(|id| match &self.nodes[id] {
                                    Node::Context(name) => name.clone(),
                                    other => other.to_string(),
                                })
                                .collect(),
                        );
                    }
                    queue.push_back(edge.to);
                }
            }
        }
        None
    }
}

/// The node of a source reference, attributed to the device that declares
/// the source (so subtype references meet their ancestor's node).
fn source_node(spec: &CheckedSpec, device: &str, source: &str) -> Node {
    let owner = spec
        .device(device)
        .and_then(|d| d.source(source))
        .map_or(device, |s| s.declared_in.as_str());
    Node::Source {
        device: owner.to_owned(),
        source: source.to_owned(),
    }
}

/// Whether the attribute-refined device sets of `first` and `second`
/// overlap: in a tree-shaped `extends` hierarchy, two families intersect
/// exactly when one root is a subtype of the other.
#[must_use]
pub fn families_overlap(spec: &CheckedSpec, first: &str, second: &str) -> bool {
    spec.device_is_subtype(first, second) || spec.device_is_subtype(second, first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_str;

    const SPEC: &str = r#"
        device Base { source reading as Float; }
        device Leaf extends Base { attribute room as String; }
        device Sink { action absorb; }
        context C as Float {
          when periodic reading from Leaf <1 min>
            get reading from Base
            always publish;
        }
        context D as Float { when provided C always publish; }
        controller Out { when provided D do absorb on Sink; }
    "#;

    #[test]
    fn graph_normalizes_sources_to_declaring_device() {
        let spec = compile_str(SPEC).unwrap();
        let graph = DesignGraph::build(&spec);
        // Both the periodic subscription (via Leaf) and the get (via Base)
        // hit the single Base.reading node.
        let node = Node::Source {
            device: "Base".into(),
            source: "reading".into(),
        };
        assert!(graph.node_id(&node).is_some());
        assert!(graph
            .node_id(&Node::Source {
                device: "Leaf".into(),
                source: "reading".into(),
            })
            .is_none());
        // C is both triggered by it (periodic) and `get`s it.
        let source = graph.node_id(&node).unwrap();
        let into_c: Vec<EdgeKind> = graph
            .edges
            .iter()
            .filter(|e| e.from == source && graph.nodes[e.to] == Node::Context("C".into()))
            .map(|e| e.kind)
            .collect();
        assert_eq!(into_c.len(), 2);
        assert!(into_c.iter().any(|k| k.is_flow()));
        assert!(into_c.contains(&EdgeKind::Query));
    }

    #[test]
    fn one_edge_per_clause_with_its_written_family_and_origin() {
        let spec = compile_str(
            &SPEC.replace("do absorb on Sink;", "do absorb on Sink do absorb on Sink;"),
        )
        .unwrap();
        let graph = DesignGraph::build(&spec);
        // `from -> to kind family clause action`, one line a clause.
        let edges: Vec<String> = graph
            .edges
            .iter()
            .map(|e| {
                let (from, to) = (&graph.nodes[e.from], &graph.nodes[e.to]);
                let (kind, family) = (e.kind, e.family.as_deref());
                format!(
                    "{from} -> {to} {kind:?} {family:?} {} {:?}",
                    e.clause, e.action
                )
            })
            .collect();
        assert_eq!(
            edges,
            [
                "Base.reading -> [C] Periodic { period_ms: 60000, window_ms: None } Some(\"Leaf\") 0 None",
                "Base.reading -> [C] Query Some(\"Base\") 0 None",
                "[C] -> [D] Event None 0 None",
                "[D] -> (Out) Event None 0 None",
                "(Out) -> Sink.absorb() Do Some(\"Sink\") 0 Some(0)",
                "(Out) -> Sink.absorb() Do Some(\"Sink\") 0 Some(1)",
            ]
        );
        // The origin reads the clause back: the second `do` clause's span.
        let span = graph.span(&spec, &graph.edges[5]);
        let binding = &spec.controller("Out").unwrap().bindings[0];
        assert_eq!(span, binding.action_span(1));
    }

    #[test]
    fn context_paths_respect_edge_coupling() {
        let spec = compile_str(SPEC).unwrap();
        let graph = DesignGraph::build(&spec);
        assert_eq!(
            graph.context_path("C", "D", false),
            Some(vec!["C".to_owned(), "D".to_owned()])
        );
        assert_eq!(graph.context_path("D", "C", true), None);
        assert_eq!(
            graph.context_path("D", "D", false),
            Some(vec!["D".to_owned()])
        );
    }

    #[test]
    fn query_edges_reach_only_when_included() {
        let spec = compile_str(
            r#"
            device S { source v as Integer; }
            device K { action a; }
            context A as Integer { when periodic v from S <1 min> no publish; when required; }
            context B as Integer { when provided v from S get A always publish; }
            controller Out { when provided B do a on K; }
            "#,
        )
        .unwrap();
        let graph = DesignGraph::build(&spec);
        assert_eq!(graph.context_path("A", "B", false), None);
        assert_eq!(
            graph.context_path("A", "B", true),
            Some(vec!["A".to_owned(), "B".to_owned()])
        );
    }

    #[test]
    fn family_overlap_queries() {
        let spec = compile_str(SPEC).unwrap();
        assert!(families_overlap(&spec, "Base", "Leaf"));
        assert!(families_overlap(&spec, "Leaf", "Leaf"));
        assert!(!families_overlap(&spec, "Sink", "Base"));
    }

    #[test]
    fn do_edges_present() {
        let spec = compile_str(SPEC).unwrap();
        let graph = DesignGraph::build(&spec);
        let action = graph
            .node_id(&Node::Action {
                device: "Sink".into(),
                action: "absorb".into(),
            })
            .unwrap();
        assert!(graph
            .edges
            .iter()
            .any(|e| e.to == action && e.kind == EdgeKind::Do));
    }
}

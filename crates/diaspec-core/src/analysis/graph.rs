//! Pass 1: the whole-design Sense-Compute-Control dataflow graph.
//!
//! Every other analysis pass works on this graph: nodes are device
//! sources, contexts, controllers, and device actions; edges carry the
//! interaction kind declared in the design (event-driven subscription,
//! periodic delivery, query-driven `get`, or a controller `do` clause).
//! Device references are *attribute-refined sets*: a subscription or `do`
//! clause against a device names its whole `extends` family, so overlap
//! questions (conflicts, feedback) are answered on families, not names.

use crate::model::{ActivationTrigger, CheckedSpec, InputRef};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// A node of the dataflow graph.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
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
    /// Periodic batched delivery with its period.
    Periodic {
        /// Delivery period in milliseconds.
        period_ms: u64,
    },
    /// Query-driven read: a `get` clause (the paper's loop arrows).
    Query,
    /// A controller `do` clause.
    Do,
}

impl EdgeKind {
    /// Whether this edge pushes data on its own (event or periodic), as
    /// opposed to being pulled (`get`) or being an actuation.
    fn is_flow(self) -> bool {
        matches!(self, EdgeKind::Event | EdgeKind::Periodic { .. })
    }
}

/// A directed edge of the dataflow graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge {
    /// Index of the origin node in [`DesignGraph::nodes`].
    pub from: usize,
    /// Index of the destination node in [`DesignGraph::nodes`].
    pub to: usize,
    /// Interaction kind.
    pub kind: EdgeKind,
}

/// The dataflow graph of a whole design.
///
/// Built once by [`DesignGraph::build`] and shared by the conflict,
/// feedback-loop, reachability, and rate-propagation passes.
#[derive(Debug, Clone)]
pub struct DesignGraph {
    /// Nodes in deterministic (sorted) order.
    pub nodes: Vec<Node>,
    /// Edges in deterministic order, deduplicated.
    pub edges: Vec<Edge>,
    index: BTreeMap<Node, usize>,
}

impl DesignGraph {
    /// Builds the dataflow graph of `spec`.
    ///
    /// Source references are normalized to the device that *declares* the
    /// source (walking `extends` upward), so a subscription against a
    /// subtype and one against its ancestor meet at the same node.
    #[must_use]
    pub fn build(spec: &CheckedSpec) -> Self {
        let mut graph = DesignGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            index: BTreeMap::new(),
        };
        let mut edges: BTreeSet<(usize, usize, String)> = BTreeSet::new();
        let mut push_edge = |graph: &mut DesignGraph, from: Node, to: Node, kind: EdgeKind| {
            let from = graph.intern(from);
            let to = graph.intern(to);
            if edges.insert((from, to, format!("{kind:?}"))) {
                graph.edges.push(Edge { from, to, kind });
            }
        };

        for ctx in spec.contexts() {
            let ctx_node = Node::Context(ctx.name.clone());
            graph.intern(ctx_node.clone());
            for activation in &ctx.activations {
                match &activation.trigger {
                    ActivationTrigger::DeviceSource { device, source } => {
                        push_edge(
                            &mut graph,
                            source_node(spec, device, source),
                            ctx_node.clone(),
                            EdgeKind::Event,
                        );
                    }
                    ActivationTrigger::Periodic {
                        device,
                        source,
                        period_ms,
                    } => {
                        push_edge(
                            &mut graph,
                            source_node(spec, device, source),
                            ctx_node.clone(),
                            EdgeKind::Periodic {
                                period_ms: *period_ms,
                            },
                        );
                    }
                    ActivationTrigger::Context(from) => {
                        push_edge(
                            &mut graph,
                            Node::Context(from.clone()),
                            ctx_node.clone(),
                            EdgeKind::Event,
                        );
                    }
                    ActivationTrigger::OnDemand => {}
                }
                for get in &activation.gets {
                    let from = match get {
                        InputRef::DeviceSource { device, source } => {
                            source_node(spec, device, source)
                        }
                        InputRef::Context(name) => Node::Context(name.clone()),
                    };
                    push_edge(&mut graph, from, ctx_node.clone(), EdgeKind::Query);
                }
            }
        }
        for ctrl in spec.controllers() {
            let ctrl_node = Node::Controller(ctrl.name.clone());
            graph.intern(ctrl_node.clone());
            for binding in &ctrl.bindings {
                push_edge(
                    &mut graph,
                    Node::Context(binding.context.clone()),
                    ctrl_node.clone(),
                    EdgeKind::Event,
                );
                for (action, device) in &binding.actions {
                    push_edge(
                        &mut graph,
                        ctrl_node.clone(),
                        Node::Action {
                            device: device.clone(),
                            action: action.clone(),
                        },
                        EdgeKind::Do,
                    );
                }
            }
        }
        graph
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
    fn node_id(&self, node: &Node) -> Option<usize> {
        self.index.get(node).copied()
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

//! Graphical design views (paper Figures 2, 3 and 4) as Graphviz DOT.
//!
//! The paper presents every application design as a four-layer diagram —
//! device sources, contexts, controllers, device actions — with straight
//! arrows for event-driven subscriptions and "loop" arrows for
//! query-driven (`get`) reads. This backend regenerates that view from a
//! checked specification: render with `dot -Tsvg` to reproduce the
//! figures for any design.

use diaspec_core::analysis::graph::{EdgeKind, Node};
use diaspec_core::analysis::{analyze, LoopKind};
use diaspec_core::model::CheckedSpec;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Escapes a string for use inside a double-quoted DOT id.
fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The DOT id of a graph node.
fn id(node: &Node) -> String {
    match node {
        Node::Source { device, source } => format!("src:{device}.{source}"),
        Node::Context(name) => format!("ctx:{name}"),
        Node::Controller(name) => format!("ctl:{name}"),
        Node::Action { device, action } => format!("act:{device}.{action}"),
    }
}

/// Generates the Sense-Compute-Control diagram of a design, in the
/// four-layer layout of the paper's Figures 3 and 4: the analyzer's
/// [`DesignGraph`](diaspec_core::analysis::DesignGraph), one DOT edge per
/// declared clause.
///
/// - Solid edges: event-driven flow (`when provided` / `when periodic`
///   subscriptions, controller triggers, `do` actions). Periodic edges
///   are labeled with their period.
/// - Dashed edges: query-driven reads (`get` clauses), the paper's loop
///   arrows.
///
/// Static-analysis findings are drawn into the view: `do` edges involved
/// in an actuation conflict are red and bold; `do` edges that close an
/// environment feedback loop are orange, with a dotted return edge from
/// the actuated action back to the sensing source that re-enters the
/// design.
///
/// # Examples
///
/// ```
/// use diaspec_core::compile_str;
/// use diaspec_codegen::dot::generate_dot;
///
/// let spec = compile_str(r#"
///     device Clock { source tick as Integer; }
///     device Siren { action wail; }
///     context Overdue as Integer { when provided tick from Clock maybe publish; }
///     controller Alarm { when provided Overdue do wail on Siren; }
/// "#)?;
/// let dot = generate_dot(&spec, "doorbell");
/// assert!(dot.contains("digraph"));
/// assert!(dot.contains("\"src:Clock.tick\" -> \"ctx:Overdue\""));
/// # Ok::<(), diaspec_core::diag::CompileError>(())
/// ```
#[must_use]
pub fn generate_dot(spec: &CheckedSpec, title: &str) -> String {
    // Overlay data from the static analyzer: which `do` edges conflict,
    // which close environment loops, and where those loops re-enter.
    let report = analyze(spec);
    let graph = &report.graph;
    let mut conflict_edges: BTreeSet<(String, String, String)> = BTreeSet::new();
    for conflict in &report.conflicts {
        for site in [&conflict.first, &conflict.second] {
            conflict_edges.insert((
                site.controller.clone(),
                site.device.clone(),
                site.action.clone(),
            ));
        }
    }
    let mut loop_edges: BTreeMap<(String, String, String), LoopKind> = BTreeMap::new();
    let mut env_edges: BTreeSet<(String, String, &Node)> = BTreeSet::new();
    for lp in &report.loops {
        loop_edges
            .entry((lp.controller.clone(), lp.device.clone(), lp.action.clone()))
            .or_insert(lp.kind);
        // The re-entering source node: the one a clause naming the loop's
        // feedback family and source reads.
        let reentry = graph.edges.iter().find_map(|e| match &graph.nodes[e.from] {
            node @ Node::Source { source, .. }
                if *source == lp.source && e.family.as_ref() == Some(&lp.feedback_device) =>
            {
                Some(node)
            }
            _ => None,
        });
        if let Some(reentry) = reentry {
            env_edges.insert((lp.device.clone(), lp.action.clone(), reentry));
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "digraph {} {{", quote(title));
    let _ = writeln!(out, "    rankdir=LR;");
    let _ = writeln!(out, "    node [fontname=\"Helvetica\", fontsize=11];");
    let _ = writeln!(
        out,
        "    label={}; labelloc=t; fontsize=16;",
        quote(&format!("{title} — Sense-Compute-Control design"))
    );

    // ---- the four layers: sources, contexts, controllers, actions ----
    let layers = [
        ("sources", "Devices (sources)"),
        ("contexts", "Contexts"),
        ("controllers", "Controllers"),
        ("actions", "Devices (actions)"),
    ];
    for (layer, (cluster, label)) in layers.iter().enumerate() {
        let _ = writeln!(out, "    subgraph cluster_{cluster} {{");
        let _ = writeln!(out, "        label=\"{label}\"; style=dashed;");
        for node in &graph.nodes {
            let attrs = match (layer, node) {
                (0, Node::Source { device, source }) => format!(
                    "shape=ellipse, label={}",
                    quote(&format!("{device}\\n{source}"))
                ),
                (1, Node::Context(name)) => {
                    let Some(ctx) = spec.context(name) else {
                        continue;
                    };
                    let mr = if ctx.uses_map_reduce() {
                        "\\n[MapReduce]"
                    } else {
                        ""
                    };
                    format!(
                        "shape=box, style=rounded, label={}",
                        quote(&format!("{name}\\nas {}{mr}", ctx.output))
                    )
                }
                (2, Node::Controller(name)) => format!("shape=box, label={}", quote(name)),
                (3, Node::Action { device, action }) => format!(
                    "shape=ellipse, label={}",
                    quote(&format!("{device}\\n{action}"))
                ),
                _ => continue,
            };
            let _ = writeln!(out, "        {} [{attrs}];", quote(&id(node)));
        }
        let _ = writeln!(out, "    }}");
    }

    // ---- edges ----
    // Each context's incoming clauses, then the controllers it triggers
    // (once per controller); then every `do` clause.
    for (ctx, node) in graph.nodes.iter().enumerate() {
        if !matches!(node, Node::Context(_)) {
            continue;
        }
        for edge in graph.edges.iter().filter(|e| e.to == ctx) {
            let from = quote(&id(&graph.nodes[edge.from]));
            let attrs = match edge.kind {
                EdgeKind::Periodic { period_ms, .. } => format!(
                    " [label={}]",
                    quote(&format!("every {}", human_period(period_ms)))
                ),
                EdgeKind::Query => " [style=dashed, label=\"get\", constraint=false]".to_owned(),
                EdgeKind::Event | EdgeKind::Do => String::new(),
            };
            let _ = writeln!(out, "    {from} -> {}{attrs};", quote(&id(node)));
        }
        let mut triggered: Vec<usize> = Vec::new();
        for edge in graph.edges.iter().filter(|e| e.from == ctx) {
            if matches!(graph.nodes[edge.to], Node::Controller(_)) && !triggered.contains(&edge.to)
            {
                triggered.push(edge.to);
                let _ = writeln!(
                    out,
                    "    {} -> {};",
                    quote(&id(node)),
                    quote(&id(&graph.nodes[edge.to]))
                );
            }
        }
    }
    for edge in graph.edges.iter().filter(|e| e.kind == EdgeKind::Do) {
        let (Node::Controller(ctrl), Node::Action { device, action }) =
            (&graph.nodes[edge.from], &graph.nodes[edge.to])
        else {
            continue;
        };
        let key = (ctrl.clone(), device.clone(), action.clone());
        let attrs = if conflict_edges.contains(&key) {
            " [color=red, penwidth=2, tooltip=\"actuation conflict\"]"
        } else {
            match loop_edges.get(&key) {
                Some(LoopKind::Event) => " [color=orange, penwidth=2, tooltip=\"feedback loop\"]",
                Some(LoopKind::Query) => " [color=orange, tooltip=\"feedback loop (get)\"]",
                None => "",
            }
        };
        let _ = writeln!(
            out,
            "    {} -> {}{attrs};",
            quote(&id(&graph.nodes[edge.from])),
            quote(&id(&graph.nodes[edge.to]))
        );
    }
    // Environment return edges of detected feedback loops: the physical
    // coupling from an actuated device back into a sensed source.
    for (device, action, reentry) in &env_edges {
        let _ = writeln!(
            out,
            "    {} -> {} [style=dotted, color=orange, label=\"environment\", constraint=false];",
            quote(&format!("act:{device}.{action}")),
            quote(&id(reentry))
        );
    }
    out.push_str("}\n");
    out
}

fn human_period(ms: u64) -> String {
    if ms.is_multiple_of(3_600_000) {
        format!("{} hr", ms / 3_600_000)
    } else if ms.is_multiple_of(60_000) {
        format!("{} min", ms / 60_000)
    } else if ms.is_multiple_of(1_000) {
        format!("{} sec", ms / 1_000)
    } else {
        format!("{ms} ms")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diaspec_core::compile_str;

    const COOKER: &str = r#"
        device Clock { source tickSecond as Integer; }
        device Cooker { source consumption as Float; action On; action Off; }
        device TvPrompter {
          source answer as String indexed by questionId as String;
          action askQuestion(question as String);
        }
        context Alert as Integer {
          when provided tickSecond from Clock
            get consumption from Cooker
            maybe publish;
        }
        controller Notify { when provided Alert do askQuestion on TvPrompter; }
        context RemoteTurnOff as Boolean {
          when provided answer from TvPrompter
            get consumption from Cooker
            maybe publish;
        }
        controller TurnOff { when provided RemoteTurnOff do Off on Cooker; }
    "#;

    #[test]
    fn figure3_cooker_diagram_edges() {
        let spec = compile_str(COOKER).unwrap();
        let dot = generate_dot(&spec, "cooker");
        // The two functional chains of Figure 3.
        assert!(
            dot.contains("\"src:Clock.tickSecond\" -> \"ctx:Alert\""),
            "{dot}"
        );
        assert!(dot.contains("\"ctx:Alert\" -> \"ctl:Notify\""));
        assert!(dot.contains("\"ctl:Notify\" -> \"act:TvPrompter.askQuestion\""));
        assert!(dot.contains("\"src:TvPrompter.answer\" -> \"ctx:RemoteTurnOff\""));
        assert!(dot.contains("\"ctl:TurnOff\" -> \"act:Cooker.Off\""));
        // The query (loop) arrows are dashed.
        assert!(dot
            .contains("\"src:Cooker.consumption\" -> \"ctx:Alert\" [style=dashed, label=\"get\""));
        // Four layers are present.
        for cluster in [
            "cluster_sources",
            "cluster_contexts",
            "cluster_controllers",
            "cluster_actions",
        ] {
            assert!(dot.contains(cluster), "{dot}");
        }
    }

    #[test]
    fn periodic_edges_labeled_with_period() {
        let spec = compile_str(
            r#"
            device Sensor { attribute lot as String; source presence as Boolean; }
            device Panel { action update(s as String); }
            context Avail as Integer[] {
              when periodic presence from Sensor <10 min>
                grouped by lot always publish;
            }
            controller P { when provided Avail do update on Panel; }
            "#,
        )
        .unwrap();
        let dot = generate_dot(&spec, "parking");
        assert!(dot.contains("[label=\"every 10 min\"]"), "{dot}");
    }

    #[test]
    fn subscription_via_subtype_draws_to_declaring_device() {
        let spec = compile_str(
            r#"
            device Base { source reading as Float; }
            device Leaf extends Base { attribute where as String; }
            device Sink { action absorb; }
            context C as Float { when provided reading from Leaf always publish; }
            controller Out { when provided C do absorb on Sink; }
            "#,
        )
        .unwrap();
        let dot = generate_dot(&spec, "inherit");
        assert!(dot.contains("\"src:Base.reading\" -> \"ctx:C\""), "{dot}");
        // The subtype does not get a duplicate source node.
        assert!(!dot.contains("src:Leaf.reading"), "{dot}");
    }

    #[test]
    fn braces_balance_and_title_is_escaped() {
        let spec = compile_str(COOKER).unwrap();
        let dot = generate_dot(&spec, "weird \"title\"");
        assert_eq!(dot.matches('{').count(), dot.matches('}').count(), "{dot}");
        assert!(dot.contains("weird \\\"title\\\""));
    }

    #[test]
    fn conflicting_do_edges_are_highlighted() {
        let spec = compile_str(
            r#"
            device Probe { source v as Integer; }
            device Valve { action close; }
            context Hot as Integer { when provided v from Probe always publish; }
            controller A { when provided Hot do close on Valve; }
            controller B { when provided Hot do close on Valve; }
            "#,
        )
        .unwrap();
        let dot = generate_dot(&spec, "conflict");
        assert!(
            dot.contains("\"ctl:A\" -> \"act:Valve.close\" [color=red"),
            "{dot}"
        );
        assert!(
            dot.contains("\"ctl:B\" -> \"act:Valve.close\" [color=red"),
            "{dot}"
        );
    }

    #[test]
    fn feedback_loops_get_environment_return_edges() {
        let spec = compile_str(COOKER).unwrap();
        let dot = generate_dot(&spec, "cooker");
        // TurnOff closes a query-driven loop through Cooker.consumption.
        assert!(
            dot.contains("\"ctl:TurnOff\" -> \"act:Cooker.Off\" [color=orange"),
            "{dot}"
        );
        assert!(
            dot.contains(
                "\"act:Cooker.Off\" -> \"src:Cooker.consumption\" [style=dotted, color=orange"
            ),
            "{dot}"
        );
        // Notify does not loop: TvPrompter answers never reach Alert.
        assert!(
            dot.contains("\"ctl:Notify\" -> \"act:TvPrompter.askQuestion\";"),
            "{dot}"
        );
    }

    #[test]
    fn human_periods() {
        assert_eq!(human_period(24 * 3_600_000), "24 hr");
        assert_eq!(human_period(10 * 60_000), "10 min");
        assert_eq!(human_period(1_000), "1 sec");
        assert_eq!(human_period(1_500), "1500 ms");
    }

    #[test]
    fn mapreduce_contexts_are_marked() {
        let spec = compile_str(
            r#"
            device Sensor { attribute lot as String; source presence as Boolean; }
            device Panel { action update(s as String); }
            context Avail as Integer[] {
              when periodic presence from Sensor <10 min>
                grouped by lot with map as Boolean reduce as Integer
                always publish;
            }
            controller P { when provided Avail do update on Panel; }
            "#,
        )
        .unwrap();
        let dot = generate_dot(&spec, "mr");
        assert!(dot.contains("[MapReduce]"), "{dot}");
    }
}

//! Whole-design static analysis over a [`CheckedSpec`].
//!
//! Where [`check`](crate::check) validates declarations one at a time,
//! this module reasons about the *composition*: what happens when every
//! declared interaction contract runs against a shared environment. The
//! paper's promise that an orchestration design is "verifiable before
//! deployment" lives here. Four passes share one dataflow graph, the
//! design's one lowering, built once per design by [`analyze_with`]:
//!
//! 1. [`graph`] — builds the Sense-Compute-Control dataflow graph with
//!    attribute-refined device sets. It is the only walk of the model's
//!    activations and bindings: each declared clause (a trigger, a `get`,
//!    a binding's trigger, a `do`) is one [`graph::Edge`] holding its
//!    kind (event, periodic with period and window, query, do), the
//!    device family as the clause writes it, and its origin (activation
//!    or binding index, and action index), from which the passes read
//!    spans, publish modes and groupings back;
//! 2. [`conflicts`] — actuation-conflict detection, one pass over a
//!    universe of N ≥ 1 designs (here N = 1);
//! 3. [`loops`] — environment feedback-loop detection;
//! 4. [`reach`] / [`rates`] — reachability, rate propagation, the
//!    static capacity report, and the one budget pass (here N = 1).
//!
//! A fifth pass, [`partition`], validates a proposed deployment split
//! against the design's routes, one per graph edge. It takes a
//! [`PartitionPlan`] as extra input, so it is invoked by the deployment
//! tooling ([`partition::validate`], which builds the graph itself)
//! rather than by [`analyze`].
//!
//! A sixth pass family, [`deployment`], crosses design boundaries: it
//! takes *several* checked designs (plus their optional deployment
//! manifests) and analyzes the co-deployment — cross-application
//! actuation conflicts (the [`conflicts`] pass over all N), aggregate
//! load against the budgets (the [`rates`] budget pass over all N), and
//! manifest cut safety. It is invoked by multi-design lint
//! ([`deployment::analyze_deployment`], which builds each design's graph
//! once) rather than by [`analyze`].
//!
//! Every finding carries a stable diagnostic code, continuing the
//! checker's numbering into the 04xx block (whole-design analysis),
//! the 05xx block (partition validity), and the 06xx block
//! (cross-design deployment):
//!
//! | Code | Rule |
//! |------|------|
//! | E0401 | guaranteed duplicate actuation within a design: shared trigger context or guaranteed shared root |
//! | W0401 | actuation conflict within a design without a shared trigger context or guaranteed shared root |
//! | W0402 | event-driven environment feedback loop |
//! | W0403 | feedback loop closed only through `get` reads |
//! | W0404 | aggregation window shorter than the delivery period |
//! | W0405 | unreachable context or controller |
//! | W0406 | dead device: family never sensed nor actuated |
//! | W0407 | one design's load exceeds a device family's `@qos(capacityPerHour)` budget |
//! | E0501 | component on zero or several nodes, or device family on none |
//! | E0502 | partition plan names an unknown node, component, or device |
//! | E0503 | dataflow route crosses between edge nodes without passing the coordinator |
//! | W0501 | component placed where none of its routes are node-local |
//! | E0601 | guaranteed cross-application duplicate actuation from one shared publication |
//! | W0601 | possible cross-application actuation conflict on overlapping device families |
//! | W0602 | aggregate co-deployed load exceeds a device family or cut-link capacity budget |
//! | E0602 | manifests pin a shared device family to conflicting attachment points |
//! | E0604 | periodic demand exceeds §VI's network capacity |
//! | W0605 | periodic demand uses more than 80 % of §VI's network capacity |
//!
//! # Examples
//!
//! ```
//! use diaspec_core::{compile_str, analysis::analyze};
//!
//! let spec = compile_str(r#"
//!     device Heater { source temperature as Float; action heat; }
//!     context Cold as Float { when provided temperature from Heater always publish; }
//!     controller Thermostat { when provided Cold do heat on Heater; }
//! "#)?;
//! let report = analyze(&spec);
//! // Heating changes the temperature the trigger context senses:
//! assert!(report.diagnostics.find("W0402").is_some());
//! assert!(report.conflict_free());
//! # Ok::<(), diaspec_core::diag::CompileError>(())
//! ```

pub mod conflicts;
pub mod deployment;
pub mod graph;
pub mod loops;
pub mod partition;
pub mod rates;
pub mod reach;

pub use conflicts::{ActuationConflict, ActuationSite, Coupling, SharedPublication};
pub use deployment::{
    analyze_deployment, CutViolation, DeployPins, DeploymentReport, DesignRef, MergedTaxonomy,
    PinnedHost,
};
pub use graph::DesignGraph;
pub use loops::{FeedbackLoop, LoopKind};
pub use partition::{CutRoute, PartitionNode, PartitionPlan, PartitionReport};
pub use rates::{CapacityReport, EdgeCapacity, LoadKind};
pub use reach::Reachability;

use crate::diag::Diagnostics;
use crate::model::CheckedSpec;

/// Tuning knobs for [`analyze_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisOptions {
    /// Fleet-size hypothesis for the capacity report: how many deployed
    /// devices to assume per referenced device family.
    pub fleet_size: u64,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions { fleet_size: 1000 }
    }
}

/// The combined result of all analysis passes.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// All findings, in pass order (conflicts, loops, reachability,
    /// rates), each with a stable code from the module table.
    pub diagnostics: Diagnostics,
    /// The shared dataflow graph the passes ran on.
    pub graph: DesignGraph,
    /// Actuation conflicts (E0401 / W0401).
    pub conflicts: Vec<ActuationConflict>,
    /// Environment feedback loops (W0402 / W0403).
    pub loops: Vec<FeedbackLoop>,
    /// Unreachable components and dead devices (W0405 / W0406).
    pub reachability: Reachability,
    /// Rate propagation under the fleet-size hypothesis.
    pub capacity: CapacityReport,
}

impl AnalysisReport {
    /// Whether no actuation conflict was found — the property the code
    /// generator advertises in generated framework headers.
    #[must_use]
    pub fn conflict_free(&self) -> bool {
        self.conflicts.is_empty()
    }
}

/// Runs every analysis pass with default [`AnalysisOptions`].
#[must_use]
pub fn analyze(spec: &CheckedSpec) -> AnalysisReport {
    analyze_with(spec, &AnalysisOptions::default())
}

/// Runs every analysis pass with explicit options.
#[must_use]
pub fn analyze_with(spec: &CheckedSpec, options: &AnalysisOptions) -> AnalysisReport {
    let graph = DesignGraph::build(spec);
    let mut diagnostics = Diagnostics::new();
    let conflicts = conflicts::detect_design(spec, &graph, &mut diagnostics);
    let loops = loops::detect(spec, &graph, &mut diagnostics);
    let reachability = reach::detect(spec, &graph, &mut diagnostics);
    let capacity = rates::detect(spec, &graph, options.fleet_size, &mut diagnostics);
    // The budget pass over one design and no manifest: every overload is
    // the design's own.
    let design = [DesignRef { name: "", spec }];
    let graphs = std::slice::from_ref(&graph);
    let loads = std::slice::from_ref(&capacity.edges);
    let fleet = |_: &str| options.fleet_size;
    diagnostics.extend(rates::judge(&design, graphs, loads, &fleet, &[], None).alone);
    AnalysisReport {
        diagnostics,
        graph,
        conflicts,
        loops,
        reachability,
        capacity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_str;

    #[test]
    fn clean_design_reports_nothing() {
        let spec = compile_str(
            r#"
            device Sensor { source motion as Boolean; }
            device Light { action lit; }
            context Presence as Boolean { when provided motion from Sensor always publish; }
            controller Lights { when provided Presence do lit on Light; }
            "#,
        )
        .unwrap();
        let report = analyze(&spec);
        assert!(report.diagnostics.is_empty());
        assert!(report.conflict_free());
        assert!(report.loops.is_empty());
        assert!(report.reachability.dead_devices.is_empty());
    }

    #[test]
    fn passes_compose_in_one_report() {
        let spec = compile_str(
            r#"
            device Heater { source temperature as Float; action heat; }
            device Ghost { source boo as String; }
            context Cold as Float { when provided temperature from Heater always publish; }
            controller A { when provided Cold do heat on Heater; }
            controller B { when provided Cold do heat on Heater; }
            "#,
        )
        .unwrap();
        let report = analyze(&spec);
        // One conflict (A vs B, same trigger), two loops (one per do
        // clause), one dead device.
        assert_eq!(report.conflicts.len(), 1);
        assert_eq!(report.conflicts[0].coupling, Coupling::SameContext);
        assert_eq!(report.loops.len(), 2);
        assert_eq!(report.reachability.dead_devices, vec!["Ghost"]);
        assert!(report.diagnostics.find("E0401").is_some());
        assert!(report.diagnostics.find("W0402").is_some());
        assert!(report.diagnostics.find("W0406").is_some());
    }

    #[test]
    fn fleet_size_option_reaches_capacity_report() {
        let spec = compile_str(
            r#"
            device Meter { source reading as Float; }
            device K { action a; }
            context Usage as Float { when periodic reading from Meter <1 min> always publish; }
            controller Out { when provided Usage do a on K; }
            "#,
        )
        .unwrap();
        let report = analyze_with(&spec, &AnalysisOptions { fleet_size: 7 });
        let capacity = &report.capacity;
        assert_eq!(capacity.fleet_size, 7);
        // Meter.reading at 60/h per device, then (Out) -> K.a() per meter
        // batch and per K: 7 x 60 + 60 + 7 x 60.
        assert_eq!(capacity.total_msgs_per_hour, 900.0);
    }
}

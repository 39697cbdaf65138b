//! Functional-chain analysis.
//!
//! Paper §II describes an application design as a set of *functional
//! chains* "from device sources to device actions" (Figure 3). This module
//! recovers those chains from a [`CheckedSpec`]: every path that starts at
//! a device source, flows through one or more contexts, reaches a
//! controller, and ends at a device action.
//!
//! Chains are used by documentation tooling, by tests that assert a design
//! is fully wired, and by the runtime to pre-compute routing tables.

use crate::model::CheckedSpec;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One step of a functional chain.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChainStep {
    /// The originating device source.
    Source {
        /// Device name.
        device: String,
        /// Source name.
        source: String,
    },
    /// A context that processes the data.
    Context(String),
    /// The controller that computes effects.
    Controller(String),
    /// The final device action.
    Action {
        /// Device name.
        device: String,
        /// Action name.
        action: String,
    },
}

impl fmt::Display for ChainStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainStep::Source { device, source } => write!(f, "{device}.{source}"),
            ChainStep::Context(name) => write!(f, "[{name}]"),
            ChainStep::Controller(name) => write!(f, "({name})"),
            ChainStep::Action { device, action } => write!(f, "{device}.{action}()"),
        }
    }
}

/// A complete functional chain: source → contexts… → controller → action.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FunctionalChain {
    /// Steps in flow order. Always starts with [`ChainStep::Source`] and
    /// ends with [`ChainStep::Action`].
    pub steps: Vec<ChainStep>,
}

impl FunctionalChain {
    /// The contexts traversed, in order.
    pub fn contexts(&self) -> impl Iterator<Item = &str> {
        self.steps.iter().filter_map(|s| match s {
            ChainStep::Context(name) => Some(name.as_str()),
            _ => None,
        })
    }

    /// Number of steps in the chain.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the chain has no steps (never true for chains produced by
    /// [`functional_chains`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

impl fmt::Display for FunctionalChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, step) in self.steps.iter().enumerate() {
            if i > 0 {
                f.write_str(" -> ")?;
            }
            write!(f, "{step}")?;
        }
        Ok(())
    }
}

/// Computes every functional chain of a checked specification.
///
/// A chain follows *event-driven* edges only (`when provided` / `when
/// periodic` subscriptions and controller `do` clauses); query-driven
/// (`get`) inputs are auxiliary reads, not flow, matching the straight
/// vs. loop arrow distinction of the paper's Figure 3.
///
/// The checker guarantees the subscription graph is acyclic, so
/// enumeration terminates. Chains are returned in deterministic order.
///
/// # Examples
///
/// ```
/// use diaspec_core::{compile_str, chains::functional_chains};
///
/// let model = compile_str(r#"
///     device Clock { source tick as Integer; }
///     device Siren { action wail; }
///     context Overdue as Integer { when provided tick from Clock maybe publish; }
///     controller Alarm { when provided Overdue do wail on Siren; }
/// "#)?;
/// let chains = functional_chains(&model);
/// assert_eq!(chains.len(), 1);
/// assert_eq!(chains[0].to_string(), "Clock.tick -> [Overdue] -> (Alarm) -> Siren.wail()");
/// # Ok::<(), diaspec_core::diag::CompileError>(())
/// ```
#[must_use]
pub fn functional_chains(spec: &CheckedSpec) -> Vec<FunctionalChain> {
    let mut chains = Vec::new();
    for device in spec.devices() {
        for source in device
            .sources
            .iter()
            .filter(|s| s.declared_in == device.name)
        {
            // Only start chains at sources the device declares itself;
            // otherwise every subclass would duplicate its parent's chains.
            // Subscriptions against ancestors are still found because
            // `subscribers_of_source` walks the hierarchy.
            let mut prefix = vec![ChainStep::Source {
                device: device.name.clone(),
                source: source.name.clone(),
            }];
            extend_from_source(spec, &device.name, &source.name, &mut prefix, &mut chains);
        }
    }
    chains
}

fn extend_from_source(
    spec: &CheckedSpec,
    device: &str,
    source: &str,
    prefix: &mut Vec<ChainStep>,
    chains: &mut Vec<FunctionalChain>,
) {
    for ctx in spec.subscribers_of_source(device, source) {
        prefix.push(ChainStep::Context(ctx.name.clone()));
        extend_from_context(spec, &ctx.name, prefix, chains);
        prefix.pop();
    }
}

fn extend_from_context(
    spec: &CheckedSpec,
    context: &str,
    prefix: &mut Vec<ChainStep>,
    chains: &mut Vec<FunctionalChain>,
) {
    use crate::model::Subscriber;
    for sub in spec.subscribers_of_context(context) {
        match sub {
            Subscriber::Context(next) => {
                prefix.push(ChainStep::Context(next.clone()));
                extend_from_context(spec, &next, prefix, chains);
                prefix.pop();
            }
            Subscriber::Controller(name) => {
                let ctrl = spec.controller(&name).expect("subscriber exists");
                for binding in &ctrl.bindings {
                    if binding.context != context {
                        continue;
                    }
                    for (action, target) in &binding.actions {
                        let mut steps = prefix.clone();
                        steps.push(ChainStep::Controller(name.clone()));
                        steps.push(ChainStep::Action {
                            device: target.clone(),
                            action: action.clone(),
                        });
                        chains.push(FunctionalChain { steps });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_str;

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
    fn cooker_design_has_two_chains() {
        let model = compile_str(COOKER).unwrap();
        let chains = functional_chains(&model);
        let rendered: Vec<String> = chains.iter().map(ToString::to_string).collect();
        assert_eq!(
            rendered,
            vec![
                "Clock.tickSecond -> [Alert] -> (Notify) -> TvPrompter.askQuestion()",
                "TvPrompter.answer -> [RemoteTurnOff] -> (TurnOff) -> Cooker.Off()",
            ],
            "the two functional chains of Figure 3"
        );
    }

    #[test]
    fn gets_are_not_chain_edges() {
        let model = compile_str(COOKER).unwrap();
        let chains = functional_chains(&model);
        // Cooker.consumption is only read via `get`; it must not start a chain.
        assert!(chains
            .iter()
            .all(|c| !c.to_string().starts_with("Cooker.consumption")));
    }

    #[test]
    fn multi_context_chain() {
        let model = compile_str(
            r#"
            device Sensor { source v as Integer; }
            device Sink { action absorb; }
            context First as Integer { when provided v from Sensor always publish; }
            context Second as Integer { when provided First always publish; }
            controller End { when provided Second do absorb on Sink; }
            "#,
        )
        .unwrap();
        let chains = functional_chains(&model);
        assert_eq!(chains.len(), 1);
        assert_eq!(
            chains[0].contexts().collect::<Vec<_>>(),
            vec!["First", "Second"]
        );
        assert_eq!(chains[0].len(), 5);
        assert!(!chains[0].is_empty());
    }

    #[test]
    fn fan_out_produces_multiple_chains() {
        let model = compile_str(
            r#"
            device Sensor { source v as Integer; }
            device A { action a1; }
            device B { action b1; }
            context C as Integer { when provided v from Sensor always publish; }
            controller CtlA { when provided C do a1 on A; }
            controller CtlB { when provided C do b1 on B; }
            "#,
        )
        .unwrap();
        let chains = functional_chains(&model);
        assert_eq!(chains.len(), 2);
    }

    #[test]
    fn multiple_do_clauses_produce_one_chain_each() {
        let model = compile_str(
            r#"
            device Sensor { source v as Integer; }
            device Door { action unlock; }
            device Light { action flash; }
            context Fire as Boolean { when provided v from Sensor maybe publish; }
            controller Evacuate {
              when provided Fire do unlock on Door do flash on Light;
            }
            "#,
        )
        .unwrap();
        let chains = functional_chains(&model);
        assert_eq!(chains.len(), 2);
    }

    #[test]
    fn subscription_via_ancestor_found_once_per_subclass_source() {
        let model = compile_str(
            r#"
            device BaseSensor { source reading as Float; }
            device RoomSensor extends BaseSensor { attribute room as String; }
            device Sink { action absorb; }
            context C as Float { when provided reading from BaseSensor always publish; }
            controller Ctl { when provided C do absorb on Sink; }
            "#,
        )
        .unwrap();
        let chains = functional_chains(&model);
        // The source is declared once (on BaseSensor); the chain starts there.
        assert_eq!(chains.len(), 1);
        assert!(chains[0].to_string().starts_with("BaseSensor.reading"));
    }

    #[test]
    fn chains_serialize() {
        let model = compile_str(COOKER).unwrap();
        let chains = functional_chains(&model);
        let json = serde_json::to_string(&chains).unwrap();
        let back: Vec<FunctionalChain> = serde_json::from_str(&json).unwrap();
        assert_eq!(chains, back);
    }
}

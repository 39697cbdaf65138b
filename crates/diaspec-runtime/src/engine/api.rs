//! Component registration, the component-facing facades, and the runtime
//! conformance checks behind them.
//!
//! The engine hands these facades to registered logic: [`ContextApi`] to
//! context activations, [`ControllerApi`] to controller activations, and
//! [`ProcessApi`] to simulation processes. Each facade validates every
//! read or actuation against the calling component's *declared*
//! interactions (`get` clauses, `do ... on ...` bindings), enforcing the
//! paper's Sense-Compute-Control conformance at runtime: a component
//! cannot touch data or devices its design does not declare.

use crate::clock::SimTime;
use crate::component::{ContextLogic, ControllerLogic, MapReduceLogic};
use crate::engine::design::Design;
use crate::engine::Orchestrator;
use crate::entity::{AttributeMap, DeviceInstance, EntityId};
use crate::error::RuntimeError;
use crate::obs::Activity;
use crate::spans::SpanStage;
use crate::trace::TraceKind;
use crate::value::Value;
use diaspec_core::model::InputRef;
use std::sync::Arc;

impl Orchestrator {
    /// Registers the logic of a declared context.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Unknown`] if the context is not declared,
    /// [`RuntimeError::Configuration`] if logic was already registered.
    pub fn register_context(
        &mut self,
        name: &str,
        logic: impl ContextLogic + 'static,
    ) -> Result<(), RuntimeError> {
        let id = self
            .design
            .contexts
            .id(name)
            .ok_or_else(|| RuntimeError::Unknown {
                kind: "context",
                name: name.to_owned(),
            })?;
        let runtime = &mut self.contexts[id as usize];
        if runtime.logic.is_some() {
            return Err(RuntimeError::Configuration(format!(
                "context `{name}` already has logic registered"
            )));
        }
        runtime.logic = Some(Box::new(logic));
        Ok(())
    }

    /// Registers the MapReduce phases of a context whose design declares
    /// `with map ... reduce ...`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Unknown`] if the context is not declared,
    /// [`RuntimeError::Configuration`] if the design declares no MapReduce
    /// for it or phases were already registered.
    pub fn register_map_reduce(
        &mut self,
        name: &str,
        logic: impl MapReduceLogic + 'static,
    ) -> Result<(), RuntimeError> {
        let id = self
            .design
            .contexts
            .id(name)
            .ok_or_else(|| RuntimeError::Unknown {
                kind: "context",
                name: name.to_owned(),
            })?;
        if !self.design.context(id).map_reduce {
            return Err(RuntimeError::Configuration(format!(
                "context `{name}` declares no `with map ... reduce ...` clause"
            )));
        }
        let runtime = &mut self.contexts[id as usize];
        if runtime.map_reduce.is_some() {
            return Err(RuntimeError::Configuration(format!(
                "context `{name}` already has MapReduce phases registered"
            )));
        }
        runtime.map_reduce = Some(Arc::new(logic));
        Ok(())
    }

    /// Registers the logic of a declared controller.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Unknown`] if the controller is not declared,
    /// [`RuntimeError::Configuration`] if logic was already registered.
    pub fn register_controller(
        &mut self,
        name: &str,
        logic: impl ControllerLogic + 'static,
    ) -> Result<(), RuntimeError> {
        let id = self
            .design
            .controllers
            .id(name)
            .ok_or_else(|| RuntimeError::Unknown {
                kind: "controller",
                name: name.to_owned(),
            })?;
        let runtime = &mut self.controllers[id as usize];
        if runtime.logic.is_some() {
            return Err(RuntimeError::Configuration(format!(
                "controller `{name}` already has logic registered"
            )));
        }
        runtime.logic = Some(Box::new(logic));
        Ok(())
    }

    /// Whether `context` declares a `get` of the given device source
    /// (directly or against an ancestor device).
    fn context_declares_source_get(&self, context: &str, device: &str, source: &str) -> bool {
        let Some(ctx) = self.spec.context(context) else {
            return false;
        };
        ctx.activations.iter().any(|a| {
            a.gets.iter().any(|g| match g {
                InputRef::DeviceSource {
                    device: d,
                    source: s,
                } => s == source && self.spec.device_is_subtype(device, d),
                InputRef::Context(_) => false,
            })
        })
    }

    fn context_declares_context_get(&self, context: &str, target: &str) -> bool {
        let Some(ctx) = self.spec.context(context) else {
            return false;
        };
        ctx.activations.iter().any(|a| {
            a.gets
                .iter()
                .any(|g| matches!(g, InputRef::Context(c) if c == target))
        })
    }
}

/// The query facade handed to
/// [`ContextLogic`](crate::component::ContextLogic) activations: the
/// runtime counterpart of the generated `discover` parameter in the
/// paper's Figure 9.
///
/// Every read is validated against the calling context's declared `get`
/// clauses — a context cannot read data its design does not declare
/// (design/implementation conformance, paper §V).
pub struct ContextApi<'a> {
    pub(crate) engine: &'a mut Orchestrator,
    pub(crate) context: &'a str,
}

impl ContextApi<'_> {
    /// Current simulation time in milliseconds.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.engine.queue.now()
    }

    /// Query-driven read of a device source (`get src from Dev`): returns
    /// the current reading of every bound entity of the device family, in
    /// deterministic entity order.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ContractViolation`] if the context's design does
    /// not declare this `get`; device errors surface per the `@error`
    /// policy.
    pub fn get_device_source(
        &mut self,
        device_type: &str,
        source: &str,
    ) -> Result<Vec<(EntityId, Value)>, RuntimeError> {
        if !self
            .engine
            .context_declares_source_get(self.context, device_type, source)
        {
            return Err(RuntimeError::ContractViolation {
                component: self.context.to_owned(),
                message: format!("design declares no `get {source} from {device_type}`"),
            });
        }
        let now = self.engine.queue.now();
        let mut out = Vec::new();
        let read = self
            .engine
            .registry
            .query_family(device_type, source, now, &mut out);
        // Readings served before a failure count, as they did one by one.
        self.engine.metrics.component_queries += out.len() as u64;
        read?;
        Ok(out)
    }

    /// Query-driven read of a single entity's source.
    ///
    /// # Errors
    ///
    /// As [`ContextApi::get_device_source`], plus
    /// [`RuntimeError::Unknown`] for an unbound entity.
    pub fn get_entity_source(
        &mut self,
        entity: &EntityId,
        source: &str,
    ) -> Result<Option<Value>, RuntimeError> {
        let device_type = self
            .engine
            .registry
            .entity(entity)
            .ok_or_else(|| RuntimeError::Unknown {
                kind: "entity",
                name: entity.to_string(),
            })?
            .device_type
            .clone();
        if !self
            .engine
            .context_declares_source_get(self.context, &device_type, source)
        {
            return Err(RuntimeError::ContractViolation {
                component: self.context.to_owned(),
                message: format!("design declares no `get {source} from {device_type}`"),
            });
        }
        let now = self.engine.queue.now();
        let value = self.engine.registry.query_source(entity, source, now)?;
        if value.is_some() {
            self.engine.metrics.component_queries += 1;
        }
        Ok(value)
    }

    /// Pulls the current value of another context (`get Ctx`); the target
    /// must declare `when required`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ContractViolation`] if this context's design does
    /// not declare `get <target>`, or the computation fails.
    pub fn get_context(&mut self, target: &str) -> Result<Value, RuntimeError> {
        if !self
            .engine
            .context_declares_context_get(self.context, target)
        {
            return Err(RuntimeError::ContractViolation {
                component: self.context.to_owned(),
                message: format!("design declares no `get {target}`"),
            });
        }
        self.engine.metrics.component_queries += 1;
        self.engine.compute_on_demand(target)
    }

    /// Attribute-filtered discovery (read-only), e.g. to learn which
    /// entities exist in a group.
    #[must_use]
    pub fn discover(&self, device_type: &str) -> crate::registry::DiscoveryQuery<'_> {
        self.engine.registry.discover(device_type)
    }
}

/// The actuation facade handed to
/// [`ControllerLogic`](crate::component::ControllerLogic) activations:
/// the runtime counterpart of the generated discover object in the
/// paper's Figure 11.
///
/// Actuation is validated against the controller's declared `do ... on
/// ...` clauses, enforcing the Sense-Compute-Control layering at runtime.
pub struct ControllerApi<'a> {
    pub(crate) engine: &'a mut Orchestrator,
    /// The compiled design, held by the dispatching stage.
    pub(crate) design: &'a Design,
    /// The controller's id in the compiled design.
    pub(crate) id: u32,
    pub(crate) controller: &'a str,
}

impl ControllerApi<'_> {
    /// Current simulation time in milliseconds.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.engine.queue.now()
    }

    /// Discovers entities of a device type this controller actuates.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ContractViolation`] if the controller's design
    /// declares no action on that device family.
    pub fn discover(
        &self,
        device_type: &str,
    ) -> Result<crate::registry::DiscoveryQuery<'_>, RuntimeError> {
        if !self.design.addresses(self.id, device_type) {
            return Err(RuntimeError::ContractViolation {
                component: self.controller.to_owned(),
                message: format!("design declares no action on device `{device_type}`"),
            });
        }
        Ok(self.engine.registry.discover(device_type))
    }

    /// Invokes a declared action on an entity.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ContractViolation`] if the action/device pair is
    /// not declared by this controller (SCC enforcement); otherwise see
    /// [`crate::registry::Registry::invoke`].
    pub fn invoke(
        &mut self,
        entity: &EntityId,
        action: &str,
        args: &[Value],
    ) -> Result<(), RuntimeError> {
        let design = self.design;
        let now = self.engine.queue.now();
        // The actuate span nests inside the controller's open compute
        // span; a failed invocation abandons the scope unrecorded.
        let cursor = self.engine.span_cursor;
        let actuate = self
            .engine
            .leaf(cursor, SpanStage::Actuate, Some(Activity::Actuating));
        let fallbacks_before = self.engine.registry.stats().fallback_invocations;
        // One entity lookup: the registry hands the bound device type to
        // the declared-contract check before it validates the call.
        let permits = |ty| {
            if design.may_invoke(self.id, ty, action) {
                return Ok(());
            }
            Err(RuntimeError::ContractViolation {
                component: self.controller.to_owned(),
                message: format!(
                    "design declares no `do {action} on {}`",
                    design.types.name(ty)
                ),
            })
        };
        let ty = self
            .engine
            .registry
            .invoke_permitted(entity, action, args, now, permits)?;
        let device_type = design.types.name(ty);
        self.engine
            .end_leaf(actuate, || format!("{device_type}.{action}").into());
        self.engine.metrics.actuations += 1;
        self.engine.note(|| TraceKind::Actuation {
            entity: entity.to_string(),
            action: action.to_owned(),
        });
        // The registry masked the failure with the device's declared
        // `@error(fallback = ...)` action: surface it as a recovery event.
        let masked = self.engine.registry.stats().fallback_invocations - fallbacks_before;
        if masked > 0 {
            self.engine.metrics.fallback_actuations += masked;
            let fallback = self
                .engine
                .registry
                .error_policy(ty)
                .fallback
                .clone()
                .unwrap_or_default();
            self.engine.note(|| TraceKind::FallbackActuation {
                entity: entity.to_string(),
                action: fallback.clone(),
            });
            // A masked fallback is a recovery episode inside the same
            // trace: a sibling of the actuate span.
            self.engine.point(
                cursor,
                SpanStage::Recover,
                || format!("{device_type}.{fallback}").into(),
                now,
                now,
            );
        }
        Ok(())
    }
}

/// The facade handed to simulation [`Process`](crate::process::Process)es.
pub struct ProcessApi<'a> {
    pub(crate) engine: &'a mut Orchestrator,
}

impl ProcessApi<'_> {
    /// Current simulation time in milliseconds.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.engine.queue.now()
    }

    /// Emits a source value from an entity (event-driven delivery).
    ///
    /// # Errors
    ///
    /// See [`Orchestrator::emit_at`].
    pub fn emit(
        &mut self,
        entity: &EntityId,
        source: &str,
        value: Value,
        index: Option<Value>,
    ) -> Result<(), RuntimeError> {
        let now = self.engine.queue.now();
        self.engine.emit_at(now, entity, source, value, index)
    }

    /// Binds a new entity at runtime (paper §IV: runtime binding).
    ///
    /// # Errors
    ///
    /// See [`crate::registry::Registry::bind`].
    pub fn bind_entity(
        &mut self,
        id: EntityId,
        device_type: &str,
        attributes: AttributeMap,
        driver: Box<dyn DeviceInstance>,
    ) -> Result<(), RuntimeError> {
        self.engine.bind_entity(id, device_type, attributes, driver)
    }

    /// Unbinds an entity at runtime.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Unknown`] if the entity is not bound.
    pub fn unbind_entity(&mut self, id: &EntityId) -> Result<(), RuntimeError> {
        self.engine.unbind_entity(id)
    }

    /// Read-only discovery, letting environment models inspect the world.
    #[must_use]
    pub fn discover(&self, device_type: &str) -> crate::registry::DiscoveryQuery<'_> {
        self.engine.registry.discover(device_type)
    }
}

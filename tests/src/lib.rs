//! Cross-crate integration tests live in tests/; this library holds the
//! generic wiring more than one of them runs designs with.

pub mod multi;

use diaspec_core::model::{ActivationTrigger, CheckedSpec, Context, PublishMode};
use diaspec_core::types::Type;
use diaspec_runtime::component::{ContextActivation, MapReduceLogic};
use diaspec_runtime::engine::{ContextApi, ControllerApi, Orchestrator};
use diaspec_runtime::error::RuntimeError;
use diaspec_runtime::value::Value;
use std::sync::Arc;

/// A placeholder value of `ty` that conforms to it: the generic
/// components only produce traffic, so the payloads are irrelevant, but
/// the engine type-checks every reading, publication and argument.
#[must_use]
pub fn placeholder(spec: &CheckedSpec, ty: &Type) -> Value {
    match ty {
        Type::Integer => Value::Int(0),
        Type::Float => Value::Float(0.0),
        Type::Boolean => Value::Bool(false),
        Type::String => Value::Str("probe".to_owned()),
        Type::Array(_) => Value::Array(Vec::new()),
        Type::Enum(name) => {
            let variant = spec.enumeration(name).and_then(|e| e.variants.first());
            Value::enum_value(name.as_str(), variant.map_or("", String::as_str))
        }
        Type::Struct(name) => Value::Struct {
            structure: name.clone(),
            fields: spec
                .structure(name)
                .map(|s| {
                    s.fields
                        .iter()
                        .map(|(field, ty)| (field.clone(), placeholder(spec, ty)))
                        .collect()
                })
                .unwrap_or_default(),
        },
    }
}

/// How much the generic components of [`register_with`] publish: the two
/// bounds a design's publish modes put on any implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Publishing {
    /// On every activation whose clause may publish (`always` or `maybe
    /// publish`): the most any implementation is allowed to do.
    Allowed,
    /// Only on `always publish` clauses: the least any implementation is
    /// obliged to do.
    Obliged,
}

/// Whether `ctx` publishes on `activation` under `publishing`: never when
/// the clause that triggered it is `no publish`, and an on-demand
/// computation always answers its `get`.
fn publishes(
    spec: &CheckedSpec,
    ctx: &Context,
    activation: &ContextActivation<'_>,
    publishing: Publishing,
) -> bool {
    let clause = ctx
        .activations
        .iter()
        .find(|a| match (&a.trigger, activation) {
            (ActivationTrigger::Context(from), ContextActivation::ContextEvent { context, .. }) => {
                from == context
            }
            (
                ActivationTrigger::DeviceSource { device, source },
                ContextActivation::SourceEvent {
                    device_type,
                    source: emitted,
                    ..
                },
            ) => source == emitted && spec.device_is_subtype(device_type, device),
            (
                ActivationTrigger::Periodic { device, source, .. },
                ContextActivation::Batch(batch),
            ) => *source == batch.source && spec.device_is_subtype(&batch.device_type, device),
            _ => false,
        });
    clause.is_none_or(|a| match publishing {
        Publishing::Allowed => a.publish != PublishMode::No,
        Publishing::Obliged => a.publish == PublishMode::Always,
    })
}

/// The MapReduce phases of a generic `with map ... reduce ...` context:
/// map emits nothing, so the context sees an empty reduction.
struct NoRecords;

impl MapReduceLogic for NoRecords {
    fn map(&self, _group: &Value, _reading: &Value, _emit: &mut dyn FnMut(Value, Value)) {}

    fn reduce(&self, _key: &Value, _values: &[Value]) -> Value {
        Value::Int(0)
    }
}

/// Registers every component of `spec` generically: each context
/// publishes a placeholder of its output type on every activation that
/// may publish, each controller performs each declared `do` clause on
/// every discovered entity of the target family. This is the most any
/// concrete implementation is contractually allowed to do, so the
/// observed publications and actuations are exactly the ones the design
/// declares.
///
/// # Errors
///
/// Propagates a registration [`RuntimeError`] (an undeclared component).
pub fn register_all(orch: &mut Orchestrator, spec: &CheckedSpec) -> Result<(), RuntimeError> {
    register_with(orch, spec, Publishing::Allowed)
}

/// [`register_all`] with the contexts publishing under `publishing`; a
/// context that declares MapReduce phases gets ones whose map emits
/// nothing.
///
/// # Errors
///
/// Propagates a registration [`RuntimeError`] (an undeclared component).
pub fn register_with(
    orch: &mut Orchestrator,
    spec: &CheckedSpec,
    publishing: Publishing,
) -> Result<(), RuntimeError> {
    let shared = Arc::new(spec.clone());
    for ctx in spec.contexts() {
        let value = placeholder(spec, &ctx.output);
        let (spec, name) = (Arc::clone(&shared), ctx.name.clone());
        orch.register_context(
            &ctx.name,
            move |_api: &mut ContextApi<'_>, activation: ContextActivation<'_>| {
                let ctx = spec
                    .context(&name)
                    .expect("registered contexts are declared");
                Ok(publishes(&spec, ctx, &activation, publishing).then(|| value.clone()))
            },
        )?;
        let map_reduce = ctx
            .activations
            .iter()
            .any(|a| a.grouping.as_ref().is_some_and(|g| g.map_reduce.is_some()));
        if map_reduce {
            orch.register_map_reduce(&ctx.name, NoRecords)?;
        }
    }
    for ctrl in spec.controllers() {
        let acts: Vec<(String, String, Vec<Value>)> = ctrl
            .bindings
            .iter()
            .flat_map(|b| b.actions.iter())
            .map(|(action, device)| {
                let args = spec
                    .device(device)
                    .and_then(|d| d.action(action))
                    .map(|a| {
                        a.params
                            .iter()
                            .map(|(_, ty)| placeholder(spec, ty))
                            .collect()
                    })
                    .unwrap_or_default();
                (action.clone(), device.clone(), args)
            })
            .collect();
        orch.register_controller(
            &ctrl.name,
            move |api: &mut ControllerApi<'_>, _context: &str, _value: &Value| {
                for (action, device, args) in &acts {
                    for id in api.discover(device)?.ids() {
                        api.invoke(&id, action, args)?;
                    }
                }
                Ok(())
            },
        )?;
    }
    Ok(())
}

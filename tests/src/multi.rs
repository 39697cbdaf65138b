//! Shared-fleet co-deployment harness: several applications over one
//! physical device fleet.
//!
//! The cross-design static passes ([`diaspec_core::analysis::deployment`])
//! predict what happens when independently designed applications are
//! deployed over the *same* devices — most importantly E0601, a
//! guaranteed cross-application duplicate actuation. This module is the
//! dynamic counterpart: it runs one [`Orchestrator`] per application,
//! mirrors each physical device binding and each physical source
//! publication into every application that observes it, and then
//! attributes the resulting actuations back to their applications so a
//! test can check the static verdict against observed behavior.
//!
//! A fleet of one application is the single-design case: the same
//! harness witnesses the conflicts within one design.
//!
//! The fleet is deliberately *not* one merged orchestrator: each
//! application keeps its own engine, queue, and trace, exactly as
//! separately deployed processes would, and only the physical world
//! (bindings and emissions) is shared.

use diaspec_core::analysis::deployment::{DesignRef, MergedTaxonomy};
use diaspec_core::model::CheckedSpec;
use diaspec_runtime::engine::Orchestrator;
use diaspec_runtime::entity::{AttributeMap, DeviceInstance, EntityId};
use diaspec_runtime::error::RuntimeError;
use diaspec_runtime::trace::TraceKind;
use diaspec_runtime::value::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One application in the fleet.
struct App {
    name: String,
    spec: Arc<CheckedSpec>,
    orch: Orchestrator,
    /// Device type of each physically-shared entity bound into this app.
    bound: BTreeMap<String, String>,
}

/// A physical device action performed during a run, counted per
/// application. Performed by more than one application, it is the
/// dynamic witness of a cross-application conflict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossActuation {
    /// The actuated physical entity.
    pub entity: String,
    /// The performed action.
    pub action: String,
    /// Actuation counts per application, sorted by application name.
    pub per_design: Vec<(String, usize)>,
}

impl CrossActuation {
    /// Total actuations of this entity/action across all applications.
    #[must_use]
    pub fn total(&self) -> usize {
        self.per_design.iter().map(|(_, n)| n).sum()
    }
}

/// Several orchestrators sharing one physical device fleet.
#[derive(Default)]
pub struct SharedFleet {
    apps: Vec<App>,
}

impl SharedFleet {
    /// Creates an empty fleet.
    #[must_use]
    pub fn new() -> Self {
        SharedFleet::default()
    }

    /// Adds an application: builds its orchestrator and hands it to
    /// `configure` for context/controller registration.
    ///
    /// # Errors
    ///
    /// Whatever `configure` returns, plus [`RuntimeError::Configuration`]
    /// when the name is already taken.
    pub fn add_app(
        &mut self,
        name: &str,
        spec: Arc<CheckedSpec>,
        configure: impl FnOnce(&mut Orchestrator) -> Result<(), RuntimeError>,
    ) -> Result<(), RuntimeError> {
        if self.apps.iter().any(|app| app.name == name) {
            return Err(RuntimeError::Configuration(format!(
                "application `{name}` is already part of the fleet"
            )));
        }
        let mut orch = Orchestrator::new(Arc::clone(&spec));
        // Cross-application attribution reads the trace, so the harness
        // keeps tracing on for every member application.
        orch.set_tracing(true);
        configure(&mut orch)?;
        self.apps.push(App {
            name: name.to_owned(),
            spec,
            orch,
            bound: BTreeMap::new(),
        });
        Ok(())
    }

    /// Direct access to one application's orchestrator (for metrics,
    /// app-private bindings, or emissions only it should see).
    pub fn app(&mut self, name: &str) -> Option<&mut Orchestrator> {
        self.apps
            .iter_mut()
            .find(|app| app.name == name)
            .map(|app| &mut app.orch)
    }

    /// Launches every application.
    ///
    /// # Errors
    ///
    /// The first launch error, if any.
    pub fn launch(&mut self) -> Result<(), RuntimeError> {
        for app in &mut self.apps {
            app.orch.launch()?;
        }
        Ok(())
    }

    /// Binds one *physical* device into every application whose design
    /// declares its type or an ancestor of it, calling `driver` once per
    /// application (each orchestrator owns its driver, like separately
    /// deployed proxies for the same hardware). A design that declares
    /// only ancestors binds the entity under the nearest one in the fleet's
    /// merged taxonomy, with the attributes that ancestor declares: a
    /// design actuating a `Vent` family reaches an `EmergencyVent` only
    /// its partner declares. Returns how many applications bound it.
    ///
    /// # Errors
    ///
    /// The first binding error, if any.
    pub fn bind_shared(
        &mut self,
        id: &str,
        device: &str,
        attributes: &AttributeMap,
        mut driver: impl FnMut() -> Box<dyn DeviceInstance>,
    ) -> Result<usize, RuntimeError> {
        let refs: Vec<DesignRef<'_>> = self
            .apps
            .iter()
            .map(|app| DesignRef {
                name: &app.name,
                spec: &app.spec,
            })
            .collect();
        let taxonomy = MergedTaxonomy::build(&refs);
        let mut count = 0;
        for app in &mut self.apps {
            let nearest = app
                .spec
                .devices()
                .filter(|declared| taxonomy.is_subtype(device, &declared.name))
                .reduce(|a, b| {
                    if taxonomy.is_subtype(&a.name, &b.name) {
                        a
                    } else {
                        b
                    }
                });
            let Some(declared) = nearest else {
                continue;
            };
            let declared_attributes: AttributeMap = attributes
                .iter()
                .filter(|(name, _)| declared.attribute(name).is_some())
                .map(|(name, value)| (name.clone(), value.clone()))
                .collect();
            let ty = declared.name.clone();
            app.orch
                .bind_entity(EntityId::from(id), &ty, declared_attributes, driver())?;
            app.bound.insert(id.to_owned(), ty);
            count += 1;
        }
        Ok(count)
    }

    /// Mirrors one physical source publication into every application
    /// that has the entity bound and declares the source. Returns how
    /// many applications saw it.
    ///
    /// # Errors
    ///
    /// The first emission error, if any.
    pub fn emit_shared(
        &mut self,
        at: u64,
        id: &str,
        source: &str,
        value: &Value,
    ) -> Result<usize, RuntimeError> {
        let mut count = 0;
        for app in &mut self.apps {
            let Some(device) = app.bound.get(id) else {
                continue;
            };
            let declares = app
                .spec
                .device(device)
                .is_some_and(|d| d.sources.iter().any(|s| s.name == source));
            if !declares {
                continue;
            }
            app.orch
                .emit_at(at, &EntityId::from(id), source, value.clone(), None)?;
            count += 1;
        }
        Ok(count)
    }

    /// Advances every application to `deadline`.
    pub fn run_until(&mut self, deadline: u64) {
        for app in &mut self.apps {
            app.orch.run_until(deadline);
        }
    }

    /// Drains every application's trace and reports each shared
    /// entity/action pair that *more than one* application actuated —
    /// empty exactly when the run was free of cross-application
    /// duplicate actuations.
    pub fn cross_actuations(&mut self) -> Vec<CrossActuation> {
        let mut all = self.actuations();
        all.retain(|a| a.per_design.len() >= 2);
        all
    }

    /// Drains every application's trace and reports every entity/action
    /// pair any application actuated, with its per-application counts.
    pub fn actuations(&mut self) -> Vec<CrossActuation> {
        let mut by_target: BTreeMap<(String, String), BTreeMap<String, usize>> = BTreeMap::new();
        for app in &mut self.apps {
            for event in app.orch.take_trace() {
                if let TraceKind::Actuation { entity, action } = event.kind {
                    *by_target
                        .entry((entity, action))
                        .or_default()
                        .entry(app.name.clone())
                        .or_insert(0) += 1;
                }
            }
        }
        by_target
            .into_iter()
            .map(|((entity, action), designs)| CrossActuation {
                entity,
                action,
                per_design: designs.into_iter().collect(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diaspec_runtime::component::ContextActivation;
    use diaspec_runtime::engine::{ContextApi, ControllerApi};
    use diaspec_runtime::error::ComponentError;

    const APP_A: &str = r#"
        device Sensor { source motion as Boolean; }
        device Panel { action update(status as String); }
        context Presence as Boolean { when provided motion from Sensor always publish; }
        controller Board { when provided Presence do update on Panel; }
    "#;

    const APP_B: &str = r#"
        device Sensor { source motion as Boolean; }
        device Panel { action update(status as String); }
        device Siren { action sound; }
        context Sweep as Boolean { when provided motion from Sensor always publish; }
        controller Patrol { when provided Sweep do update on Panel; }
    "#;

    fn passthrough(
        _api: &mut ContextApi<'_>,
        activation: ContextActivation<'_>,
    ) -> Result<Option<Value>, ComponentError> {
        match activation {
            ContextActivation::SourceEvent { value, .. } => Ok(Some(value.clone())),
            _ => Ok(None),
        }
    }

    fn update_all_panels(
        api: &mut ControllerApi<'_>,
        _context: &str,
        _value: &Value,
    ) -> Result<(), ComponentError> {
        for panel in api.discover("Panel")?.ids() {
            api.invoke(&panel, "update", &[Value::Str("seen".to_owned())])?;
        }
        Ok(())
    }

    struct Inert;
    impl DeviceInstance for Inert {
        fn query(
            &mut self,
            _source: &str,
            _now: u64,
        ) -> Result<Value, diaspec_runtime::error::DeviceError> {
            Ok(Value::Bool(false))
        }
        fn invoke(
            &mut self,
            _action: &str,
            _args: &[Value],
            _now: u64,
        ) -> Result<(), diaspec_runtime::error::DeviceError> {
            Ok(())
        }
    }

    fn fleet() -> SharedFleet {
        let mut fleet = SharedFleet::new();
        let spec_a = Arc::new(diaspec_core::compile_str(APP_A).unwrap());
        let spec_b = Arc::new(diaspec_core::compile_str(APP_B).unwrap());
        fleet
            .add_app("climate", spec_a, |orch| {
                orch.register_context("Presence", passthrough)?;
                orch.register_controller("Board", update_all_panels)
            })
            .unwrap();
        fleet
            .add_app("security", spec_b, |orch| {
                orch.register_context("Sweep", passthrough)?;
                orch.register_controller("Patrol", update_all_panels)
            })
            .unwrap();
        fleet
    }

    #[test]
    fn shared_publication_reaches_every_observer_and_conflicts() {
        let mut fleet = fleet();
        let bound = fleet
            .bind_shared("motion-1", "Sensor", &AttributeMap::new(), || {
                Box::new(Inert)
            })
            .unwrap();
        assert_eq!(bound, 2);
        let panels = fleet
            .bind_shared("panel-1", "Panel", &AttributeMap::new(), || Box::new(Inert))
            .unwrap();
        assert_eq!(panels, 2);
        fleet.launch().unwrap();
        let seen = fleet
            .emit_shared(10, "motion-1", "motion", &Value::Bool(true))
            .unwrap();
        assert_eq!(seen, 2);
        fleet.run_until(1_000);
        let conflicts = fleet.cross_actuations();
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].entity, "panel-1");
        assert_eq!(conflicts[0].action, "update");
        assert_eq!(conflicts[0].total(), 2);
        assert_eq!(
            conflicts[0]
                .per_design
                .iter()
                .map(|(name, _)| name.as_str())
                .collect::<Vec<_>>(),
            vec!["climate", "security"]
        );
    }

    #[test]
    fn private_devices_stay_private() {
        let mut fleet = fleet();
        // Siren exists only in the security design.
        let bound = fleet
            .bind_shared("siren-1", "Siren", &AttributeMap::new(), || Box::new(Inert))
            .unwrap();
        assert_eq!(bound, 1);
    }

    #[test]
    fn duplicate_app_names_are_rejected() {
        let mut fleet = fleet();
        let spec = Arc::new(diaspec_core::compile_str(APP_A).unwrap());
        let err = fleet.add_app("climate", spec, |_| Ok(())).unwrap_err();
        assert!(err.to_string().contains("already part of the fleet"));
    }

    #[test]
    fn unshared_entities_are_skipped_on_emit() {
        let mut fleet = fleet();
        fleet.launch().unwrap();
        // Never bound anywhere: the emission reaches nobody, silently.
        let seen = fleet
            .emit_shared(5, "ghost", "motion", &Value::Bool(true))
            .unwrap();
        assert_eq!(seen, 0);
    }
}

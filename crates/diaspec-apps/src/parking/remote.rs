//! The parking design deployed from a manifest (`diaspec-gen deploy`):
//! what an edge node hosts for its slice, and what the coordinator binds
//! in its place. The distributed demo and the chaos soak (E21) both run
//! a deployment through these two functions, so the device ids, the bind
//! order and hence every link sequence number are the same in both.

use super::generated::{CityEntranceEnum, ParkingLotEnum};
use diaspec_codegen::deploy::{EdgeManifest, NodeManifest};
use diaspec_devices::common::{ActuationLog, RecordingActuator};
use diaspec_devices::parking::{ParkingCityModel, ParkingConfig, PresenceSensorDriver, UsageCurve};
use diaspec_runtime::deploy::{EdgeRuntime, Link, RemoteDeviceProxy};
use diaspec_runtime::entity::{AttributeMap, DeviceInstance};
use diaspec_runtime::value::Value;
use diaspec_runtime::Orchestrator;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A fresh replica of the deterministic city model. Every node builds
/// the same one (same seed), so lot trajectories agree everywhere.
#[must_use]
pub fn city_replica(sensors: usize) -> ParkingCityModel {
    let config = ParkingConfig {
        spaces_per_lot: sensors,
        ..ParkingConfig::default()
    };
    let lots = ParkingLotEnum::ALL.iter().map(|lot| lot.name());
    ParkingCityModel::new(lots, config, UsageCurve::default())
}

/// Builds one edge node's runtime: per shard lot, a presence sensor per
/// space then the lot's entrance panel, over a full model replica
/// stepped on coordinator ticks.
///
/// # Errors
///
/// Names the edge and the shard that is not a lot of the city.
pub fn edge_runtime(edge: &EdgeManifest, sensors: usize) -> Result<EdgeRuntime, String> {
    let mut model = city_replica(sensors);
    let mut runtime = EdgeRuntime::new(edge.name.clone());
    for lot in &edge.shards {
        let cell = model.lot(lot).ok_or_else(|| {
            format!(
                "manifest edge {}: shards holds `{lot}`, not a lot",
                edge.name
            )
        })?;
        for space in 0..sensors {
            runtime.add_device(
                format!("presence-{lot}-{space}"),
                Box::new(PresenceSensorDriver::new(cell.clone(), space)),
            );
        }
        runtime.add_device(
            format!("panel-{lot}"),
            Box::new(RecordingActuator::new(ActuationLog::new())),
        );
    }
    runtime.on_tick(move |now| model.step(now));
    Ok(runtime)
}

/// Begins the coordinator's deployment: one [`RemoteDeviceProxy`] per
/// sharded entity over the link of the edge that hosts its lot (`links`
/// is keyed by edge name), in the order [`edge_runtime`] adds them, then
/// the coordinator's own city entrance panels and the messenger, whose
/// actuation log is returned for [`super::render_summary`].
///
/// # Errors
///
/// Names the edge `links` has no link for, or the entity the engine
/// refused to bind.
pub fn bind_coordinator(
    orch: &mut Orchestrator,
    manifest: &NodeManifest,
    links: &BTreeMap<String, Arc<Link>>,
    sensors: usize,
) -> Result<ActuationLog, String> {
    orch.begin_deployment();
    let mut bind = |id: &str, family: &str, located: Option<(&str, Value)>, driver| {
        let mut attrs = AttributeMap::new();
        if let Some((attribute, value)) = located {
            attrs.insert(attribute.to_owned(), value);
        }
        orch.bind_entity(id.into(), family, attrs, driver)
            .map_err(|e| e.to_string())
    };
    let proxy = |id: &str, link: &Arc<Link>| -> Box<dyn DeviceInstance> {
        Box::new(RemoteDeviceProxy::new(id, Arc::clone(link)))
    };
    for edge in &manifest.edges {
        let link = links
            .get(&edge.name)
            .ok_or_else(|| format!("no link to manifest edge {}", edge.name))?;
        for lot in &edge.shards {
            let lot_value = Value::enum_value("ParkingLotEnum", lot);
            for space in 0..sensors {
                let id = format!("presence-{lot}-{space}");
                let located = Some(("parkingLot", lot_value.clone()));
                bind(&id, "PresenceSensor", located, proxy(&id, link))?;
            }
            let id = format!("panel-{lot}");
            let located = Some(("location", lot_value));
            bind(&id, "ParkingEntrancePanel", located, proxy(&id, link))?;
        }
    }
    for entrance in CityEntranceEnum::ALL {
        let name = entrance.name();
        let located = Some(("location", Value::enum_value("CityEntranceEnum", name)));
        let driver = Box::new(RecordingActuator::new(ActuationLog::new()));
        let id = format!("city-panel-{name}");
        bind(&id, "CityEntrancePanel", located, driver)?;
    }
    let messenger = ActuationLog::new();
    let driver = Box::new(RecordingActuator::new(messenger.clone()));
    bind("messenger-mgmt", "Messenger", None, driver)?;
    Ok(messenger)
}

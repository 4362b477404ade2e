//! Compose-style declarative deployment (the paper's testbed used
//! `docker-compose` 1.29.2, Table IV / §V-A1).
//!
//! A [`ComposeSpec`] names the services of a slice and, per service,
//! whether it runs plain or GSC-shielded. [`ComposeSpec::deploy`] brings
//! the whole set up on one host in declaration order, mirroring
//! `docker-compose up`.

use crate::host::{ContainerHandle, Host};
use crate::image::Registry;
use crate::InfraError;
use shield5g_libos::manifest::Manifest;
use shield5g_sim::Env;

/// One service entry in the compose file.
#[derive(Clone, Debug)]
pub struct ServiceSpec {
    /// Container/service name (unique within the spec).
    pub name: String,
    /// Image reference.
    pub image: String,
    /// `Some(manifest)` deploys the service GSC-shielded.
    pub shielded: Option<Manifest>,
}

impl ServiceSpec {
    /// A plain container service.
    #[must_use]
    pub fn plain(name: impl Into<String>, image: impl Into<String>) -> Self {
        ServiceSpec {
            name: name.into(),
            image: image.into(),
            shielded: None,
        }
    }

    /// A GSC-shielded service.
    #[must_use]
    pub fn shielded(name: impl Into<String>, image: impl Into<String>, manifest: Manifest) -> Self {
        ServiceSpec {
            name: name.into(),
            image: image.into(),
            shielded: Some(manifest),
        }
    }
}

/// A declarative multi-service deployment.
#[derive(Clone, Debug, Default)]
pub struct ComposeSpec {
    services: Vec<ServiceSpec>,
    signing_key: [u8; 32],
}

impl ComposeSpec {
    /// An empty spec signed with `signing_key` (used for every shielded
    /// service's GSC image).
    #[must_use]
    pub fn new(signing_key: [u8; 32]) -> Self {
        ComposeSpec {
            services: Vec::new(),
            signing_key,
        }
    }

    /// Adds a service (builder style).
    #[must_use]
    pub fn with_service(mut self, service: ServiceSpec) -> Self {
        self.services.push(service);
        self
    }

    /// The declared services.
    #[must_use]
    pub fn services(&self) -> &[ServiceSpec] {
        &self.services
    }

    /// Validates the spec: unique names, non-empty, images resolvable.
    ///
    /// # Errors
    ///
    /// Returns [`InfraError::UnknownImage`] for unresolvable images and
    /// [`InfraError::AttackFailed`]-free validation errors as
    /// `UnknownContainer` (duplicate name).
    pub fn validate(&self, registry: &Registry) -> Result<(), InfraError> {
        let mut seen = std::collections::BTreeSet::new();
        for svc in &self.services {
            if !seen.insert(svc.name.clone()) {
                return Err(InfraError::UnknownContainer(format!(
                    "duplicate service {}",
                    svc.name
                )));
            }
            if registry.pull(&svc.image).is_none() {
                return Err(InfraError::UnknownImage(svc.image.clone()));
            }
        }
        Ok(())
    }

    /// `docker-compose up`: deploys every service on `host` in order.
    ///
    /// # Errors
    ///
    /// Validation errors as in [`ComposeSpec::validate`]; shielded
    /// services additionally fail as [`InfraError::CapabilityMissing`]
    /// when the host lacks SGX or the GSC boot fails.
    pub fn deploy(
        &self,
        env: &mut Env,
        host: &mut Host,
        registry: &Registry,
    ) -> Result<Vec<ContainerHandle>, InfraError> {
        self.validate(registry)?;
        let mut handles = Vec::with_capacity(self.services.len());
        for svc in &self.services {
            let handle = match &svc.shielded {
                None => host.run_plain(env, registry, &svc.image, svc.name.clone())?,
                Some(manifest) => host
                    .run_shielded(
                        env,
                        registry,
                        &svc.image,
                        svc.name.clone(),
                        manifest.clone(),
                        &self.signing_key,
                    )
                    .map_err(|e| InfraError::CapabilityMissing {
                        capability: "sgx/gsc",
                        host: format!("{}: {e}", host.name()),
                    })?,
            };
            handles.push(handle);
        }
        Ok(handles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ContainerImage;
    use shield5g_hmee::platform::SgxPlatform;
    use shield5g_libos::gsc::ImageSpec;

    fn registry() -> Registry {
        let mut reg = Registry::new();
        for name in ["oai/udm", "oai/eudm-paka"] {
            reg.push(ContainerImage::new(ImageSpec::synthetic(
                name, "/bin/app", 10_000_000, 10,
            )));
        }
        reg
    }

    fn spec() -> ComposeSpec {
        ComposeSpec::new([7; 32])
            .with_service(ServiceSpec::plain("udm.oai", "oai/udm"))
            .with_service(ServiceSpec::shielded(
                "eudm-paka.oai",
                "oai/eudm-paka",
                Manifest::paka_default("/bin/app"),
            ))
    }

    #[test]
    fn deploys_mixed_plain_and_shielded() {
        let mut env = Env::new(1);
        let platform = SgxPlatform::new(&mut env);
        let mut host = Host::with_sgx("r450", platform);
        let handles = spec().deploy(&mut env, &mut host, &registry()).unwrap();
        assert_eq!(handles.len(), 2);
        assert!(!handles[0].borrow().is_shielded());
        assert!(handles[1].borrow().is_shielded());
        assert_eq!(
            host.container_names(),
            vec!["eudm-paka.oai".to_owned(), "udm.oai".to_owned()]
        );
    }

    #[test]
    fn duplicate_names_rejected() {
        let spec = ComposeSpec::new([7; 32])
            .with_service(ServiceSpec::plain("udm.oai", "oai/udm"))
            .with_service(ServiceSpec::plain("udm.oai", "oai/udm"));
        assert!(spec.validate(&registry()).is_err());
    }

    #[test]
    fn unknown_image_rejected_before_any_deploy() {
        let mut env = Env::new(2);
        let platform = SgxPlatform::new(&mut env);
        let mut host = Host::with_sgx("r450", platform);
        let spec = ComposeSpec::new([7; 32])
            .with_service(ServiceSpec::plain("udm.oai", "oai/udm"))
            .with_service(ServiceSpec::plain("x", "ghost-image"));
        assert!(matches!(
            spec.deploy(&mut env, &mut host, &registry()),
            Err(InfraError::UnknownImage(_))
        ));
        // Nothing was partially deployed.
        assert!(host.container_names().is_empty());
    }

    #[test]
    fn shielded_service_needs_sgx_host() {
        let mut env = Env::new(3);
        let mut host = Host::without_sgx("plain-host");
        assert!(matches!(
            spec().deploy(&mut env, &mut host, &registry()),
            Err(InfraError::CapabilityMissing { .. })
        ));
    }
}

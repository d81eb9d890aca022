//! Scenario-engine error type: one enum covering parse, spec, compile,
//! and execution failures, with `From` conversions from every layer the
//! engine drives.

use std::fmt;

use crate::toml::TomlError;

/// Any failure while parsing, compiling, or executing a scenario.
#[derive(Debug)]
pub enum ScenarioError {
    /// The TOML document failed to parse.
    Toml(TomlError),
    /// The parsed document is invalid: unknown keys, missing fields,
    /// contradictory values, dangling references.
    Spec(String),
    /// The underlying messaging layer failed.
    Mq(mq::MqError),
    /// The conditional-messaging layer failed.
    Cond(condmsg::CondError),
    /// A dependency-sphere operation failed.
    Sphere(String),
    /// The executor hit a condition it could not drive to completion
    /// (delivery never settled, a verdict never arrived, …).
    Engine(String),
}

/// Result alias for scenario operations.
pub type ScenarioResult<T> = Result<T, ScenarioError>;

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Toml(e) => write!(f, "{e}"),
            ScenarioError::Spec(reason) => write!(f, "invalid scenario spec: {reason}"),
            ScenarioError::Mq(e) => write!(f, "messaging error: {e}"),
            ScenarioError::Cond(e) => write!(f, "conditional-messaging error: {e}"),
            ScenarioError::Sphere(reason) => write!(f, "dependency-sphere error: {reason}"),
            ScenarioError::Engine(reason) => write!(f, "scenario execution error: {reason}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Toml(e) => Some(e),
            ScenarioError::Mq(e) => Some(e),
            ScenarioError::Cond(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TomlError> for ScenarioError {
    fn from(e: TomlError) -> Self {
        ScenarioError::Toml(e)
    }
}

impl From<mq::MqError> for ScenarioError {
    fn from(e: mq::MqError) -> Self {
        ScenarioError::Mq(e)
    }
}

impl From<condmsg::CondError> for ScenarioError {
    fn from(e: condmsg::CondError) -> Self {
        ScenarioError::Cond(e)
    }
}

impl From<dsphere::SphereError> for ScenarioError {
    fn from(e: dsphere::SphereError) -> Self {
        ScenarioError::Sphere(e.to_string())
    }
}

/// Shorthand for a [`ScenarioError::Spec`].
pub(crate) fn spec_err(reason: impl Into<String>) -> ScenarioError {
    ScenarioError::Spec(reason.into())
}

/// Shorthand for a [`ScenarioError::Engine`].
pub(crate) fn engine_err(reason: impl Into<String>) -> ScenarioError {
    ScenarioError::Engine(reason.into())
}

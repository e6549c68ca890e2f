//! Hostile-input properties of the configuration validators: every
//! numeric field of `RetryPolicy`, `FaultPlan` and `ManagerConfig` (the
//! nested retry policy, lane weights, admission control and synthetic
//! pool included) is set, one at a time, on an otherwise valid
//! configuration — to each of NaN, ±∞, negative and subnormal values,
//! and to arbitrary bit patterns. `validate` must never panic; every
//! error must name the field, and every non-finite or negative value
//! must be an error.

use chs_dist::ModelKind;
use chs_manager::ManagerConfig;
use chs_net::faults::{FaultPlan, RetryPolicy};
use proptest::prelude::*;

/// Values no numeric knob should take, and the legal-but-extreme ones
/// around zero.
const HOSTILE: [f64; 10] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -1.0,
    -f64::MAX,
    -1e-310,
    -5e-324,
    5e-324,
    1e-310,
    -0.0,
];

/// A field a test can overwrite: its name (as the error must spell it)
/// and its setter.
type Field<T> = (&'static str, fn(&mut T, f64));

const RETRY: [Field<RetryPolicy>; 5] = [
    ("backoff_base", |c, v| c.backoff_base = v),
    ("backoff_factor", |c, v| c.backoff_factor = v),
    ("backoff_jitter", |c, v| c.backoff_jitter = v),
    ("timeout_factor", |c, v| c.timeout_factor = v),
    ("max_backoff", |c, v| c.max_backoff = v),
];

const FAULTS: [Field<FaultPlan>; 8] = [
    ("p_stall", |c, v| c.p_stall = v),
    ("p_drop", |c, v| c.p_drop = v),
    ("p_corrupt", |c, v| c.p_corrupt = v),
    ("p_unavailable", |c, v| c.p_unavailable = v),
    ("p_fit_failure", |c, v| c.p_fit_failure = v),
    ("stall_fraction", |c, v| c.stall_fraction = v),
    ("drop_fraction", |c, v| c.drop_fraction = v),
    ("unavailable_wait", |c, v| c.unavailable_wait = v),
];

const MANAGER: [Field<ManagerConfig>; 22] = [
    ("link_mb_per_s", |c, v| c.link_mb_per_s = v),
    ("image_mb", |c, v| c.image_mb = v),
    ("window", |c, v| c.window = v),
    ("prefetch_probability", |c, v| c.prefetch_probability = v),
    ("backoff_base", |c, v| c.retry.backoff_base = v),
    ("backoff_factor", |c, v| c.retry.backoff_factor = v),
    ("backoff_jitter", |c, v| c.retry.backoff_jitter = v),
    ("timeout_factor", |c, v| c.retry.timeout_factor = v),
    ("max_backoff", |c, v| c.retry.max_backoff = v),
    ("recovery", |c, v| c.weights.recovery = v),
    ("checkpoint", |c, v| c.weights.checkpoint = v),
    ("prefetch", |c, v| c.weights.prefetch = v),
    ("watermark", |c, v| c.admission.watermark = v),
    ("horizon_images", |c, v| c.admission.horizon_images = v),
    ("weibull_fraction", |c, v| c.pool.weibull_fraction = v),
    ("bimodal_fraction", |c, v| c.pool.bimodal_fraction = v),
    ("diurnal_fraction", |c, v| c.pool.diurnal_fraction = v),
    ("shape_range", |c, v| c.pool.shape_range.0 = v),
    ("shape_range", |c, v| c.pool.shape_range.1 = v),
    ("median_scale", |c, v| c.pool.median_scale = v),
    ("scale_log_sigma", |c, v| c.pool.scale_log_sigma = v),
    ("mean_gap", |c, v| c.pool.mean_gap = v),
];

/// Overwrite one field of `base` with `value`, validate, and check the
/// verdict: an error must name the field, and a non-finite or negative
/// (nonzero) value must be an error.
fn check<T: Clone>(
    base: &T,
    (name, set): Field<T>,
    value: f64,
    validate: impl Fn(&T) -> Result<(), String>,
) -> Result<(), TestCaseError> {
    let mut config = base.clone();
    set(&mut config, value);
    match validate(&config) {
        Err(why) => {
            prop_assert!(why.contains(name), "{name} = {value}: {why}");
        }
        Ok(()) => {
            prop_assert!(
                value.is_finite() && value >= 0.0,
                "{name} = {value} was accepted"
            );
        }
    }
    Ok(())
}

fn faults() -> FaultPlan {
    FaultPlan::uniform(0.2, 7)
}

fn manager() -> ManagerConfig {
    ManagerConfig::campus(8, ModelKind::Exponential)
}

#[test]
fn defaults_are_valid() {
    assert!(RetryPolicy::default().validate().is_ok());
    assert!(faults().validate().is_ok());
    assert!(manager().validate().is_ok());
}

fn validate_manager(c: &ManagerConfig) -> Result<(), String> {
    c.validate().map_err(|e| e.to_string())
}

#[test]
fn every_hostile_value_in_every_field() {
    for value in HOSTILE {
        for field in RETRY {
            check(&RetryPolicy::default(), field, value, RetryPolicy::validate).unwrap();
        }
        for field in FAULTS {
            check(&faults(), field, value, FaultPlan::validate).unwrap();
        }
        for field in MANAGER {
            check(&manager(), field, value, validate_manager).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn retry_policy_names_the_field_of_any_value(
        field in 0usize..RETRY.len(),
        bits in 0u64..u64::MAX,
    ) {
        let value = f64::from_bits(bits);
        check(&RetryPolicy::default(), RETRY[field], value, RetryPolicy::validate)?;
    }

    #[test]
    fn fault_plan_names_the_field_of_any_value(
        field in 0usize..FAULTS.len(),
        bits in 0u64..u64::MAX,
    ) {
        let value = f64::from_bits(bits);
        check(&faults(), FAULTS[field], value, FaultPlan::validate)?;
    }

    #[test]
    fn manager_config_names_the_field_of_any_value(
        field in 0usize..MANAGER.len(),
        bits in 0u64..u64::MAX,
    ) {
        check(&manager(), MANAGER[field], f64::from_bits(bits), validate_manager)?;
    }
}

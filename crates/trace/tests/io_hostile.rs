//! Hostile-input properties of the trace readers: any row soup fed to
//! `read_csv`, and any observation list fed to `pool_from_json`, either
//! fails with an error or yields a pool whose every observation has a
//! finite start, a finite positive duration, and chronological,
//! non-overlapping order.
//! Neither reader may panic.

use chs_trace::io::{pool_from_json, read_csv};
use chs_trace::MachinePool;
use proptest::prelude::*;

/// Field tokens: well-formed ids and numbers mixed with every shape the
/// readers must refuse (fractions, negatives, NaN, infinities, u32
/// overflow, words, blanks).
const TOKENS: [&str; 18] = [
    "0",
    "1",
    "7",
    " 2 ",
    "1.7",
    "-3",
    "-5",
    "NaN",
    "inf",
    "-inf",
    "4294967296",
    "1e3",
    "1e308",
    "1e-320",
    "abc",
    "",
    "0.0",
    "3600",
];

/// JSON number literals for starts and durations.
const NUMBERS: [&str; 10] = [
    "0", "-5", "0.0", "1e-320", "1.7", "3600", "1e308", "-1e308", "42", "5e-324",
];

fn assert_sane(pool: &MachinePool) -> Result<(), TestCaseError> {
    for trace in pool.traces() {
        let obs = trace.observations();
        for o in obs {
            prop_assert!(o.start.is_finite(), "start {}", o.start);
            prop_assert!(
                o.duration.is_finite() && o.duration > 0.0,
                "duration {}",
                o.duration
            );
        }
        prop_assert!(
            obs.windows(2)
                .all(|w| w[0].start + w[0].duration <= w[1].start),
            "unsorted or overlapping observations"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn csv_rows_are_rejected_or_sane(
        rows in proptest::collection::vec(
            proptest::collection::vec(0usize..TOKENS.len(), 0..5),
            0..8,
        ),
    ) {
        let mut text = String::from("machine,start,duration\n");
        for row in &rows {
            let fields: Vec<&str> = row.iter().map(|&i| TOKENS[i]).collect();
            text.push_str(&fields.join(","));
            text.push('\n');
        }
        if let Ok(pool) = read_csv(text.as_bytes()) {
            assert_sane(&pool)?;
        }
    }

    #[test]
    fn json_observations_are_rejected_or_sane(
        machine in 0usize..TOKENS.len(),
        // Consecutive pairs are (start, duration).
        numbers in proptest::collection::vec(0usize..NUMBERS.len(), 0..12),
    ) {
        let obs: Vec<String> = numbers
            .chunks_exact(2)
            .map(|p| format!(r#"{{"start":{},"duration":{}}}"#, NUMBERS[p[0]], NUMBERS[p[1]]))
            .collect();
        let json = format!(
            r#"{{"traces":[{{"machine":{},"observations":[{}]}}]}}"#,
            TOKENS[machine],
            obs.join(",")
        );
        if let Ok(pool) = pool_from_json(&json) {
            assert_sane(&pool)?;
        }
    }
}

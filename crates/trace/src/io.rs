//! Trace persistence: JSON for pools (lossless, schema'd via serde) and a
//! simple CSV for interoperability with the original paper's
//! Matlab/EMPht tooling (one `machine,start,duration` row per
//! observation).

use crate::{AvailabilityTrace, MachineId, MachinePool, Observation, Result, TraceError};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Serialize a pool to pretty JSON.
pub fn pool_to_json(pool: &MachinePool) -> Result<String> {
    serde_json::to_string_pretty(pool).map_err(|e| TraceError::Io(e.to_string()))
}

/// Deserialize a pool from JSON.
///
/// Serde fills each [`AvailabilityTrace`] field by field, past
/// [`AvailabilityTrace::new`], so every trace is rebuilt through it:
/// non-positive or non-finite durations and overlapping observations are
/// rejected with the machine named, and observations are sorted by start
/// time.
pub fn pool_from_json(json: &str) -> Result<MachinePool> {
    let pool: MachinePool =
        serde_json::from_str(json).map_err(|e| TraceError::Io(e.to_string()))?;
    let traces = pool
        .traces
        .into_iter()
        .map(|t| build_trace(t.machine, t.observations))
        .collect::<Result<Vec<_>>>()?;
    Ok(MachinePool::new(traces))
}

/// Write a pool to a JSON file.
pub fn save_pool<P: AsRef<Path>>(pool: &MachinePool, path: P) -> Result<()> {
    let file = std::fs::File::create(path).map_err(|e| TraceError::Io(e.to_string()))?;
    let mut w = BufWriter::new(file);
    let json = pool_to_json(pool)?;
    w.write_all(json.as_bytes())
        .map_err(|e| TraceError::Io(e.to_string()))
}

/// Load a pool from a JSON file.
pub fn load_pool<P: AsRef<Path>>(path: P) -> Result<MachinePool> {
    let file = std::fs::File::open(path).map_err(|e| TraceError::Io(e.to_string()))?;
    let mut json = String::new();
    BufReader::new(file)
        .read_to_string(&mut json)
        .map_err(|e| TraceError::Io(e.to_string()))?;
    pool_from_json(&json)
}

/// Write a pool as CSV: header `machine,start,duration`, one row per
/// observation.
pub fn write_csv<W: Write>(pool: &MachinePool, mut w: W) -> Result<()> {
    let io_err = |e: std::io::Error| TraceError::Io(e.to_string());
    writeln!(w, "machine,start,duration").map_err(io_err)?;
    for trace in pool.traces() {
        for obs in trace.observations() {
            writeln!(w, "{},{},{}", trace.machine.0, obs.start, obs.duration).map_err(io_err)?;
        }
    }
    Ok(())
}

/// Parse a pool from `machine,start,duration` CSV (header required).
///
/// The machine id must be a whole `u32`, the start finite, the duration
/// finite and positive, and a row must have exactly three fields;
/// anything else is an error that names the line. One machine's
/// intervals may touch but not overlap; an overlap is an error that
/// names the machine and the observation.
pub fn read_csv<R: Read>(r: R) -> Result<MachinePool> {
    let reader = BufReader::new(r);
    let mut rows: Vec<(u32, f64, f64)> = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| TraceError::Io(e.to_string()))?;
        if lineno == 0 {
            if line.trim() != "machine,start,duration" {
                return Err(TraceError::Io(format!("unexpected CSV header: {line}")));
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let line_err = |msg: String| TraceError::Io(format!("line {}: {msg}", lineno + 1));
        let mut parts = line.split(',');
        let mut field = |what: &str| {
            parts
                .next()
                .map(str::trim)
                .ok_or_else(|| line_err(format!("missing {what}")))
        };
        let machine = field("machine")?
            .parse::<u32>()
            .map_err(|e| line_err(format!("machine: {e}")))?;
        let parse = |s: &str, what: &str| {
            s.parse::<f64>()
                .map_err(|e| line_err(format!("{what}: {e}")))
        };
        let start = parse(field("start")?, "start")?;
        let duration = parse(field("duration")?, "duration")?;
        if parts.next().is_some() {
            return Err(line_err(
                "expected 3 fields (machine,start,duration), found more".into(),
            ));
        }
        if !(start.is_finite() && duration.is_finite() && duration > 0.0) {
            return Err(line_err(format!(
                "need a finite start and a finite positive duration, got {start},{duration}"
            )));
        }
        rows.push((machine, start, duration));
    }
    rows.sort_by_key(|r| r.0);
    let mut traces = Vec::new();
    let mut current: Option<(u32, Vec<Observation>)> = None;
    for (machine, start, duration) in rows {
        match &mut current {
            Some((id, obs)) if *id == machine => obs.push(Observation { start, duration }),
            _ => {
                if let Some((id, obs)) = current.take() {
                    traces.push(build_trace(MachineId(id), obs)?);
                }
                current = Some((machine, vec![Observation { start, duration }]));
            }
        }
    }
    if let Some((id, obs)) = current {
        traces.push(build_trace(MachineId(id), obs)?);
    }
    Ok(MachinePool::new(traces))
}

/// [`AvailabilityTrace::new`] with the machine named in its error.
fn build_trace(machine: MachineId, observations: Vec<Observation>) -> Result<AvailabilityTrace> {
    AvailabilityTrace::new(machine, observations)
        .map_err(|e| TraceError::Io(format!("{machine}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{generate_pool, PoolConfig};

    fn sample_pool() -> MachinePool {
        generate_pool(&PoolConfig::small(5, 12, 21)).as_machine_pool()
    }

    #[test]
    fn json_roundtrip() {
        let pool = sample_pool();
        let json = pool_to_json(&pool).unwrap();
        let back = pool_from_json(&json).unwrap();
        assert_eq!(pool, back);
    }

    #[test]
    fn json_file_roundtrip() {
        let pool = sample_pool();
        let dir = std::env::temp_dir().join("chs_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pool.json");
        save_pool(&pool, &path).unwrap();
        let back = load_pool(&path).unwrap();
        assert_eq!(pool, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_roundtrip() {
        let pool = sample_pool();
        let mut buf = Vec::new();
        write_csv(&pool, &mut buf).unwrap();
        let back = read_csv(buf.as_slice()).unwrap();
        assert_eq!(pool.len(), back.len());
        for (a, b) in pool.traces().iter().zip(back.traces()) {
            assert_eq!(a.machine, b.machine);
            assert_eq!(a.len(), b.len());
            // CSV float formatting is shortest-roundtrip; exact equality holds.
            assert_eq!(a.durations(), b.durations());
        }
    }

    #[test]
    fn csv_rejects_bad_header() {
        assert!(read_csv("a,b,c\n1,2,3\n".as_bytes()).is_err());
    }

    #[test]
    fn csv_rejects_bad_rows() {
        assert!(read_csv("machine,start,duration\n1,2\n".as_bytes()).is_err());
        assert!(read_csv("machine,start,duration\n1,2,abc\n".as_bytes()).is_err());
    }

    #[test]
    fn csv_rejects_overlapping_observations_of_one_machine() {
        let err = read_csv("machine,start,duration\n3,0,5\n3,0,7\n".as_bytes()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "trace I/O: machine-0003: observation 1 (in start order) starts before observation 0 ends"
        );
        // Out of order in the file, overlapping once sorted.
        assert!(read_csv("machine,start,duration\n3,10,5\n3,0,11\n".as_bytes()).is_err());
        // Touching intervals, and overlaps across machines, are fine.
        let pool = read_csv("machine,start,duration\n3,0,5\n3,5,7\n4,2,9\n".as_bytes()).unwrap();
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.traces()[0].durations(), vec![5.0, 7.0]);
    }

    #[test]
    fn csv_skips_blank_lines() {
        let pool = read_csv("machine,start,duration\n1,0,5\n\n1,10,7\n".as_bytes()).unwrap();
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.traces()[0].durations(), vec![5.0, 7.0]);
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(pool_from_json("not json").is_err());
    }

    fn one_trace_json(observations: &str) -> String {
        format!(r#"{{"traces":[{{"machine":4,"observations":[{observations}]}}]}}"#)
    }

    #[test]
    fn json_rejects_negative_duration() {
        let json = one_trace_json(r#"{"start":0.0,"duration":-5.0}"#);
        let err = pool_from_json(&json).unwrap_err().to_string();
        assert!(err.contains("machine-0004"), "{err}");
    }

    #[test]
    fn json_rejects_zero_duration() {
        let json = one_trace_json(r#"{"start":0.0,"duration":0.0}"#);
        assert!(pool_from_json(&json).is_err());
    }

    #[test]
    fn json_sorts_starts() {
        let json = one_trace_json(
            r#"{"start":100.0,"duration":5.0},{"start":0.0,"duration":7.0},{"start":50.0,"duration":3.0}"#,
        );
        let pool = pool_from_json(&json).unwrap();
        assert_eq!(pool.traces()[0].durations(), vec![7.0, 3.0, 5.0]);
    }

    #[test]
    fn load_pool_revalidates() {
        let dir = std::env::temp_dir().join("chs_trace_test_revalidate");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pool.json");
        std::fs::write(&path, one_trace_json(r#"{"start":0.0,"duration":-5.0}"#)).unwrap();
        assert!(load_pool(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_rejects_fractional_machine() {
        // `as u32` used to merge 1.7 into machine 1.
        let err = read_csv(
            "machine,start,duration
1,0,5
1.7,10,7
"
            .as_bytes(),
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("line 3"), "{err}");
    }

    #[test]
    fn csv_rejects_negative_machine() {
        let err = read_csv(
            "machine,start,duration
-3,0,5
"
            .as_bytes(),
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn csv_rejects_nan_machine() {
        let err = read_csv(
            "machine,start,duration
NaN,0,5
"
            .as_bytes(),
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn csv_names_the_line_of_a_bad_duration() {
        for bad in ["-5", "0", "inf", "NaN"] {
            let csv = format!("machine,start,duration\n3,0,5\n3,10,{bad}\n");
            let err = read_csv(csv.as_bytes()).unwrap_err().to_string();
            assert!(err.contains("line 3"), "{bad}: {err}");
        }
    }

    #[test]
    fn csv_rejects_extra_fields() {
        let err = read_csv(
            "machine,start,duration
1,0,5
1,10,7,9
"
            .as_bytes(),
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("line 3"), "{err}");
    }
}

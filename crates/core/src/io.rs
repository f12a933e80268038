//! A minimal line-oriented text format for instances.
//!
//! ```text
//! # comment
//! g 3
//! job 0 10 4        # release deadline length
//! job 2 8 3
//! ```
//!
//! The format is deliberately dependency-free (we avoid pulling a JSON
//! parser into the workspace) and stable for CLI round-trips.

use crate::error::{Error, Result};
use crate::instance::Instance;
use crate::jobs::Job;

/// Serializes an instance to the text format.
pub fn write_instance(inst: &Instance) -> String {
    let mut out = String::new();
    out.push_str(&format!("g {}\n", inst.g()));
    for j in inst.jobs() {
        out.push_str(&format!("job {} {} {}\n", j.release, j.deadline, j.length));
    }
    out
}

/// Parses an instance from the text format. The jobs' total length
/// `Σ p_j` must fit `i64`: it bounds every schedule's cost, so no cost
/// computed from a parsed instance can wrap.
pub fn read_instance(text: &str) -> Result<Instance> {
    let mut g: Option<usize> = None;
    let mut jobs = Vec::new();
    let mut total: i64 = 0;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        // Defensive: `line` is non-empty here, so a first token must
        // exist, but malformed/truncated input must never panic a parser.
        let Some(tag) = parts.next() else {
            return Err(Error::Parse {
                line: lineno + 1,
                reason: "missing directive".into(),
            });
        };
        let parse = |s: Option<&str>, what: &str| -> Result<i64> {
            s.ok_or_else(|| Error::Parse {
                line: lineno + 1,
                reason: format!("missing {what}"),
            })?
            .parse::<i64>()
            .map_err(|e| Error::Parse {
                line: lineno + 1,
                reason: format!("bad {what}: {e}"),
            })
        };
        match tag {
            "g" => {
                let v = parse(parts.next(), "capacity")?;
                if v < 1 {
                    return Err(Error::Parse {
                        line: lineno + 1,
                        reason: "capacity must be >= 1".into(),
                    });
                }
                g = Some(v as usize);
            }
            "job" => {
                let r = parse(parts.next(), "release")?;
                let d = parse(parts.next(), "deadline")?;
                let p = parse(parts.next(), "length")?;
                let job = Job::try_new(r, d, p).ok_or_else(|| Error::Parse {
                    line: lineno + 1,
                    reason: format!("inconsistent job r={r} d={d} p={p}"),
                })?;
                total = total.checked_add(p).ok_or_else(|| Error::Parse {
                    line: lineno + 1,
                    reason: format!("the jobs' total length exceeds {}", i64::MAX),
                })?;
                jobs.push(job);
            }
            other => {
                return Err(Error::Parse {
                    line: lineno + 1,
                    reason: format!("unknown directive '{other}'"),
                })
            }
        }
        if parts.next().is_some() {
            return Err(Error::Parse {
                line: lineno + 1,
                reason: "trailing tokens".into(),
            });
        }
    }
    let g = g.ok_or(Error::Parse {
        line: 0,
        reason: "missing 'g' line".into(),
    })?;
    Instance::new(jobs, g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let inst = Instance::from_triples([(0, 10, 4), (2, 8, 3), (5, 6, 1)], 3).unwrap();
        let text = write_instance(&inst);
        let back = read_instance(&text).unwrap();
        assert_eq!(inst, back);
    }

    #[test]
    fn comments_and_blank_lines() {
        let text = "# a demo\n\ng 2   # capacity\njob 0 5 2 # first\n";
        let inst = read_instance(text).unwrap();
        assert_eq!(inst.g(), 2);
        assert_eq!(inst.len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        match read_instance("g 2\njob 0 5\n") {
            Err(Error::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(read_instance("job 0 5 2\n").is_err()); // missing g
        assert!(read_instance("g 0\n").is_err());
        assert!(read_instance("g 2\njob 0 5 9\n").is_err()); // p > window
        assert!(read_instance("g 2\nfrob 1 2 3\n").is_err());
        assert!(read_instance("g 2 7\n").is_err()); // trailing token
        let max = i64::MAX;
        assert!(read_instance(&format!("g 1\njob 0 {max} {max}\n")).is_ok());
        match read_instance(&format!("g 1\njob 0 {max} {max}\njob 0 1 1\n")) {
            Err(Error::Parse { line, reason }) => {
                assert_eq!(line, 3);
                assert_eq!(reason, format!("the jobs' total length exceeds {max}"));
            }
            other => panic!("expected a total-length refusal, got {other:?}"),
        }
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        // Inputs cut off mid-line (a partial write, a torn download) must
        // surface as parse errors with a line number, never a panic.
        for text in ["g", "job", "g 2\njob", "g 2\njob 0", "g 2\njob 0 5"] {
            match read_instance(text) {
                Err(Error::Parse { line, .. }) => assert!(line >= 1, "input {text:?}"),
                other => panic!("input {text:?}: expected parse error, got {other:?}"),
            }
        }
    }
}

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
use std::num::ParseIntError;

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
///
/// One pass over the bytes that finds the lines and tokens `str::lines`
/// and `str::split_whitespace` would: a line ends at `\n` (a `\r` before
/// it is whitespace, so a CRLF line reads like an LF one), a `#` cuts it,
/// and tokens split on `char::is_whitespace`, with an ASCII byte
/// classified as it stands and a char decoded only at a non-ASCII byte.
/// An optional sign and digits that fit `i64` are accumulated in place;
/// any other token goes to `str::parse`, so each [`Error::Parse`] is
/// worded as `str::parse` words it.
pub fn read_instance(text: &str) -> Result<Instance> {
    let _span = crate::obs_span!("core.parse");
    let mut g: Option<usize> = None;
    let mut jobs = Vec::new();
    let mut total: i64 = 0;
    let mut scan = Scanner { text, at: 0 };
    for lineno in 1.. {
        if let Some(tag) = scan.token() {
            let err = |reason: String| Error::Parse {
                line: lineno,
                reason,
            };
            let mut int = |what: &str| -> Result<i64> {
                match scan.int() {
                    Some(Ok(v)) => Ok(v),
                    Some(Err(e)) => Err(err(format!("bad {what}: {e}"))),
                    None => Err(err(format!("missing {what}"))),
                }
            };
            match tag {
                "g" => {
                    let v = int("capacity")?;
                    if v < 1 {
                        return Err(err("capacity must be >= 1".into()));
                    }
                    g = Some(v as usize);
                }
                "job" => {
                    let r = int("release")?;
                    let d = int("deadline")?;
                    let p = int("length")?;
                    let job = Job::try_new(r, d, p)
                        .ok_or_else(|| err(format!("inconsistent job r={r} d={d} p={p}")))?;
                    total = total.checked_add(p).ok_or_else(|| {
                        err(format!("the jobs' total length exceeds {}", i64::MAX))
                    })?;
                    jobs.push(job);
                }
                other => return Err(err(format!("unknown directive '{other}'"))),
            }
            if scan.token().is_some() {
                return Err(err("trailing tokens".into()));
            }
        }
        if !scan.next_line() {
            break;
        }
    }
    let g = g.ok_or(Error::Parse {
        line: 0,
        reason: "missing 'g' line".into(),
    })?;
    Instance::new(jobs, g)
}

/// A cursor over the text of [`read_instance`], line by line.
struct Scanner<'a> {
    text: &'a str,
    at: usize,
}

/// Whether `b` ends a token: ASCII whitespace (`\t \n \x0B \x0C \r` and
/// the space, the ASCII part of `char::is_whitespace`) or a `#`.
fn ends_token(b: Option<&u8>) -> bool {
    matches!(
        b,
        None | Some(b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r' | b' ' | b'#')
    )
}

impl<'a> Scanner<'a> {
    /// Moves past the whitespace at the cursor, up to a `\n`.
    fn skip_space(&mut self) {
        let bytes = self.text.as_bytes();
        loop {
            match bytes.get(self.at) {
                Some(b'\t' | b'\x0B' | b'\x0C' | b'\r' | b' ') => self.at += 1,
                Some(b) if !b.is_ascii() => match self.wide_char(self.at) {
                    (true, len) => self.at += len,
                    (false, _) => return,
                },
                _ => return,
            }
        }
    }

    /// The next token of the current line, or `None` at the line's end: a
    /// `\n`, the end of the text, or a `#`, whose comment it skips.
    fn token(&mut self) -> Option<&'a str> {
        self.skip_space();
        let bytes = self.text.as_bytes();
        let start = self.at;
        loop {
            match bytes.get(self.at) {
                b if ends_token(b) => break,
                Some(b) if !b.is_ascii() => match self.wide_char(self.at) {
                    (true, _) => break,
                    (false, len) => self.at += len,
                },
                _ => self.at += 1,
            }
        }
        if self.at > start {
            return Some(&self.text[start..self.at]);
        }
        if bytes.get(self.at) == Some(&b'#') {
            self.at = bytes[self.at..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(bytes.len(), |k| self.at + k);
        }
        None
    }

    /// The next token of the current line as `str::parse::<i64>` reads
    /// it, or `None` at the line's end. An optional sign and digits that
    /// fit are accumulated with checked arithmetic as they are scanned;
    /// any other token is handed to `str::parse`.
    fn int(&mut self) -> Option<std::result::Result<i64, ParseIntError>> {
        self.skip_space();
        let bytes = self.text.as_bytes();
        let start = self.at;
        let (negative, digits) = match bytes.get(start) {
            Some(b'-') => (true, start + 1),
            Some(b'+') => (false, start + 1),
            _ => (false, start),
        };
        let mut at = digits;
        let mut v: i64 = 0;
        while let Some(d) = bytes
            .get(at)
            .map(|b| b.wrapping_sub(b'0'))
            .filter(|&d| d <= 9)
        {
            let d = i64::from(d);
            let next = v.checked_mul(10).and_then(|v| {
                if negative {
                    v.checked_sub(d)
                } else {
                    v.checked_add(d)
                }
            });
            // Past `i64`: the digit stays unread, so the slow path runs.
            let Some(next) = next else { break };
            v = next;
            at += 1;
        }
        if at > digits && ends_token(bytes.get(at)) {
            self.at = at;
            return Some(Ok(v));
        }
        self.token().map(str::parse)
    }

    /// Whether the non-ASCII char at `at` is whitespace, and its length.
    fn wide_char(&self, at: usize) -> (bool, usize) {
        let c = self.text[at..]
            .chars()
            .next()
            .expect("`at` is a char boundary");
        (c.is_whitespace(), c.len_utf8())
    }

    /// Moves past the `\n` that ends the current line, once its tokens
    /// are read; `false` at the end of the text.
    fn next_line(&mut self) -> bool {
        debug_assert!(matches!(
            self.text.as_bytes().get(self.at),
            None | Some(b'\n')
        ));
        self.at += 1;
        self.at <= self.text.len()
    }
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

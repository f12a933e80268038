//! `io::read_instance` against the `&str` parser it replaced, kept here
//! verbatim as the oracle.
//!
//! The shipping parser scans bytes: it splits lines at `\n`, classifies
//! ASCII whitespace by byte and decodes a char only at a non-ASCII byte,
//! and accumulates digits in place, handing a token to `str::parse` only
//! when that fails. None of that may change an answer: on every generated
//! text both parsers must return the same `Ok` instance or the same
//! `Err(Parse { line, reason })`.
//!
//! Three families. Valid texts vary only what must not matter: separators
//! (tab, `\x0B`, `\x0C`, `\r`, U+0085, U+00A0, U+1680, U+2028, U+205F,
//! U+3000), comments, blank lines, CRLF ends, `+` signs and leading zeros;
//! each must parse. Mixed texts add every fault the format knows:
//! non-whitespace Unicode and control bytes inside tokens (U+001C is not
//! whitespace to `char::is_whitespace`), bare `\r` line ends, 19–20-digit
//! values past `i64` in both directions, malformed numbers, truncated
//! lines, trailing tokens, unknown directives, `g ≤ 0` and `g` past `i64`,
//! inconsistent jobs and lengths that sum past `i64`. A parse stops at the
//! first faulty line, so the third family probes each char class where it
//! decides the answer: one char — whitespace or not, a line end, a `#`, a
//! sign or a digit — inserted anywhere into a valid text.

use abt_core::{io, Error};
use proptest::prelude::*;

/// The parser `io::read_instance` replaced.
mod oracle {
    use abt_core::{Error, Instance, Job, Result};

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
}

/// Whitespace to `char::is_whitespace`.
const SEPARATORS: &[&str] = &[
    " ", " ", "  ", "\t", "\x0B", "\x0C", "\r", " \r ", "\u{85}", "\u{a0}", "\u{1680}", "\u{2028}",
    "\u{205f}", "\u{3000}",
];

/// Chars that are not whitespace to `char::is_whitespace`, though some
/// look or act like it elsewhere.
const NOT_SEPARATORS: &[&str] = &[
    "\u{1c}", "\u{1f}", "\u{0}", "\u{200b}", "\u{feff}", "é", "٣", "１", "\u{7f}",
];

/// Tokens that `str::parse::<i64>` refuses, or accepts only in a form the
/// fast path must match.
const ODD_NUMBERS: &[&str] = &[
    "+",
    "-",
    "+-3",
    "--3",
    "-+3",
    "1e3",
    "0x10",
    "12a",
    "1_000",
    "٣",
    "１２",
    "+0",
    "-0",
    "00",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "-9223372036854775809",
    "+9223372036854775807",
    "00000000000000000009223372036854775807",
    "-0000000000000000009223372036854775808",
    "99999999999999999999",
    "-99999999999999999999",
    "18446744073709551616",
    "170141183460469231731687303715884105728",
];

/// Chars to insert anywhere into a valid text: every separator and
/// non-separator above, and the bytes that end a line, start a comment,
/// sign or continue a number, or end one.
const PROBES: &[&str] = &[
    " ", "\t", "\x0B", "\x0C", "\r", "\n", "\u{85}", "\u{a0}", "\u{1680}", "\u{2028}", "\u{205f}",
    "\u{3000}", "\u{1c}", "\u{1f}", "\u{0}", "\u{200b}", "\u{feff}", "é", "٣", "１", "\u{7f}", "#",
    "+", "-", "0", "9", "x",
];

/// A xorshift stream for the choices inside one line.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }

    fn sep(&mut self) -> &'static str {
        self.pick(SEPARATORS)
    }

    /// Nothing, or some whitespace.
    fn pad(&mut self) -> &'static str {
        if self.below(3) == 0 {
            self.sep()
        } else {
            ""
        }
    }

    /// `v` as `str::parse` reads it: maybe a `+`, maybe leading zeros.
    fn int(&mut self, v: i64) -> String {
        let zeros = "0".repeat(self.below(4).saturating_sub(1));
        match (v < 0, self.below(3)) {
            (true, _) => format!("-{zeros}{}", v.unsigned_abs()),
            (false, 0) => format!("+{zeros}{v}"),
            (false, _) => format!("{zeros}{v}"),
        }
    }

    /// `n` digits, the first nonzero.
    fn digits(&mut self, n: usize) -> String {
        (0..n)
            .map(|k| {
                let d = if k == 0 {
                    1 + self.below(9)
                } else {
                    self.below(10)
                };
                char::from(b'0' + d as u8)
            })
            .collect()
    }

    /// Any number token: a plain value, one near or past `i64`'s edges, a
    /// 19- or 20-digit one, or a malformed one.
    fn number(&mut self) -> String {
        match self.below(8) {
            0..=2 => {
                let v = self.below(80) as i64 - 20;
                self.int(v)
            }
            3 => self.pick(ODD_NUMBERS).to_string(),
            // 19 digits fit `i64` below 9223372036854775808; 20 never do.
            4 => {
                let sign = ["", "-", "+"][self.below(3)];
                format!("{sign}{}", self.digits(19))
            }
            5 => {
                let sign = ["", "-"][self.below(2)];
                format!("{sign}{}", self.digits(20))
            }
            6 => {
                // A token with a non-separator inside.
                let v = self.below(50).to_string();
                let cut = self.below(v.len() + 1);
                format!("{}{}{}", &v[..cut], self.pick(NOT_SEPARATORS), &v[cut..])
            }
            _ => {
                let v = [i64::MAX, i64::MIN, i64::MAX - 1, i64::MIN + 1, 0][self.below(5)];
                self.int(v)
            }
        }
    }
}

/// One valid `job` line's tokens: a window that fits its length.
fn valid_job(d: &mut Draw) -> Vec<String> {
    let r = d.below(100) as i64 - 50;
    let p = 1 + d.below(20) as i64;
    let slack = d.below(10) as i64;
    vec!["job".into(), d.int(r), d.int(r + p + slack), d.int(p)]
}

/// One valid `g` line's tokens.
fn g_line(d: &mut Draw) -> Vec<String> {
    let g = 1 + d.below(5) as i64;
    vec!["g".into(), d.int(g)]
}

/// `tokens` joined by separators, padded, maybe with a comment.
fn line(d: &mut Draw, tokens: &[String]) -> String {
    let mut out = d.pad().to_string();
    for (k, t) in tokens.iter().enumerate() {
        if k > 0 {
            out.push_str(d.sep());
            if d.below(4) == 0 {
                out.push_str(d.sep());
            }
        }
        out.push_str(t);
    }
    out.push_str(d.pad());
    if d.below(4) == 0 {
        out.push_str(["#", " # note", "#job 1 2 3", "# ünïcode\u{3000}#"][d.below(4)]);
    }
    out
}

/// A text of valid lines: a `g` line somewhere, jobs, comments and blank
/// lines, with LF or CRLF ends and maybe no end on the last line.
fn valid_text(draws: &[(u64, u64)]) -> String {
    let mut text = String::new();
    let at = draws
        .first()
        .map_or(0, |&(_, s)| s as usize % (draws.len() + 1));
    for (k, &(kind, seed)) in draws.iter().enumerate() {
        let d = &mut Draw(seed | 1);
        let tokens = if k == at {
            g_line(d)
        } else {
            match kind {
                0 => Vec::new(),
                _ => valid_job(d),
            }
        };
        text.push_str(&line(d, &tokens));
        text.push_str(["\n", "\r\n"][d.below(2)]);
    }
    if at == draws.len() {
        let d = &mut Draw(at as u64 | 1);
        let tokens = g_line(d);
        text.push_str(&line(d, &tokens));
    }
    text
}

/// A text mixing valid lines with every fault the format knows.
fn mixed_text(draws: &[(u64, u64)]) -> String {
    let mut text = String::new();
    for &(kind, seed) in draws {
        let d = &mut Draw(seed | 1);
        let tokens: Vec<String> = match kind {
            // Valid lines, twice as likely as each fault.
            0 | 1 => valid_job(d),
            2 => g_line(d),
            3 => Vec::new(),
            // Numbers of every shape.
            4 => vec!["job".into(), d.number(), d.number(), d.number()],
            5 => vec!["g".into(), d.number()],
            // Truncated lines and trailing tokens.
            6 => {
                let mut t = valid_job(d);
                t.truncate(d.below(4));
                t
            }
            7 => {
                let mut t = valid_job(d);
                t.push(d.number());
                t
            }
            // Unknown directives, some with non-separators inside.
            8 => {
                let tag = ["jobs", "G", "JOB", "frob", "gg", "j", "#"][d.below(7)];
                let tag = if d.below(2) == 0 {
                    format!("{tag}{}", d.pick(NOT_SEPARATORS))
                } else {
                    tag.to_string()
                };
                vec![tag, d.number()]
            }
            // Lengths that sum past `i64`, and inconsistent windows.
            9 => {
                let p = [i64::MAX, i64::MAX - 1, 1 << 62][d.below(3)];
                let r = [0, i64::MIN, -1][d.below(3)];
                vec!["job".into(), d.int(r), d.int(r.saturating_add(p)), d.int(p)]
            }
            _ => {
                let r = d.below(20) as i64 - 10;
                let w = d.below(5) as i64;
                let p = d.below(12) as i64 - 2;
                vec!["job".into(), d.int(r), d.int(r + w), d.int(p)]
            }
        };
        text.push_str(&line(d, &tokens));
        text.push_str(["\n", "\r\n", "\r", "\n\n"][d.below(4)]);
    }
    text
}

fn check(text: &str) -> Result<(), TestCaseError> {
    let got = io::read_instance(text);
    let want = oracle::read_instance(text);
    prop_assert_eq!(&got, &want, "on {:?}", text);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn valid_texts_parse_like_the_oracle(
        draws in proptest::collection::vec((0u64..5, 0u64..u64::MAX), 0..16),
    ) {
        let text = valid_text(&draws);
        check(&text)?;
        prop_assert!(io::read_instance(&text).is_ok(), "{:?} must parse", text);
    }

    #[test]
    fn valid_texts_with_one_char_inserted_parse_like_the_oracle(
        draws in proptest::collection::vec((0u64..5, 0u64..u64::MAX), 1..8),
        at in 0u64..u64::MAX,
        probe in 0..PROBES.len(),
    ) {
        let mut text = valid_text(&draws);
        let mut at = at as usize % (text.len() + 1);
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        text.insert_str(at, PROBES[probe]);
        check(&text)?;
    }

    #[test]
    fn mixed_texts_parse_like_the_oracle(
        draws in proptest::collection::vec((0u64..11, 0u64..u64::MAX), 0..10),
    ) {
        check(&mixed_text(&draws))?;
    }
}

/// Every kind of error the format can raise, one text each, and the
/// forms of whitespace and line end that must not matter.
#[test]
fn fixed_texts_parse_like_the_oracle() {
    let max = i64::MAX;
    let cases = [
        String::new(),
        "\n\n# only comments\n".into(),
        "g 2".into(),
        "g 2\r".into(),
        "g 2\r\njob 0 5 2\r\n".into(),
        "g 2\rjob 0 5 2\n".into(),
        "\u{feff}g 2\n".into(),
        "g\u{a0}2\njob\u{3000}0\u{85}5\u{2028}2\n".into(),
        "g\u{1c}2\n".into(),
        "g 2#\njob 0 5 2#3\n".into(),
        "g 0\n".into(),
        "g -1\n".into(),
        "g 9223372036854775808\n".into(),
        "g +9223372036854775807\n".into(),
        "g 2\njob 0 5\n".into(),
        "g 2\njob\n".into(),
        "g 2\njob 0 5 9\n".into(),
        "g 2\njob 0 5 0\n".into(),
        "g 2\njob 0 5 2 7\n".into(),
        "g 2 7\n".into(),
        "g 2\nfrob 1 2 3\n".into(),
        "g 2\njob 0 5 -\n".into(),
        "g 2\njob 0 5 +\n".into(),
        "g 2\njob 0 5 ++2\n".into(),
        "g 2\njob 0 99999999999999999999 2\n".into(),
        "g 2\njob -99999999999999999999 0 2\n".into(),
        format!("g 1\njob 0 {max} {max}\n"),
        format!("g 1\njob 0 {max} {max}\njob 0 1 1\n"),
        format!("g 3\njob -9223372036854775808 0 {max}\njob 0 {max} {max}\n"),
        format!("g 1\njob {} {max} 5\n", max - 1),
    ];
    for text in &cases {
        check(text).unwrap_or_else(|e| panic!("{e}"));
    }
    match io::read_instance("g 2\njob 0 5 ++2\n") {
        Err(Error::Parse { line, reason }) => {
            assert_eq!(line, 2);
            assert_eq!(reason, "bad length: invalid digit found in string");
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
}

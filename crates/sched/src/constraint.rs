//! The owner-constraint language and its compiler (Section 3.2).
//!
//! The paper: *"Our approach to the complex and varying constraints of
//! resource owners is to use a specialized language for specifying the
//! constraints, and to use a toolchain for enforcing constraints
//! specified in the language when scheduling virtual machines on the
//! host operating system."*
//!
//! This module is that toolchain. A policy text such as
//!
//! ```text
//! host cores 2;
//! owner reserve 0.5;
//! vm "grid-a" tickets 300;
//! vm "grid-b" share 0.25;
//! vm "render" realtime period 100ms slice 20ms;
//! ```
//!
//! is parsed, admission-checked (total real-time utilization plus the
//! owner reserve must fit the cores) and compiled into a concrete
//! scheduler configuration: an EDF scheduler with reservations when
//! any real-time clause is present, otherwise a stride
//! proportional-share scheduler with weights derived from tickets and
//! shares.

use std::collections::BTreeMap;
use std::fmt;

use gridvm_simcore::time::SimDuration;
use gridvm_simcore::units::Share;

use crate::scheduler::{Reservation, SchedulerKind, TaskParams};

/// What a policy grants one VM.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Grant {
    /// Proportional-share tickets.
    Tickets(u32),
    /// A fraction of total host capacity.
    Fraction(f64),
    /// A periodic real-time reservation.
    Realtime(Reservation),
}

/// One VM's compiled entry.
#[derive(Clone, Debug, PartialEq)]
pub struct VmPolicy {
    /// The VM name from the policy text.
    pub name: String,
    /// The compiled grant.
    pub grant: Grant,
}

/// A parsed, admission-checked policy.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledPolicy {
    /// Host core count (`host cores N;`, default 1).
    pub cores: usize,
    /// CPU fraction reserved for the owner's interactive work
    /// (`owner reserve F;`, default 0).
    pub owner_reserve: Share,
    /// Per-VM grants, in declaration order.
    pub vms: Vec<VmPolicy>,
}

impl CompiledPolicy {
    /// The scheduler family this policy requires: EDF when any VM has
    /// a real-time clause or the owner reserves capacity, stride
    /// otherwise.
    pub fn scheduler_kind(&self) -> SchedulerKind {
        let needs_rt = !self.owner_reserve.is_zero()
            || self
                .vms
                .iter()
                .any(|v| matches!(v.grant, Grant::Realtime(_)));
        if needs_rt {
            SchedulerKind::Edf
        } else {
            SchedulerKind::Stride
        }
    }

    /// Scheduler parameters for each VM, in declaration order.
    ///
    /// Fractions compile to reservations under EDF and to weights
    /// under stride; tickets compile to best-effort weights either
    /// way.
    pub fn vm_params(&self) -> Vec<(String, TaskParams)> {
        let kind = self.scheduler_kind();
        self.vms
            .iter()
            .map(|v| {
                let params = match (v.grant, kind) {
                    (Grant::Tickets(t), _) => TaskParams::with_weight(t),
                    (Grant::Realtime(r), _) => TaskParams::with_reservation(r.period, r.slice),
                    (Grant::Fraction(f), SchedulerKind::Edf) => {
                        let period = SimDuration::from_millis(100);
                        let slice = period.mul_f64(f * self.cores as f64);
                        TaskParams::with_reservation(period, slice.min(period))
                    }
                    (Grant::Fraction(f), _) => {
                        TaskParams::with_weight(((f * 1000.0).round() as u32).max(1))
                    }
                };
                (v.name.clone(), params)
            })
            .collect()
    }

    /// Scheduler parameters for the owner's interactive pseudo-task,
    /// when the policy reserves owner capacity.
    pub fn owner_params(&self) -> Option<TaskParams> {
        if self.owner_reserve.is_zero() {
            return None;
        }
        let period = SimDuration::from_millis(100);
        let slice = period.mul_f64(self.owner_reserve.as_f64() * self.cores as f64);
        Some(TaskParams::with_reservation(period, slice.min(period)))
    }
}

/// Errors from parsing or admission-checking a policy.
#[derive(Clone, Debug, PartialEq)]
pub enum PolicyError {
    /// Lexical error at byte offset.
    Lex {
        /// Byte offset of the offending character.
        offset: usize,
        /// The character.
        found: char,
    },
    /// Unexpected token.
    Parse {
        /// What the parser expected.
        expected: &'static str,
        /// What it found.
        found: String,
    },
    /// A numeric field was out of range.
    Range {
        /// Which field.
        what: &'static str,
        /// The offending value, rendered.
        value: String,
    },
    /// Two VM statements share a name.
    DuplicateVm(
        /// The duplicated name.
        String,
    ),
    /// The combined real-time demand exceeds host capacity.
    Overcommitted {
        /// Total demanded utilization in CPUs.
        demanded: f64,
        /// Available CPUs.
        cores: usize,
    },
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::Lex { offset, found } => {
                write!(f, "unexpected character {found:?} at offset {offset}")
            }
            PolicyError::Parse { expected, found } => {
                write!(f, "expected {expected}, found {found}")
            }
            PolicyError::Range { what, value } => {
                write!(f, "{what} out of range: {value}")
            }
            PolicyError::DuplicateVm(name) => write!(f, "duplicate vm {name:?}"),
            PolicyError::Overcommitted { demanded, cores } => write!(
                f,
                "policy demands {demanded:.2} CPUs of guaranteed capacity but host has {cores}"
            ),
        }
    }
}

impl std::error::Error for PolicyError {}

#[derive(Clone, Debug, PartialEq)]
enum Token {
    Ident(String),
    Number(f64),
    Duration(SimDuration),
    Str(String),
    Semi,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "identifier {s:?}"),
            Token::Number(n) => write!(f, "number {n}"),
            Token::Duration(d) => write!(f, "duration {d}"),
            Token::Str(s) => write!(f, "string {s:?}"),
            Token::Semi => write!(f, "';'"),
        }
    }
}

fn lex(src: &str) -> Result<Vec<Token>, PolicyError> {
    let mut out = Vec::new();
    let bytes: Vec<char> = src.chars().collect();
    // Errors report byte offsets into `src`; `i` indexes chars.
    let byte_offset = |i: usize| bytes[..i].iter().map(|c| c.len_utf8()).sum::<usize>();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if c.is_whitespace() {
            i += 1;
        } else if c == '#' {
            while i < bytes.len() && bytes[i] != '\n' {
                i += 1;
            }
        } else if c == ';' {
            out.push(Token::Semi);
            i += 1;
        } else if c == '"' {
            let start = i + 1;
            let mut j = start;
            while j < bytes.len() && bytes[j] != '"' {
                j += 1;
            }
            if j == bytes.len() {
                return Err(PolicyError::Lex {
                    offset: byte_offset(i),
                    found: '"',
                });
            }
            out.push(Token::Str(bytes[start..j].iter().collect()));
            i = j + 1;
        } else if c.is_ascii_digit() || c == '.' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == '.') {
                i += 1;
            }
            let num: String = bytes[start..i].iter().collect();
            let value: f64 = num.parse().map_err(|_| PolicyError::Parse {
                expected: "number",
                found: num.clone(),
            })?;
            // Optional duration suffix.
            let mut suffix = String::new();
            while i < bytes.len() && bytes[i].is_ascii_alphabetic() {
                suffix.push(bytes[i]);
                i += 1;
            }
            let per_sec = match suffix.as_str() {
                "" => {
                    out.push(Token::Number(value));
                    continue;
                }
                "us" => 1e6,
                "ms" => 1e3,
                "s" => 1.0,
                other => {
                    return Err(PolicyError::Parse {
                        expected: "duration unit (us/ms/s)",
                        found: other.to_owned(),
                    })
                }
            };
            let secs = value / per_sec;
            // A duration must be a finite span that fits the
            // nanosecond clock; anything else is out of range, not a
            // reason to panic.
            if !secs.is_finite() || secs * 1e9 > u64::MAX as f64 {
                return Err(PolicyError::Range {
                    what: "duration",
                    value: format!("{num}{suffix}"),
                });
            }
            out.push(Token::Duration(SimDuration::from_secs_f64(secs)));
        } else if c.is_ascii_alphabetic() || c == '_' || c == '-' {
            let start = i;
            while i < bytes.len()
                && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_' || bytes[i] == '-')
            {
                i += 1;
            }
            out.push(Token::Ident(bytes[start..i].iter().collect()));
        } else {
            return Err(PolicyError::Lex {
                offset: byte_offset(i),
                found: c,
            });
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self, expected: &'static str) -> Result<Token, PolicyError> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or(PolicyError::Parse {
                expected,
                found: "end of input".to_owned(),
            })?;
        self.pos += 1;
        Ok(t)
    }

    fn keyword(&mut self, kw: &'static str) -> Result<(), PolicyError> {
        match self.next(kw)? {
            Token::Ident(s) if s == kw => Ok(()),
            other => Err(PolicyError::Parse {
                expected: kw,
                found: other.to_string(),
            }),
        }
    }

    fn number(&mut self, what: &'static str) -> Result<f64, PolicyError> {
        match self.next(what)? {
            Token::Number(n) => Ok(n),
            other => Err(PolicyError::Parse {
                expected: what,
                found: other.to_string(),
            }),
        }
    }

    fn duration(&mut self, what: &'static str) -> Result<SimDuration, PolicyError> {
        match self.next(what)? {
            Token::Duration(d) => Ok(d),
            other => Err(PolicyError::Parse {
                expected: what,
                found: other.to_string(),
            }),
        }
    }

    fn semi(&mut self) -> Result<(), PolicyError> {
        match self.next("';'")? {
            Token::Semi => Ok(()),
            other => Err(PolicyError::Parse {
                expected: "';'",
                found: other.to_string(),
            }),
        }
    }
}

/// Parses and admission-checks a policy text.
///
/// # Errors
///
/// Returns a [`PolicyError`] on lexical or syntax errors, duplicate
/// VM names, out-of-range values, or a real-time demand (including
/// the owner reserve) exceeding the declared core count.
///
/// ```
/// use gridvm_sched::constraint::compile;
/// let p = compile(r#"
///     host cores 2;
///     owner reserve 0.5;
///     vm "grid-a" tickets 300;
/// "#)?;
/// assert_eq!(p.cores, 2);
/// assert_eq!(p.vms.len(), 1);
/// # Ok::<(), gridvm_sched::PolicyError>(())
/// ```
pub fn compile(src: &str) -> Result<CompiledPolicy, PolicyError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut cores = 1usize;
    let mut owner_reserve = Share::ZERO;
    let mut vms: Vec<VmPolicy> = Vec::new();
    let mut seen: BTreeMap<String, ()> = BTreeMap::new();

    while let Some(tok) = p.peek() {
        match tok {
            Token::Ident(kw) if kw == "host" => {
                p.keyword("host")?;
                p.keyword("cores")?;
                let n = p.number("core count")?;
                if !(1.0..=1024.0).contains(&n) || n.fract() != 0.0 {
                    return Err(PolicyError::Range {
                        what: "core count",
                        value: n.to_string(),
                    });
                }
                cores = n as usize;
                p.semi()?;
            }
            Token::Ident(kw) if kw == "owner" => {
                p.keyword("owner")?;
                p.keyword("reserve")?;
                let f = p.number("owner reserve fraction")?;
                if !(0.0..=1.0).contains(&f) {
                    return Err(PolicyError::Range {
                        what: "owner reserve",
                        value: f.to_string(),
                    });
                }
                owner_reserve = Share::new(f);
                p.semi()?;
            }
            Token::Ident(kw) if kw == "vm" => {
                p.keyword("vm")?;
                let name = match p.next("vm name")? {
                    Token::Str(s) | Token::Ident(s) => s,
                    other => {
                        return Err(PolicyError::Parse {
                            expected: "vm name",
                            found: other.to_string(),
                        })
                    }
                };
                if seen.insert(name.clone(), ()).is_some() {
                    return Err(PolicyError::DuplicateVm(name));
                }
                let grant = match p.next("grant clause")? {
                    Token::Ident(c) if c == "tickets" => {
                        let n = p.number("ticket count")?;
                        if !(1.0..=1e6).contains(&n) || n.fract() != 0.0 {
                            return Err(PolicyError::Range {
                                what: "tickets",
                                value: n.to_string(),
                            });
                        }
                        Grant::Tickets(n as u32)
                    }
                    Token::Ident(c) if c == "share" => {
                        let f = p.number("share fraction")?;
                        if !(0.0 < f && f <= 1.0) {
                            return Err(PolicyError::Range {
                                what: "share",
                                value: f.to_string(),
                            });
                        }
                        Grant::Fraction(f)
                    }
                    Token::Ident(c) if c == "realtime" => {
                        p.keyword("period")?;
                        let period = p.duration("period duration")?;
                        p.keyword("slice")?;
                        let slice = p.duration("slice duration")?;
                        if period.is_zero() || slice.is_zero() || slice > period {
                            return Err(PolicyError::Range {
                                what: "realtime reservation",
                                value: format!("period {period} slice {slice}"),
                            });
                        }
                        Grant::Realtime(Reservation { period, slice })
                    }
                    other => {
                        return Err(PolicyError::Parse {
                            expected: "tickets/share/realtime",
                            found: other.to_string(),
                        })
                    }
                };
                p.semi()?;
                vms.push(VmPolicy { name, grant });
            }
            other => {
                return Err(PolicyError::Parse {
                    expected: "host/owner/vm statement",
                    found: other.to_string(),
                })
            }
        }
    }

    // Admission check: guaranteed capacity must fit.
    let mut demanded = owner_reserve.as_f64() * cores as f64;
    for v in &vms {
        demanded += match v.grant {
            Grant::Realtime(r) => r.utilization(),
            Grant::Fraction(f) => f * cores as f64,
            Grant::Tickets(_) => 0.0, // best effort
        };
    }
    if demanded > cores as f64 + 1e-9 {
        return Err(PolicyError::Overcommitted { demanded, cores });
    }

    Ok(CompiledPolicy {
        cores,
        owner_reserve,
        vms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_full_policy() {
        let p = compile(
            r#"
            # a comment
            host cores 2;
            owner reserve 0.5;
            vm "grid-a" tickets 300;
            vm "grid-b" share 0.25;
            vm render realtime period 100ms slice 20ms;
            "#,
        )
        .expect("valid policy");
        assert_eq!(p.cores, 2);
        assert_eq!(p.owner_reserve, Share::new(0.5));
        assert_eq!(p.vms.len(), 3);
        assert_eq!(p.vms[0].grant, Grant::Tickets(300));
        assert_eq!(p.vms[1].grant, Grant::Fraction(0.25));
        assert!(matches!(p.vms[2].grant, Grant::Realtime(_)));
    }

    #[test]
    fn empty_policy_is_default() {
        let p = compile("").expect("empty ok");
        assert_eq!(p.cores, 1);
        assert!(p.owner_reserve.is_zero());
        assert!(p.vms.is_empty());
        assert_eq!(p.scheduler_kind(), SchedulerKind::Stride);
        assert!(p.owner_params().is_none());
    }

    #[test]
    fn realtime_or_reserve_selects_edf() {
        let rt = compile(r#"vm a realtime period 10ms slice 1ms;"#).unwrap();
        assert_eq!(rt.scheduler_kind(), SchedulerKind::Edf);
        let owner = compile("owner reserve 0.3;").unwrap();
        assert_eq!(owner.scheduler_kind(), SchedulerKind::Edf);
        let plain = compile(r#"vm a tickets 100;"#).unwrap();
        assert_eq!(plain.scheduler_kind(), SchedulerKind::Stride);
    }

    #[test]
    fn vm_params_translate_grants() {
        let p = compile(
            r#"
            host cores 2;
            vm a share 0.5;
            vm b tickets 42;
            "#,
        )
        .unwrap();
        let params = p.vm_params();
        assert_eq!(params[0].1.weight, 500);
        assert_eq!(params[1].1.weight, 42);
    }

    #[test]
    fn shares_become_reservations_under_edf() {
        let p = compile(
            r#"
            host cores 2;
            owner reserve 0.25;
            vm a share 0.5;
            "#,
        )
        .unwrap();
        let params = p.vm_params();
        let r = params[0]
            .1
            .reservation
            .expect("share compiled to reservation");
        // 0.5 of a 2-core host = 1.0 CPU = 100ms per 100ms period.
        assert_eq!(r.slice, SimDuration::from_millis(100));
        let o = p.owner_params().expect("owner reserved");
        assert_eq!(o.reservation.unwrap().slice, SimDuration::from_millis(50));
    }

    #[test]
    fn overcommit_is_rejected() {
        let err = compile(
            r#"
            host cores 1;
            owner reserve 0.5;
            vm a share 0.4;
            vm b realtime period 100ms slice 20ms;
            "#,
        )
        .unwrap_err();
        match err {
            PolicyError::Overcommitted { demanded, cores } => {
                assert_eq!(cores, 1);
                assert!(demanded > 1.0);
            }
            other => panic!("expected overcommit, got {other}"),
        }
    }

    #[test]
    fn tickets_are_not_guaranteed_capacity() {
        // Huge ticket counts never overcommit — they are best effort.
        let p = compile(r#"vm a tickets 999999; vm b tickets 999999;"#);
        assert!(p.is_ok());
    }

    #[test]
    fn duplicate_vm_is_rejected() {
        let err = compile(r#"vm a tickets 1; vm a tickets 2;"#).unwrap_err();
        assert_eq!(err, PolicyError::DuplicateVm("a".to_owned()));
    }

    #[test]
    fn syntax_errors_are_reported() {
        assert!(matches!(
            compile("host cores two;"),
            Err(PolicyError::Parse { .. })
        ));
        assert!(matches!(
            compile("vm a share 1.5;"),
            Err(PolicyError::Range { .. })
        ));
        assert!(matches!(
            compile("vm a realtime period 10ms slice 20ms;"),
            Err(PolicyError::Range { .. })
        ));
        assert!(matches!(
            compile("host cores 2"),
            Err(PolicyError::Parse { .. })
        ));
        assert!(matches!(compile("@"), Err(PolicyError::Lex { .. })));
        assert!(matches!(
            compile("vm a tickets 5x;"),
            Err(PolicyError::Parse { .. })
        ));
        assert!(matches!(
            compile(r#"vm "unterminated tickets 5;"#),
            Err(PolicyError::Lex { .. })
        ));
    }

    #[test]
    fn durations_parse_all_units() {
        let p = compile(r#"vm a realtime period 1s slice 500000us;"#).unwrap();
        match p.vms[0].grant {
            Grant::Realtime(r) => {
                assert_eq!(r.period, SimDuration::from_secs(1));
                assert_eq!(r.slice, SimDuration::from_millis(500));
            }
            ref g => panic!("unexpected grant {g:?}"),
        }
    }

    #[test]
    fn oversized_durations_are_out_of_range() {
        // 1e11 s overflows the nanosecond clock; 300 digits parse to
        // an infinite f64. Neither may reach `SimDuration`'s panics.
        let huge = format!("vm a realtime period 1s slice {}us;", "9".repeat(300));
        for src in ["vm a realtime period 99999999999s slice 1ms;", &huge] {
            assert!(
                matches!(
                    compile(src),
                    Err(PolicyError::Range {
                        what: "duration",
                        ..
                    })
                ),
                "{src}"
            );
        }
    }

    #[test]
    fn lex_errors_report_byte_offsets() {
        // 'é' is two bytes: the '@' is char 18 but byte 19.
        let src = r#"vm "é" tickets 1; @"#;
        assert_eq!(
            compile(src),
            Err(PolicyError::Lex {
                offset: 19,
                found: '@'
            })
        );
        assert_eq!(&src[19..], "@");
    }

    const KEYWORDS: [&str; 10] = [
        "host", "cores", "owner", "reserve", "vm", "tickets", "share", "realtime", "period",
        "slice",
    ];

    /// Renders one token-soup element: `kind` picks the shape, `a`
    /// its value and `c` an arbitrary char.
    fn soup_token(kind: u32, a: u64, c: u32) -> String {
        let unit = ["us", "ms", "s"][(a % 3) as usize];
        match kind {
            0..=9 => KEYWORDS[kind as usize].to_owned(),
            10 => (a % 2000).to_string(),
            11 => format!("{}.{}", a % 3, a % 1000),
            12 => "9".repeat(15 + (a % 320) as usize),
            13 => format!("{}{unit}", a % 200_000),
            14 => format!("{}{unit}", "7".repeat(10 + (a % 320) as usize)),
            15 => format!("\"vm{}\"", a % 6),
            16 => ";".to_owned(),
            17 => format!("# note {a}\n"),
            18 => char::from_u32(c % 0x11_0000).unwrap_or('?').to_string(),
            // Whole statements, so admissible policies turn up too.
            19 => format!("host cores {};", a % 6),
            20 => format!("owner reserve 0.{};", a % 10),
            21 => format!("vm v{} share 0.{};", a % 1000, a % 100),
            22 => format!("vm v{} tickets {};", a % 1000, a % 5000),
            _ => format!(
                "vm v{} realtime period {}ms slice {}ms;",
                a % 1000,
                a % 200,
                (a >> 8) % 60
            ),
        }
    }

    proptest! {
        /// `compile` never panics on any token soup, every lexical
        /// error points at its character's byte offset, and every
        /// policy it accepts passes its own admission bound. Half the
        /// soups hold whole statements only, so accepted policies are
        /// common rather than rare.
        #[test]
        fn compile_never_panics_and_accepted_policies_fit(
            soup in collection::vec((0u32..24, 0u64..u64::MAX, 0u32..0x11_0000), 0..16),
            statements_only in ANY,
        ) {
            let src: Vec<String> = soup
                .iter()
                .map(|&(k, a, c)| soup_token(if statements_only { 19 + k % 5 } else { k }, a, c))
                .collect();
            let src = src.join(" ");
            match compile(&src) {
                Ok(p) => {
                    let cores = p.cores as f64;
                    let demanded = p.owner_reserve.as_f64() * cores
                        + p.vms
                            .iter()
                            .map(|v| match v.grant {
                                Grant::Realtime(r) => r.utilization(),
                                Grant::Fraction(f) => f * cores,
                                Grant::Tickets(_) => 0.0,
                            })
                            .sum::<f64>();
                    prop_assert!(demanded <= cores + 1e-9, "{src}: demands {demanded}");
                    let _ = (p.vm_params(), p.owner_params());
                }
                Err(PolicyError::Lex { offset, found }) => {
                    prop_assert!(src[offset..].starts_with(found), "{src}: offset {offset}");
                }
                Err(_) => {}
            }
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = PolicyError::Overcommitted {
            demanded: 1.5,
            cores: 1,
        };
        assert!(e.to_string().contains("1.50 CPUs"));
        let d = PolicyError::DuplicateVm("x".into());
        assert!(d.to_string().contains('x'));
    }
}

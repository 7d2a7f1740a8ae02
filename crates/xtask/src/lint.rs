//! The hot-path invariant linter: a lexer-based scanner (no `syn`, no
//! dependencies) that enforces the repository's performance and
//! correctness conventions where the type system cannot:
//!
//! * **hot-alloc** — no allocating constructs (`Vec::new`, `Box::new`,
//!   `vec![`, `format!`, `.to_vec()`, `.to_string()`, `.to_owned()`,
//!   `.clone()`, map/set constructors) between `// hot-path: begin` and
//!   `// hot-path: end` markers. The hot regions are the per-notification
//!   matching and routing paths whose zero-allocation property the bench
//!   suite (`alloc_regression.rs`) asserts end to end; the lint catches
//!   regressions at review time, per line.
//! * **hot-lock** — no lock acquisitions (`.lock()`, `.read()`,
//!   `.write()`) in hot regions: the route path reads only state its
//!   node owns on its event loop, the per-broker symbol table included,
//!   so it needs no lock.
//! * **wildcard-arm** — no `_ =>` match arms in protocol handler files
//!   (`broker.rs`, `client.rs`, `replicator.rs`), transport dispatch
//!   files (`wire.rs`, `process_rt.rs`, `supervisor.rs`) or the buffer
//!   policy file (`buffer.rs`): adding a `Message` variant, a frame tag, a
//!   link-down cause or a buffer policy must force every handler to
//!   decide, not silently swallow it.
//! * **safety-comment** — every `unsafe` item carries a `// SAFETY:`
//!   comment on it or in the comment block directly above it.
//! * **ordering-comment** — every atomic `Ordering::…` site carries a
//!   `// ordering:` comment on it or in the comment block directly above
//!   it, naming the invariant the ordering provides (what it pairs with,
//!   what would break if weakened). `crates/verify` is exempt: the model
//!   checker's internals *implement* orderings rather than relying on
//!   them.
//!
//! A finding can be waived for one line with `// lint: allow(<rule>)` on
//! that line or the line directly above. The lexer strips strings and
//! comments before matching, so fixtures and docs never trip the rules.

use std::fmt;

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path as given to [`lint_source`].
    pub path: String,
    /// 1-indexed line number.
    pub line: usize,
    /// Rule identifier (`hot-alloc`, `hot-lock`, …).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// Allocating constructs forbidden in hot regions. Boundary-checked: a
/// pattern starting with an identifier character only matches when not
/// preceded by one (`SmallVec::new` does not trip `Vec::new`).
const ALLOC_PATTERNS: &[(&str, &str)] = &[
    ("Vec::new", "allocates a fresh Vec; reuse a scratch buffer"),
    ("VecDeque::new", "allocates a fresh VecDeque; reuse a scratch buffer"),
    ("Box::new", "heap-allocates; hot paths pass borrows or reuse boxes"),
    ("HashMap::new", "allocates a fresh map; reuse or precompute"),
    ("HashSet::new", "allocates a fresh set; reuse or precompute"),
    ("BTreeMap::new", "allocates a fresh map; reuse or precompute"),
    ("String::new", "allocates a fresh String; hot paths use interned symbols"),
    ("vec!", "allocates a fresh Vec; reuse a scratch buffer"),
    ("format!", "allocates a String; hot paths must not build strings"),
    (".to_vec()", "copies into a fresh Vec; borrow or reuse a buffer"),
    (".to_string()", "allocates a String; hot paths use interned symbols"),
    (".to_owned()", "allocates an owned copy; borrow instead"),
    (".clone()", "deep-clones (or hides a refcount bump); use Arc::clone explicitly outside the hot region, or borrow"),
];

/// Lock acquisitions forbidden in hot regions.
const LOCK_PATTERNS: &[(&str, &str)] = &[
    (".lock()", "acquires a mutex; hot paths run on state their thread owns"),
    (".read()", "acquires a read lock; hot paths use cached snapshots"),
    (".write()", "acquires a write lock; never on the per-notification path"),
];

/// File names whose `match` arms must be exhaustive over protocol
/// messages (no `_ =>`). `wire.rs`, `process_rt.rs` and `supervisor.rs`
/// are the transport layer: frame-tag and link-down-cause dispatch must
/// name every variant so a new frame kind or failure cause forces the
/// reassembler, the peer loops and the supervisor to decide.
/// `replica.rs` and `replicated.rs` are the replication layer: replica
/// messages and broker-op application must enumerate every variant so a
/// new protocol or log-op kind forces the state machine to decide.
/// `buffer.rs` applies the buffer policies: a new `BufferSpec` variant must
/// be decided wherever a policy is applied.
const HANDLER_FILES: &[&str] = &[
    "buffer.rs",
    "broker.rs",
    "client.rs",
    "replicator.rs",
    "wire.rs",
    "process_rt.rs",
    "supervisor.rs",
    "replica.rs",
    "replicated.rs",
];

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Substring search with identifier-boundary checks on whichever ends of
/// the pattern are identifier characters.
fn has_token(code: &str, pat: &str) -> bool {
    let code_b = code.as_bytes();
    let pat_b = pat.as_bytes();
    let check_front = is_ident_char(pat_b[0]);
    let check_back = is_ident_char(pat_b[pat_b.len() - 1]);
    let mut from = 0;
    while let Some(pos) = code[from..].find(pat) {
        let start = from + pos;
        let end = start + pat.len();
        let front_ok = !check_front || start == 0 || !is_ident_char(code_b[start - 1]);
        let back_ok = !check_back || end == code_b.len() || !is_ident_char(code_b[end]);
        if front_ok && back_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

/// Lexer state carried across lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Code,
    /// Inside `/* … */`, with nesting depth (Rust block comments nest).
    BlockComment(u32),
    /// Inside a `"…"` string literal.
    Str,
    /// Inside a raw string literal closed by `"` + this many `#`s.
    RawStr(u32),
}

/// One source line split into its code text (strings blanked out,
/// comments removed) and its comment text (contents of `//…` and
/// `/*…*/` parts).
fn split_line(line: &str, mode: &mut Mode) -> (String, String) {
    let mut code = String::with_capacity(line.len());
    let mut comment = String::new();
    let b = line.as_bytes();
    let mut i = 0;
    while i < b.len() {
        match *mode {
            Mode::BlockComment(depth) => {
                if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    *mode = if depth > 1 { Mode::BlockComment(depth - 1) } else { Mode::Code };
                    i += 2;
                } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    *mode = Mode::BlockComment(depth + 1);
                    i += 2;
                } else {
                    comment.push(b[i] as char);
                    i += 1;
                }
            }
            Mode::Str => {
                if b[i] == b'\\' {
                    i += 2; // escape: skip the escaped byte (may run past EOL)
                } else if b[i] == b'"' {
                    *mode = Mode::Code;
                    code.push('"'); // closing quote of the blanked literal
                    i += 1;
                } else {
                    i += 1;
                }
            }
            Mode::RawStr(hashes) => {
                if b[i] == b'"' {
                    let h = hashes as usize;
                    if i + h < b.len()
                        && b[i + 1..].len() >= h
                        && b[i + 1..i + 1 + h].iter().all(|&c| c == b'#')
                    {
                        *mode = Mode::Code;
                        code.push('"');
                        i += 1 + h;
                        continue;
                    }
                }
                i += 1;
            }
            Mode::Code => {
                match b[i] {
                    b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                        comment.push_str(&line[i + 2..]);
                        i = b.len();
                    }
                    b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                        *mode = Mode::BlockComment(1);
                        i += 2;
                    }
                    b'"' => {
                        code.push('"'); // opening quote of the blanked literal
                        *mode = Mode::Str;
                        i += 1;
                    }
                    b'r' if i + 1 < b.len() && (b[i + 1] == b'"' || b[i + 1] == b'#') => {
                        // Raw string r"…" / r#"…"# (not an identifier like `radius`).
                        if i > 0 && is_ident_char(b[i - 1]) {
                            code.push('r');
                            i += 1;
                            continue;
                        }
                        let mut j = i + 1;
                        let mut hashes = 0u32;
                        while j < b.len() && b[j] == b'#' {
                            hashes += 1;
                            j += 1;
                        }
                        if j < b.len() && b[j] == b'"' {
                            code.push('"');
                            *mode = Mode::RawStr(hashes);
                            i = j + 1;
                        } else {
                            code.push('r'); // r#ident raw identifier or lone r
                            i += 1;
                        }
                    }
                    b'\'' => {
                        // Char literal or lifetime. `'x'` / `'\n'` are
                        // literals; `'a` followed by no closing quote is a
                        // lifetime — emit nothing either way (a char
                        // literal can't contain a lint token).
                        if i + 1 < b.len() && b[i + 1] == b'\\' {
                            // escaped char literal: skip to closing quote
                            let mut j = i + 2;
                            while j < b.len() && b[j] != b'\'' {
                                j += 1;
                            }
                            i = (j + 1).min(b.len());
                        } else if i + 2 < b.len() && b[i + 2] == b'\'' {
                            i += 3; // 'x'
                        } else {
                            code.push('\'');
                            i += 1; // lifetime
                        }
                    }
                    c => {
                        code.push(c as char);
                        i += 1;
                    }
                }
            }
        }
    }
    (code, comment)
}

/// Lints one file's source text. `path` is used for reporting and for the
/// path-scoped rules (handler files, the `crates/verify` ordering
/// exemption).
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    let norm = path.replace('\\', "/");
    let is_handler = HANDLER_FILES.iter().any(|f| norm.ends_with(&format!("/{f}")) || norm == *f)
        && norm.contains("/src/");
    let ordering_exempt = norm.contains("crates/verify/");

    let mut findings = Vec::new();
    let mut mode = Mode::Code;
    let mut in_hot = false;
    let mut hot_open_line = 0usize;
    // Recent lines as (comment text, had code) pairs: the proximity rules
    // search the contiguous run of comment-only lines directly above a
    // site, so a long comment block still counts as "on" its code line.
    let mut recent: Vec<(String, bool)> = Vec::new();

    for (idx, raw) in src.lines().enumerate() {
        let line_no = idx + 1;
        let (code, comment) = split_line(raw, &mut mode);
        let has_code = !code.trim().is_empty();
        // True if `needle` appears in this line's comment or in the
        // unbroken comment block directly above this line.
        let above = |needle: &str| {
            comment.contains(needle)
                || recent
                    .iter()
                    .rev()
                    .take_while(|(_, had_code)| !had_code)
                    .any(|(c, _)| c.contains(needle))
        };

        // Region markers and waivers live in comments.
        if comment.contains("hot-path: begin") {
            if in_hot {
                findings.push(Finding {
                    path: path.to_string(),
                    line: line_no,
                    rule: "hot-region",
                    message: format!(
                        "nested `hot-path: begin` (previous region opened on line {hot_open_line} never ended)"
                    ),
                });
            }
            in_hot = true;
            hot_open_line = line_no;
        }
        let allow = |rule: &str| {
            let tag = format!("lint: allow({rule})");
            comment.contains(&tag) || recent.last().is_some_and(|(c, _)| c.contains(&tag))
        };

        if in_hot {
            for (pat, why) in ALLOC_PATTERNS {
                if has_token(&code, pat) && !allow("hot-alloc") {
                    findings.push(Finding {
                        path: path.to_string(),
                        line: line_no,
                        rule: "hot-alloc",
                        message: format!("`{pat}` in a hot-path region: {why}"),
                    });
                }
            }
            for (pat, why) in LOCK_PATTERNS {
                if has_token(&code, pat) && !allow("hot-lock") {
                    findings.push(Finding {
                        path: path.to_string(),
                        line: line_no,
                        rule: "hot-lock",
                        message: format!("`{pat}` in a hot-path region: {why}"),
                    });
                }
            }
        }

        if is_handler && (code.contains("_ =>") || code.contains("_=>")) && !allow("wildcard-arm") {
            findings.push(Finding {
                path: path.to_string(),
                line: line_no,
                rule: "wildcard-arm",
                message: "`_ =>` in a protocol handler: list the ignored variants so new \
                          messages force a decision"
                    .to_string(),
            });
        }

        if has_token(&code, "unsafe") && !allow("safety-comment") && !above("SAFETY:") {
            findings.push(Finding {
                path: path.to_string(),
                line: line_no,
                rule: "safety-comment",
                message: "`unsafe` without a `// SAFETY:` comment on or directly above it"
                    .to_string(),
            });
        }

        if !ordering_exempt && !allow("ordering-comment") {
            let is_atomic_ordering = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"]
                .iter()
                .any(|o| has_token(&code, &format!("Ordering::{o}")));
            if is_atomic_ordering && !above("ordering:") {
                findings.push(Finding {
                    path: path.to_string(),
                    line: line_no,
                    rule: "ordering-comment",
                    message: "atomic ordering without a nearby `// ordering:` comment \
                              stating the invariant (what it pairs with, what breaks if \
                              weakened)"
                        .to_string(),
                });
            }
        }

        if comment.contains("hot-path: end") {
            if !in_hot {
                findings.push(Finding {
                    path: path.to_string(),
                    line: line_no,
                    rule: "hot-region",
                    message: "`hot-path: end` without a matching `begin`".to_string(),
                });
            }
            in_hot = false;
        }

        recent.push((comment, has_code));
        if recent.len() > 32 {
            recent.remove(0);
        }
    }

    if in_hot {
        findings.push(Finding {
            path: path.to_string(),
            line: hot_open_line,
            rule: "hot-region",
            message: "`hot-path: begin` never closed by a `hot-path: end`".to_string(),
        });
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(path: &str, src: &str) -> Vec<&'static str> {
        lint_source(path, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn allocation_in_hot_region_is_flagged() {
        let src = "\
fn cold() { let v = Vec::<u32>::new(); drop(v); }
// hot-path: begin
fn hot(out: &mut Vec<u32>) {
    let tmp = Vec::new();
    out.extend(tmp);
}
// hot-path: end
";
        let f = lint_source("crates/core/src/matching.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "hot-alloc");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn every_listed_allocator_is_caught_in_hot_code() {
        for snippet in [
            "let b = Box::new(1);",
            "let v = vec![1, 2];",
            "let s = format!(\"{x}\");",
            "let v = xs.to_vec();",
            "let s = name.to_string();",
            "let s = name.to_owned();",
            "let c = filter.clone();",
            "let m = HashMap::new();",
        ] {
            let src = format!("// hot-path: begin\nfn f() {{ {snippet} }}\n// hot-path: end\n");
            assert_eq!(
                rules("x/src/a.rs", &src),
                vec!["hot-alloc"],
                "snippet not caught: {snippet}"
            );
        }
    }

    #[test]
    fn lock_acquisition_in_hot_region_is_flagged() {
        let src = "\
// hot-path: begin
fn hot(&self) {
    let g = self.current.read();
}
// hot-path: end
";
        assert_eq!(rules("x/src/a.rs", src), vec!["hot-lock"]);
    }

    #[test]
    fn cold_code_is_not_flagged() {
        let src = "fn cold() { let v = Vec::new(); let g = m.lock(); format!(\"{v:?} {g:?}\"); }\n";
        assert!(lint_source("x/src/a.rs", src).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_trip_rules() {
        let src = "\
// hot-path: begin
fn hot() {
    // a comment mentioning Vec::new and .lock() is fine
    let s = \"Vec::new() .lock() format!\";
    let r = r#\"Box::new inside a raw string\"#;
    let _ = (s, r);
}
// hot-path: end
";
        assert!(lint_source("x/src/a.rs", src).is_empty());
    }

    #[test]
    fn identifier_boundaries_are_respected() {
        // `SmallVec::new` must not trip `Vec::new`.
        let src =
            "// hot-path: begin\nfn f() { let v = SmallVec::new_const(); }\n// hot-path: end\n";
        assert!(lint_source("x/src/a.rs", src).is_empty());
    }

    #[test]
    fn waiver_comment_suppresses_one_line() {
        let src = "\
// hot-path: begin
fn hot() {
    let v = Vec::new(); // lint: allow(hot-alloc) — cold branch, measured
    // lint: allow(hot-lock)
    let g = m.lock();
    let bad = Vec::new();
}
// hot-path: end
";
        let f = lint_source("x/src/a.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line), ("hot-alloc", 6));
    }

    #[test]
    fn wildcard_arm_in_handler_file_is_flagged() {
        let src = "fn on_message(m: Message) { match m { Message::A => {} _ => {} } }\n";
        assert_eq!(rules("crates/broker/src/client.rs", src), vec!["wildcard-arm"]);
        // Transport frame-tag dispatch files are held to the same rule.
        assert_eq!(rules("crates/net/src/wire.rs", src), vec!["wildcard-arm"]);
        assert_eq!(rules("crates/net/src/process_rt.rs", src), vec!["wildcard-arm"]);
        // The link supervisor dispatches on failure causes: same rule.
        assert_eq!(rules("crates/net/src/supervisor.rs", src), vec!["wildcard-arm"]);
        // Buffer-policy dispatch: same rule; the name is matched whole, so
        // the transport's `send_buffer.rs` is not a handler file.
        assert_eq!(rules("crates/mobility/src/buffer.rs", src), vec!["wildcard-arm"]);
        assert!(lint_source("crates/net/src/send_buffer.rs", src).is_empty());
        // Same code in a non-handler file: fine.
        assert!(lint_source("crates/broker/src/table.rs", src).is_empty());
        // Handler-named file outside src/ (a test fixture): fine.
        assert!(lint_source("crates/broker/tests/client.rs", src).is_empty());
    }

    #[test]
    fn unsafe_requires_a_safety_comment() {
        let bad = "fn f() { unsafe { do_it() } }\n";
        assert_eq!(rules("x/src/a.rs", bad), vec!["safety-comment"]);
        let good = "// SAFETY: checked by construction above.\nfn f() { unsafe { do_it() } }\n";
        assert!(lint_source("x/src/a.rs", good).is_empty());
    }

    #[test]
    fn atomic_ordering_requires_an_ordering_comment() {
        let bad = "fn f(a: &AtomicU64) { a.load(Ordering::Acquire); }\n";
        assert_eq!(rules("crates/core/src/intern.rs", bad), vec!["ordering-comment"]);
        let good = "\
// ordering: Acquire pairs with the Release store in publish().
fn f(a: &AtomicU64) { a.load(Ordering::Acquire); }
";
        assert!(lint_source("crates/core/src/intern.rs", good).is_empty());
        // cmp::Ordering is not an atomic ordering.
        let cmp = "fn f() { if x.cmp(&y) == Ordering::Less {} }\n";
        assert!(lint_source("crates/core/src/value.rs", cmp).is_empty());
        // crates/verify implements the model's orderings; exempt.
        assert!(lint_source("crates/verify/src/sched.rs", bad).is_empty());
    }

    #[test]
    fn unbalanced_hot_region_is_flagged() {
        let open = "// hot-path: begin\nfn f() {}\n";
        assert_eq!(rules("x/src/a.rs", open), vec!["hot-region"]);
        let stray = "fn f() {}\n// hot-path: end\n";
        assert_eq!(rules("x/src/a.rs", stray), vec!["hot-region"]);
    }

    #[test]
    fn block_comments_span_lines() {
        let src = "\
// hot-path: begin
/* a block comment
   with Vec::new() inside
   spanning lines */
fn hot() {}
// hot-path: end
";
        assert!(lint_source("x/src/a.rs", src).is_empty());
    }

    #[test]
    fn lifetimes_do_not_derail_the_lexer() {
        let src = "\
// hot-path: begin
fn hot<'a>(x: &'a str) -> &'a str {
    let v = Vec::new();
    x
}
// hot-path: end
";
        assert_eq!(rules("x/src/a.rs", src), vec!["hot-alloc"]);
    }
}

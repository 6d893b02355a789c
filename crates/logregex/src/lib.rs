//! `logregex` — a small, dependency-free regular-expression engine used by the
//! ByteBrain-LogParser reproduction.
//!
//! The paper (§4.1.1) tokenizes logs with regular expressions and explicitly forbids
//! non-linear features such as look-around so that matching stays `O(n)`. This crate
//! implements exactly that subset:
//!
//! * literals, `.`, escapes (`\d`, `\w`, `\s`, `\D`, `\W`, `\S`, `\n`, `\t`, `\r`, `\\`, …)
//! * character classes `[...]` with ranges and negation
//! * grouping `( ... )` and non-capturing groups `(?: ... )`
//! * alternation `|`
//! * quantifiers `*`, `+`, `?`, `{m}`, `{m,}`, `{m,n}`
//! * anchors `^` and `$`
//!
//! Look-around, back-references and other exponential-worst-case features are rejected at
//! parse time, mirroring the restriction the paper places on user-supplied patterns.
//!
//! Matching runs over bytes. `.`, negated ASCII classes and `\D` / `\W` / `\S` consume
//! one whole UTF-8 character where they would consume a non-ASCII byte, and
//! [`Regex::find_iter`] (with everything built on it: `replace_all`, `split`, the
//! masking pipeline) never yields a match that starts or ends inside a character — so
//! the text around a match is always a valid `&str` slice.
//!
//! # Which path runs
//!
//! [`Regex::new`] compiles a pattern once into a Thompson-NFA [`Program`] and a DFA
//! table over byte equivalence classes whose rows are built lazily: a transition is
//! computed the first time a search needs it and never changes after, behind the
//! `Arc` every clone shares (a filled transition is read without a lock, a missing one
//! is filled under the table's one mutex). Every search ([`Regex::find_at`], and
//! through it `find`, `find_iter`, `replace_all`, `split`) walks the table in two
//! passes: forward to the end of the leftmost-longest match, then the reversed pattern
//! backward from there to its start. Each pass reads each byte at most once, so a
//! search costs `O(haystack)` table steps — each one lookup where the Pike VM advances
//! every live thread.
//!
//! Each direction of a table may hold a constant budget of states; a search that needs
//! one more finishes on the Pike VM, with the same answer, so `Regex::new` costs the
//! same whatever the pattern's state count, and [`Regex::dfa_states`] counts the
//! states built so far. In debug builds the VM also re-derives every table answer (one
//! `debug_assert_eq!`, in the search every entry point goes through).
//!
//! Iteration is linear too. A forward pass can run far past the match it returns (in
//! `\d+B|\d{2}` over a digit run, `\d+B` outlives every `\d{2}` match), and the next
//! pass of the same [`Regex::find_iter`] would read those bytes again. Both engines
//! keep a trail: a pass that runs well past its first accept records its state at each
//! offset, and a later pass that reaches a recorded state past the recording pass's
//! last accept stops there, since its future is the one that accepted nothing more.
//!
//! # Example
//!
//! ```
//! use logregex::Regex;
//!
//! let re = Regex::new(r"\d+\.\d+\.\d+\.\d+").unwrap();
//! assert!(re.is_match("connect from 10.2.3.4 ok"));
//! let masked = re.replace_all("connect from 10.2.3.4 ok", "<ip>");
//! assert_eq!(masked, "connect from <ip> ok");
//! ```

mod ast;
mod compile;
mod error;
mod matcher;
mod parser;
mod table;

pub use compile::{Program, StartBytes};
pub use error::RegexError;

use std::sync::Arc;
use table::DfaTable;

/// A compiled regular expression.
///
/// Construction parses and compiles the pattern once, into the NFA program and its
/// lazily built DFA table; matching is then a table walk, linear in the input length,
/// with no pathological backtracking. Clones share the program and the table, so a
/// state one clone's search builds serves every other clone.
#[derive(Debug, Clone)]
pub struct Regex {
    compiled: Arc<Compiled>,
}

#[derive(Debug)]
struct Compiled {
    pattern: String,
    program: Program,
    /// `None` only for [`Regex::pike_vm_only`]: every search then runs on the VM.
    table: Option<DfaTable>,
}

/// A single match: byte offsets `[start, end)` into the haystack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// Byte offset of the first byte of the match.
    pub start: usize,
    /// Byte offset one past the last byte of the match.
    pub end: usize,
}

impl Match {
    /// Length of the match in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the match is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The matched slice of `haystack`.
    pub fn as_str<'h>(&self, haystack: &'h str) -> &'h str {
        &haystack[self.start..self.end]
    }
}

/// What the passes of one iteration over one haystack leave for the next: each
/// engine's trail (see the crate docs), and the VM's thread lists.
#[derive(Debug, Default)]
struct Trails {
    table: table::Trail,
    vm: matcher::Cache,
}

impl Regex {
    /// Parse and compile `pattern`.
    ///
    /// Returns [`RegexError`] for syntax errors or for constructs outside the supported
    /// linear-time subset.
    pub fn new(pattern: &str) -> Result<Self, RegexError> {
        let ast = parser::parse(pattern)?.whole_scalars();
        let program = compile::compile(&ast);
        let table = Some(DfaTable::build(&ast, &program, table::MAX_STATES));
        Ok(Regex {
            compiled: Arc::new(Compiled {
                pattern: pattern.to_string(),
                program,
                table,
            }),
        })
    }

    /// This pattern without its DFA table: every search runs on the Pike VM. The
    /// reference the table is tested against (the differential suites); no production
    /// path calls it.
    pub fn pike_vm_only(&self) -> Regex {
        Regex {
            compiled: Arc::new(Compiled {
                pattern: self.compiled.pattern.clone(),
                program: self.compiled.program.clone(),
                table: None,
            }),
        }
    }

    /// Number of DFA states built so far (both directions, dead states included): it
    /// grows as searches need new states, up to a constant budget per direction. `None`
    /// for [`Regex::pike_vm_only`].
    pub fn dfa_states(&self) -> Option<usize> {
        self.compiled.table.as_ref().map(DfaTable::states)
    }

    /// The original pattern string.
    pub fn as_str(&self) -> &str {
        &self.compiled.pattern
    }

    /// True when the pattern matches anywhere in `haystack`.
    pub fn is_match(&self, haystack: &str) -> bool {
        self.find(haystack).is_some()
    }

    /// True when the pattern matches the *entire* haystack.
    pub fn is_full_match(&self, haystack: &str) -> bool {
        match self.find_at(haystack, 0) {
            Some(m) => m.start == 0 && m.end == haystack.len(),
            None => false,
        }
    }

    /// Leftmost-longest match in `haystack`, if any.
    pub fn find(&self, haystack: &str) -> Option<Match> {
        self.find_at(haystack, 0)
    }

    /// Leftmost-longest match starting at or after byte offset `start`.
    pub fn find_at(&self, haystack: &str, start: usize) -> Option<Match> {
        self.search(haystack, start, &mut Trails::default())
    }

    /// The one search every entry point goes through. The DFA table answers; the Pike
    /// VM runs for a search that needs a state past the table's budget, and for a
    /// pattern without a table. In debug builds the VM also re-derives every table
    /// answer (the seam's one `debug_assert_eq!`), with its own trail.
    fn search(&self, haystack: &str, start: usize, trails: &mut Trails) -> Option<Match> {
        let bytes = haystack.as_bytes();
        let Compiled {
            pattern,
            program,
            table,
        } = &*self.compiled;
        let tabled = table
            .as_ref()
            .and_then(|table| table.find_at(bytes, start, &mut trails.table).ok());
        let found = match tabled {
            Some(found) => {
                debug_assert_eq!(
                    found,
                    matcher::find_at(program, bytes, start, &mut trails.vm),
                    "DFA table of {pattern:?} diverged from the Pike VM at offset {start} \
                     of {haystack:?}"
                );
                found
            }
            None => matcher::find_at(program, bytes, start, &mut trails.vm),
        };
        if let Some(m) = found {
            trails.table.settle(m.end);
            trails.vm.settle(m.end);
        }
        found
    }

    /// Iterator over all non-overlapping matches, left to right. After an empty match
    /// the scan resumes at the next character boundary, never inside a multi-byte
    /// character, and a match that would start or end inside one (a byte-level class
    /// such as `\xa9`) is skipped: the scan resumes at the next boundary past its start.
    /// The whole iteration reads the haystack in time linear in its length for the
    /// shapes the crate docs name.
    pub fn find_iter<'r, 'h>(&'r self, haystack: &'h str) -> Matches<'r, 'h> {
        Matches {
            regex: self,
            haystack,
            pos: 0,
            trails: Trails::default(),
        }
    }

    /// Replace every non-overlapping match with `replacement` (a literal string).
    pub fn replace_all(&self, haystack: &str, replacement: &str) -> String {
        let mut out = String::with_capacity(haystack.len());
        self.replace_all_into(haystack, replacement, &mut out);
        out
    }

    /// Like [`Regex::replace_all`], but appends into a caller-provided buffer so hot
    /// paths (the streaming ingestion fast path) can reuse allocations across records.
    /// The buffer is *not* cleared first.
    pub fn replace_all_into(&self, haystack: &str, replacement: &str, out: &mut String) {
        let mut last = 0usize;
        for m in self.find_iter(haystack) {
            out.push_str(&haystack[last..m.start]);
            out.push_str(replacement);
            last = m.end;
        }
        out.push_str(&haystack[last..]);
    }

    /// Split `haystack` on every match, returning the (possibly empty) fragments between
    /// matches. Mirrors the behaviour the preprocessing pipeline needs for tokenization.
    pub fn split<'h>(&self, haystack: &'h str) -> Vec<&'h str> {
        let mut out = Vec::new();
        let mut last = 0usize;
        for m in self.find_iter(haystack) {
            out.push(&haystack[last..m.start]);
            last = m.end;
        }
        out.push(&haystack[last..]);
        out
    }

    /// Number of NFA instructions in the compiled program (useful for testing and for
    /// enforcing complexity budgets on user-supplied patterns).
    pub fn program_len(&self) -> usize {
        self.compiled.program.insts.len()
    }

    /// The compiled NFA program, exposing the first-byte prefilter for
    /// introspection (diagnostics and tests).
    pub fn program(&self) -> &Program {
        &self.compiled.program
    }
}

/// Parse `pattern` and render it back in canonical syntax.
///
/// The canonical form is stable — `canonicalize(canonicalize(p)?) == canonicalize(p)` —
/// and behaviour-preserving: the canonical pattern compiles to a program that matches
/// exactly what `pattern` matches. Character classes come back normalized (sorted,
/// merged ranges), groups come back non-capturing, and quantifiers come back in brace
/// form; the seeded fuzz suite exercises the round-trip on arbitrary inputs.
pub fn canonicalize(pattern: &str) -> Result<String, RegexError> {
    Ok(parser::parse(pattern)?.to_pattern())
}

/// Iterator returned by [`Regex::find_iter`].
pub struct Matches<'r, 'h> {
    regex: &'r Regex,
    haystack: &'h str,
    pos: usize,
    trails: Trails,
}

impl<'r, 'h> Iterator for Matches<'r, 'h> {
    type Item = Match;

    fn next(&mut self) -> Option<Match> {
        let haystack = self.haystack;
        // The first character boundary after `at` (one past the end at the end).
        let boundary_after = |at: usize| {
            let mut next = at + 1;
            while next < haystack.len() && !haystack.is_char_boundary(next) {
                next += 1;
            }
            next
        };
        loop {
            if self.pos > haystack.len() {
                return None;
            }
            let m = self.regex.search(haystack, self.pos, &mut self.trails)?;
            if !(haystack.is_char_boundary(m.start) && haystack.is_char_boundary(m.end)) {
                self.pos = boundary_after(m.start);
                continue;
            }
            // Advance past the match; past an empty match, to the next character
            // boundary, so the iterator always terminates.
            self.pos = if m.is_empty() {
                boundary_after(m.end)
            } else {
                m.end
            };
            return Some(m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_match() {
        let re = Regex::new("error").unwrap();
        assert!(re.is_match("an error occurred"));
        assert!(!re.is_match("all good"));
        let m = re.find("an error occurred").unwrap();
        assert_eq!(m.as_str("an error occurred"), "error");
    }

    #[test]
    fn digits_and_plus() {
        let re = Regex::new(r"\d+").unwrap();
        let m = re.find("abc 12345 def").unwrap();
        assert_eq!(m.as_str("abc 12345 def"), "12345");
    }

    #[test]
    fn ip_address_pattern() {
        let re = Regex::new(r"\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}").unwrap();
        assert!(re.is_match("src=192.168.0.1 dst=10.0.0.2"));
        assert_eq!(
            re.replace_all("src=192.168.0.1 dst=10.0.0.2", "<ip>"),
            "src=<ip> dst=<ip>"
        );
    }

    #[test]
    fn alternation_and_groups() {
        let re = Regex::new("(cat|dog)s?").unwrap();
        assert!(re.is_match("three dogs"));
        assert!(re.is_match("one cat"));
        assert!(!re.is_match("a bird"));
    }

    #[test]
    fn char_class() {
        let re = Regex::new("[a-f0-9]+").unwrap();
        let m = re.find("zz=deadbeef42;").unwrap();
        assert_eq!(m.as_str("zz=deadbeef42;"), "deadbeef42");
        assert_eq!(m.start, 3);
        // Leftmost semantics: the earliest position in the class wins even if a longer
        // match exists later in the haystack.
        let m2 = re.find("id=deadbeef42;").unwrap();
        assert_eq!(m2.as_str("id=deadbeef42;"), "d");
    }

    #[test]
    fn negated_char_class() {
        let re = Regex::new("[^0-9]+").unwrap();
        let m = re.find("abc123").unwrap();
        assert_eq!(m.as_str("abc123"), "abc");
    }

    #[test]
    fn anchors() {
        let re = Regex::new("^error$").unwrap();
        assert!(re.is_match("error"));
        assert!(!re.is_match("an error"));
        assert!(!re.is_match("error!"));
    }

    #[test]
    fn bounded_repetition() {
        let re = Regex::new("a{2,3}").unwrap();
        assert!(!re.is_match("a"));
        assert!(re.is_match("aa"));
        let m = re.find("aaaa").unwrap();
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn exact_repetition() {
        let re = Regex::new("[0-9]{4}").unwrap();
        assert!(re.is_match("year 2025"));
        assert!(!re.is_match("day 12"));
    }

    #[test]
    fn optional() {
        let re = Regex::new("colou?r").unwrap();
        assert!(re.is_match("color"));
        assert!(re.is_match("colour"));
    }

    #[test]
    fn dot_matches_any_but_newline() {
        let re = Regex::new("a.c").unwrap();
        assert!(re.is_match("abc"));
        assert!(re.is_match("axc"));
        assert!(!re.is_match("a\nc"));
    }

    #[test]
    fn split_on_delimiters() {
        let re = Regex::new(r"[\s,;]+").unwrap();
        let parts = re.split("a, b;  c");
        assert_eq!(parts, vec!["a", "b", "c"]);
    }

    #[test]
    fn replace_all_non_overlapping() {
        let re = Regex::new(r"\d+").unwrap();
        assert_eq!(re.replace_all("a1b22c333", "*"), "a*b*c*");
    }

    #[test]
    fn full_match() {
        let re =
            Regex::new(r"[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}").unwrap();
        assert!(re.is_full_match("123e4567-e89b-12d3-a456-426614174000"));
        assert!(!re.is_full_match("x123e4567-e89b-12d3-a456-426614174000"));
    }

    #[test]
    fn empty_pattern_matches_empty() {
        let re = Regex::new("").unwrap();
        assert!(re.is_match("anything"));
        let m = re.find("abc").unwrap();
        assert!(m.is_empty());
    }

    #[test]
    fn escaped_metacharacters() {
        let re = Regex::new(r"\[\d+\]").unwrap();
        assert!(re.is_match("pid[1234] started"));
        assert_eq!(
            re.replace_all("pid[1234] started", "<pid>"),
            "pid<pid> started"
        );
    }

    #[test]
    fn lookaround_is_rejected() {
        assert!(Regex::new(r"(?=abc)").is_err());
        assert!(Regex::new(r"(?!abc)").is_err());
        assert!(Regex::new(r"(?<=a)b").is_err());
    }

    #[test]
    fn backreference_is_rejected() {
        assert!(Regex::new(r"(a)\1").is_err());
    }

    #[test]
    fn unbalanced_parens_rejected() {
        assert!(Regex::new("(abc").is_err());
        assert!(Regex::new("abc)").is_err());
        assert!(Regex::new("[abc").is_err());
    }

    #[test]
    fn find_iter_positions() {
        let re = Regex::new("ab").unwrap();
        let ms: Vec<Match> = re.find_iter("abxabxab").collect();
        assert_eq!(ms.len(), 3);
        assert_eq!(ms[0].start, 0);
        assert_eq!(ms[1].start, 3);
        assert_eq!(ms[2].start, 6);
    }

    #[test]
    fn word_class() {
        let re = Regex::new(r"\w+").unwrap();
        let parts: Vec<_> = re
            .find_iter("hello, world_2!")
            .map(|m| m.as_str("hello, world_2!"))
            .collect();
        assert_eq!(parts, vec!["hello", "world_2"]);
    }

    #[test]
    fn timestamp_pattern() {
        let re = Regex::new(r"\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2}").unwrap();
        let s = "2025-01-02 13:14:15 INFO started";
        assert_eq!(re.replace_all(s, "<ts>"), "<ts> INFO started");
    }

    #[test]
    fn leftmost_longest_alternation() {
        // Leftmost-longest semantics: at the same start, the longer alternative wins.
        let re = Regex::new("(foo|foobar)").unwrap();
        let m = re.find("xfoobar").unwrap();
        assert_eq!(m.as_str("xfoobar"), "foobar");
    }

    #[test]
    fn empty_matches_step_over_whole_characters() {
        // One byte past the empty match at 0 is inside `é`: resuming there would
        // slice the haystack mid-character. Both search paths must step over it.
        let re = Regex::new(r"\d*").unwrap();
        for re in [re.clone(), re.pike_vm_only()] {
            assert_eq!(re.replace_all("é1", "<*>"), "<*>é<*><*>");
            assert_eq!(re.split("用户 42"), vec!["", "用", "户", " ", "", ""]);
        }
    }

    #[test]
    fn dot_and_negated_classes_consume_whole_characters() {
        // `.` used to stop one byte into `é` and slicing there panicked.
        for (pattern, haystack, masked) in [
            ("x.", "axé b", "a<*> b"),
            ("id=.", "user id=é ok", "user <*> ok"),
            ("[^ ]+", "用户 登录", "<*> <*>"),
            (r"\S\D", "🦀é", "<*>"),
            ("a.{2}b", "a用户b aéb", "<*> aéb"),
        ] {
            let re = Regex::new(pattern).unwrap();
            for re in [re.clone(), re.pike_vm_only()] {
                assert_eq!(re.replace_all(haystack, "<*>"), masked, "{pattern:?}");
            }
        }
        // A byte-level class can still match inside a character: such a match is
        // skipped, never sliced.
        let re = Regex::new(r"\xa9x").unwrap();
        assert_eq!(re.find("éx"), Some(Match { start: 1, end: 3 }));
        for re in [re.clone(), re.pike_vm_only()] {
            assert_eq!(re.replace_all("éx éx", "<*>"), "éx éx");
            assert_eq!(re.find_iter("éx").count(), 0);
        }
    }

    #[test]
    fn long_digit_run_stays_linear() {
        // Every start of the run walks to its end before failing on the space: a table
        // restarted at each start would take ~20,000²/2 steps.
        let re = Regex::new(r"\d+(\.\d+)?(KB|MB|GB|TB|kb|mb|gb|B)").unwrap();
        let haystack = format!("{} B", "1".repeat(20_000));
        let started = std::time::Instant::now();
        assert_eq!(re.find(&haystack), None);
        let elapsed = started.elapsed();
        assert!(
            elapsed < std::time::Duration::from_millis(100),
            "search took {elapsed:?}"
        );
    }

    #[test]
    fn iterating_past_matches_an_outliving_thread_spans_stays_linear() {
        // `\d+B` lives to the end of the run while `\d{2}` matches every two digits:
        // without the trail every pass would walk the rest of the run.
        let re = Regex::new(r"\d+B|\d{2}").unwrap();
        let haystack = format!("{} B", "1".repeat(100_000));
        let started = std::time::Instant::now();
        let masked = re.replace_all(&haystack, "<*>");
        let elapsed = started.elapsed();
        assert_eq!(masked, format!("{} B", "<*>".repeat(50_000)));
        assert!(
            elapsed < std::time::Duration::from_millis(500),
            "iteration took {elapsed:?}"
        );
    }

    #[test]
    fn clones_share_one_lazily_built_table() {
        let re = Regex::new(r"\d+(\.\d+)?(ms|us|ns|sec|secs|seconds)").unwrap();
        let clone = re.clone();
        assert!(Arc::ptr_eq(&re.compiled, &clone.compiled));
        let cold = re.dfa_states().unwrap();
        assert_eq!(clone.replace_all("took 35ms", "<*>"), "took <*>");
        assert!(re.dfa_states().unwrap() > cold);
        assert_eq!(re.pike_vm_only().dfa_states(), None);
    }

    #[test]
    fn unicode_passthrough_bytes() {
        // Non-ASCII input: matching operates on bytes; literal ASCII still matches.
        let re = Regex::new("lock").unwrap();
        assert!(re.is_match("获取 lock 成功"));
    }
}

//! Common variable replacement (§4.1.2).
//!
//! Users may supply regex patterns for obvious variables so that clustering does not have
//! to discover them. The paper ships default patterns per topic for timestamps, IP
//! addresses, MD5 hashes, UUIDs "and so on"; this module provides the equivalent default
//! rule set plus the ability to add domain-specific rules.
//!
//! Masked spans are replaced by the wildcard token `<*>` so downstream clustering treats
//! them as already-resolved variable positions.
//!
//! # What masking means
//!
//! A [`Masker`] compiles its rules into one pattern, their union, and masks a line in
//! one left-to-right scan: at the leftmost offset where any rule matches, the longest
//! match of any rule becomes `<*>`, and the scan resumes after it. That is not the same
//! as applying the rules one after another, where a later rule sees an earlier one's
//! `<*>` and an earlier rule can claim text a later rule's match would start left of:
//!
//! * `key 0x` + 32×`a` + ` end` — the scan masks `0x` + 16×`a` (long-hex starts
//!   first), rule by rule md5 takes the 32 `a`s;
//! * `id ` + 30×`b` + `12:34:56 x` — the scan masks 30×`b` + `12` (md5 starts first),
//!   rule by rule clock-time takes `12:34:56`.
//!
//! On every line of the `datasets` corpora the two agree. The rule-by-rule loop is
//! kept only as the reference the scan is tested against
//! ([`Masker::mask_rule_by_rule`]).

use crate::WILDCARD;
use logregex::{Regex, RegexError};
use std::sync::OnceLock;

/// One masking rule: a named pattern whose matches become `<*>`.
#[derive(Debug, Clone)]
pub struct MaskRule {
    /// Human-readable rule name (used in diagnostics and the service UI).
    pub name: String,
    regex: Regex,
}

impl MaskRule {
    /// Create a rule that replaces every match of `pattern` with `<*>`.
    pub fn new(name: &str, pattern: &str) -> Result<Self, RegexError> {
        Ok(MaskRule {
            name: name.to_string(),
            regex: Regex::new(pattern)?,
        })
    }
}

/// A set of masking rules applied to each raw log record, as one scan over their
/// union (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct Masker {
    rules: Vec<MaskRule>,
    /// `(?:r₁)|(?:r₂)|…` over `rules`; `None` when there are none.
    union: Option<Regex>,
}

/// A run of masked text that masking left as it was in the raw record: the `len`
/// bytes at `masked` in the masked text are the bytes at `raw` in the record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KeptRun {
    pub(crate) masked: usize,
    pub(crate) raw: usize,
    pub(crate) len: usize,
}

impl Masker {
    /// A masker with no rules (masking disabled).
    pub fn empty() -> Self {
        Masker::default()
    }

    /// The default rule set: timestamps, IPs, UUIDs, MD5/long-hex ids, and memory sizes.
    ///
    /// These mirror the "default patterns for common variables" the paper provides per
    /// topic. The rules deliberately target unambiguous formats; plain decimal integers
    /// are *not* masked by default because they are frequently structural (error codes,
    /// levels) and the clustering stage resolves them on its own.
    ///
    /// The set is compiled once per process; every call returns a clone sharing its
    /// union's DFA table, so every parser and topic reads one warm table.
    pub fn default_rules() -> Self {
        static DEFAULT: OnceLock<Masker> = OnceLock::new();
        DEFAULT
            .get_or_init(|| {
                let rules: &[(&str, &str)] = &[
                    (
                        "iso-timestamp",
                        r"\d{4}-\d{2}-\d{2}[ T]\d{2}:\d{2}:\d{2}(\.\d+)?",
                    ),
                    ("clock-time", r"\d{2}:\d{2}:\d{2}(\.\d+)?"),
                    (
                        "ipv4",
                        r"\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}(/\d{1,2})?(:\d{1,5})?",
                    ),
                    (
                        "uuid",
                        r"[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}",
                    ),
                    ("md5", r"[0-9a-f]{32}"),
                    ("long-hex", r"0x[0-9a-fA-F]{4,16}"),
                    ("mem-size", r"\d+(\.\d+)?(KB|MB|GB|TB|kb|mb|gb|B)"),
                    ("duration-ms", r"\d+(\.\d+)?(ms|us|ns|sec|secs|seconds)"),
                ];
                let rules = rules
                    .iter()
                    .map(|(name, pattern)| {
                        MaskRule::new(name, pattern).expect("default mask rule must compile")
                    })
                    .collect();
                Masker::from_rules(rules)
            })
            .clone()
    }

    fn from_rules(rules: Vec<MaskRule>) -> Self {
        let union = (!rules.is_empty()).then(|| {
            let alternatives: Vec<String> = rules
                .iter()
                .map(|rule| format!("(?:{})", rule.regex.as_str()))
                .collect();
            Regex::new(&alternatives.join("|")).expect("a union of valid rules is valid")
        });
        Masker { rules, union }
    }

    /// Append a rule to the set.
    pub fn add_rule(&mut self, rule: MaskRule) {
        let mut rules = std::mem::take(&mut self.rules);
        rules.push(rule);
        *self = Masker::from_rules(rules);
    }

    /// Convenience: compile and append a rule.
    pub fn add_pattern(&mut self, name: &str, pattern: &str) -> Result<(), RegexError> {
        self.add_rule(MaskRule::new(name, pattern)?);
        Ok(())
    }

    /// Number of configured rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when no rules are configured.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Mask `record` and return the masked text.
    pub fn mask(&self, record: &str) -> String {
        let mut out = String::new();
        self.mask_kept(record, &mut out, None);
        out
    }

    /// Allocation-free variant of [`Masker::mask`] for hot paths: the masked record is
    /// left in `out`, whose capacity is reused across calls. `swap` is not written: one
    /// scan needs no second buffer.
    ///
    /// The scan is one `find_iter` over the union of the rules: its matches come from
    /// the union's shared, lazily built DFA table — a forward and a backward pass per
    /// match, the whole line linear in its length (see [`logregex`]'s crate docs) — so
    /// no lock is taken once the table is warm, and one masker is shared by every pool
    /// worker. The table's idle skip passes over every byte no rule can start with.
    pub fn mask_into(&self, record: &str, out: &mut String, _swap: &mut String) {
        self.mask_kept(record, out, None);
    }

    /// [`Masker::mask`] into `out` that, given `kept`, also leaves there the runs of
    /// `out` masking left as they were in `record` (ascending), so a token of the
    /// masked text maps back to a span of the record.
    pub(crate) fn mask_kept(
        &self,
        record: &str,
        out: &mut String,
        mut kept: Option<&mut Vec<KeptRun>>,
    ) {
        out.clear();
        if let Some(runs) = kept.as_deref_mut() {
            runs.clear();
        }
        let mut keep = |out: &mut String, (from, to): (usize, usize)| {
            if let Some(runs) = kept.as_deref_mut().filter(|_| to > from) {
                runs.push(KeptRun {
                    masked: out.len(),
                    raw: from,
                    len: to - from,
                });
            }
            out.push_str(&record[from..to]);
        };
        let mut last = 0;
        for m in self.union.iter().flat_map(|union| union.find_iter(record)) {
            keep(out, (last, m.start));
            out.push_str(WILDCARD);
            last = m.end;
        }
        keep(out, (last, record.len()));
    }

    /// The rules applied one after another, each over the previous rule's output: the
    /// reference the one-scan masking is tested against (see the module docs for
    /// where they differ). No production path calls it.
    pub fn mask_rule_by_rule(&self, record: &str) -> String {
        self.rules.iter().fold(record.to_string(), |text, rule| {
            rule.regex.replace_all(&text, WILDCARD)
        })
    }

    /// Names of the configured rules, in insertion order.
    pub fn rule_names(&self) -> Vec<&str> {
        self.rules.iter().map(|r| r.name.as_str()).collect()
    }

    /// The same rules with every DFA table dropped ([`Regex::pike_vm_only`]): the
    /// reference the table-driven masker is tested against. No production path calls
    /// it.
    pub fn pike_vm_only(&self) -> Masker {
        Masker {
            rules: self
                .rules
                .iter()
                .map(|rule| MaskRule {
                    regex: rule.regex.pike_vm_only(),
                    ..rule.clone()
                })
                .collect(),
            union: self.union.as_ref().map(Regex::pike_vm_only),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_ipv4_addresses() {
        let m = Masker::default_rules();
        let out = m.mask("Failed password for root from 183.62.140.253 port 22 ssh2");
        assert!(out.contains("<*>"));
        assert!(!out.contains("183.62.140.253"));
    }

    #[test]
    fn masks_iso_timestamp() {
        let m = Masker::default_rules();
        let out = m.mask("2025-04-12 08:15:12.123 INFO dfs.DataNode started");
        assert!(out.starts_with("<*>"));
        assert!(out.contains("INFO"));
    }

    #[test]
    fn masks_uuid_and_hex() {
        let m = Masker::default_rules();
        let out = m.mask("request 123e4567-e89b-12d3-a456-426614174000 flag 0xDEADBEEF done");
        assert_eq!(out, "request <*> flag <*> done");
    }

    #[test]
    fn leaves_plain_integers_alone() {
        let m = Masker::default_rules();
        let out = m.mask("exit code 3 after 5 retries");
        assert_eq!(out, "exit code 3 after 5 retries");
    }

    #[test]
    fn custom_rule_order_is_respected() {
        let mut m = Masker::empty();
        m.add_pattern("block-id", r"blk_-?\d+").unwrap();
        let out = m.mask("Deleting block blk_-1608999687919862906 file x");
        assert_eq!(out, "Deleting block <*> file x");
    }

    #[test]
    fn one_scan_takes_the_leftmost_longest_match_of_any_rule() {
        // The two lines on which the scan and the rule-by-rule loop part ways (module
        // docs): the rule whose match starts first wins, whatever the rule order.
        let m = Masker::default_rules();
        let hex = format!("key 0x{} end", "a".repeat(32));
        assert_eq!(m.mask(&hex), format!("key <*>{} end", "a".repeat(16)));
        assert_eq!(m.mask_rule_by_rule(&hex), "key 0x<*> end");
        let clock = format!("id {}12:34:56 x", "b".repeat(30));
        assert_eq!(m.mask(&clock), "id <*>:34:56 x");
        assert_eq!(
            m.mask_rule_by_rule(&clock),
            format!("id {}<*> x", "b".repeat(30))
        );
    }

    #[test]
    fn default_rules_compile_once_and_share_one_table() {
        let states = |m: &Masker| m.union.as_ref().and_then(Regex::dfa_states).unwrap();
        let warm = Masker::default_rules();
        assert_eq!(warm.mask("took 35ms at 10.0.0.1"), "took <*> at <*>");
        let fresh = Masker::from_rules(warm.rules.clone());
        assert!(states(&warm) > states(&fresh));
        // A later call reads the states the first one's searches built (other tests
        // may add more meanwhile, never fewer).
        assert!(states(&Masker::default_rules()) >= states(&warm));
    }

    #[test]
    fn empty_masker_is_identity() {
        let m = Masker::empty();
        assert!(m.is_empty());
        assert_eq!(m.mask("anything 1.2.3.4 here"), "anything 1.2.3.4 here");
    }

    #[test]
    fn invalid_pattern_is_rejected() {
        let mut m = Masker::empty();
        assert!(m.add_pattern("bad", "(?=lookahead)").is_err());
    }

    #[test]
    fn rule_names_in_order() {
        let m = Masker::default_rules();
        let names = m.rule_names();
        assert_eq!(names[0], "iso-timestamp");
        assert!(names.contains(&"ipv4"));
        assert_eq!(names.len(), m.len());
    }

    #[test]
    fn memory_and_duration_units() {
        let m = Masker::default_rules();
        assert_eq!(m.mask("allocated 512MB in 35ms"), "allocated <*> in <*>");
    }

    #[test]
    fn empty_matching_rule_keeps_multibyte_characters_whole() {
        // A user rule that can match empty must not resume one byte into `用`.
        let mut m = Masker::empty();
        m.add_pattern("digits", r"\d*").unwrap();
        for m in [m.clone(), m.pike_vm_only()] {
            assert_eq!(m.mask("用户 42"), "<*>用<*>户<*> <*><*>");
        }
    }

    #[test]
    fn a_rule_ending_on_a_multibyte_character_masks_it_whole() {
        // `id=.` used to end one byte into `é`, and slicing there killed the worker.
        let mut m = Masker::empty();
        m.add_pattern("id", "id=.").unwrap();
        for m in [m.clone(), m.pike_vm_only()] {
            assert_eq!(m.mask("user id=é ok"), "user <*> ok");
            assert_eq!(m.mask("id=用户 id=x"), "<*>户 <*>");
        }
        let pre = crate::Preprocessor::new(crate::PreprocessConfig {
            extra_masks: vec![("id".into(), "id=.".into())],
            ..crate::PreprocessConfig::default()
        });
        assert_eq!(pre.tokens_of("user id=é ok"), ["user", "<*>", "ok"]);
    }

    #[test]
    fn masking_a_long_digit_run_stays_linear() {
        // Restarting a table run at every digit would walk the run once per digit
        // (hundreds of milliseconds); each table pass reads every byte once. In the
        // union, mem-size's `\d+` outlives md5's 32-byte matches of the run: the
        // iteration's trail keeps the passes after the first from walking it again.
        let mut mem_size = Masker::empty();
        mem_size
            .add_pattern("mem-size", r"\d+(\.\d+)?(KB|MB|GB|TB|kb|mb|gb|B)")
            .unwrap();
        let mut outliving = Masker::empty();
        outliving.add_pattern("outliving", r"\d+B|\d{2}").unwrap();
        for (digits, bound_ms) in [(20_000, 100), (100_000, 500)] {
            let line = format!("{} B", "1".repeat(digits));
            for masker in [&Masker::default_rules(), &mem_size, &outliving] {
                let started = std::time::Instant::now();
                let masked = masker.mask(&line);
                let elapsed = started.elapsed();
                assert_eq!(masked, masker.pike_vm_only().mask(&line));
                assert!(
                    elapsed < std::time::Duration::from_millis(bound_ms),
                    "masking {digits} digits with {:?} took {elapsed:?}",
                    masker.rule_names()
                );
            }
        }
    }
}

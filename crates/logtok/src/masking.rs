//! Common variable replacement (§4.1.2).
//!
//! Users may supply regex patterns for obvious variables so that clustering does not have
//! to discover them. The paper ships default patterns per topic for timestamps, IP
//! addresses, MD5 hashes, UUIDs "and so on"; this module provides the equivalent default
//! rule set plus the ability to add domain-specific rules.
//!
//! Masked spans are replaced by the wildcard token `<*>` so downstream clustering treats
//! them as already-resolved variable positions.

use crate::WILDCARD;
use logregex::{BytePresence, Regex, RegexError};

/// One masking rule: a pattern and the replacement it maps to.
#[derive(Debug, Clone)]
pub struct MaskRule {
    /// Human-readable rule name (used in diagnostics and the service UI).
    pub name: String,
    regex: Regex,
    replacement: String,
}

impl MaskRule {
    /// Create a rule that replaces every match of `pattern` with `<*>`.
    pub fn new(name: &str, pattern: &str) -> Result<Self, RegexError> {
        Self::with_replacement(name, pattern, WILDCARD)
    }

    /// Create a rule with an explicit replacement string.
    pub fn with_replacement(
        name: &str,
        pattern: &str,
        replacement: &str,
    ) -> Result<Self, RegexError> {
        Ok(MaskRule {
            name: name.to_string(),
            regex: Regex::new(pattern)?,
            replacement: replacement.to_string(),
        })
    }

    /// Apply the rule to `text`, returning the masked string.
    pub fn apply(&self, text: &str) -> String {
        self.regex.replace_all(text, &self.replacement)
    }

    /// True when the rule matches anywhere in `text`.
    pub fn matches(&self, text: &str) -> bool {
        self.regex.is_match(text)
    }
}

/// An ordered list of masking rules applied to each raw log record.
#[derive(Debug, Clone, Default)]
pub struct Masker {
    rules: Vec<MaskRule>,
}

/// A run of masked text that masking left as it was in the raw record: the `len`
/// bytes at `masked` in the masked text are the bytes at `raw` in the record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KeptRun {
    pub(crate) masked: usize,
    pub(crate) raw: usize,
    pub(crate) len: usize,
}

/// Append to `next` the parts of `runs` (ascending, disjoint) inside `[from, to)` of
/// the text they describe, placed at `at` of the text being built. `cursor` skips the
/// runs already left behind: regions come in ascending order.
fn keep(
    runs: &[KeptRun],
    cursor: &mut usize,
    (from, to): (usize, usize),
    at: usize,
    next: &mut Vec<KeptRun>,
) {
    while runs
        .get(*cursor)
        .is_some_and(|run| run.masked + run.len <= from)
    {
        *cursor += 1;
    }
    for run in runs[*cursor..].iter().take_while(|run| run.masked < to) {
        let (lo, hi) = (from.max(run.masked), to.min(run.masked + run.len));
        if lo < hi {
            next.push(KeptRun {
                masked: at + lo - from,
                raw: run.raw + lo - run.masked,
                len: hi - lo,
            });
        }
    }
}

impl Masker {
    /// A masker with no rules (masking disabled).
    pub fn empty() -> Self {
        Masker { rules: Vec::new() }
    }

    /// The default rule set: timestamps, IPs, UUIDs, MD5/long-hex ids, and memory sizes.
    ///
    /// These mirror the "default patterns for common variables" the paper provides per
    /// topic. The rules deliberately target unambiguous formats; plain decimal integers
    /// are *not* masked by default because they are frequently structural (error codes,
    /// levels) and the clustering stage resolves them on its own.
    pub fn default_rules() -> Self {
        let mut masker = Masker::empty();
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
        for (name, pattern) in rules {
            masker.add_rule(MaskRule::new(name, pattern).expect("default mask rule must compile"));
        }
        masker
    }

    /// Append a rule; rules are applied in insertion order.
    pub fn add_rule(&mut self, rule: MaskRule) {
        self.rules.push(rule);
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

    /// Apply every rule in order and return the masked record.
    pub fn mask(&self, record: &str) -> String {
        let mut out = String::new();
        let mut swap = String::new();
        self.mask_into(record, &mut out, &mut swap);
        out
    }

    /// Allocation-free variant of [`Masker::mask`] for hot paths: the masked record is
    /// left in `out`, with `swap` used as the ping-pong buffer between rules. Both
    /// buffers are reused across calls, so after warm-up no heap allocation happens.
    ///
    /// Rules run one after another, each over the previous rule's output (rule k sees
    /// rule k−1's replacements). Each rule's matches come from its pattern's immutable
    /// DFA table — a forward and a backward pass per match, linear in the line (see
    /// [`logregex`]'s crate docs) — so no lock is taken and one masker is shared by
    /// every pool worker. A one-pass [`BytePresence`] bitmap first rejects rules whose
    /// mandatory bytes are absent from the line (a line with no `-` can never contain a
    /// UUID or ISO timestamp), and a rule that finds nothing copies nothing.
    pub fn mask_into(&self, record: &str, out: &mut String, swap: &mut String) {
        self.mask_kept(record, out, swap, None);
    }

    /// [`Masker::mask_into`] that, given `kept`, also leaves in `kept.0` the runs of
    /// `out` masking left as they were in `record` (ascending; `kept.1` is their
    /// ping-pong buffer), so a token of the masked text maps back to a span of the
    /// record.
    pub(crate) fn mask_kept(
        &self,
        record: &str,
        out: &mut String,
        swap: &mut String,
        mut kept: Option<&mut (Vec<KeptRun>, Vec<KeptRun>)>,
    ) {
        out.clear();
        out.push_str(record);
        if let Some((runs, _)) = kept.as_deref_mut() {
            runs.clear();
            runs.push(KeptRun {
                masked: 0,
                raw: 0,
                len: record.len(),
            });
        }
        if self.rules.is_empty() {
            return;
        }
        let mut presence = BytePresence::scan(out.as_bytes());
        for rule in &self.rules {
            if !rule.regex.may_match(&presence) {
                continue;
            }
            let mut matches = rule.regex.find_iter(out);
            let Some(first) = matches.next() else {
                continue;
            };
            swap.clear();
            let mut cursor = 0;
            let mut keep_region = |region: (usize, usize), at: usize| {
                if let Some((runs, next)) = kept.as_deref_mut() {
                    keep(runs, &mut cursor, region, at, next);
                }
            };
            let mut last = 0;
            for m in std::iter::once(first).chain(matches) {
                keep_region((last, m.start), swap.len());
                swap.push_str(&out[last..m.start]);
                swap.push_str(&rule.replacement);
                last = m.end;
            }
            keep_region((last, out.len()), swap.len());
            swap.push_str(&out[last..]);
            std::mem::swap(out, swap);
            if let Some((runs, next)) = kept.as_deref_mut() {
                std::mem::swap(runs, next);
                next.clear();
            }
            // The replacement changed the byte population; rescan for the
            // remaining rules (only paid when a rule actually fired).
            presence = BytePresence::scan(out.as_bytes());
        }
    }

    /// Names of the configured rules, in application order.
    pub fn rule_names(&self) -> Vec<&str> {
        self.rules.iter().map(|r| r.name.as_str()).collect()
    }

    /// The same rules with every pattern's DFA table dropped
    /// ([`Regex::pike_vm_only`]): the reference the table-driven masker is tested
    /// against. No production path calls it.
    pub fn pike_vm_only(&self) -> Masker {
        let rules = self
            .rules
            .iter()
            .map(|rule| MaskRule {
                regex: rule.regex.pike_vm_only(),
                ..rule.clone()
            })
            .collect();
        Masker { rules }
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
    fn custom_replacement_text() {
        let rule = MaskRule::with_replacement("pid", r"pid=\d+", "pid=<pid>").unwrap();
        assert_eq!(rule.apply("start pid=4242 ok"), "start pid=<pid> ok");
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
        // (hundreds of milliseconds); each table pass reads every byte once.
        let line = format!("{} B", "1".repeat(20_000));
        let default = Masker::default_rules();
        let mut mem_size = Masker::empty();
        mem_size
            .add_pattern("mem-size", r"\d+(\.\d+)?(KB|MB|GB|TB|kb|mb|gb|B)")
            .unwrap();
        for masker in [&default, &mem_size] {
            let started = std::time::Instant::now();
            let masked = masker.mask(&line);
            let elapsed = started.elapsed();
            assert_eq!(masked, masker.pike_vm_only().mask(&line));
            assert!(
                elapsed < std::time::Duration::from_millis(100),
                "masking took {elapsed:?}"
            );
        }
    }
}

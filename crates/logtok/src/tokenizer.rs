//! Tokenization of raw log records (§4.1.1).
//!
//! The paper's default tokenizer (Listing 1) splits on:
//!
//! * the URL protocol separator `://`
//! * common delimiters: whitespace, quotes, `;=()[]{}?@&<>:,` and control characters
//! * sentence-ending periods (a `.` followed by whitespace or end of record), while
//!   preserving periods inside numbers, versions and hostnames
//! * escaped quotes `\"` and `\'`
//!
//! Runs of consecutive delimiters collapse into a single split point and empty tokens are
//! dropped. Rather than paying a generic regex engine for this hot path, the default rules
//! are implemented directly as a byte-level scanner (the behaviour is verified against the
//! regex semantics in the tests); custom per-topic delimiter sets are supported as the
//! paper allows users to override tokenization per log topic.

use serde::{Deserialize, Serialize};

/// Configuration for the tokenizer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TokenizerConfig {
    /// Extra single-byte delimiters in addition to the paper's default set.
    pub extra_delimiters: Vec<u8>,
    /// When false, the default delimiter set is not used and only `extra_delimiters`
    /// split tokens (useful for pre-tokenized or CSV-ish topics).
    pub use_default_delimiters: bool,
    /// Treat sentence-ending periods (`.` followed by whitespace/end) as delimiters.
    pub split_sentence_periods: bool,
    /// Maximum number of tokens to produce per record; the remainder of the record is
    /// appended as one final token. Guards against pathological records (e.g. megabyte
    /// JSON blobs) blowing up clustering cost. A cap of 0 reads as 1: the whole record
    /// is one token.
    pub max_tokens: usize,
}

impl Default for TokenizerConfig {
    fn default() -> Self {
        TokenizerConfig {
            extra_delimiters: Vec::new(),
            use_default_delimiters: true,
            split_sentence_periods: true,
            max_tokens: 512,
        }
    }
}

/// A reusable tokenizer with a fixed configuration.
#[derive(Debug, Clone)]
pub struct Tokenizer {
    config: TokenizerConfig,
    extra: [bool; 256],
}

impl Default for Tokenizer {
    fn default() -> Self {
        Tokenizer::new(TokenizerConfig::default())
    }
}

impl Tokenizer {
    /// Build a tokenizer from `config`.
    pub fn new(config: TokenizerConfig) -> Self {
        let mut extra = [false; 256];
        for &b in &config.extra_delimiters {
            extra[b as usize] = true;
        }
        Tokenizer { config, extra }
    }

    /// Tokenizer with the paper's default rules.
    pub fn default_rules() -> Self {
        Tokenizer::new(TokenizerConfig::default())
    }

    /// Split `record` into tokens. Tokens borrow from the input; no allocation happens
    /// beyond the output vector.
    pub fn tokenize<'a>(&self, record: &'a str) -> Vec<&'a str> {
        let mut spans = Vec::with_capacity(16);
        self.tokenize_spans(record, &mut spans);
        spans.iter().map(|&(s, e)| &record[s..e]).collect()
    }

    /// Zero-copy core of [`Tokenizer::tokenize`]: write the byte span of every token
    /// into `spans` (cleared first) instead of materialising a slice vector. The
    /// streaming ingestion fast path calls this with a per-worker scratch vector so
    /// tokenizing a record performs no allocation at all once the scratch has warmed up.
    pub fn tokenize_spans(&self, record: &str, spans: &mut Vec<(usize, usize)>) {
        spans.clear();
        let bytes = record.as_bytes();
        let mut start = 0usize;
        let mut i = 0usize;
        let len = bytes.len();
        let cap = self.config.max_tokens.max(1);

        while i < len {
            // The wildcard token `<*>` produced by variable masking must survive
            // tokenization even though `<` and `>` are delimiters: treat it as opaque.
            if bytes[i] == b'<'
                && bytes.get(i + 1) == Some(&b'*')
                && bytes.get(i + 2) == Some(&b'>')
            {
                i += 3;
                continue;
            }
            let (is_delim, delim_len) = self.delimiter_at(bytes, i);
            if is_delim {
                if i > start {
                    if cap == 1 {
                        // The first token is the last: it runs to the end of the record.
                        spans.push((start, start + record[start..].trim_end().len()));
                        return;
                    }
                    spans.push((start, i));
                    if spans.len() + 1 >= cap {
                        // Emit the rest of the record as one tail token and stop.
                        let rest_start = i + delim_len;
                        if rest_start < len {
                            let rest = record[rest_start..].trim();
                            if !rest.is_empty() {
                                let offset = rest.as_ptr() as usize - record.as_ptr() as usize;
                                spans.push((offset, offset + rest.len()));
                            }
                        }
                        return;
                    }
                }
                i += delim_len;
                start = i;
            } else {
                i += 1;
            }
        }
        if start < len {
            spans.push((start, len));
        }
    }

    /// Is there a delimiter starting at byte offset `i`? Returns the delimiter length.
    fn delimiter_at(&self, bytes: &[u8], i: usize) -> (bool, usize) {
        let b = bytes[i];
        if self.extra[b as usize] {
            return (true, 1);
        }
        if !self.config.use_default_delimiters {
            return (false, 1);
        }
        // `://` — URL protocol separator.
        if b == b':' && bytes.get(i + 1) == Some(&b'/') && bytes.get(i + 2) == Some(&b'/') {
            return (true, 3);
        }
        if is_default_delimiter(b) {
            return (true, 1);
        }
        // Escaped quotes `\"` and `\'`.
        if b == b'\\' {
            if let Some(&next) = bytes.get(i + 1) {
                if next == b'"' || next == b'\'' {
                    return (true, 2);
                }
            }
        }
        // Sentence-ending period: `.` followed by whitespace or end of record.
        if self.config.split_sentence_periods && b == b'.' {
            match bytes.get(i + 1) {
                None => return (true, 1),
                Some(&next) if next.is_ascii_whitespace() => return (true, 1),
                _ => {}
            }
        }
        (false, 1)
    }
}

/// The paper's default single-byte delimiter set:
/// `\s ' " ; = ( ) [ ] { } ? @ & < > : \n \t \r ,`
#[inline]
pub fn is_default_delimiter(b: u8) -> bool {
    matches!(
        b,
        b' ' | b'\t'
            | b'\n'
            | b'\r'
            | 0x0b
            | 0x0c
            | b'\''
            | b'"'
            | b';'
            | b'='
            | b'('
            | b')'
            | b'['
            | b']'
            | b'{'
            | b'}'
            | b'?'
            | b'@'
            | b'&'
            | b'<'
            | b'>'
            | b':'
            | b','
    )
}

/// Convenience wrapper: tokenize with the default rules.
pub fn tokenize(record: &str) -> Vec<&str> {
    thread_local! {
        static DEFAULT: Tokenizer = Tokenizer::default_rules();
    }
    DEFAULT.with(|t| t.tokenize(record))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_whitespace() {
        assert_eq!(tokenize("a b  c"), vec!["a", "b", "c"]);
    }

    #[test]
    fn splits_on_equals_and_commas() {
        // Mirrors the wakelock example from Fig. 1 of the paper.
        let record = r#"release:lock=2337, flg=0x0, tag="View Lock", name=systemui, ws=null"#;
        let tokens = tokenize(record);
        assert_eq!(
            tokens,
            vec![
                "release", "lock", "2337", "flg", "0x0", "tag", "View", "Lock", "name", "systemui",
                "ws", "null"
            ]
        );
    }

    #[test]
    fn url_protocol_separator() {
        let tokens = tokenize("GET https://example.com/path ok");
        assert_eq!(tokens, vec!["GET", "https", "example.com/path", "ok"]);
    }

    #[test]
    fn preserves_periods_in_numbers_and_hosts() {
        let tokens = tokenize("latency 3.14 from host01.prod.net");
        assert_eq!(tokens, vec!["latency", "3.14", "from", "host01.prod.net"]);
    }

    #[test]
    fn sentence_ending_period_is_split() {
        let tokens = tokenize("Connection closed. Retrying now.");
        assert_eq!(tokens, vec!["Connection", "closed", "Retrying", "now"]);
    }

    #[test]
    fn escaped_quotes_are_delimiters() {
        let tokens = tokenize(r#"msg=\"disk full\" level=error"#);
        assert_eq!(tokens, vec!["msg", "disk", "full", "level", "error"]);
    }

    #[test]
    fn brackets_and_braces() {
        let tokens = tokenize("pid[123] state={running} <idle>");
        assert_eq!(tokens, vec!["pid", "123", "state", "running", "idle"]);
    }

    #[test]
    fn empty_record_yields_no_tokens() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \t  ").is_empty());
    }

    #[test]
    fn extra_delimiters_are_honoured() {
        let t = Tokenizer::new(TokenizerConfig {
            extra_delimiters: vec![b'|', b'/'],
            ..TokenizerConfig::default()
        });
        assert_eq!(t.tokenize("a|b/c d"), vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn default_rules_disabled() {
        let t = Tokenizer::new(TokenizerConfig {
            extra_delimiters: vec![b'|'],
            use_default_delimiters: false,
            split_sentence_periods: false,
            max_tokens: 512,
        });
        assert_eq!(t.tokenize("a b|c d"), vec!["a b", "c d"]);
    }

    #[test]
    fn max_tokens_truncates_with_tail() {
        let t = Tokenizer::new(TokenizerConfig {
            max_tokens: 4,
            ..TokenizerConfig::default()
        });
        let record = "a b c d e f g";
        let tokens = t.tokenize(record);
        assert!(tokens.len() <= 4);
        // All input content is preserved across the emitted tokens.
        let rejoined: String = tokens.join(" ");
        assert!(rejoined.contains('g'));
    }

    /// At most `max(max_tokens, 1)` tokens, the last holding the rest of the record; a
    /// cap of 0 or 1 used to split off a second token all the same.
    #[test]
    fn max_tokens_caps_of_zero_to_three() {
        let expected: [&[&str]; 4] = [
            &["a b c d e"],
            &["a b c d e"],
            &["a", "b c d e"],
            &["a", "b", "c d e"],
        ];
        for (max_tokens, expected) in expected.into_iter().enumerate() {
            let t = Tokenizer::new(TokenizerConfig {
                max_tokens,
                ..TokenizerConfig::default()
            });
            assert_eq!(t.tokenize("a b c d e"), expected, "max_tokens {max_tokens}");
            assert_eq!(
                t.tokenize("  a b c d e  "),
                expected,
                "max_tokens {max_tokens}"
            );
            assert_eq!(t.tokenize("abc"), ["abc"], "max_tokens {max_tokens}");
            assert!(t.tokenize(" ( ) ").is_empty(), "max_tokens {max_tokens}");
        }
    }

    #[test]
    fn colon_splits_but_not_protocol() {
        let tokens = tokenize("time:12:30:45 url=http://x.y/z");
        assert_eq!(
            tokens,
            vec!["time", "12", "30", "45", "url", "http", "x.y/z"]
        );
    }

    #[test]
    fn unicode_content_is_preserved() {
        let tokens = tokenize("用户 登录 成功 id=42");
        assert_eq!(tokens, vec!["用户", "登录", "成功", "id", "42"]);
    }

    #[test]
    fn agreement_with_regex_semantics() {
        // The hand-rolled scanner must agree with the paper's regex on representative logs.
        let re = logregex::Regex::new(
            r#"(?:://)|(?:(?:[\s'";=()\[\]{}?@&<>:\n\t\r,])|(?:\.(\s|$))|(?:\\["']))+"#,
        )
        .unwrap();
        let records = [
            "Verification succeeded for blk_-1608999687919862906",
            "PacketResponder 1 for block blk_38865049064139660 terminating",
            r#"acquire lock=1661, flg=0x1, tag="RILJ_ACK_WL", name=phone, ws=null"#,
            "Failed password for root from 183.62.140.253 port 22 ssh2",
        ];
        for record in records {
            let ours = tokenize(record);
            let theirs: Vec<&str> = re
                .split(record)
                .into_iter()
                .filter(|s| !s.is_empty())
                .collect();
            assert_eq!(ours, theirs, "tokenizer disagrees on {record:?}");
        }
    }
}

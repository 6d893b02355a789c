//! Hash encoding of tokens (§4.1.4).
//!
//! Each token is mapped to a 64-bit integer with a deterministic hash function (FNV-1a).
//! Using the same function during offline training and online matching removes the need
//! to persist a token→id dictionary (the storage cost the paper quantifies in Fig. 10),
//! and hashing is embarrassingly parallel because tokens are processed independently.
//!
//! The collision probability follows the birthday bound the paper derives in Eq. 1: for
//! 10 million distinct tokens it is ≈ 0.000271 %, negligible in practice.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Reserved hash value representing the wildcard (`*`) position in an encoded template.
///
/// FNV-1a never produces this value for any real token because we remap a real collision
/// with the sentinel (see [`hash_token`]); the remapping is deterministic so training and
/// matching stay consistent.
pub const WILDCARD_HASH: u64 = u64::MAX;

/// FNV-1a's 64-bit offset basis: the state [`fnv1a`] starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `hash` ([`FNV_OFFSET`] to start).
#[inline]
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Deterministic 64-bit hash of a token (FNV-1a over the UTF-8 bytes).
#[inline]
pub fn hash_token(token: &str) -> u64 {
    let hash = fnv1a(FNV_OFFSET, token.as_bytes());
    // Keep the sentinel reserved for wildcards.
    if hash == WILDCARD_HASH {
        hash - 1
    } else {
        hash
    }
}

/// Deterministic 64-bit FNV-1a hash of a raw log line (no wildcard remapping —
/// lines are never compared against the wildcard sentinel). It keys the line cache
/// and the automaton's symbol probe.
#[inline]
pub fn hash_line(line: &str) -> u64 {
    fnv1a(FNV_OFFSET, line.as_bytes())
}

/// FNV-1a as a streaming [`Hasher`]: fast on the short keys — token texts, and keys
/// that are hashes already — that the deduplicator, the trainer's token table and the
/// automaton map, and free of the per-map random state `SipHash` pays for. None of
/// those maps is iterated, so the hasher decides nothing but speed.
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }
}

/// A `HashMap` hashed by [`FnvHasher`].
pub type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;

/// A log record after preprocessing: the hashed token vector plus the token texts,
/// which cluster nodes render template constants from. Deduplication means one copy is
/// stored per unique log, and the texts are one string with an end offset per token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedLog {
    /// Hash of each token, in order.
    pub encoded: Vec<u64>,
    /// The token texts (post-masking), back to back.
    text: String,
    /// Where each token of `text` ends.
    ends: Vec<u32>,
    /// Number of raw records collapsed into this unique log by deduplication.
    pub count: u64,
}

impl EncodedLog {
    /// Encode a token sequence (count = 1).
    pub fn from_tokens<I>(tokens: I) -> Self
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let mut log = EncodedLog::with_hashes(Vec::new(), 0);
        for token in tokens {
            let token = token.as_ref();
            log.encoded.push(hash_token(token));
            log.push_text(token);
        }
        log
    }

    /// Encode a token sequence whose hashes the caller computed already: `encoded[i]` is
    /// the [`hash_token`] of the `i`-th token.
    pub(crate) fn from_hashed<I>(tokens: I, encoded: Vec<u64>) -> Self
    where
        I: IntoIterator + Clone,
        I::Item: AsRef<str>,
    {
        let bytes = tokens.clone().into_iter().map(|t| t.as_ref().len()).sum();
        let mut log = EncodedLog::with_hashes(encoded, bytes);
        for token in tokens {
            log.push_text(token.as_ref());
        }
        debug_assert_eq!(log.ends.len(), log.encoded.len());
        log
    }

    fn with_hashes(encoded: Vec<u64>, bytes: usize) -> Self {
        EncodedLog {
            ends: Vec::with_capacity(encoded.len()),
            encoded,
            text: String::with_capacity(bytes),
            count: 1,
        }
    }

    fn push_text(&mut self, token: &str) {
        self.text.push_str(token);
        let end = u32::try_from(self.text.len()).expect("a log's tokens fit 4 GiB");
        self.ends.push(end);
    }

    /// The `i`-th token's text.
    ///
    /// # Panics
    /// Panics when `i >= self.len()`.
    pub fn token(&self, i: usize) -> &str {
        let start = i.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.text[start as usize..self.ends[i] as usize]
    }

    /// The token texts, in order.
    pub fn tokens(&self) -> impl ExactSizeIterator<Item = &str> + Clone + '_ {
        (0..self.ends.len()).map(move |i| self.token(i))
    }

    /// Number of token positions.
    pub fn len(&self) -> usize {
        self.encoded.len()
    }

    /// True when the log has no tokens.
    pub fn is_empty(&self) -> bool {
        self.encoded.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_deterministic() {
        assert_eq!(hash_token("error"), hash_token("error"));
        assert_eq!(hash_token(""), hash_token(""));
    }

    #[test]
    fn distinct_tokens_get_distinct_hashes() {
        // Not a guarantee in general, but these must differ for the tests to be meaningful.
        let tokens = [
            "error", "Error", "ERROR", "warn", "info", "blk_123", "blk_124", "10.0.0.1",
            "10.0.0.2", "null", "None", "0", "1", "-1",
        ];
        let mut hashes: Vec<u64> = tokens.iter().map(|t| hash_token(t)).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), tokens.len());
    }

    #[test]
    fn wildcard_hash_is_reserved() {
        for t in ["a", "bb", "*", "<*>", "wildcard", "the quick brown fox"] {
            assert_ne!(hash_token(t), WILDCARD_HASH);
        }
    }

    #[test]
    fn encoded_log_round_trip() {
        let log = EncodedLog::from_tokens(&["open", "file", "/tmp/x", "ok"]);
        assert_eq!(log.len(), 4);
        assert_eq!(log.count, 1);
        assert_eq!(log.encoded[0], hash_token("open"));
        assert_eq!(log.token(2), "/tmp/x");
        let tokens: Vec<&str> = log.tokens().collect();
        assert_eq!(tokens, ["open", "file", "/tmp/x", "ok"]);
        assert!(!log.is_empty());
    }

    #[test]
    fn empty_log() {
        let log = EncodedLog::from_tokens(Vec::<&str>::new());
        assert!(log.is_empty());
        assert_eq!(log.len(), 0);
        assert_eq!(log.tokens().count(), 0);
    }

    /// Empty tokens keep their positions: a text of one string cannot tell them apart
    /// by content, only by its end offsets.
    #[test]
    fn empty_tokens_keep_their_positions() {
        let log = EncodedLog::from_tokens(["", "a", "", "", "bc", ""]);
        let tokens: Vec<&str> = log.tokens().collect();
        assert_eq!(tokens, ["", "a", "", "", "bc", ""]);
        let hashed = EncodedLog::from_hashed(["", "a", "", "", "bc", ""], log.encoded.clone());
        assert_eq!(hashed, log);
    }

    #[test]
    fn known_fnv_vector() {
        // FNV-1a 64-bit of "a" is 0xaf63dc4c8601ec8c.
        assert_eq!(hash_token("a"), 0xaf63_dc4c_8601_ec8c);
    }
}

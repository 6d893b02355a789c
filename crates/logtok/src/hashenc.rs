//! Hash encoding of tokens (§4.1.4).
//!
//! Each token is mapped to a 64-bit integer with a deterministic hash function (FNV-1a).
//! Using the same function during offline training and online matching removes the need
//! to persist a token→id dictionary (the storage cost the paper quantifies in Fig. 10),
//! and hashing is embarrassingly parallel because tokens are processed independently.
//!
//! The collision probability follows the birthday bound the paper derives in Eq. 1: for
//! 10 million distinct tokens it is ≈ 0.000271 %, negligible in practice.

use serde::{Deserialize, Serialize};

/// Reserved hash value representing the wildcard (`*`) position in an encoded template.
///
/// FNV-1a never produces this value for any real token because we remap a real collision
/// with the sentinel (see [`hash_token`]); the remapping is deterministic so training and
/// matching stay consistent.
pub const WILDCARD_HASH: u64 = u64::MAX;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Deterministic 64-bit hash of a token (FNV-1a over the UTF-8 bytes).
#[inline]
pub fn hash_token(token: &str) -> u64 {
    let mut hash = FNV_OFFSET;
    for &byte in token.as_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    // Keep the sentinel reserved for wildcards.
    if hash == WILDCARD_HASH {
        hash - 1
    } else {
        hash
    }
}

/// Deterministic 64-bit FNV-1a hash of a raw log line (no wildcard remapping —
/// lines are never compared against the wildcard sentinel). Computed once per
/// record at stream admission and carried alongside the line so downstream
/// consumers (batch reordering, the match cache) never re-hash the full text.
#[inline]
pub fn hash_line(line: &str) -> u64 {
    let mut hash = FNV_OFFSET;
    for &byte in line.as_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A log record after preprocessing: the hashed token vector plus bookkeeping needed to
/// render templates and count duplicates.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncodedLog {
    /// Hash of each token, in order.
    pub encoded: Vec<u64>,
    /// The token texts (post-masking). Kept so that cluster nodes can render template
    /// strings; deduplication means only one copy is stored per unique log.
    pub tokens: Vec<String>,
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
        let token_vec: Vec<String> = tokens.into_iter().map(|t| t.as_ref().to_string()).collect();
        let encoded = token_vec.iter().map(|t| hash_token(t)).collect();
        EncodedLog {
            encoded,
            tokens: token_vec,
            count: 1,
        }
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
        assert_eq!(log.tokens[2], "/tmp/x");
        assert!(!log.is_empty());
    }

    #[test]
    fn empty_log() {
        let log = EncodedLog::from_tokens(Vec::<&str>::new());
        assert!(log.is_empty());
        assert_eq!(log.len(), 0);
    }

    #[test]
    fn known_fnv_vector() {
        // FNV-1a 64-bit of "a" is 0xaf63dc4c8601ec8c.
        assert_eq!(hash_token("a"), 0xaf63_dc4c_8601_ec8c);
    }
}

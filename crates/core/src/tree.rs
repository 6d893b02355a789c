//! The clustering tree: nodes, templates and saturation metadata (§3 "Offline Training",
//! §4.3).
//!
//! Every node represents a log template. Children are strictly more precise (higher
//! saturation) than their parent, so a user-supplied saturation threshold selects, for any
//! matched leaf, a unique coarsest ancestor that still satisfies the threshold. Nodes only
//! store what the online phase needs — template text, saturation, parent/child links and
//! counts — not per-node token statistics (the storage optimisation behind §4.8).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node within a clustering tree / [`ParserModel`](crate::model::ParserModel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// One token position of a template: either a constant token or a wildcard.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TemplateToken {
    /// The position holds this exact token in every member log.
    Const(String),
    /// The position is a variable.
    Wildcard,
}

impl TemplateToken {
    /// True for [`TemplateToken::Wildcard`].
    pub fn is_wildcard(&self) -> bool {
        matches!(self, TemplateToken::Wildcard)
    }
}

impl fmt::Display for TemplateToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemplateToken::Const(t) => write!(f, "{t}"),
            TemplateToken::Wildcard => write!(f, "*"),
        }
    }
}

/// A node of the clustering tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TreeNode {
    /// This node's id.
    pub id: NodeId,
    /// Parent node, `None` for the root of an initial group.
    pub parent: Option<NodeId>,
    /// Child nodes (more precise templates).
    pub children: Vec<NodeId>,
    /// The template: one entry per token position.
    pub template: Vec<TemplateToken>,
    /// Saturation score of the node (strictly increases from parent to child).
    pub saturation: f64,
    /// Tree depth (roots are depth 0).
    pub depth: usize,
    /// Number of raw training records covered by this node.
    pub log_count: u64,
    /// Number of distinct (deduplicated) training logs covered by this node.
    pub unique_count: u64,
    /// True when the node was inserted by the online matcher for an unmatched log and has
    /// not yet been absorbed by a training cycle (§3 "Online Matching").
    pub temporary: bool,
    /// True when the node has been retired from matching (e.g. a temporary template
    /// absorbed by incremental maintenance). Retired nodes keep their slot so existing
    /// [`NodeId`]s stay valid — stored records never need re-matching after a delta is
    /// applied — but they are excluded from the match order, the root set and the leaf
    /// iterator.
    pub retired: bool,
}

impl TreeNode {
    /// Number of token positions.
    pub fn len(&self) -> usize {
        self.template.len()
    }

    /// True when the template has no positions.
    pub fn is_empty(&self) -> bool {
        self.template.is_empty()
    }

    /// True when the node has no children (most precise template on its path).
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// Number of wildcard positions.
    pub fn wildcard_count(&self) -> usize {
        self.template.iter().filter(|t| t.is_wildcard()).count()
    }

    /// Render the template as a human-readable string (`*` for wildcards), the format the
    /// paper uses in Fig. 1 / Table 4.
    pub fn template_text(&self) -> String {
        let parts: Vec<String> = self.template.iter().map(|t| t.to_string()).collect();
        parts.join(" ")
    }

    /// Position-based match (§4.8): `tokens` matches when it has the same length and every
    /// position equals the template token or the template holds a wildcard. Takes borrowed
    /// tokens ([`logtok::TokenView::iter`] on the matching path), so nothing is allocated.
    pub fn matches<'a>(&self, tokens: impl ExactSizeIterator<Item = &'a str>) -> bool {
        tokens.len() == self.template.len()
            && self.template.iter().zip(tokens).all(|(t, token)| match t {
                TemplateToken::Wildcard => true,
                TemplateToken::Const(c) => c == token,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(template: &[&str]) -> TreeNode {
        TreeNode {
            id: NodeId(0),
            parent: None,
            children: Vec::new(),
            template: template
                .iter()
                .map(|t| {
                    if *t == "*" {
                        TemplateToken::Wildcard
                    } else {
                        TemplateToken::Const(t.to_string())
                    }
                })
                .collect(),
            saturation: 1.0,
            depth: 0,
            log_count: 1,
            unique_count: 1,
            temporary: false,
            retired: false,
        }
    }

    #[test]
    fn template_text_renders_wildcards() {
        let n = node(&["release", "lock", "*", "flg", "*"]);
        assert_eq!(n.template_text(), "release lock * flg *");
        assert_eq!(n.wildcard_count(), 2);
    }

    #[test]
    fn matches_exact_and_wildcard_positions() {
        let n = node(&["acquire", "lock", "*"]);
        assert!(n.matches(["acquire", "lock", "42"].into_iter()));
        assert!(n.matches(["acquire", "lock", "anything"].into_iter()));
        assert!(!n.matches(["release", "lock", "42"].into_iter()));
    }

    #[test]
    fn length_mismatch_never_matches() {
        let n = node(&["a", "*"]);
        assert!(!n.matches(["a"].into_iter()));
        assert!(!n.matches(["a", "b", "c"].into_iter()));
    }

    #[test]
    fn leaf_and_empty_checks() {
        let n = node(&["x"]);
        assert!(n.is_leaf());
        assert!(!n.is_empty());
        assert_eq!(n.len(), 1);
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(7).to_string(), "T7");
    }
}

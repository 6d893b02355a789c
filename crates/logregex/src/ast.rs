//! Abstract syntax tree for the supported regex subset.

/// A set of byte ranges, used for character classes, `.` and the `\d`/`\w`/`\s` escapes.
///
/// Ranges are inclusive on both ends and kept sorted and non-overlapping by
/// [`ByteClass::normalize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteClass {
    pub ranges: Vec<(u8, u8)>,
}

impl ByteClass {
    /// The empty class (matches nothing).
    pub fn empty() -> Self {
        ByteClass { ranges: Vec::new() }
    }

    /// A class containing the single byte `b`.
    pub fn single(b: u8) -> Self {
        ByteClass {
            ranges: vec![(b, b)],
        }
    }

    /// Add an inclusive range.
    pub fn push(&mut self, lo: u8, hi: u8) {
        debug_assert!(lo <= hi);
        self.ranges.push((lo, hi));
    }

    /// Sort and merge overlapping or adjacent ranges.
    pub fn normalize(&mut self) {
        if self.ranges.is_empty() {
            return;
        }
        self.ranges.sort_unstable();
        let mut merged: Vec<(u8, u8)> = Vec::with_capacity(self.ranges.len());
        for &(lo, hi) in &self.ranges {
            match merged.last_mut() {
                Some(&mut (_, ref mut prev_hi)) if lo <= prev_hi.saturating_add(1) => {
                    if hi > *prev_hi {
                        *prev_hi = hi;
                    }
                }
                _ => merged.push((lo, hi)),
            }
        }
        self.ranges = merged;
    }

    /// Complement with respect to all byte values `0..=255`.
    pub fn negate(&self) -> ByteClass {
        let mut out = ByteClass::empty();
        let mut next = 0u16;
        for &(lo, hi) in &self.ranges {
            if (lo as u16) > next {
                out.push(next as u8, lo - 1);
            }
            next = hi as u16 + 1;
        }
        if next <= 255 {
            out.push(next as u8, 255);
        }
        out
    }

    /// True when `b` is a member of the class.
    pub fn contains(&self, b: u8) -> bool {
        // Classes are tiny (a handful of ranges); linear scan beats binary search here.
        self.ranges.iter().any(|&(lo, hi)| lo <= b && b <= hi)
    }

    /// Digits `0-9`.
    pub fn digit() -> Self {
        ByteClass {
            ranges: vec![(b'0', b'9')],
        }
    }

    /// Word characters `[A-Za-z0-9_]`.
    pub fn word() -> Self {
        let mut c = ByteClass::empty();
        c.push(b'0', b'9');
        c.push(b'A', b'Z');
        c.push(b'_', b'_');
        c.push(b'a', b'z');
        c.normalize();
        c
    }

    /// Whitespace `[ \t\n\r\x0b\x0c]`.
    pub fn space() -> Self {
        let mut c = ByteClass::empty();
        c.push(b'\t', b'\r'); // \t \n \x0b \x0c \r
        c.push(b' ', b' ');
        c.normalize();
        c
    }

    /// `.` — any byte except `\n`.
    pub fn dot() -> Self {
        ByteClass::single(b'\n').negate()
    }

    /// True when every non-ASCII byte is a member: the class says "any character but
    /// these ASCII ones" (`.`, a negated ASCII class, `\D`, `\W`, `\S`).
    fn admits_all_non_ascii(&self) -> bool {
        (0x80..=0xFF).all(|b| self.contains(b))
    }
}

/// A parsed regular expression node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ast {
    /// Matches the empty string.
    Empty,
    /// A single byte drawn from a class.
    Class(ByteClass),
    /// Concatenation of sub-expressions.
    Concat(Vec<Ast>),
    /// Alternation between sub-expressions.
    Alternate(Vec<Ast>),
    /// Repetition of a sub-expression between `min` and `max` times (`max == None` means
    /// unbounded).
    Repeat {
        node: Box<Ast>,
        min: u32,
        max: Option<u32>,
    },
    /// `^` — start-of-input anchor.
    StartAnchor,
    /// `$` — end-of-input anchor.
    EndAnchor,
}

impl Ast {
    /// The pattern read right to left: it matches the reversed bytes of every match of
    /// `self`. Anchors trade places, because in reversed offsets the end of the
    /// haystack is where a run begins and the start is where it ends.
    pub fn reversed(&self) -> Ast {
        match self {
            Ast::Empty => Ast::Empty,
            Ast::Class(class) => Ast::Class(class.clone()),
            Ast::Concat(items) => Ast::Concat(items.iter().rev().map(Ast::reversed).collect()),
            Ast::Alternate(branches) => {
                Ast::Alternate(branches.iter().map(Ast::reversed).collect())
            }
            Ast::Repeat { node, min, max } => Ast::Repeat {
                node: Box::new(node.reversed()),
                min: *min,
                max: *max,
            },
            Ast::StartAnchor => Ast::EndAnchor,
            Ast::EndAnchor => Ast::StartAnchor,
        }
    }

    /// This pattern with every class that admits all non-ASCII bytes rewritten to
    /// consume a whole UTF-8 scalar where it consumed one byte: its ASCII members, or a
    /// lead byte and as many continuation bytes as the lead announces. Over valid UTF-8
    /// such a class then matches one *character*, so `x.` matches `xé` whole instead of
    /// ending inside the `é`, and no match can start on a continuation byte. Classes
    /// naming some non-ASCII bytes only (`\xa9`) keep byte semantics. What
    /// [`Regex::new`](crate::Regex::new) compiles — the VM's program and both tables
    /// alike; the canonical form (`to_pattern`) is of the pattern as written.
    pub fn whole_scalars(&self) -> Ast {
        match self {
            Ast::Class(class) if class.admits_all_non_ascii() => {
                let byte_range = |lo, hi| {
                    Ast::Class(ByteClass {
                        ranges: vec![(lo, hi)],
                    })
                };
                let scalar = |lead: Ast, continuations| {
                    let tail = std::iter::repeat_n(byte_range(0x80, 0xBF), continuations);
                    Ast::Concat(std::iter::once(lead).chain(tail).collect())
                };
                let ascii: Vec<(u8, u8)> = class
                    .ranges
                    .iter()
                    .filter(|&&(lo, _)| lo < 0x80)
                    .map(|&(lo, hi)| (lo, hi.min(0x7F)))
                    .collect();
                let mut branches = Vec::with_capacity(4);
                if !ascii.is_empty() {
                    branches.push(Ast::Class(ByteClass { ranges: ascii }));
                }
                branches.push(scalar(byte_range(0xC0, 0xDF), 1));
                branches.push(scalar(byte_range(0xE0, 0xEF), 2));
                branches.push(scalar(byte_range(0xF0, 0xF7), 3));
                Ast::Alternate(branches)
            }
            Ast::Empty | Ast::Class(_) | Ast::StartAnchor | Ast::EndAnchor => self.clone(),
            Ast::Concat(items) => Ast::Concat(items.iter().map(Ast::whole_scalars).collect()),
            Ast::Alternate(branches) => {
                Ast::Alternate(branches.iter().map(Ast::whole_scalars).collect())
            }
            Ast::Repeat { node, min, max } => Ast::Repeat {
                node: Box::new(node.whole_scalars()),
                min: *min,
                max: *max,
            },
        }
    }

    /// Render the AST back into pattern syntax such that re-parsing the output yields a
    /// structurally identical AST (`parse(ast.to_pattern()) == *ast`, verified by the
    /// seeded fuzz suite). Because the printer is deterministic, `parse → print` is a
    /// *canonical form*: printing is idempotent over its own output, which is what makes
    /// pattern round-trips stable.
    pub fn to_pattern(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, false);
        out
    }

    /// Append this node's pattern syntax to `out`. `atomic` forces grouping so the
    /// rendered fragment can safely take a quantifier or sit inside a concatenation.
    fn render(&self, out: &mut String, atomic: bool) {
        match self {
            Ast::Empty => {
                if atomic {
                    out.push_str("(?:)");
                }
                // At top level the empty pattern renders as the empty string.
            }
            Ast::Class(class) => render_class(class, out),
            Ast::StartAnchor => out.push('^'),
            Ast::EndAnchor => out.push('$'),
            Ast::Concat(items) => {
                if atomic {
                    out.push_str("(?:");
                }
                for item in items {
                    item.render(out, true);
                }
                if atomic {
                    out.push(')');
                }
            }
            Ast::Alternate(branches) => {
                out.push_str("(?:");
                for (i, branch) in branches.iter().enumerate() {
                    if i > 0 {
                        out.push('|');
                    }
                    // Branches are concatenation-level: no extra grouping needed, and
                    // an empty branch renders as the empty string (`(?:a|)`).
                    match branch {
                        Ast::Concat(items) => {
                            for item in items {
                                item.render(out, true);
                            }
                        }
                        Ast::Empty => {}
                        other => other.render(out, true),
                    }
                }
                out.push(')');
            }
            Ast::Repeat { node, min, max } => {
                // In atomic position (inside a concatenation or under another
                // quantifier) the whole repetition must be grouped, or the printed
                // braces would stack onto the preceding fragment's quantifier.
                if atomic {
                    out.push_str("(?:");
                }
                node.render(out, true);
                match max {
                    Some(max) => out.push_str(&format!("{{{min},{max}}}")),
                    None => out.push_str(&format!("{{{min},}}")),
                }
                if atomic {
                    out.push(')');
                }
            }
        }
    }
}

/// Render a byte class in `[...]` syntax (or the never-matching complement form for the
/// empty class, which has no direct syntax).
fn render_class(class: &ByteClass, out: &mut String) {
    if class.ranges.is_empty() {
        // A class that matches nothing: print the negation of the full byte range.
        out.push_str(r"[^\x00-\xff]");
        return;
    }
    out.push('[');
    for &(lo, hi) in &class.ranges {
        render_class_byte(lo, out);
        if hi > lo {
            out.push('-');
            render_class_byte(hi, out);
        }
    }
    out.push(']');
}

/// Render one byte inside a character class, escaping everything the class parser
/// treats specially (and all non-printable bytes as `\xHH`).
fn render_class_byte(b: u8, out: &mut String) {
    match b {
        b'\\' | b']' | b'^' | b'-' | b'[' => {
            out.push('\\');
            out.push(b as char);
        }
        0x20..=0x7E => out.push(b as char),
        _ => out.push_str(&format!("\\x{b:02x}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_merges_overlaps() {
        let mut c = ByteClass::empty();
        c.push(b'a', b'f');
        c.push(b'd', b'k');
        c.push(b'z', b'z');
        c.normalize();
        assert_eq!(c.ranges, vec![(b'a', b'k'), (b'z', b'z')]);
    }

    #[test]
    fn normalize_merges_adjacent() {
        let mut c = ByteClass::empty();
        c.push(b'a', b'c');
        c.push(b'd', b'f');
        c.normalize();
        assert_eq!(c.ranges, vec![(b'a', b'f')]);
    }

    #[test]
    fn negate_roundtrip() {
        let c = ByteClass::digit();
        let n = c.negate();
        assert!(!n.contains(b'5'));
        assert!(n.contains(b'a'));
        assert!(n.contains(0));
        assert!(n.contains(255));
        let back = n.negate();
        assert_eq!(back.ranges, c.ranges);
    }

    #[test]
    fn word_class_membership() {
        let w = ByteClass::word();
        for b in [b'a', b'Z', b'0', b'_'] {
            assert!(w.contains(b));
        }
        for b in [b' ', b'-', b'.', b'\n'] {
            assert!(!w.contains(b));
        }
    }

    #[test]
    fn dot_excludes_newline() {
        let d = ByteClass::dot();
        assert!(d.contains(b'a'));
        assert!(d.contains(b' '));
        assert!(!d.contains(b'\n'));
    }

    #[test]
    fn space_class_membership() {
        let s = ByteClass::space();
        for b in [b' ', b'\t', b'\n', b'\r'] {
            assert!(s.contains(b));
        }
        assert!(!s.contains(b'x'));
    }
}

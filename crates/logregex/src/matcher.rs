//! Pike-VM simulation of the compiled NFA program.
//!
//! The simulation runs in `O(haystack_len * program_len)` time and constant extra space
//! per program instruction — no backtracking, matching the paper's requirement that user
//! patterns stay linear-time (§4.1.1). It has two jobs: finishing the searches that
//! would need a DFA state past the table's budget (`crate::table`), and checking the
//! table's answers in debug builds. Both calls are in `Regex`'s one search.

use crate::compile::{Inst, Program};
use crate::table::TRAIL_LAG;
use crate::Match;

/// A live NFA thread: the instruction it sits on and the haystack offset where its match
/// attempt started (needed for leftmost-longest selection).
#[derive(Debug, Clone, Copy)]
struct Thread {
    pc: usize,
    start: usize,
}

/// Thread list with O(1) membership test per instruction.
#[derive(Debug, Default)]
struct ThreadList {
    threads: Vec<Thread>,
    /// `seen[pc]` holds (generation, start) of the best thread already queued at `pc`.
    seen: Vec<(u64, usize)>,
    generation: u64,
}

impl ThreadList {
    /// Size the list for a program of `prog_len` instructions (a no-op when it is).
    fn fit(&mut self, prog_len: usize) {
        if self.seen.len() != prog_len {
            *self = ThreadList {
                threads: Vec::with_capacity(prog_len),
                seen: vec![(0, usize::MAX); prog_len],
                generation: 0,
            };
        }
    }

    fn clear(&mut self) {
        self.threads.clear();
        self.generation += 1;
    }

    /// Into `out`, sorted: the instructions of the threads that can still improve a
    /// match starting at `best_start`.
    fn live_pcs(&self, best_start: usize, out: &mut Vec<u32>) {
        out.clear();
        out.extend(
            self.threads
                .iter()
                .filter(|th| th.start <= best_start)
                .map(|th| th.pc as u32),
        );
        out.sort_unstable();
        out.dedup();
    }

    /// Returns true when the thread should be added (either unseen this generation, or
    /// seen with a worse — later — start offset).
    fn admit(&mut self, pc: usize, start: usize) -> bool {
        let (generation, existing_start) = self.seen[pc];
        if generation == self.generation && existing_start <= start {
            return false;
        }
        self.seen[pc] = (self.generation, start);
        true
    }
}

/// What the VM passes of one iteration over one haystack reuse: the thread lists,
/// sized once for the program, and the trail.
#[derive(Debug, Default)]
pub(crate) struct Cache {
    current: ThreadList,
    next: ThreadList,
    live: Vec<u32>,
    trail: Trail,
}

impl Cache {
    /// Note that a pass of this iteration returned a match ending at `end`.
    pub(crate) fn settle(&mut self, end: usize) {
        self.trail.settled = self.trail.settled.max(end);
    }
}

/// The VM's counterpart of the table's trail (`crate::table`): within one iteration
/// over one haystack, the set of live instructions a pass held at each offset once it
/// ran more than `TRAIL_LAG` bytes past its first accept. Once a match is seen no new
/// thread starts, and a thread's future reaches `Match` or not by its instruction
/// alone, so a later pass holding the same set at an offset past the recording pass's
/// last accept accepts nothing more: it stops there.
#[derive(Debug, Default)]
struct Trail {
    /// Offset of `sets[0]`.
    base: usize,
    /// Per offset from `base`, the range of `pcs` holding its set (`None`: no record).
    sets: Vec<Option<(u32, u32)>>,
    pcs: Vec<u32>,
    /// The furthest match end any pass of the iteration returned.
    settled: usize,
}

impl Trail {
    /// The set recorded at `pos` past its pass's last accept, if any.
    fn at(&self, pos: usize) -> Option<&[u32]> {
        if pos <= self.settled {
            return None;
        }
        let (from, to) = (*self.sets.get(pos.checked_sub(self.base)?)?)?;
        Some(&self.pcs[from as usize..to as usize])
    }

    fn record(&mut self, pos: usize, set: &[u32]) {
        if self.sets.is_empty() {
            self.base = pos;
        }
        let Some(at) = pos.checked_sub(self.base) else {
            return;
        };
        if at >= self.sets.len() {
            self.sets.resize(at + 1, None);
        }
        let from = self.pcs.len() as u32;
        self.pcs.extend_from_slice(set);
        self.sets[at] = Some((from, self.pcs.len() as u32));
    }
}

/// Find the leftmost-longest match whose start offset is `>= from`. `cache` carries
/// earlier passes of one iteration over this `haystack`; the caller settles it with
/// the answer ([`Cache::settle`]).
pub(crate) fn find_at(
    program: &Program,
    haystack: &[u8],
    from: usize,
    cache: &mut Cache,
) -> Option<Match> {
    let len = haystack.len();
    if from > len {
        return None;
    }
    let Cache {
        current,
        next,
        live,
        trail,
    } = cache;
    current.fit(program.insts.len());
    next.fit(program.insts.len());
    let mut best: Option<Match> = None;
    let mut first_accept = None;

    current.clear();
    let mut pos = from;
    loop {
        // Seed a new start thread at `pos` unless a leftmost match already exists.
        // With a first-byte prefilter (pattern cannot match the empty string), a
        // match starting at `pos` must consume `haystack[pos]` as its first byte,
        // so positions outside the start-byte set never need a seed — and when no
        // threads are live we can skip straight to the next candidate position.
        if best.is_none() {
            match &program.start_bytes {
                Some(start_bytes) => {
                    if current.threads.is_empty() {
                        while pos < len && !start_bytes.contains(haystack[pos]) {
                            pos += 1;
                        }
                    }
                    if pos < len && start_bytes.contains(haystack[pos]) {
                        match start_bytes.seeds() {
                            // No anchor on the way, so the closure from pc 0 is the
                            // same at every offset. Walking it would stop at each
                            // instruction an earlier start already holds, and every seed
                            // past one is held by an earlier start too: admitting the
                            // seeds alone admits the same threads (less those whose
                            // class misses this byte, which the step would drop).
                            Some(seeds) => {
                                for &pc in seeds {
                                    let Inst::Byte(class) = &program.insts[pc] else {
                                        continue;
                                    };
                                    if class.contains(haystack[pos]) && current.admit(pc, pos) {
                                        current.threads.push(Thread { pc, start: pos });
                                    }
                                }
                            }
                            None => add_thread(program, current, 0, pos, pos, len, &mut best),
                        }
                    }
                }
                None => add_thread(program, current, 0, pos, pos, len, &mut best),
            }
        }
        if current.threads.is_empty() && best.is_some() {
            break;
        }
        if pos >= len {
            break;
        }
        let byte = haystack[pos];
        next.clear();
        let before = best;
        // Iterate by index: add_thread only appends to `next`, never `current`.
        for i in 0..current.threads.len() {
            let th = current.threads[i];
            if let Some(m) = best {
                if th.start > m.start {
                    continue; // cannot improve a leftmost match
                }
            }
            if let Inst::Byte(class) = &program.insts[th.pc] {
                if class.contains(byte) {
                    add_thread(program, next, th.pc + 1, th.start, pos + 1, len, &mut best);
                }
            }
        }
        std::mem::swap(current, next);
        pos += 1;
        if current.threads.is_empty() && best.is_some() {
            break;
        }
        if current.threads.is_empty() && best.is_none() && pos > len {
            break;
        }
        let Some(m) = best else {
            continue;
        };
        let first = *first_accept.get_or_insert(m.end);
        if best != before {
            continue;
        }
        let recording = pos - first > TRAIL_LAG;
        if recording || trail.at(pos).is_some() {
            current.live_pcs(m.start, live);
            if trail.at(pos) == Some(&live[..]) {
                break;
            }
            if recording {
                trail.record(pos, live);
            }
        }
    }
    best
}

/// Follow epsilon transitions (splits, jumps, anchors) from `pc`, queuing byte-consuming
/// threads into `list` and recording matches into `best`.
fn add_thread(
    program: &Program,
    list: &mut ThreadList,
    pc: usize,
    start: usize,
    pos: usize,
    len: usize,
    best: &mut Option<Match>,
) {
    if !list.admit(pc, start) {
        return;
    }
    match &program.insts[pc] {
        Inst::Jump(target) => add_thread(program, list, *target, start, pos, len, best),
        Inst::Split { prefer, other } => {
            add_thread(program, list, *prefer, start, pos, len, best);
            add_thread(program, list, *other, start, pos, len, best);
        }
        Inst::AssertStart => {
            if pos == 0 {
                add_thread(program, list, pc + 1, start, pos, len, best);
            }
        }
        Inst::AssertEnd => {
            if pos == len {
                add_thread(program, list, pc + 1, start, pos, len, best);
            }
        }
        Inst::Byte(_) => {
            list.threads.push(Thread { pc, start });
        }
        Inst::Match => {
            let candidate = Match { start, end: pos };
            let better = match best {
                None => true,
                Some(existing) => {
                    candidate.start < existing.start
                        || (candidate.start == existing.start && candidate.end > existing.end)
                }
            };
            if better {
                *best = Some(candidate);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Regex;

    #[test]
    fn longest_match_at_same_start() {
        let re = Regex::new("ab|abc|abcd").unwrap();
        let m = re.find("xxabcdyy").unwrap();
        assert_eq!(m.as_str("xxabcdyy"), "abcd");
    }

    #[test]
    fn leftmost_wins_over_longer_later() {
        let re = Regex::new("a+|b+").unwrap();
        let m = re.find("aabbbb").unwrap();
        assert_eq!(m.as_str("aabbbb"), "aa");
    }

    #[test]
    fn greedy_star() {
        let re = Regex::new("a*").unwrap();
        let m = re.find("aaab").unwrap();
        assert_eq!(m.len(), 3);
        assert_eq!(m.start, 0);
    }

    #[test]
    fn match_at_end_of_haystack() {
        let re = Regex::new("end$").unwrap();
        let m = re.find("the end").unwrap();
        assert_eq!(m.start, 4);
        assert_eq!(m.end, 7);
    }

    #[test]
    fn no_match_returns_none() {
        let re = Regex::new("zzz").unwrap();
        assert!(re.find("abcabc").is_none());
    }

    #[test]
    fn find_at_respects_offset() {
        let re = Regex::new("ab").unwrap();
        let m = re.find_at("abxab", 1).unwrap();
        assert_eq!(m.start, 3);
    }

    #[test]
    fn prefilter_computed_for_nonempty_patterns_only() {
        let re = Regex::new("[0-9]+ms").unwrap();
        let lut = re.program().start_bytes.as_ref().expect("prefilter");
        assert_eq!(lut.len(), 10);
        assert!(lut.contains(b'7'));
        assert!(!lut.contains(b'm'));
        // Empty-matchable patterns must disable the filter entirely.
        assert!(Regex::new("a*").unwrap().program().start_bytes.is_none());
        assert!(Regex::new("^").unwrap().program().start_bytes.is_none());
        assert!(Regex::new("x?").unwrap().program().start_bytes.is_none());
    }

    #[test]
    fn prefilter_includes_all_alternation_branches() {
        let re = Regex::new("(foo|[0-9]ar|^zap)").unwrap();
        let lut = re.program().start_bytes.as_ref().expect("prefilter");
        assert!(lut.contains(b'f'));
        assert!(lut.contains(b'5'));
        assert!(lut.contains(b'z'));
        assert!(!lut.contains(b'a'));
    }

    #[test]
    fn prefilter_agrees_with_unfiltered_vm_on_mixed_haystacks() {
        use crate::compile::compile;
        use crate::matcher::{find_at, Cache};
        use crate::parser::parse;

        let patterns = [
            "[0-9]+",
            "ab+c",
            "x$",
            "^st",
            "(GET|POST) /",
            "a{2,4}b",
            "a*",
            "z?7",
        ];
        let haystacks = [
            "",
            "no digits here at all",
            "tail 42",
            "42 head",
            "middle 0 x",
            "stxst",
            "GET /api POST /other",
            "aaaab aab ab b",
            "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx7",
        ];
        for pattern in patterns {
            let filtered = compile(&parse(pattern).unwrap());
            let mut unfiltered = filtered.clone();
            unfiltered.start_bytes = None;
            for hay in haystacks {
                for from in 0..=hay.len() {
                    let got = find_at(&filtered, hay.as_bytes(), from, &mut Cache::default());
                    let expected =
                        find_at(&unfiltered, hay.as_bytes(), from, &mut Cache::default());
                    assert_eq!(got, expected, "pattern={pattern:?} hay={hay:?} from={from}");
                }
            }
        }
    }

    #[test]
    fn linearity_smoke_test_pathological_pattern() {
        // `(a+)+b`-style patterns are exponential under backtracking engines; the Pike VM
        // must finish quickly even on a non-matching input.
        let re = Regex::new("(a+)+b").unwrap();
        let haystack = "a".repeat(2000);
        let started = std::time::Instant::now();
        assert!(!re.is_match(&haystack));
        assert!(started.elapsed() < std::time::Duration::from_secs(2));
    }
}

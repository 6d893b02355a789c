//! Seeded fuzz-style tests for the `logregex` parser and compiler: arbitrary byte
//! strings must never panic the pipeline, and parse → print → parse round-trips must
//! be stable (the canonical form is a fixed point) and behaviour-preserving.
//!
//! Like the other randomized suites in this workspace, every case is drawn from a
//! fixed-seed RNG so failures reproduce deterministically. The CI seed matrix varies
//! the base seed through `BYTEBRAIN_TEST_SEED`.

use logregex::{canonicalize, Regex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Base seed for all randomized cases; CI runs a small matrix of values.
fn base_seed() -> u64 {
    std::env::var("BYTEBRAIN_TEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// A random string over printable ASCII, heavily seasoned with regex metacharacters.
fn metachar_soup(rng: &mut StdRng, max_len: usize) -> String {
    const FRAGMENTS: &[&str] = &[
        "a", "b", "Z", "0", "9", "_", " ", r"\d", r"\w", r"\s", r"\D", r"\W", r"\S", r"\n", r"\t",
        r"\x41", r"\.", r"\\", ".", "(", ")", "(?:", "|", "*", "+", "?", "{2}", "{1,3}", "{2,}",
        "{,3}", "[", "]", "[a-f]", "[^0-9]", "[]]", "^", "$", "{", "}", "-", ":", "/", r"\1",
        "(?=", "(?!", "(?<",
    ];
    let len = rng.gen_range(0..max_len + 1);
    let mut out = String::new();
    for _ in 0..len {
        out.push_str(FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())]);
    }
    out
}

/// A random string of arbitrary bytes, lossily converted to UTF-8 (so multi-byte and
/// replacement characters appear alongside ASCII).
fn arbitrary_bytes_string(rng: &mut StdRng, max_len: usize) -> String {
    let len = rng.gen_range(0..max_len + 1);
    let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..256u16) as u8).collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A random ASCII haystack to exercise matching.
fn ascii_haystack(rng: &mut StdRng, max_len: usize) -> String {
    let len = rng.gen_range(0..max_len + 1);
    (0..len)
        .map(|_| rng.gen_range(0x20u8..0x7F) as char)
        .collect()
}

#[test]
fn parser_never_panics_on_arbitrary_inputs() {
    let mut rng = StdRng::seed_from_u64(base_seed() ^ 0xF022);
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    for case in 0..2_000 {
        let pattern = if case % 2 == 0 {
            metachar_soup(&mut rng, 24)
        } else {
            arbitrary_bytes_string(&mut rng, 40)
        };
        // The only contract: no panic. Both outcomes must occur over the corpus.
        match Regex::new(&pattern) {
            Ok(_) => accepted += 1,
            Err(_) => rejected += 1,
        }
    }
    assert!(accepted > 100, "generator produced too few valid patterns");
    assert!(
        rejected > 100,
        "generator produced too few invalid patterns"
    );
}

#[test]
fn compiled_arbitrary_patterns_match_safely() {
    let mut rng = StdRng::seed_from_u64(base_seed() ^ 0x5AFE);
    let mut exercised = 0usize;
    for _ in 0..1_500 {
        let pattern = metachar_soup(&mut rng, 16);
        let Ok(re) = Regex::new(&pattern) else {
            continue;
        };
        exercised += 1;
        let haystack = ascii_haystack(&mut rng, 80);
        // Matching must terminate, produce in-bounds offsets, and never panic.
        let _ = re.is_match(&haystack);
        for m in re.find_iter(&haystack) {
            assert!(m.start <= m.end, "inverted match in {pattern:?}");
            assert!(
                m.end <= haystack.len(),
                "out-of-bounds match in {pattern:?}"
            );
            let _ = m.as_str(&haystack);
        }
        let replaced = re.replace_all(&haystack, "<*>");
        assert!(replaced.len() <= haystack.len() + 3 * (haystack.len() + 1));
        let parts = re.split(&haystack);
        let rejoined: usize = parts.iter().map(|p| p.len()).sum();
        assert!(rejoined <= haystack.len());
    }
    assert!(exercised > 200, "too few valid patterns exercised");
}

/// A haystack over the alphabet `metachar_soup` patterns are written in, plus
/// multi-byte characters, so random patterns actually match (and match next to
/// character boundaries).
fn pattern_alphabet_haystack(rng: &mut StdRng, max_len: usize) -> String {
    const PIECES: &[&str] = &[
        "a", "b", "Z", "0", "9", "_", " ", "-", ":", "/", ".", "A", "\n", "\t", "é", "用", "🦀",
    ];
    let len = rng.gen_range(0..max_len + 1);
    (0..len)
        .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
        .collect()
}

/// `find_iter` as a loop of independent `find_at` calls: what the iterators must
/// yield, without the trail one iteration's passes share.
fn matches_by_find_at(re: &Regex, haystack: &str) -> Vec<logregex::Match> {
    let boundary_after = |at: usize| {
        let mut next = at + 1;
        while next < haystack.len() && !haystack.is_char_boundary(next) {
            next += 1;
        }
        next
    };
    let (mut out, mut pos) = (Vec::new(), 0);
    while pos <= haystack.len() {
        let Some(m) = re.find_at(haystack, pos) else {
            break;
        };
        if !(haystack.is_char_boundary(m.start) && haystack.is_char_boundary(m.end)) {
            pos = boundary_after(m.start);
            continue;
        }
        pos = if m.is_empty() {
            boundary_after(m.end)
        } else {
            m.end
        };
        out.push(m);
    }
    out
}

/// Every search position of `haystack` answers the same through the DFA table as
/// through the Pike VM alone, and so do the iterators built on it — which also yield
/// what independent searches yield.
fn assert_table_matches_vm(re: &Regex, haystack: &str) {
    let vm = re.pike_vm_only();
    for from in 0..=haystack.len() + 1 {
        assert_eq!(
            re.find_at(haystack, from),
            vm.find_at(haystack, from),
            "{:?} at offset {from} of {haystack:?}",
            re.as_str()
        );
    }
    let expected = matches_by_find_at(&vm, haystack);
    for engine in [re, &vm] {
        assert_eq!(
            engine.find_iter(haystack).collect::<Vec<_>>(),
            expected,
            "{:?} on {haystack:?}",
            re.as_str()
        );
    }
}

#[test]
fn dfa_table_agrees_with_pike_vm_on_random_patterns() {
    let mut rng = StdRng::seed_from_u64(base_seed() ^ 0xDFA0);
    let (mut tabled, mut anchored, mut empty_matching, mut bounded) = (0, 0, 0, 0);
    for _ in 0..1_500 {
        let pattern = metachar_soup(&mut rng, 12);
        let Ok(re) = Regex::new(&pattern) else {
            continue;
        };
        tabled += usize::from(re.dfa_states().is_some());
        anchored += usize::from(pattern.contains(['^', '$']));
        empty_matching += usize::from(re.is_match(""));
        bounded += usize::from(pattern.contains('{'));
        for _ in 0..3 {
            assert_table_matches_vm(&re, &ascii_haystack(&mut rng, 40));
            assert_table_matches_vm(&re, &pattern_alphabet_haystack(&mut rng, 30));
        }
        assert_table_matches_vm(&re, "");
    }
    // The generator must reach every construct the table handles specially.
    assert!(tabled > 300, "too few tabled patterns: {tabled}");
    assert!(anchored > 50, "too few anchored patterns: {anchored}");
    assert!(
        empty_matching > 50,
        "too few empty-matching patterns: {empty_matching}"
    );
    assert!(bounded > 50, "too few bounded repeats: {bounded}");
}

#[test]
fn dfa_table_agrees_with_pike_vm_past_the_state_cap_and_on_long_runs() {
    let mut rng = StdRng::seed_from_u64(base_seed() ^ 0xDFA1);
    // Tables are built lazily: a cold pattern holds its start states alone, whatever
    // its size, and grows only as searches need states.
    for n in 11..14 {
        let re = Regex::new(&format!("(a|b)*a(a|b){{{n}}}")).unwrap();
        let cold = re.dfa_states().expect("every pattern has a table");
        assert!(cold < 64, "{:?} built {cold} states up front", re.as_str());
        let haystack: String = (0..60)
            .map(|_| if rng.gen_bool(0.5) { 'a' } else { 'b' })
            .collect();
        assert_table_matches_vm(&re, &haystack);
        assert!(re.dfa_states().unwrap() > cold);
    }
    // Past the state budget: 2¹³ forward states are reachable, and a haystack this long
    // visits more than one direction may hold, so a search gives up mid-haystack and
    // finishes on the VM; the states already built go on serving.
    let re = Regex::new("(a|b)*a(a|b){12}").unwrap();
    let vm = re.pike_vm_only();
    for _ in 0..2 {
        let haystack: String = (0..30_000)
            .map(|_| if rng.gen_bool(0.5) { 'a' } else { 'b' })
            .collect();
        assert!(re.find_iter(&haystack).eq(vm.find_iter(&haystack)));
        for _ in 0..20 {
            let from = rng.gen_range(0..haystack.len() + 2);
            assert_eq!(re.find_at(&haystack, from), vm.find_at(&haystack, from));
        }
    }
    assert!(
        re.dfa_states().unwrap() > 4096,
        "the budget was never reached: {:?} states",
        re.dfa_states()
    );
    // Long runs every start walks to the end of: one forward group per start offset,
    // and the backward pass walks the whole run.
    for pattern in [
        r"\d+(\.\d+)?(KB|MB|GB|TB|kb|mb|gb|B)",
        r"[0-9a]+x",
        r"a*b",
        r"\d+B|\d{2}",
    ] {
        let re = Regex::new(pattern).unwrap();
        for _ in 0..3 {
            let run = rng.gen_range(300..600usize);
            let tail = ["", " B", "B", "x", "b", "é"][rng.gen_range(0..6usize)];
            let digit = ["1", "a"][rng.gen_range(0..2usize)];
            assert_table_matches_vm(&re, &format!("{}{tail}", digit.repeat(run)));
        }
    }
    // A thread that outlives a run of short matches: each engine's iteration stays
    // linear over 100,000 digits, and the two agree.
    let re = Regex::new(r"\d+B|\d{2}").unwrap();
    for tail in [" B", "B", "1 B", ""] {
        let haystack = format!("{}{tail}", "7".repeat(100_000));
        let started = std::time::Instant::now();
        let tabled: Vec<_> = re.find_iter(&haystack).collect();
        let vm: Vec<_> = re.pike_vm_only().find_iter(&haystack).collect();
        let elapsed = started.elapsed();
        assert_eq!(tabled, vm, "tail {tail:?}");
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "tail {tail:?}: {elapsed:?}"
        );
    }
}

#[test]
fn two_threads_searching_one_cold_table_get_the_vm_answers() {
    let mut rng = StdRng::seed_from_u64(base_seed() ^ 0xDFA2);
    for pattern in [
        r"(?:\d{4}-\d{2}-\d{2}[ T]\d{2}:\d{2}:\d{2}(\.\d+)?)|(?:[0-9a-f]{32})|(?:\d+(\.\d+)?(KB|MB|B))",
        "(a|b)*a(a|b){6}",
        r"[^ ]+=\w*",
    ] {
        let re = Regex::new(pattern).unwrap();
        let vm = re.pike_vm_only();
        let haystacks: Vec<String> = (0..200)
            .map(|i| {
                if i % 2 == 0 {
                    pattern_alphabet_haystack(&mut rng, 60)
                } else {
                    ascii_haystack(&mut rng, 60)
                }
            })
            .chain(["2025-04-12 08:15:12.123 d41d8cd98f00b204e9800998ecf8427e 512MB".into()])
            .collect();
        let expected: Vec<Vec<_>> = haystacks
            .iter()
            .map(|h| vm.find_iter(h).collect())
            .collect();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for reverse in [false, true] {
                let (re, haystacks, expected, barrier) =
                    (re.clone(), &haystacks, &expected, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let order: Vec<usize> = if reverse {
                        (0..haystacks.len()).rev().collect()
                    } else {
                        (0..haystacks.len()).collect()
                    };
                    for i in order {
                        let got: Vec<_> = re.find_iter(&haystacks[i]).collect();
                        assert_eq!(got, expected[i], "{pattern:?} on {:?}", haystacks[i]);
                    }
                });
            }
        });
    }
}

#[test]
fn parse_print_parse_round_trips_are_stable() {
    let mut rng = StdRng::seed_from_u64(base_seed() ^ 0x2007);
    let mut round_tripped = 0usize;
    for case in 0..2_000 {
        let pattern = if case % 3 == 0 {
            arbitrary_bytes_string(&mut rng, 30)
        } else {
            metachar_soup(&mut rng, 20)
        };
        let Ok(canonical) = canonicalize(&pattern) else {
            continue;
        };
        round_tripped += 1;
        // The canonical form must itself parse, and be a fixed point of printing.
        let again = canonicalize(&canonical).unwrap_or_else(|e| {
            panic!("canonical pattern {canonical:?} (of {pattern:?}) failed to parse: {e}")
        });
        assert_eq!(
            canonical, again,
            "canonicalization is not idempotent for {pattern:?}"
        );
        // And it must preserve behaviour.
        let original = Regex::new(&pattern).expect("pattern parsed before");
        let printed = Regex::new(&canonical).expect("canonical form parses");
        for _ in 0..10 {
            let haystack = ascii_haystack(&mut rng, 60);
            assert_eq!(
                original.is_match(&haystack),
                printed.is_match(&haystack),
                "behaviour diverged for {pattern:?} vs {canonical:?} on {haystack:?}"
            );
            let a = original.find(&haystack);
            let b = printed.find(&haystack);
            assert_eq!(
                a, b,
                "match positions diverged for {pattern:?} on {haystack:?}"
            );
        }
    }
    assert!(round_tripped > 300, "too few valid patterns round-tripped");
}

#[test]
fn round_trip_preserves_real_world_patterns() {
    // Every pattern the workspace actually ships: the default mask rules and the
    // paper's tokenizer pattern.
    let patterns = [
        r"\d{4}-\d{2}-\d{2}[ T]\d{2}:\d{2}:\d{2}(\.\d+)?",
        r"\d{2}:\d{2}:\d{2}(\.\d+)?",
        r"\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}(/\d{1,2})?(:\d{1,5})?",
        r"[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}",
        r"[0-9a-f]{32}",
        r"0x[0-9a-fA-F]{4,16}",
        r"\d+(\.\d+)?(KB|MB|GB|TB|kb|mb|gb|B)",
        r"\d+(\.\d+)?(ms|us|ns|sec|secs|seconds)",
        r#"(?:://)|(?:(?:[\s'";=()\[\]{}?@&<>:\n\t\r,])|(?:\.(\s|$))|(?:\\["']))+"#,
    ];
    let haystacks = [
        "2025-04-12 08:15:12.123 INFO dfs.DataNode started",
        "Failed password for root from 183.62.140.253 port 22 ssh2",
        "request 123e4567-e89b-12d3-a456-426614174000 flag 0xDEADBEEF done",
        "allocated 512MB in 35ms",
        r#"release:lock=2337, flg=0x0, tag="View Lock", name=systemui, ws=null"#,
        "",
        "no variables here at all",
    ];
    for pattern in patterns {
        let canonical = canonicalize(pattern).expect("shipped pattern parses");
        assert_eq!(
            canonicalize(&canonical).unwrap(),
            canonical,
            "canonical form of {pattern:?} is not a fixed point"
        );
        let original = Regex::new(pattern).unwrap();
        let printed = Regex::new(&canonical).unwrap();
        for haystack in haystacks {
            assert_eq!(
                original.replace_all(haystack, "<*>"),
                printed.replace_all(haystack, "<*>"),
                "replacement diverged for {pattern:?} on {haystack:?}"
            );
        }
    }
}

#[test]
fn unicode_patterns_round_trip_bytewise() {
    let patterns = ["用户", "héllo|wörld", "日志{1,2}", "[α-ω]?"];
    for pattern in patterns {
        match canonicalize(pattern) {
            Ok(canonical) => {
                assert_eq!(canonicalize(&canonical).unwrap(), canonical);
                let original = Regex::new(pattern).unwrap();
                let printed = Regex::new(&canonical).unwrap();
                for haystack in ["用户 登录 成功", "héllo wörld", "ascii only", ""] {
                    assert_eq!(
                        original.is_match(haystack),
                        printed.is_match(haystack),
                        "unicode behaviour diverged for {pattern:?}"
                    );
                }
            }
            Err(_) => {
                // Rejection is fine (e.g. byte-range classes over multi-byte chars);
                // it just must be deterministic.
                assert!(canonicalize(pattern).is_err());
            }
        }
    }
}

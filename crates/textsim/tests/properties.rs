//! Property-based tests for the similarity substrate: metric bounds,
//! symmetry, identity, and triangle-inequality style invariants.
//!
//! Each property runs over `CASES` deterministically seeded random inputs
//! drawn from the `em-rt` RNG; on failure the offending seed is printed so
//! the case can be replayed with `StdRng::seed_from_u64(seed)`.

use em_rt::StdRng;
use em_text::*;

const CASES: u64 = 256;

/// Run a property over `CASES` seeded RNGs, reporting the failing seed.
fn check(f: impl Fn(&mut StdRng) + std::panic::RefUnwindSafe) {
    for case in 0..CASES {
        let seed = 0x7e57_0000 ^ case;
        let result = std::panic::catch_unwind(|| {
            let mut rng = StdRng::seed_from_u64(seed);
            f(&mut rng);
        });
        if let Err(e) = result {
            eprintln!("property failed for seed {seed} (case {case}/{CASES})");
            std::panic::resume_unwind(e);
        }
    }
}

/// ASCII-ish strings including whitespace, to exercise tokenization
/// (the old `[a-z0-9 ]{0,24}` strategy).
fn word_string(rng: &mut StdRng) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789 ";
    let len = rng.random_range(0..=24usize);
    (0..len)
        .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())] as char)
        .collect()
}

/// Non-empty lowercase word (the old `[a-z]{1,16}` strategy).
fn lowercase_word(rng: &mut StdRng) -> String {
    let len = rng.random_range(1..=16usize);
    (0..len)
        .map(|_| (b'a' + rng.random_range(0..26usize) as u8) as char)
        .collect()
}

#[test]
fn levenshtein_identity() {
    check(|rng| {
        let s = word_string(rng);
        assert_eq!(levenshtein_distance(&s, &s), 0);
        assert_eq!(levenshtein_similarity(&s, &s), 1.0);
    });
}

#[test]
fn levenshtein_symmetry() {
    check(|rng| {
        let (a, b) = (word_string(rng), word_string(rng));
        assert_eq!(levenshtein_distance(&a, &b), levenshtein_distance(&b, &a));
    });
}

#[test]
fn levenshtein_triangle() {
    check(|rng| {
        let (a, b, c) = (word_string(rng), word_string(rng), word_string(rng));
        let ab = levenshtein_distance(&a, &b);
        let bc = levenshtein_distance(&b, &c);
        let ac = levenshtein_distance(&a, &c);
        assert!(ac <= ab + bc);
    });
}

#[test]
fn levenshtein_bounded_by_longer_length() {
    check(|rng| {
        let (a, b) = (word_string(rng), word_string(rng));
        let d = levenshtein_distance(&a, &b);
        assert!(d <= a.chars().count().max(b.chars().count()));
        // and at least the length difference
        assert!(d >= a.chars().count().abs_diff(b.chars().count()));
    });
}

#[test]
fn levenshtein_similarity_in_unit_interval() {
    check(|rng| {
        let (a, b) = (word_string(rng), word_string(rng));
        let s = levenshtein_similarity(&a, &b);
        assert!((0.0..=1.0).contains(&s));
    });
}

#[test]
fn jaro_bounds_symmetry_identity() {
    check(|rng| {
        let (a, b) = (word_string(rng), word_string(rng));
        let j = jaro(&a, &b);
        assert!((0.0..=1.0).contains(&j));
        assert!((j - jaro(&b, &a)).abs() < 1e-12);
        assert!((jaro(&a, &a) - 1.0).abs() < 1e-12);
    });
}

#[test]
fn jaro_winkler_dominates_jaro() {
    check(|rng| {
        let (a, b) = (word_string(rng), word_string(rng));
        let j = jaro(&a, &b);
        let jw = jaro_winkler(&a, &b);
        assert!(jw >= j - 1e-12);
        assert!(jw <= 1.0 + 1e-12);
    });
}

#[test]
fn set_sims_bounds_and_identity() {
    check(|rng| {
        let (a, b) = (word_string(rng), word_string(rng));
        for tok in [Tokenizer::Whitespace, Tokenizer::QGram(3)] {
            for f in [jaccard, dice, cosine, overlap_coefficient] {
                let s = f(&a, &b, tok);
                assert!((0.0..=1.0 + 1e-12).contains(&s), "value {s}");
                assert!((f(&a, &a, tok) - 1.0).abs() < 1e-12);
                // symmetry
                assert!((s - f(&b, &a, tok)).abs() < 1e-12);
            }
        }
    });
}

#[test]
fn set_sim_ordering() {
    check(|rng| {
        let (a, b) = (word_string(rng), word_string(rng));
        let tok = Tokenizer::Whitespace;
        let j = jaccard(&a, &b, tok);
        let d = dice(&a, &b, tok);
        let c = cosine(&a, &b, tok);
        let o = overlap_coefficient(&a, &b, tok);
        // Standard chain: jaccard <= dice <= cosine(ochiai) <= overlap.
        assert!(j <= d + 1e-12);
        assert!(d <= c + 1e-12);
        assert!(c <= o + 1e-12);
    });
}

#[test]
fn smith_waterman_bounded() {
    check(|rng| {
        let (a, b) = (word_string(rng), word_string(rng));
        let s = smith_waterman(&a, &b);
        assert!(s >= 0.0);
        assert!(s <= a.chars().count().min(b.chars().count()) as f64);
        // Identity achieves the max.
        assert_eq!(smith_waterman(&a, &a), a.chars().count() as f64);
    });
}

#[test]
fn needleman_wunsch_identity_is_length() {
    check(|rng| {
        let a = word_string(rng);
        assert_eq!(needleman_wunsch(&a, &a), a.chars().count() as f64);
    });
}

#[test]
fn needleman_wunsch_upper_bound() {
    check(|rng| {
        let (a, b) = (word_string(rng), word_string(rng));
        // NW score can never exceed the number of possible matches.
        let s = needleman_wunsch(&a, &b);
        assert!(s <= a.chars().count().min(b.chars().count()) as f64);
    });
}

#[test]
fn monge_elkan_bounds() {
    check(|rng| {
        let (a, b) = (word_string(rng), word_string(rng));
        let s = monge_elkan(&a, &b);
        assert!((0.0..=1.0 + 1e-9).contains(&s), "value {s}");
        assert!((monge_elkan(&a, &a) - 1.0).abs() < 1e-9);
    });
}

#[test]
fn qgram_token_count() {
    check(|rng| {
        let s = lowercase_word(rng);
        let q = rng.random_range(1..5usize);
        assert_eq!(qgrams(&s, q).len(), s.chars().count() + q - 1);
    });
}

#[test]
fn absolute_norm_bounds() {
    check(|rng| {
        let a = rng.random_range(-1e6f64..1e6);
        let b = rng.random_range(-1e6f64..1e6);
        let s = absolute_norm(a, b);
        assert!((0.0..=1.0).contains(&s));
        assert_eq!(absolute_norm(a, a), 1.0);
        assert!((s - absolute_norm(b, a)).abs() < 1e-12);
    });
}

/// Strings mixing ASCII, multi-byte unicode (accents, CJK), and whitespace —
/// profiles cache `Vec<char>`, so char-index vs byte-index confusions would
/// surface here.
fn unicode_string(rng: &mut StdRng) -> String {
    const ALPHABET: &[char] = &[
        'a', 'b', 'c', 'z', '0', '9', ' ', ' ', 'é', 'ü', 'ß', 'ñ', 'č', '東', '京', 'λ', 'Ω', '✓',
    ];
    let len = rng.random_range(0..=24usize);
    (0..len)
        .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())])
        .collect()
}

/// All 16 Table-II string similarities.
fn table2_similarities() -> Vec<StringSimilarity> {
    use StringSimilarity::*;
    let mut sims = vec![
        LevenshteinDistance,
        LevenshteinSimilarity,
        Jaro,
        ExactMatch,
        JaroWinkler,
        NeedlemanWunsch,
        SmithWaterman,
        MongeElkan,
    ];
    for tok in [Tokenizer::Whitespace, Tokenizer::QGram(3)] {
        sims.extend([
            Jaccard(tok),
            Dice(tok),
            Cosine(tok),
            OverlapCoefficient(tok),
        ]);
    }
    sims
}

#[test]
fn profile_similarities_bit_identical_to_string_path() {
    let sims = table2_similarities();
    check(|rng| {
        let (a, b) = (unicode_string(rng), unicode_string(rng));
        let mut interner = TokenInterner::new();
        let pa = TokenProfile::build(&a, &mut interner);
        let pb = TokenProfile::build(&b, &mut interner);
        let mut scratch = SimScratch::new();
        for sim in &sims {
            let via_string = sim.apply(&a, &b);
            let via_profile = sim.apply_profiles(&pa, &pb, &mut scratch);
            assert_eq!(
                via_string.to_bits(),
                via_profile.to_bits(),
                "{sim:?} diverged on {a:?} vs {b:?}: {via_string} != {via_profile}"
            );
        }
    });
}

#[test]
fn profile_similarities_bit_identical_on_ascii_words() {
    let sims = table2_similarities();
    check(|rng| {
        let (a, b) = (word_string(rng), word_string(rng));
        let mut interner = TokenInterner::new();
        let pa = TokenProfile::build(&a, &mut interner);
        let pb = TokenProfile::build(&b, &mut interner);
        let mut scratch = SimScratch::new();
        for sim in &sims {
            assert_eq!(
                sim.apply(&a, &b).to_bits(),
                sim.apply_profiles(&pa, &pb, &mut scratch).to_bits(),
                "{sim:?} diverged on {a:?} vs {b:?}"
            );
        }
    });
}

#[test]
fn merge_join_intersection_matches_naive() {
    check(|rng| {
        let (a, b) = (unicode_string(rng), unicode_string(rng));
        for tok in [Tokenizer::Whitespace, Tokenizer::QGram(3)] {
            let sa = tok.sorted_tokens(&a);
            let sb = tok.sorted_tokens(&b);
            let naive = sa.iter().filter(|t| sb.contains(t)).count();
            let mut interner = TokenInterner::new();
            let ia: Vec<u32> = {
                let mut v: Vec<u32> = sa.iter().map(|t| interner.intern(t)).collect();
                v.sort_unstable();
                v
            };
            let ib: Vec<u32> = {
                let mut v: Vec<u32> = sb.iter().map(|t| interner.intern(t)).collect();
                v.sort_unstable();
                v
            };
            assert_eq!(intersection_size_sorted(&ia, &ib), naive);
        }
    });
}

#[test]
fn exact_match_is_binary() {
    check(|rng| {
        let (a, b) = (word_string(rng), word_string(rng));
        let e = exact_match(&a, &b);
        assert!(e == 0.0 || e == 1.0);
        assert_eq!(e == 1.0, a == b);
    });
}

/// Every measure the profile path serves: the 16 Table-II ones, the raw
/// shared-token count, and set measures over an unprofiled tokenizer
/// (QGram(2)), which take the string path. The last two shapes are what
/// labeling-function feature plans build.
fn all_profile_measures() -> Vec<StringSimilarity> {
    use StringSimilarity::*;
    let mut sims = table2_similarities();
    sims.extend([
        OverlapSize(Tokenizer::Whitespace),
        OverlapSize(Tokenizer::QGram(3)),
        OverlapSize(Tokenizer::QGram(2)),
        Jaccard(Tokenizer::QGram(2)),
        OverlapCoefficient(Tokenizer::QGram(2)),
    ]);
    sims
}

const ASCII_ALPHABET: &[char] = &['a', 'b', 'c', 'd', 'e', 'r', 's', 't', '1', ' '];
const UNICODE_ALPHABET: &[char] = &['a', 'b', 'é', 'ü', 'ß', '東', '京', 'λ', 'Ω', '✓', ' '];

/// A 65–200 char string over a small alphabet, so chars repeat and match:
/// it crosses the 64- and 128-bit block boundaries of the bit-parallel
/// kernels.
fn long_string(rng: &mut StdRng, alphabet: &[char]) -> String {
    let len = rng.random_range(65..=200usize);
    (0..len)
        .map(|_| alphabet[rng.random_range(0..alphabet.len())])
        .collect()
}

/// `a` after a few random substitutions, insertions and deletions, so the
/// pair shares long aligned runs across block boundaries.
fn edited(rng: &mut StdRng, a: &str, alphabet: &[char]) -> String {
    let mut chars: Vec<char> = a.chars().collect();
    for _ in 0..rng.random_range(0..=12usize) {
        let c = alphabet[rng.random_range(0..alphabet.len())];
        let at = rng.random_range(0..=chars.len());
        match rng.random_range(0..3u32) {
            0 => chars.insert(at, c),
            1 if at < chars.len() => chars[at] = c,
            _ if at < chars.len() => {
                chars.remove(at);
            }
            _ => {}
        }
    }
    chars.into_iter().collect()
}

/// Empty or whitespace-only.
fn blank_string(rng: &mut StdRng) -> String {
    const BLANKS: &[&str] = &["", " ", "  ", "\t", " \n ", "\u{3000}"];
    BLANKS[rng.random_range(0..BLANKS.len())].to_owned()
}

/// A random non-empty subset of `all`, in random order, sometimes with a
/// measure repeated.
fn random_measures(rng: &mut StdRng, all: &[StringSimilarity]) -> Vec<StringSimilarity> {
    let mut pool = all.to_vec();
    let n = rng.random_range(1..=pool.len());
    let mut picked: Vec<StringSimilarity> = (0..n)
        .map(|_| pool.swap_remove(rng.random_range(0..pool.len())))
        .collect();
    if rng.random_bool(0.25) {
        let again = picked[rng.random_range(0..picked.len())];
        picked.insert(rng.random_range(0..=picked.len()), again);
    }
    picked
}

/// The fused evaluator and every one-measure `apply_profiles` call agree
/// with the `&str` oracle bit for bit, on one scratch reused across calls.
fn assert_fused_matches_oracle(a: &str, b: &str, sims: &[StringSimilarity], s: &mut SimScratch) {
    let mut interner = TokenInterner::new();
    let pa = TokenProfile::build(a, &mut interner);
    let pb = TokenProfile::build(b, &mut interner);
    let mut out = vec![f64::NAN; sims.len()];
    SimEvaluator::new(sims).eval(&pa, &pb, s, &mut out);
    for (sim, got) in sims.iter().zip(&out) {
        let want = sim.apply(a, b);
        assert_eq!(
            want.to_bits(),
            got.to_bits(),
            "{sim:?} in {sims:?} diverged on {a:?} vs {b:?}: {want} != {got}"
        );
        assert_eq!(
            want.to_bits(),
            sim.apply_profiles(&pa, &pb, s).to_bits(),
            "apply_profiles {sim:?} diverged on {a:?} vs {b:?}"
        );
    }
}

#[test]
fn fused_evaluator_bit_identical_on_long_ascii_inputs() {
    let all = all_profile_measures();
    check(|rng| {
        let a = long_string(rng, ASCII_ALPHABET);
        let b = if rng.random_bool(0.5) {
            edited(rng, &a, ASCII_ALPHABET)
        } else {
            long_string(rng, ASCII_ALPHABET)
        };
        let sims = random_measures(rng, &all);
        let mut scratch = SimScratch::new();
        assert_fused_matches_oracle(&a, &b, &sims, &mut scratch);
        assert_fused_matches_oracle(&b, &a, &all, &mut scratch);
    });
}

#[test]
fn fused_evaluator_bit_identical_on_long_unicode_inputs() {
    let all = all_profile_measures();
    check(|rng| {
        let a = long_string(rng, UNICODE_ALPHABET);
        let b = if rng.random_bool(0.5) {
            edited(rng, &a, UNICODE_ALPHABET)
        } else {
            long_string(rng, UNICODE_ALPHABET)
        };
        let sims = random_measures(rng, &all);
        let mut scratch = SimScratch::new();
        assert_fused_matches_oracle(&a, &b, &sims, &mut scratch);
        assert_fused_matches_oracle(&b, &a, &all, &mut scratch);
    });
}

#[test]
fn fused_evaluator_bit_identical_on_mixed_lengths_and_blanks() {
    let all = all_profile_measures();
    check(|rng| {
        // Short against long, and blank against anything: the early exits
        // and the single-block paths beside the multi-block ones.
        let pick = |rng: &mut StdRng| match rng.random_range(0..4u32) {
            0 => blank_string(rng),
            1 => unicode_string(rng),
            2 => word_string(rng),
            _ => long_string(rng, ASCII_ALPHABET),
        };
        let (a, b) = (pick(rng), pick(rng));
        let sims = random_measures(rng, &all);
        let mut scratch = SimScratch::new();
        assert_fused_matches_oracle(&a, &b, &sims, &mut scratch);
        assert_fused_matches_oracle(&a, &a, &all, &mut scratch);
    });
}

#[test]
fn fused_evaluator_covers_every_single_measure_and_the_full_list_reversed() {
    let all = all_profile_measures();
    let mut reversed = all.clone();
    reversed.reverse();
    let mut scratch = SimScratch::new();
    let mut rng = StdRng::seed_from_u64(0x00f0_5ed0);
    for _ in 0..32 {
        let a = long_string(&mut rng, UNICODE_ALPHABET);
        let b = edited(&mut rng, &a, UNICODE_ALPHABET);
        for sim in &all {
            assert_fused_matches_oracle(&a, &b, std::slice::from_ref(sim), &mut scratch);
        }
        assert_fused_matches_oracle(&a, &b, &reversed, &mut scratch);
        assert_fused_matches_oracle(&blank_string(&mut rng), &b, &reversed, &mut scratch);
    }
}

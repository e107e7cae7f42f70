//! Interned token profiles and the fused Table-II similarity evaluator.
//!
//! The Table-II scheme evaluates 16 string similarities per attribute per
//! candidate pair, and the same attribute value participates in many pairs.
//! The `&str` entry points re-tokenize, re-collect `Vec<char>` buffers, and
//! re-allocate DP rows on every call, and each measure starts from scratch.
//! This module moves all of that to a precompute-once-probe-many shape:
//!
//! * [`TokenInterner`] maps token strings to dense `u32` ids (insertion
//!   order, so interning is deterministic when driven serially).
//! * [`TokenProfile`] caches everything the 16 similarity functions need
//!   about one string: the char buffer, whitespace token spans (in order,
//!   duplicates preserved — Monge-Elkan needs them), and *sorted deduped*
//!   token-id slices for the Whitespace and QGram(3) tokenizers.
//! * [`SimEvaluator`] is built once from an attribute's planned measures and
//!   writes the whole similarity vector of a profile pair in one call,
//!   computing every intermediate the measures share exactly once: one
//!   Levenshtein distance feeds both Levenshtein measures, one Jaro feeds
//!   Jaro and Jaro-Winkler, one alignment pass yields both
//!   Needleman-Wunsch and Smith-Waterman, and one merge join per tokenizer
//!   feeds all of that tokenizer's set measures.
//! * [`SimScratch`] owns the bit vectors, DP rows and match buffers, so the
//!   kernels run without allocating in steady state.
//! * [`StringSimilarity::apply_profiles`](crate::StringSimilarity::apply_profiles)
//!   evaluates one measure through the same kernels (a one-measure
//!   evaluation), bit-identical to
//!   [`StringSimilarity::apply`](crate::StringSimilarity::apply) on the
//!   original strings.
//!
//! ## Kernels
//!
//! The `&str` kernels in `edit`, `jaro` and `align` are the reference
//! arithmetic; the profile kernels reach the same bits a faster way.
//!
//! * **Levenshtein** is Myers' bit-vector algorithm (1999) in Hyyrö's
//!   block-based form (2003). The second string is the pattern: a
//!   `MatchMasks` table holds, for each of its chars, the bit mask of
//!   positions where it occurs, in `u64` blocks of 64 chars. Each char of
//!   the first string advances the vertical delta vectors of every block,
//!   carrying the horizontal deltas at each block boundary into the next
//!   block, and the distance is tracked at the pattern's last bit. Every length runs the
//!   same blocked loop (one block up to 64 chars). The distance is an exact
//!   integer, so it matches the DP.
//! * **Jaro** keeps the `&str` kernel's greedy rule — each char of the
//!   first string takes the first unused equal char of the second inside
//!   the match window — but finds it as the lowest set bit of
//!   `mask(c) & !used`, clipped to the window, a word at a time. The match
//!   count and transpositions are the same integers as the scalar loop's,
//!   and the final formula is the same `f64` expression. Monge-Elkan's
//!   token-pair Jaro-Winkler calls go through the same kernel, building the
//!   masks once per token of the second string. Jaro-Winkler never exceeds
//!   1.0, so a token whose best score reached 1.0 skips the remaining
//!   tokens, and equal tokens score exactly 1.0 without a kernel call.
//! * **Needleman-Wunsch and Smith-Waterman** share one DP pass in `i32`,
//!   two loops per row: one for the diagonal and vertical moves, which have
//!   no dependency between cells, and one running max for the horizontal
//!   move. With unit scoring every cell of the `f64` recurrence is an exact
//!   small integer, and `max` of exact integers is the integer `max`, so
//!   the scores convert to `f64` exactly at the end. The one signed zero the
//!   `f64` recurrence produces is its `D[0][0] = -0.0`, which is the result
//!   only when both strings are empty; every computed zero is `+0.0`. The
//!   integer pass returns `-0.0` for that case and is bit-exact everywhere.
//!
//! Profile construction is split in two so the expensive half can run on
//! the `em-rt` pool without losing determinism: [`ProfileDraft::new`] does
//! the tokenizing/sorting work and is side-effect free (safe to run in any
//! order, in parallel), while [`TokenProfile::from_draft`] interns the token
//! strings and must be driven serially in a fixed order so ids never depend
//! on the thread count. A draft keeps its tokens as byte spans into one
//! padded copy of the source string, so drafting allocates no string per
//! token and interning allocates only for tokens it has not seen.

use crate::tokenize::Tokenizer;
use crate::StringSimilarity;
use std::collections::HashMap;

/// The q-gram width the profile precomputes (Table II uses QGram(3) only).
pub const PROFILE_QGRAM: usize = 3;

/// The `#` padding on each side of a string before q-gramming
/// (`PROFILE_QGRAM - 1` chars, as in [`crate::qgrams`]).
const QGRAM_PAD: &str = "##";
const _: () = assert!(QGRAM_PAD.len() == PROFILE_QGRAM - 1);

/// Maps token strings to dense `u32` ids in first-intern order.
///
/// One interner serves both tokenizers' namespaces: id equality is string
/// equality, and whitespace-token id slices are only ever intersected with
/// other whitespace slices (same for q-grams), so sharing the id space is
/// harmless and keeps the blocker/profile plumbing to a single type.
#[derive(Debug, Clone, Default)]
pub struct TokenInterner {
    map: HashMap<String, u32>,
}

impl TokenInterner {
    /// Empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Id for `token`, interning it on first sight.
    pub fn intern(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.map.get(token) {
            return id;
        }
        let id = u32::try_from(self.map.len()).expect("more than u32::MAX distinct tokens");
        self.map.insert(token.to_owned(), id);
        id
    }

    /// Id for `token` if it has been interned (never allocates).
    pub fn get(&self, token: &str) -> Option<u32> {
        self.map.get(token).copied()
    }

    /// Number of distinct tokens interned.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no token has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Export the vocabulary as `(token, id)` pairs sorted by id — the
    /// persistence hook for index artifacts (`em-serve`). Ids are dense in
    /// `0..len()`, so re-interning the tokens in id order reproduces this
    /// interner exactly.
    pub fn export(&self) -> Vec<(&str, u32)> {
        let mut entries: Vec<(&str, u32)> = self
            .map
            .iter()
            .map(|(tok, &id)| (tok.as_str(), id))
            .collect();
        entries.sort_unstable_by_key(|&(_, id)| id);
        entries
    }

    /// Rebuild an interner from tokens listed in id order (the shape
    /// [`TokenInterner::export`] produces). Fails if any token repeats.
    pub fn from_tokens<I: IntoIterator<Item = String>>(tokens: I) -> Result<Self, String> {
        let mut interner = TokenInterner::new();
        for token in tokens {
            let before = interner.len();
            let id = interner.intern(&token);
            if (id as usize) != before {
                return Err(format!("duplicate token {token:?} in interner import"));
            }
        }
        Ok(interner)
    }
}

/// A byte span `[start, end)` into a draft's padded source string.
type Span = (u32, u32);

fn span_str(text: &str, (start, end): Span) -> &str {
    &text[start as usize..end as usize]
}

/// Sort token spans by the text they cover and drop repeats: the same
/// order and set as sorting and deduping the token strings.
fn sort_unique(text: &str, spans: &mut Vec<Span>) {
    spans.sort_unstable_by(|&x, &y| span_str(text, x).cmp(span_str(text, y)));
    spans.dedup_by(|x, y| span_str(text, *x) == span_str(text, *y));
}

/// The parallel-safe half of profile construction: everything about one
/// string except the token ids. See the module docs for why the split
/// exists.
#[derive(Debug, Clone)]
pub struct ProfileDraft {
    chars: Vec<char>,
    ws_spans: Vec<(u32, u32)>,
    /// The source string with `QGRAM_PAD` on both sides; every token the
    /// profile interns is a byte span of it.
    padded: String,
    /// Sorted unique whitespace tokens, as spans of `padded`.
    ws_unique: Vec<Span>,
    /// Sorted unique padded 3-grams, as spans of `padded`.
    qgram_unique: Vec<Span>,
}

impl ProfileDraft {
    /// Tokenize and dedupe `s` (the expensive part; no shared state).
    pub fn new(s: &str) -> Self {
        let pad = QGRAM_PAD.len();
        let mut padded = String::with_capacity(s.len() + 2 * pad);
        padded.push_str(QGRAM_PAD);
        padded.push_str(s);
        padded.push_str(QGRAM_PAD);
        // One pass over `s` collects the chars and the whitespace tokens —
        // maximal runs of non-whitespace, matching `str::split_whitespace`
        // exactly — as char spans (for Monge-Elkan) and as byte spans of
        // `padded` (for interning).
        let mut chars = Vec::with_capacity(s.len());
        let mut ws_spans = Vec::new();
        let mut ws_unique = Vec::new();
        let mut start: Option<(usize, usize)> = None;
        for (byte, c) in s.char_indices() {
            let i = chars.len();
            chars.push(c);
            if c.is_whitespace() {
                if let Some((c0, b0)) = start.take() {
                    ws_spans.push((c0 as u32, i as u32));
                    ws_unique.push(((pad + b0) as u32, (pad + byte) as u32));
                }
            } else if start.is_none() {
                start = Some((i, byte));
            }
        }
        if let Some((c0, b0)) = start {
            ws_spans.push((c0 as u32, chars.len() as u32));
            ws_unique.push(((pad + b0) as u32, (pad + s.len()) as u32));
        }
        // Every window of PROFILE_QGRAM chars of `padded`, as `qgrams`
        // yields them (none for the empty string).
        let mut qgram_unique = Vec::new();
        if !s.is_empty() {
            let bounds: Vec<u32> = padded
                .char_indices()
                .map(|(b, _)| b as u32)
                .chain(std::iter::once(padded.len() as u32))
                .collect();
            qgram_unique.extend(
                bounds
                    .windows(PROFILE_QGRAM + 1)
                    .map(|w| (w[0], w[PROFILE_QGRAM])),
            );
        }
        sort_unique(&padded, &mut ws_unique);
        sort_unique(&padded, &mut qgram_unique);
        ProfileDraft {
            chars,
            ws_spans,
            padded,
            ws_unique,
            qgram_unique,
        }
    }
}

/// Everything the Table-II similarity functions need about one string,
/// precomputed. Build with [`TokenProfile::build`], or via
/// [`ProfileDraft`] + [`TokenProfile::from_draft`] when drafting runs on
/// the pool.
#[derive(Debug, Clone)]
pub struct TokenProfile {
    chars: Vec<char>,
    ws_spans: Vec<(u32, u32)>,
    ws_ids: Vec<u32>,
    qgram_ids: Vec<u32>,
}

impl TokenProfile {
    /// Intern a draft's tokens (the serial part — call in a fixed order).
    /// Whitespace tokens are interned before 3-grams, each in sorted order.
    pub fn from_draft(draft: ProfileDraft, interner: &mut TokenInterner) -> Self {
        let mut intern_all = |spans: &[Span]| -> Vec<u32> {
            let mut ids: Vec<u32> = spans
                .iter()
                .map(|&sp| interner.intern(span_str(&draft.padded, sp)))
                .collect();
            ids.sort_unstable();
            ids
        };
        let ws_ids = intern_all(&draft.ws_unique);
        let qgram_ids = intern_all(&draft.qgram_unique);
        TokenProfile {
            chars: draft.chars,
            ws_spans: draft.ws_spans,
            ws_ids,
            qgram_ids,
        }
    }

    /// Draft + intern in one step (serial convenience).
    pub fn build(s: &str, interner: &mut TokenInterner) -> Self {
        Self::from_draft(ProfileDraft::new(s), interner)
    }

    /// The string's chars (the exact char sequence of the source string).
    pub fn chars(&self) -> &[char] {
        &self.chars
    }

    /// Sorted deduped token ids under the given tokenizer, when the profile
    /// precomputes that tokenizer (Whitespace and QGram(3)).
    pub fn token_ids(&self, tok: Tokenizer) -> Option<&[u32]> {
        match tok {
            Tokenizer::Whitespace => Some(&self.ws_ids),
            Tokenizer::QGram(PROFILE_QGRAM) => Some(&self.qgram_ids),
            Tokenizer::QGram(_) => None,
        }
    }

    /// Whitespace token spans (`[start, end)` into [`Self::chars`], in
    /// order, duplicates preserved).
    pub fn ws_spans(&self) -> &[(u32, u32)] {
        &self.ws_spans
    }

    /// The chars of whitespace token `span`.
    fn token(&self, (start, end): (u32, u32)) -> &[char] {
        &self.chars[start as usize..end as usize]
    }
}

/// Number of elements two sorted deduped id slices share (merge join).
pub fn intersection_size_sorted(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Where each char occurs in a pattern string, as bit masks: bit `j % 64`
/// of word `j / 64` of a char's row is set iff `pattern[j]` is that char.
/// Rows are [`Self::words`] long; row 0 is all zero and stands for every
/// char the pattern lacks. The bit-parallel Levenshtein and Jaro kernels
/// both read it.
#[derive(Debug, Default)]
struct MatchMasks {
    /// `u64` blocks per row (at least one).
    words: usize,
    /// Rows in use, including the zero row.
    rows: u32,
    /// Row of each ASCII char (0 = absent).
    ascii: Vec<u32>,
    /// Row of each non-ASCII char, sorted by char.
    other: Vec<(char, u32)>,
    /// Row-major masks, `rows * words` long.
    masks: Vec<u64>,
}

impl MatchMasks {
    /// Rebuild the table for `pattern`, reusing the buffers.
    fn build(&mut self, pattern: &[char]) {
        self.words = pattern.len().div_ceil(64).max(1);
        self.rows = 1;
        self.ascii.clear();
        self.ascii.resize(128, 0);
        self.other.clear();
        self.masks.clear();
        self.masks.resize(self.words, 0);
        for (j, &c) in pattern.iter().enumerate() {
            let fresh = self.rows;
            let row = if c.is_ascii() {
                let r = &mut self.ascii[c as usize];
                if *r == 0 {
                    *r = fresh;
                }
                *r
            } else {
                match self.other.binary_search_by_key(&c, |&(k, _)| k) {
                    Ok(k) => self.other[k].1,
                    Err(k) => {
                        self.other.insert(k, (c, fresh));
                        fresh
                    }
                }
            };
            if row == fresh {
                self.rows += 1;
                self.masks.resize(self.rows as usize * self.words, 0);
            }
            self.masks[row as usize * self.words + j / 64] |= 1 << (j % 64);
        }
    }

    /// The mask row of `c` (all zero when the pattern lacks it).
    #[inline]
    fn row(&self, c: char) -> &[u64] {
        let r = if c.is_ascii() {
            self.ascii[c as usize]
        } else {
            self.other
                .binary_search_by_key(&c, |&(k, _)| k)
                .map_or(0, |k| self.other[k].1)
        } as usize;
        &self.masks[r * self.words..(r + 1) * self.words]
    }
}

/// The alignment DP's previous and current rows, per score.
#[derive(Debug, Default)]
struct AlignRows {
    nw_prev: Vec<i32>,
    nw_cur: Vec<i32>,
    sw_prev: Vec<i32>,
    sw_cur: Vec<i32>,
}

/// Reusable bit vectors, DP rows and match buffers for the char-level
/// kernels. One scratch per worker thread makes every kernel
/// allocation-free once the buffers have grown to the workload's longest
/// string.
#[derive(Debug, Default)]
pub struct SimScratch {
    masks: MatchMasks,
    /// Myers' vertical delta vectors, one word per pattern block.
    vp: Vec<u64>,
    vn: Vec<u64>,
    /// Jaro: taken positions of the second string, as bits.
    used: Vec<u64>,
    /// Jaro: matched chars of the first string, in order.
    matched_a: Vec<char>,
    align: AlignRows,
    /// Monge-Elkan: best Jaro-Winkler so far per token of the first string.
    best: Vec<f64>,
}

impl SimScratch {
    /// Empty scratch (buffers grow on first use and are then reused).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Levenshtein distance from `text` to the `m`-char pattern `masks` was
/// built from: Myers (1999) in Hyyrö's block-based form (2003). A DP
/// column is kept as vertical deltas (`vp`: +1, `vn`: -1), one bit per
/// pattern char. Each text char updates the blocks in pattern order: the
/// horizontal deltas leaving a block's last row enter the next block as
/// the deltas above its first row (`hp_carry` starts at 1, since the DP's
/// row 0 is `0, 1, 2, …`), and a negative carry also stands in for the
/// carry of the block's addition. The distance moves by the horizontal
/// delta at the pattern's last bit.
fn myers(
    text: &[char],
    m: usize,
    masks: &MatchMasks,
    vp: &mut Vec<u64>,
    vn: &mut Vec<u64>,
) -> usize {
    if m == 0 {
        return text.len();
    }
    let words = masks.words;
    vp.clear();
    vp.resize(words, !0);
    vn.clear();
    vn.resize(words, 0);
    let last = 1u64 << ((m - 1) % 64);
    let mut dist = m;
    for &c in text {
        let row = masks.row(c);
        let (mut hp_carry, mut hn_carry) = (1u64, 0u64);
        for w in 0..words {
            let (pv, nv) = (vp[w], vn[w]);
            let x = row[w] | hn_carry;
            let d0 = ((x & pv).wrapping_add(pv) ^ pv) | x | nv;
            let hp = nv | !(d0 | pv);
            let hn = d0 & pv;
            let (hp_in, hn_in) = (hp_carry, hn_carry);
            if w + 1 < words {
                hp_carry = hp >> 63;
                hn_carry = hn >> 63;
            } else {
                hp_carry = u64::from(hp & last != 0);
                hn_carry = u64::from(hn & last != 0);
            }
            let hp = (hp << 1) | hp_in;
            let hn = (hn << 1) | hn_in;
            vp[w] = hn | !(d0 | hp);
            vn[w] = hp & d0;
        }
        dist = dist + hp_carry as usize - hn_carry as usize;
    }
    dist
}

/// Lowest set bit of `row & !used` in bit positions `[lo, hi)` (`lo < hi`).
#[inline]
fn first_free(row: &[u64], used: &[u64], lo: usize, hi: usize) -> Option<usize> {
    let (first, last) = (lo / 64, (hi - 1) / 64);
    for w in first..=last {
        let mut bits = row[w] & !used[w];
        if w == first {
            bits &= !0 << (lo % 64);
        }
        if w == last {
            bits &= !0 >> (63 - (hi - 1) % 64);
        }
        if bits != 0 {
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
    }
    None
}

/// Jaro similarity, with `masks` built over `b`. See the module docs: the
/// `&str` kernel's greedy matching, found by bit scans.
fn jaro_masked(
    a: &[char],
    b: &[char],
    masks: &MatchMasks,
    used: &mut Vec<u64>,
    matched_a: &mut Vec<char>,
) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    used.clear();
    used.resize(masks.words, 0);
    matched_a.clear();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        if lo >= hi {
            // The window has slid past `b`'s end, for this char and all
            // later ones.
            break;
        }
        if let Some(j) = first_free(masks.row(ca), used, lo, hi) {
            used[j / 64] |= 1 << (j % 64);
            matched_a.push(ca);
        }
    }
    let m = matched_a.len();
    if m == 0 {
        return 0.0;
    }
    // The k-th matched char of `a` against the k-th taken position of `b`.
    let mut unequal = 0usize;
    let mut k = 0;
    for (w, &word) in used.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let j = w * 64 + bits.trailing_zeros() as usize;
            unequal += usize::from(b[j] != matched_a[k]);
            k += 1;
            bits &= bits - 1;
        }
    }
    let transpositions = unequal / 2;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Jaro-Winkler from a Jaro score; same constants as
/// [`jaro_winkler`](crate::jaro_winkler).
fn winkler(jaro: f64, a: &[char], b: &[char]) -> f64 {
    const P: f64 = 0.1;
    const MAX_PREFIX: usize = 4;
    let prefix = a
        .iter()
        .zip(b)
        .take(MAX_PREFIX)
        .take_while(|(x, y)| x == y)
        .count();
    jaro + prefix as f64 * P * (1.0 - jaro)
}

/// Needleman-Wunsch and Smith-Waterman scores in one integer DP pass (unit
/// scoring: match 1, mismatch 0, gap -1; Smith-Waterman cells floored at
/// 0); see the module docs for why the result is bit-exact.
///
/// Each row takes two loops. The diagonal and vertical moves are
/// independent per cell, so the first loop carries no dependency and
/// stores `t[j] + j`. The horizontal move, `v[j] = max(t[j], v[j - 1] -
/// 1)`, unrolls to `max(t[k] + k for k <= j) - j`, so the second loop is
/// one running max per score instead of a chain through every cell.
fn alignment_scores(a: &[char], b: &[char], rows: &mut AlignRows) -> (f64, f64) {
    if a.is_empty() && b.is_empty() {
        return (-0.0, 0.0);
    }
    let la = i32::try_from(a.len()).expect("alignment input longer than i32::MAX chars");
    let lb = i32::try_from(b.len()).expect("alignment input longer than i32::MAX chars");
    let AlignRows {
        nw_prev,
        nw_cur,
        sw_prev,
        sw_cur,
    } = rows;
    nw_prev.clear();
    nw_prev.extend((0..=lb).map(|j| -j));
    sw_prev.clear();
    sw_prev.resize(b.len() + 1, 0);
    nw_cur.resize(b.len() + 1, 0);
    sw_cur.resize(b.len() + 1, 0);
    let mut best = 0;
    for (i, &ca) in (1..=la).zip(a) {
        let nw_moves = nw_prev.iter().zip(&nw_prev[1..]);
        let sw_moves = sw_prev.iter().zip(&sw_prev[1..]);
        let cells = nw_cur[1..].iter_mut().zip(&mut sw_cur[1..]);
        for (((nw, sw), ((&nw_diag, &nw_up), (&sw_diag, &sw_up))), (&cb, j)) in
            cells.zip(nw_moves.zip(sw_moves)).zip(b.iter().zip(1..))
        {
            let hit = i32::from(ca == cb);
            *nw = (nw_diag + hit).max(nw_up - 1) + j;
            *sw = (sw_diag + hit).max(sw_up - 1).max(0) + j;
        }
        nw_cur[0] = -i;
        sw_cur[0] = 0;
        let (mut nw_run, mut sw_run) = (-i, 0);
        for ((nw, sw), j) in nw_cur[1..].iter_mut().zip(&mut sw_cur[1..]).zip(1..) {
            nw_run = nw_run.max(*nw);
            *nw = nw_run - j;
            sw_run = sw_run.max(*sw);
            *sw = sw_run - j;
            best = best.max(*sw);
        }
        std::mem::swap(nw_prev, nw_cur);
        std::mem::swap(sw_prev, sw_cur);
    }
    (f64::from(nw_prev[b.len()]), f64::from(best))
}

/// Levenshtein distance over char slices, bit-identical to
/// [`levenshtein_distance`](crate::levenshtein_distance).
pub fn levenshtein_chars(a: &[char], b: &[char], s: &mut SimScratch) -> usize {
    s.masks.build(b);
    myers(a, b.len(), &s.masks, &mut s.vp, &mut s.vn)
}

/// Jaro similarity over char slices, bit-identical to [`jaro`](crate::jaro).
pub fn jaro_chars(a: &[char], b: &[char], s: &mut SimScratch) -> f64 {
    s.masks.build(b);
    jaro_masked(a, b, &s.masks, &mut s.used, &mut s.matched_a)
}

/// Jaro-Winkler over char slices, bit-identical to
/// [`jaro_winkler`](crate::jaro_winkler).
pub fn jaro_winkler_chars(a: &[char], b: &[char], s: &mut SimScratch) -> f64 {
    winkler(jaro_chars(a, b, s), a, b)
}

/// Needleman-Wunsch over char slices, bit-identical to
/// [`needleman_wunsch`](crate::needleman_wunsch) (the first half of the
/// shared alignment pass).
pub fn needleman_wunsch_chars(a: &[char], b: &[char], s: &mut SimScratch) -> f64 {
    alignment_scores(a, b, &mut s.align).0
}

/// Smith-Waterman over char slices, bit-identical to
/// [`smith_waterman`](crate::smith_waterman) (the second half of the
/// shared alignment pass).
pub fn smith_waterman_chars(a: &[char], b: &[char], s: &mut SimScratch) -> f64 {
    alignment_scores(a, b, &mut s.align).1
}

/// Monge-Elkan (Jaro-Winkler secondary) over profiles, bit-identical to
/// [`monge_elkan`](crate::monge_elkan). Tokens of `b` are the outer loop so
/// each one's masks are built once; every token of `a` still sees `b`'s
/// tokens in order, so each running max, and the sum over `a`'s tokens in
/// order, are the `&str` kernel's.
pub fn monge_elkan_profiles(a: &TokenProfile, b: &TokenProfile, s: &mut SimScratch) -> f64 {
    if a.ws_spans.is_empty() && b.ws_spans.is_empty() {
        return 1.0;
    }
    if a.ws_spans.is_empty() || b.ws_spans.is_empty() {
        return 0.0;
    }
    let SimScratch {
        masks,
        used,
        matched_a,
        best,
        ..
    } = s;
    best.clear();
    best.resize(a.ws_spans.len(), f64::NEG_INFINITY);
    for &ys in &b.ws_spans {
        let y = b.token(ys);
        masks.build(y);
        for (slot, &xs) in best.iter_mut().zip(&a.ws_spans) {
            // Jaro-Winkler never exceeds 1.0 (each Jaro term is at most 1,
            // and the prefix bonus rounds to at most 1.0), and equal tokens
            // score exactly 1.0 (every char matches itself in place), so a
            // token at 1.0 is settled and equality needs no kernel call.
            if *slot == 1.0 {
                continue;
            }
            let x = a.token(xs);
            let jw = if x == y {
                1.0
            } else {
                winkler(jaro_masked(x, y, masks, used, matched_a), x, y)
            };
            *slot = slot.max(jw);
        }
    }
    let total = best.iter().fold(0.0, |total, &v| total + v);
    total / a.ws_spans.len() as f64
}

/// Set sizes and their intersection under one tokenizer: everything the
/// five token-set measures read.
#[derive(Debug, Clone, Copy)]
struct SetCounts {
    a: usize,
    b: usize,
    shared: usize,
}

impl SetCounts {
    fn of(a: &[u32], b: &[u32]) -> Self {
        SetCounts {
            a: a.len(),
            b: b.len(),
            shared: intersection_size_sorted(a, b),
        }
    }

    /// A token-set measure; formulas mirror the `&str` versions in `setsim`
    /// term for term.
    fn measure(self, sim: StringSimilarity) -> f64 {
        if let StringSimilarity::OverlapSize(_) = sim {
            // Raw count: no normalization, and both-empty is 0 shared
            // tokens (not the 1.0 the normalized measures return).
            return self.shared as f64;
        }
        if self.a == 0 && self.b == 0 {
            return 1.0;
        }
        if self.a == 0 || self.b == 0 {
            // jaccard reaches the same 0.0 through inter/union; returning it
            // directly keeps all four measures on one early-exit shape.
            return 0.0;
        }
        let inter = self.shared as f64;
        match sim {
            StringSimilarity::Jaccard(_) => inter / (self.a + self.b - self.shared) as f64,
            StringSimilarity::Dice(_) => 2.0 * inter / (self.a + self.b) as f64,
            StringSimilarity::Cosine(_) => inter / ((self.a as f64) * (self.b as f64)).sqrt(),
            StringSimilarity::OverlapCoefficient(_) => inter / self.a.min(self.b) as f64,
            _ => unreachable!("SetCounts::measure is only called for token-set similarities"),
        }
    }
}

/// Which shared intermediates a list of measures reads.
#[derive(Debug, Clone, Copy, Default)]
struct Needs {
    levenshtein: bool,
    jaro: bool,
    alignment: bool,
    monge_elkan: bool,
    whitespace: bool,
    qgram: bool,
}

impl Needs {
    fn of(sims: &[StringSimilarity]) -> Self {
        use StringSimilarity::*;
        let mut n = Needs::default();
        for sim in sims {
            match *sim {
                LevenshteinDistance | LevenshteinSimilarity => n.levenshtein = true,
                Jaro | JaroWinkler => n.jaro = true,
                NeedlemanWunsch | SmithWaterman => n.alignment = true,
                MongeElkan => n.monge_elkan = true,
                ExactMatch => {}
                OverlapCoefficient(t) | Dice(t) | Cosine(t) | Jaccard(t) | OverlapSize(t) => {
                    match t {
                        Tokenizer::Whitespace => n.whitespace = true,
                        Tokenizer::QGram(PROFILE_QGRAM) => n.qgram = true,
                        // Unprofiled width: evaluated on the string path.
                        Tokenizer::QGram(_) => {}
                    }
                }
            }
        }
        n
    }
}

/// Evaluates one attribute's planned similarity measures on profile pairs:
/// build it once from the measure list, then [`SimEvaluator::eval`] writes
/// the whole vector, computing each shared intermediate once (see the
/// module docs). Every value is bit-identical to
/// [`StringSimilarity::apply`] on the source strings.
#[derive(Debug, Clone)]
pub struct SimEvaluator {
    sims: Vec<StringSimilarity>,
    needs: Needs,
}

impl SimEvaluator {
    /// An evaluator for `sims`, in that order (any subset, any order,
    /// repeats allowed).
    pub fn new(sims: &[StringSimilarity]) -> Self {
        SimEvaluator {
            sims: sims.to_vec(),
            needs: Needs::of(sims),
        }
    }

    /// The measures, in output order.
    pub fn sims(&self) -> &[StringSimilarity] {
        &self.sims
    }

    /// Write `out[i] = sims()[i]` evaluated on `(a, b)`.
    ///
    /// # Panics
    /// If `out.len() != self.sims().len()`.
    pub fn eval(&self, a: &TokenProfile, b: &TokenProfile, s: &mut SimScratch, out: &mut [f64]) {
        assert_eq!(out.len(), self.sims.len(), "one output slot per measure");
        eval_into(&self.sims, self.needs, a, b, s, out);
    }
}

/// The evaluator body: intermediates first, then one formula per measure.
fn eval_into(
    sims: &[StringSimilarity],
    needs: Needs,
    a: &TokenProfile,
    b: &TokenProfile,
    s: &mut SimScratch,
    out: &mut [f64],
) {
    use StringSimilarity::*;
    let (ac, bc) = (a.chars(), b.chars());
    if needs.levenshtein || needs.jaro {
        s.masks.build(bc);
    }
    let lev = if needs.levenshtein {
        myers(ac, bc.len(), &s.masks, &mut s.vp, &mut s.vn)
    } else {
        0
    };
    let jaro = if needs.jaro {
        jaro_masked(ac, bc, &s.masks, &mut s.used, &mut s.matched_a)
    } else {
        0.0
    };
    let (nw, sw) = if needs.alignment {
        alignment_scores(ac, bc, &mut s.align)
    } else {
        (0.0, 0.0)
    };
    let monge_elkan = if needs.monge_elkan {
        monge_elkan_profiles(a, b, s)
    } else {
        0.0
    };
    let whitespace = needs
        .whitespace
        .then(|| SetCounts::of(&a.ws_ids, &b.ws_ids));
    let qgram = needs
        .qgram
        .then(|| SetCounts::of(&a.qgram_ids, &b.qgram_ids));
    for (slot, &sim) in out.iter_mut().zip(sims) {
        *slot = match sim {
            LevenshteinDistance => lev as f64,
            LevenshteinSimilarity => {
                let m = ac.len().max(bc.len());
                if m == 0 {
                    1.0
                } else {
                    1.0 - lev as f64 / m as f64
                }
            }
            Jaro => jaro,
            JaroWinkler => winkler(jaro, ac, bc),
            ExactMatch => {
                if ac == bc {
                    1.0
                } else {
                    0.0
                }
            }
            NeedlemanWunsch => nw,
            SmithWaterman => sw,
            MongeElkan => monge_elkan,
            OverlapCoefficient(t) | Dice(t) | Cosine(t) | Jaccard(t) | OverlapSize(t) => {
                let counts = match t {
                    Tokenizer::Whitespace => whitespace,
                    Tokenizer::QGram(PROFILE_QGRAM) => qgram,
                    Tokenizer::QGram(_) => None,
                };
                match counts {
                    Some(counts) => counts.measure(sim),
                    None => {
                        // Unprofiled tokenizer (QGram(q != 3)): rebuild the
                        // strings from the cached chars and use the &str
                        // path.
                        let sa: String = ac.iter().collect();
                        let sb: String = bc.iter().collect();
                        sim.apply(&sa, &sb)
                    }
                }
            }
        };
    }
}

impl StringSimilarity {
    /// Evaluate the measure on two precomputed profiles — a one-measure
    /// [`SimEvaluator`] evaluation, bit-identical to
    /// [`StringSimilarity::apply`] on the source strings and
    /// allocation-free in steady state given a reused `scratch`.
    ///
    /// Profiles precompute token ids for the Table-II tokenizers only
    /// (Whitespace and QGram(3)); a token-set measure parameterized with any
    /// other q falls back to the string path via the cached char buffer.
    pub fn apply_profiles(
        &self,
        a: &TokenProfile,
        b: &TokenProfile,
        scratch: &mut SimScratch,
    ) -> f64 {
        let sims = std::slice::from_ref(self);
        let mut out = [0.0];
        eval_into(sims, Needs::of(sims), a, b, scratch, &mut out);
        out[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::Tokenizer;

    fn profile_pair(a: &str, b: &str) -> (TokenProfile, TokenProfile) {
        let mut interner = TokenInterner::new();
        (
            TokenProfile::build(a, &mut interner),
            TokenProfile::build(b, &mut interner),
        )
    }

    #[test]
    fn interner_is_insertion_ordered_and_idempotent() {
        let mut it = TokenInterner::new();
        assert!(it.is_empty());
        assert_eq!(it.intern("new"), 0);
        assert_eq!(it.intern("york"), 1);
        assert_eq!(it.intern("new"), 0);
        assert_eq!(it.get("york"), Some(1));
        assert_eq!(it.get("city"), None);
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn profile_spans_match_split_whitespace() {
        for s in ["", "   ", "new  york\tcity", " a ", "único  día"] {
            let mut it = TokenInterner::new();
            let p = TokenProfile::build(s, &mut it);
            let toks: Vec<String> = p
                .ws_spans()
                .iter()
                .map(|&(a, b)| p.chars()[a as usize..b as usize].iter().collect())
                .collect();
            let expect: Vec<String> = s.split_whitespace().map(str::to_owned).collect();
            assert_eq!(toks, expect, "input {s:?}");
        }
    }

    #[test]
    fn token_id_slices_are_sorted_dedup_and_sized_like_token_sets() {
        for s in ["a b a b c", "new york", "", "ababab"] {
            let mut it = TokenInterner::new();
            let p = TokenProfile::build(s, &mut it);
            for tok in [Tokenizer::Whitespace, Tokenizer::QGram(3)] {
                let ids = p.token_ids(tok).unwrap();
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted dedup");
                assert_eq!(ids.len(), tok.token_set(s).len(), "input {s:?}");
            }
            assert!(p.token_ids(Tokenizer::QGram(2)).is_none());
        }
    }

    #[test]
    fn merge_join_counts_shared_ids() {
        assert_eq!(intersection_size_sorted(&[], &[]), 0);
        assert_eq!(intersection_size_sorted(&[1, 3, 5], &[2, 3, 5, 9]), 2);
        assert_eq!(intersection_size_sorted(&[1, 2], &[3, 4]), 0);
        assert_eq!(intersection_size_sorted(&[7], &[7]), 1);
    }

    #[test]
    fn apply_profiles_matches_apply_on_fixtures() {
        use crate::StringSimilarity::*;
        let cases = [
            ("new york", "new york city"),
            ("arnie mortons of chicago", "arnie mortons chicago"),
            ("", ""),
            ("", "abc"),
            ("martha", "marhta"),
            ("café münchen", "cafe munchen"),
            ("dva", "deeva"),
        ];
        let sims = [
            LevenshteinDistance,
            LevenshteinSimilarity,
            Jaro,
            ExactMatch,
            JaroWinkler,
            NeedlemanWunsch,
            SmithWaterman,
            MongeElkan,
            OverlapCoefficient(Tokenizer::Whitespace),
            Dice(Tokenizer::Whitespace),
            Cosine(Tokenizer::Whitespace),
            Jaccard(Tokenizer::Whitespace),
            OverlapCoefficient(Tokenizer::QGram(3)),
            Dice(Tokenizer::QGram(3)),
            Cosine(Tokenizer::QGram(3)),
            Jaccard(Tokenizer::QGram(3)),
            OverlapSize(Tokenizer::Whitespace),
            OverlapSize(Tokenizer::QGram(3)),
        ];
        let mut scratch = SimScratch::new();
        for (a, b) in cases {
            let (pa, pb) = profile_pair(a, b);
            for sim in sims {
                let want = sim.apply(a, b);
                let got = sim.apply_profiles(&pa, &pb, &mut scratch);
                assert_eq!(want.to_bits(), got.to_bits(), "{sim:?} on {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn unprofiled_qgram_width_falls_back_to_string_path() {
        let (pa, pb) = profile_pair("nichola", "nicholas");
        let sim = StringSimilarity::Jaccard(Tokenizer::QGram(2));
        let mut scratch = SimScratch::new();
        assert_eq!(
            sim.apply("nichola", "nicholas").to_bits(),
            sim.apply_profiles(&pa, &pb, &mut scratch).to_bits()
        );
    }

    #[test]
    fn scratch_reuse_does_not_leak_state_across_calls() {
        let mut scratch = SimScratch::new();
        let (p1, p2) = profile_pair("a long first string here", "sh");
        // Prime the buffers with a large pair, then verify a small pair.
        let _ = StringSimilarity::LevenshteinDistance.apply_profiles(&p1, &p2, &mut scratch);
        let _ = StringSimilarity::Jaro.apply_profiles(&p1, &p2, &mut scratch);
        let (q1, q2) = profile_pair("ab", "ba");
        for sim in [
            StringSimilarity::LevenshteinDistance,
            StringSimilarity::Jaro,
            StringSimilarity::NeedlemanWunsch,
            StringSimilarity::SmithWaterman,
            StringSimilarity::MongeElkan,
        ] {
            assert_eq!(
                sim.apply("ab", "ba").to_bits(),
                sim.apply_profiles(&q1, &q2, &mut scratch).to_bits(),
                "{sim:?}"
            );
        }
    }

    #[test]
    fn bit_parallel_kernels_agree_with_the_oracle_around_word_boundaries() {
        let mut scratch = SimScratch::new();
        for m in [1, 63, 64, 65, 127, 128, 129, 200] {
            for n in [0, 1, 64, 65, 130] {
                let a: String = (0..n).map(|i| ['a', 'b', 'c'][i % 3]).collect();
                let b: String = (0..m).map(|i| ['a', 'c', 'b', 'b'][i % 4]).collect();
                let (ac, bc): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
                assert_eq!(
                    levenshtein_chars(&ac, &bc, &mut scratch),
                    crate::levenshtein_distance(&a, &b),
                    "|a| = {n}, |b| = {m}"
                );
                assert_eq!(
                    jaro_chars(&ac, &bc, &mut scratch).to_bits(),
                    crate::jaro(&a, &b).to_bits(),
                    "|a| = {n}, |b| = {m}"
                );
            }
        }
    }

    #[test]
    fn alignment_pass_keeps_the_signed_zero_of_two_empty_strings() {
        let mut scratch = SimScratch::new();
        let nw = needleman_wunsch_chars(&[], &[], &mut scratch);
        assert_eq!(nw.to_bits(), (-0.0f64).to_bits());
        assert_eq!(nw.to_bits(), crate::needleman_wunsch("", "").to_bits());
        let sw = smith_waterman_chars(&[], &[], &mut scratch);
        assert_eq!(sw.to_bits(), crate::smith_waterman("", "").to_bits());
        // A zero score from non-empty strings is +0.0 on both paths.
        let (x, y) = (['a', 'b'], ['c', 'd']);
        assert_eq!(
            needleman_wunsch_chars(&x, &y, &mut scratch).to_bits(),
            crate::needleman_wunsch("ab", "cd").to_bits()
        );
    }

    #[test]
    fn draft_interns_whitespace_tokens_then_qgrams_in_sorted_order() {
        let mut it = TokenInterner::new();
        let _ = TokenProfile::build("b a b", &mut it);
        let mut want: Vec<String> = Tokenizer::Whitespace.sorted_tokens("b a b");
        want.extend(Tokenizer::QGram(3).sorted_tokens("b a b"));
        let mut seen = std::collections::HashSet::new();
        want.retain(|t| seen.insert(t.clone()));
        let got: Vec<String> = it.export().into_iter().map(|(t, _)| t.to_owned()).collect();
        assert_eq!(got, want);
    }
}

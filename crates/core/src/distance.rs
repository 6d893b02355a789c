//! Positional similarity distance (§4.4, Eq. 2) and the per-cluster token statistics it
//! is computed from.
//!
//! Hash-encoded tokens are identifiers with no numerical meaning, so Euclidean distance
//! over the encodings (as used by SPINE's bag-of-words K-means) is meaningless. Instead,
//! the distance between a log `L` and a cluster `C` combines, for every token position:
//!
//! * the frequency `f_i(L, C)` of `L`'s token at position `i` among the cluster's logs
//!   (high frequency ⇒ the token is representative of the position), and
//! * a position importance weight `w_i = 1 / (n_i − 1)` where `n_i` is the number of
//!   distinct tokens the cluster has at position `i` (high variability ⇒ the position is
//!   probably a variable ⇒ it should influence the distance less).
//!
//! The weighted average `Σ w_i · f_i / Σ w_i` is a *similarity* in `[0, 1]`; the distance
//! is its complement, and each log is assigned to the minimum-distance (maximum
//! similarity) cluster.
//!
//! Two implementations live here. [`TokenTable`] + [`DenseProfile`] are the trainer's
//! kernel: token hashes are interned once into dense ids, and a cluster's statistics are
//! one flat count array indexed by id, kept current as rows move in and out. Sealing a
//! profile turns the counts into one Eq. 2 term per id, so scoring a row is a sum of
//! table lookups, and [`DenseProfile::score`] scores every row of a table at once.
//! [`ClusterProfile`] is the readable `HashMap` rendering of the same equations, kept as
//! the reference the property tests compare the kernel against.

use logtok::{EncodedLog, FnvMap};
use std::collections::HashMap;

/// Dense token ids of a set of equal-length logs.
///
/// Every distinct (position, token) pair of the set gets one id in `0..id_count()`, so a
/// [`DenseProfile`] over the table is a single `counts[id]` array. Rows are stored
/// row-major (`ids[row × positions + pos]`).
#[derive(Debug, Clone, Default)]
pub struct TokenTable {
    positions: usize,
    ids: Vec<u32>,
    /// Per row: the log's duplicate count.
    weights: Vec<u64>,
    /// Per position: number of distinct tokens among the rows.
    distinct: Vec<u32>,
    /// Per id: the position its token sits at.
    position_of: Vec<u32>,
}

impl TokenTable {
    /// Intern the token hashes of `logs` (all `positions` tokens long) into dense ids.
    /// The trainer hashes no token: the deduplicator hashed each once, and this is where
    /// those hashes are read.
    pub fn intern<'a, I>(positions: usize, logs: I) -> Self
    where
        I: IntoIterator<Item = &'a EncodedLog>,
    {
        let mut table = TokenTable {
            positions,
            distinct: vec![0; positions],
            ..TokenTable::default()
        };
        let mut interned: FnvMap<(u32, u64), u32> = FnvMap::default();
        for log in logs {
            debug_assert_eq!(log.len(), positions);
            for (pos, &token) in log.encoded.iter().enumerate() {
                let next = interned.len() as u32;
                let id = *interned.entry((pos as u32, token)).or_insert_with(|| {
                    table.distinct[pos] += 1;
                    table.position_of.push(pos as u32);
                    next
                });
                table.ids.push(id);
            }
            table.weights.push(log.count);
        }
        table
    }

    /// Re-intern the given rows of `self` into `out`, reusing `out`'s buffers: `out` gets
    /// one row per entry of `rows` (in that order) with ids numbered from zero, so a
    /// profile over `out` is sized by the cardinality of the subset, not of `self`.
    ///
    /// `remap` is scratch owned by the caller; it is left as it was found (every entry
    /// `u32::MAX`), only grown to `self.id_count()`.
    pub fn project_into(&self, rows: &[usize], remap: &mut Vec<u32>, out: &mut TokenTable) {
        if remap.len() < self.id_count() {
            remap.resize(self.id_count(), u32::MAX);
        }
        out.positions = self.positions;
        out.ids.clear();
        out.weights.clear();
        out.distinct.clear();
        out.distinct.resize(self.positions, 0);
        out.position_of.clear();
        for &row in rows {
            for (pos, &id) in self.row(row).iter().enumerate() {
                let slot = &mut remap[id as usize];
                if *slot == u32::MAX {
                    *slot = out.position_of.len() as u32;
                    out.position_of.push(pos as u32);
                    out.distinct[pos] += 1;
                }
                out.ids.push(*slot);
            }
            out.weights.push(self.weights[row]);
        }
        for &row in rows {
            for &id in self.row(row) {
                remap[id as usize] = u32::MAX;
            }
        }
    }

    /// Number of token positions per row.
    pub fn positions(&self) -> usize {
        self.positions
    }

    /// Number of distinct (position, token) ids.
    pub fn id_count(&self) -> usize {
        self.position_of.len()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.weights.len()
    }

    /// The token ids of one row.
    pub fn row(&self, row: usize) -> &[u32] {
        &self.ids[row * self.positions..(row + 1) * self.positions]
    }

    /// The duplicate count of one row.
    pub fn weight(&self, row: usize) -> u64 {
        self.weights[row]
    }

    /// Sum of the duplicate counts of all rows.
    pub fn total_weight(&self) -> u64 {
        self.weights.iter().sum()
    }

    /// Per position: number of distinct tokens among the rows.
    pub fn distinct(&self) -> &[u32] {
        &self.distinct
    }
}

/// Per-position token statistics of a cluster of rows of one [`TokenTable`]: the flat
/// counterpart of [`ClusterProfile`], bit-identical to it in every derived number.
///
/// Life cycle: [`reset`](Self::reset) for a table; [`add`](Self::add) and
/// [`remove`](Self::remove) rows as the cluster's members change; [`seal`](Self::seal),
/// then [`score`](Self::score) rows of the table. Counts are integers, so after any
/// sequence of moves the profile equals one rebuilt from its current members.
#[derive(Debug, Clone, Default)]
pub struct DenseProfile {
    /// Weighted occurrence count per token id.
    counts: Vec<u64>,
    /// Per position: number of ids with a non-zero count.
    distinct: Vec<u32>,
    total_weight: u64,
    unique_count: usize,
    /// Position weights `w_i` of Eq. 2; empty until sealed.
    weights: Vec<f64>,
    /// `Σ w_i`, accumulated in position order.
    weight_total: f64,
    /// Per id: its Eq. 2 term `w_i · f_i`, the weight of its position times its
    /// frequency. Built by `seal` when the profile has members.
    terms: Vec<f64>,
}

impl DenseProfile {
    /// Empty the profile and size it for rows of `table`, keeping its allocations.
    pub fn reset(&mut self, table: &TokenTable) {
        self.counts.clear();
        self.counts.resize(table.id_count(), 0);
        self.distinct.clear();
        self.distinct.resize(table.positions(), 0);
        self.total_weight = 0;
        self.unique_count = 0;
        self.weights.clear();
    }

    /// Add one row, weighted by its duplicate count (at least 1: a zero weight would be
    /// counted as a new distinct token on every add).
    pub fn add(&mut self, row: &[u32], weight: u64) {
        debug_assert_eq!(row.len(), self.distinct.len());
        debug_assert!(weight > 0);
        for (&id, distinct) in row.iter().zip(&mut self.distinct) {
            let count = &mut self.counts[id as usize];
            *distinct += u32::from(*count == 0);
            *count += weight;
        }
        self.total_weight += weight;
        self.unique_count += 1;
        self.weights.clear();
    }

    /// Remove one row added earlier with the same weight: the exact inverse of
    /// [`add`](Self::add).
    pub fn remove(&mut self, row: &[u32], weight: u64) {
        debug_assert_eq!(row.len(), self.distinct.len());
        for (&id, distinct) in row.iter().zip(&mut self.distinct) {
            let count = &mut self.counts[id as usize];
            *count -= weight;
            *distinct -= u32::from(*count == 0);
        }
        self.total_weight -= weight;
        self.unique_count -= 1;
        self.weights.clear();
    }

    /// Fix the position weights and the per-id terms for the current members of a
    /// profile over `table`. `position_importance = false` is the "w/o position
    /// importance" ablation: every weight becomes 1.
    pub fn seal(&mut self, table: &TokenTable, position_importance: bool) {
        debug_assert_eq!(table.id_count(), self.counts.len());
        self.weights.clear();
        self.weight_total = 0.0;
        for &n_i in &self.distinct {
            let weight = if position_importance {
                position_weight(n_i as usize)
            } else {
                1.0
            };
            self.weights.push(weight);
            self.weight_total += weight;
        }
        self.terms.clear();
        if self.total_weight > 0 {
            let total = self.total_weight as f64;
            let weighted = self.counts.iter().zip(&table.position_of);
            self.terms.extend(
                weighted.map(|(&count, &pos)| self.weights[pos as usize] * (count as f64 / total)),
            );
        }
    }

    /// Positional similarity distance (Eq. 2) between every row of `table` and this
    /// cluster: `column[row]` for each row.
    ///
    /// A row's distance is `1 − Σ terms / Σ w_i`, its terms summed in position order
    /// from zero, the expression [`ClusterProfile::distance`] evaluates. Rows are summed
    /// four at a time in independent accumulators, which overlaps the latency of their
    /// additions without reordering any one row's.
    ///
    /// # Panics
    /// Panics when the profile has not been sealed since it last changed.
    pub fn score(&self, table: &TokenTable, column: &mut [f64]) {
        assert_eq!(
            table.positions(),
            self.weights.len(),
            "profile is not sealed"
        );
        assert_eq!(column.len(), table.rows());
        if self.total_weight == 0 || self.weight_total == 0.0 {
            column.fill(1.0);
            return;
        }
        let (terms, positions, weight_total) = (&self.terms, table.positions, self.weight_total);
        let term = |id: &u32| terms[*id as usize];
        let blocks = table.ids.chunks_exact(4 * positions);
        let tail = blocks.remainder();
        let mut out = column.chunks_exact_mut(4);
        for (block, out) in blocks.zip(&mut out) {
            let (r0, rest) = block.split_at(positions);
            let (r1, rest) = rest.split_at(positions);
            let (r2, r3) = rest.split_at(positions);
            let mut sums = [0.0f64; 4];
            for (((a, b), c), d) in r0.iter().zip(r1).zip(r2).zip(r3) {
                sums[0] += term(a);
                sums[1] += term(b);
                sums[2] += term(c);
                sums[3] += term(d);
            }
            for (distance, sum) in out.iter_mut().zip(sums) {
                *distance = 1.0 - sum / weight_total;
            }
        }
        for (row, distance) in tail.chunks_exact(positions).zip(out.into_remainder()) {
            let sum = row.iter().fold(0.0, |sum, id| sum + term(id));
            *distance = 1.0 - sum / weight_total;
        }
    }

    /// True when both profiles hold the same member statistics: counts, distinct
    /// counts and totals. Sealed state is not compared; it is derived from these.
    pub fn same_statistics(&self, other: &DenseProfile) -> bool {
        self.counts == other.counts
            && self.distinct == other.distinct
            && self.total_weight == other.total_weight
            && self.unique_count == other.unique_count
    }

    /// Per position: number of distinct tokens.
    pub fn distinct(&self) -> &[u32] {
        &self.distinct
    }

    /// Total weighted number of logs (raw records).
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// Number of unique member logs.
    pub fn unique_count(&self) -> usize {
        self.unique_count
    }

    /// True when the profile contains no logs.
    pub fn is_empty(&self) -> bool {
        self.unique_count == 0
    }
}

/// `w_i = 1/(n_i − 1)` from the paper, with the denominator clamped so constant
/// positions (`n_i = 1`) get the maximum weight instead of dividing by zero.
fn position_weight(distinct: usize) -> f64 {
    1.0 / (distinct.saturating_sub(1).max(1) as f64)
}

/// Per-position token statistics of a cluster of equal-length logs (the reference
/// implementation; the trainer runs on [`DenseProfile`]).
#[derive(Debug, Clone)]
pub struct ClusterProfile {
    /// Per position: token hash → weighted occurrence count.
    positions: Vec<HashMap<u64, u64>>,
    /// Sum of the `count` fields of the member logs (i.e. raw records, not unique logs).
    total_weight: u64,
    /// Number of unique (deduplicated) member logs.
    unique_count: usize,
}

impl ClusterProfile {
    /// Empty profile for logs with `num_positions` tokens.
    pub fn new(num_positions: usize) -> Self {
        ClusterProfile {
            positions: vec![HashMap::new(); num_positions],
            total_weight: 0,
            unique_count: 0,
        }
    }

    /// Build a profile from a set of member logs (all must have the same length).
    pub fn from_logs<'a, I>(num_positions: usize, logs: I) -> Self
    where
        I: IntoIterator<Item = &'a EncodedLog>,
    {
        let mut profile = ClusterProfile::new(num_positions);
        for log in logs {
            profile.add(log);
        }
        profile
    }

    /// Add one unique log (weighted by its duplicate count) to the profile.
    pub fn add(&mut self, log: &EncodedLog) {
        debug_assert_eq!(log.len(), self.positions.len());
        for (i, &token) in log.encoded.iter().enumerate() {
            *self.positions[i].entry(token).or_insert(0) += log.count;
        }
        self.total_weight += log.count;
        self.unique_count += 1;
    }

    /// Number of token positions.
    pub fn num_positions(&self) -> usize {
        self.positions.len()
    }

    /// Total weighted number of logs (raw records).
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// Number of unique member logs.
    pub fn unique_count(&self) -> usize {
        self.unique_count
    }

    /// Per position: number of distinct tokens.
    pub fn distinct(&self) -> Vec<u32> {
        self.positions.iter().map(|p| p.len() as u32).collect()
    }

    /// Weighted count of `token` at position `i`.
    pub fn count_at(&self, i: usize, token: u64) -> u64 {
        self.positions[i].get(&token).copied().unwrap_or(0)
    }

    /// True when the profile contains no logs.
    pub fn is_empty(&self) -> bool {
        self.unique_count == 0
    }

    /// Positional similarity (Eq. 2) between `log` and this cluster, in `[0, 1]`.
    ///
    /// `position_importance = false` corresponds to the "w/o position importance"
    /// ablation variant: every position weight becomes 1.
    pub fn similarity(&self, log: &EncodedLog, position_importance: bool) -> f64 {
        debug_assert_eq!(log.len(), self.num_positions());
        if self.total_weight == 0 || self.positions.is_empty() {
            return 0.0;
        }
        let mut weighted_sum = 0.0;
        let mut weight_total = 0.0;
        for (i, &token) in log.encoded.iter().enumerate() {
            let n_i = self.positions[i].len();
            let weight = if position_importance {
                position_weight(n_i)
            } else {
                1.0
            };
            let frequency = self.count_at(i, token) as f64 / self.total_weight as f64;
            weighted_sum += weight * frequency;
            weight_total += weight;
        }
        if weight_total == 0.0 {
            0.0
        } else {
            weighted_sum / weight_total
        }
    }

    /// Positional similarity distance: `1 − similarity`.
    pub fn distance(&self, log: &EncodedLog, position_importance: bool) -> f64 {
        1.0 - self.similarity(log, position_importance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(tokens: &[&str]) -> EncodedLog {
        EncodedLog::from_tokens(tokens)
    }

    fn log_n(tokens: &[&str], count: u64) -> EncodedLog {
        let mut l = EncodedLog::from_tokens(tokens);
        l.count = count;
        l
    }

    #[test]
    fn identical_log_has_similarity_one() {
        let a = log(&["open", "file", "x"]);
        let profile = ClusterProfile::from_logs(3, [&a]);
        assert!((profile.similarity(&a, true) - 1.0).abs() < 1e-9);
        assert!(profile.distance(&a, true).abs() < 1e-9);
    }

    #[test]
    fn disjoint_log_has_similarity_zero() {
        let a = log(&["open", "file", "x"]);
        let b = log(&["close", "socket", "y"]);
        let profile = ClusterProfile::from_logs(3, [&a]);
        assert!(profile.similarity(&b, true).abs() < 1e-9);
        assert!((profile.distance(&b, true) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn partially_matching_log_is_in_between() {
        let a = log(&["open", "file", "x"]);
        let b = log(&["open", "file", "y"]);
        let profile = ClusterProfile::from_logs(3, [&a]);
        let s = profile.similarity(&b, true);
        assert!(s > 0.5 && s < 1.0, "similarity was {s}");
    }

    #[test]
    fn variable_positions_are_downweighted() {
        // Cluster where the last position is highly variable: its weight should be low,
        // so a log matching the constant prefix is *more* similar with importance on.
        let members = [
            log(&["get", "user", "a"]),
            log(&["get", "user", "b"]),
            log(&["get", "user", "c"]),
            log(&["get", "user", "d"]),
        ];
        let profile = ClusterProfile::from_logs(3, members.iter());
        let candidate = log(&["get", "user", "zzz"]);
        let with = profile.similarity(&candidate, true);
        let without = profile.similarity(&candidate, false);
        assert!(with > without);
        assert!(with > 0.8, "constant prefix should dominate, got {with}");
    }

    #[test]
    fn duplicate_counts_weight_frequencies() {
        let common = log_n(&["status", "ok"], 99);
        let rare = log_n(&["status", "failed"], 1);
        let profile = ClusterProfile::from_logs(2, [&common, &rare]);
        let s_ok = profile.similarity(&log(&["status", "ok"]), true);
        let s_failed = profile.similarity(&log(&["status", "failed"]), true);
        assert!(s_ok > s_failed);
        assert_eq!(profile.total_weight(), 100);
        assert_eq!(profile.unique_count(), 2);
    }

    #[test]
    #[should_panic(expected = "not sealed")]
    fn scoring_requires_a_sealed_profile() {
        let a = log(&["open", "file"]);
        let table = TokenTable::intern(2, [&a]);
        let mut profile = DenseProfile::default();
        profile.reset(&table);
        profile.seal(&table, true);
        profile.add(table.row(0), table.weight(0));
        profile.score(&table, &mut [0.0]);
    }

    #[test]
    fn empty_profile_behaviour() {
        let profile = ClusterProfile::new(3);
        assert!(profile.is_empty());
        assert_eq!(profile.similarity(&log(&["a", "b", "c"]), true), 0.0);
    }

    #[test]
    fn assignment_prefers_structurally_closer_cluster() {
        // Two clusters: "release lock <id>" vs "acquire lock <id>"; a new release log must
        // be closer to the release cluster (the Fig. 1 scenario).
        let release = [
            log(&["release", "lock", "2337"]),
            log(&["release", "lock", "187"]),
        ];
        let acquire = [
            log(&["acquire", "lock", "23"]),
            log(&["acquire", "lock", "1661"]),
        ];
        let c_release = ClusterProfile::from_logs(3, release.iter());
        let c_acquire = ClusterProfile::from_logs(3, acquire.iter());
        let new_log = log(&["release", "lock", "62"]);
        assert!(c_release.distance(&new_log, true) < c_acquire.distance(&new_log, true));
    }
}

//! The bounded solvability model checker.
//!
//! [`check`] answers: *does any algorithm exist in which both processes
//! decide at round `k`, correctly, for every scenario of the scheme?* —
//! by the full-information reduction (see the crate docs) this is a
//! finite union-find computation over views. [`first_horizon`] sweeps
//! `k` upward for the first yes. Both take one [`CheckOptions`] (budget,
//! parallel viability) and a recorder; [`solvable_by`],
//! [`solvable_by_with_recorder`] and [`first_solvable_horizon`] are the
//! same calls with default options.
//!
//! The enumeration is level-synchronous over `Pref_k(L)`: the frontier
//! holds one entry per (allowed prefix × input pair) carrying the two
//! current view ids; each round extends prefixes by every allowed letter.
//! Prefix pruning uses [`OmissionScheme::allows_prefix`], so the checker
//! works for any scheme — classic, ω-regular, or hand-rolled.

use crate::views::{ViewArena, ViewId};
use minobs_core::letter::{Letter, Role};
use minobs_core::scheme::OmissionScheme;
use minobs_core::word::Word;
use minobs_obs::{NullRecorder, Recorder, RoundTimer, SpanGuard, SpanIds};

/// The `checker_progress` heartbeat fires each time the cumulative
/// explored-state count crosses another multiple of this stride. Small
/// enough that realistic sweeps emit progress every few rounds, large
/// enough that tiny checks stay silent.
const CHECKER_PROGRESS_STRIDE: usize = 4_096;

/// One execution in a bivalency chain: the scenario prefix and the inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainStep {
    /// The `k`-round scenario prefix.
    pub prefix: Word,
    /// White's input.
    pub white_input: bool,
    /// Black's input.
    pub black_input: bool,
}

/// A bivalency chain, stored compactly: each step is a prefix index into
/// the checker's tree-encoded prefix store plus the input pair, and
/// [`ChainStep`]s are rebuilt on demand by [`Chain::iter`]. A chain of a
/// million executions costs eight bytes a step instead of a heap `Word`
/// each.
#[derive(Clone)]
pub struct Chain {
    prefixes: PrefixStore,
    /// `(prefix index, white input, black input)` per step.
    steps: Vec<(u32, bool, bool)>,
}

impl Chain {
    /// Number of executions in the chain.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` iff the chain has no steps (never the case for a chain the
    /// checker returns).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The execution the chain starts from (pinned to one value).
    pub fn first(&self) -> Option<ChainStep> {
        self.steps.first().map(|&step| self.step(step))
    }

    /// The execution the chain ends at (pinned to the other value).
    pub fn last(&self) -> Option<ChainStep> {
        self.steps.last().map(|&step| self.step(step))
    }

    /// The steps in order, each rebuilt from the prefix store.
    pub fn iter(&self) -> ChainIter<'_> {
        ChainIter {
            chain: self,
            steps: self.steps.iter(),
        }
    }

    fn step(&self, (prefix_idx, white_input, black_input): (u32, bool, bool)) -> ChainStep {
        ChainStep {
            prefix: reconstruct(&self.prefixes, prefix_idx),
            white_input,
            black_input,
        }
    }
}

/// Chains compare step by step, whatever their prefix stores hold.
impl PartialEq for Chain {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Chain {}

/// Prints as the list of its steps.
impl std::fmt::Debug for Chain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over a [`Chain`]'s steps.
#[derive(Clone)]
pub struct ChainIter<'a> {
    chain: &'a Chain,
    steps: std::slice::Iter<'a, (u32, bool, bool)>,
}

impl Iterator for ChainIter<'_> {
    type Item = ChainStep;

    fn next(&mut self) -> Option<ChainStep> {
        self.steps.next().map(|&step| self.chain.step(step))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.steps.size_hint()
    }
}

impl ExactSizeIterator for ChainIter<'_> {}

impl<'a> IntoIterator for &'a Chain {
    type Item = ChainStep;
    type IntoIter = ChainIter<'a>;

    fn into_iter(self) -> ChainIter<'a> {
        self.iter()
    }
}

/// The checker's verdict at horizon `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckResult {
    /// A decision map exists: some algorithm decides at round `k` on all
    /// of `Pref_k(L)`.
    Solvable {
        /// Number of distinct final views.
        views: usize,
        /// Number of execution-connected components.
        components: usize,
    },
    /// No such algorithm: the all-0 and all-1 executions are connected.
    Unsolvable {
        /// A chain of executions linking a 0-pinned view to a 1-pinned
        /// view; consecutive steps share a process view (the bivalency
        /// chain).
        chain: Chain,
    },
    /// The scheme allows no prefix of length `k` at all (empty scheme).
    Empty,
    /// The check ran out of [`Budget`] before reaching horizon `k`. The
    /// partial answer is honest: every horizon up to `horizon_reached`
    /// was fully explored without finding a verdict for `k`.
    BudgetExhausted {
        /// The deepest round whose frontier was fully computed.
        horizon_reached: usize,
        /// Size of the frontier at the stop point.
        frontier_size: usize,
    },
}

impl CheckResult {
    /// `true` for [`CheckResult::Solvable`] (and for the vacuous
    /// [`CheckResult::Empty`]). A [`CheckResult::BudgetExhausted`] is
    /// *not* solvable — it is no verdict at all.
    pub fn is_solvable(&self) -> bool {
        matches!(self, CheckResult::Solvable { .. } | CheckResult::Empty)
    }
}

/// A resource cap for a bounded check: graceful degradation instead of an
/// unbounded frontier explosion. Exceeding either limit stops the check
/// at the next round boundary with [`CheckResult::BudgetExhausted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Cap on cumulative frontier entries explored (sum over rounds).
    pub max_states: usize,
    /// Wall-clock cap in milliseconds. `u64::MAX` disables the clock,
    /// keeping the check fully deterministic.
    pub max_millis: u64,
}

impl Budget {
    /// No limits: the default in [`CheckOptions`].
    pub const UNLIMITED: Budget = Budget {
        max_states: usize::MAX,
        max_millis: u64::MAX,
    };

    /// A deterministic, states-only budget (the clock is disabled).
    pub fn states(max_states: usize) -> Self {
        Budget {
            max_states,
            max_millis: u64::MAX,
        }
    }
}

/// Mutable budget accounting, shared across rounds — and across horizons
/// in [`first_horizon`], so the cap is cumulative for the whole sweep
/// rather than per inner check. [`Budget::UNLIMITED`] charges nothing that
/// can run out and never reads the clock.
struct BudgetTracker {
    budget: Budget,
    states_spent: usize,
    deadline: Option<std::time::Instant>,
}

impl BudgetTracker {
    fn new(budget: Budget) -> Self {
        BudgetTracker {
            budget,
            states_spent: 0,
            deadline: (budget.max_millis != u64::MAX).then(|| {
                std::time::Instant::now() + std::time::Duration::from_millis(budget.max_millis)
            }),
        }
    }

    /// Charges one round's frontier; `true` when the budget still holds.
    fn charge(&mut self, frontier: usize) -> bool {
        self.states_spent = self.states_spent.saturating_add(frontier);
        self.states_spent <= self.budget.max_states
            && self.deadline.is_none_or(|d| std::time::Instant::now() < d)
    }
}

struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra as usize] = rb;
        }
    }
}

/// Tree-encoded prefix store: `prefixes[i] = (parent index, letter)`.
type PrefixStore = Vec<(u32, Option<Letter>)>;

/// The word stored at `idx`, read back to the root.
fn reconstruct(prefixes: &PrefixStore, mut idx: u32) -> Word {
    let mut letters = Vec::new();
    while let (parent, Some(letter)) = prefixes[idx as usize] {
        letters.push(letter);
        idx = parent;
    }
    letters.reverse();
    Word(letters)
}

/// One frontier entry: an allowed prefix (index into `prefixes`) with an
/// input pair and the two current views.
#[derive(Debug, Clone, Copy)]
struct ExecState {
    prefix_idx: u32,
    white_input: bool,
    black_input: bool,
    view_w: ViewId,
    view_b: ViewId,
}

/// How a check runs. The default is the plain check: no budget, viability
/// queries answered in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckOptions {
    /// Resource cap. In [`first_horizon`] it is cumulative over the whole
    /// sweep.
    pub budget: Budget,
    /// Fan each round's prefix-viability queries out with `rayon` — the
    /// expensive part for automata-backed schemes, where each query is an
    /// ω-automata emptiness test. View interning, union-find and budget
    /// accounting stay sequential, so verdicts, budget stops and trace
    /// events are the same either way (tested).
    pub parallel: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            budget: Budget::UNLIMITED,
            parallel: false,
        }
    }
}

/// Decides `k`-round solvability of `scheme` over the given per-round
/// alphabet (use `GammaLetter`-only letters for `L ⊆ Γ^ω`, all of `Σ` for
/// schemes with double omission), under `opts`.
///
/// Once the budget runs out the check stops at the next round boundary
/// with the honest partial verdict [`CheckResult::BudgetExhausted`]
/// instead of churning on. `recorder` receives one `checker_round` event
/// per frontier step (frontier size and view-arena growth), the phase
/// spans, and a `budget_exhausted` event on exhaustion.
pub fn check<R: Recorder + ?Sized>(
    scheme: &dyn OmissionScheme,
    k: usize,
    alphabet: &[Letter],
    opts: CheckOptions,
    recorder: &mut R,
) -> CheckResult {
    let mut tracker = BudgetTracker::new(opts.budget);
    solvable_by_impl(scheme, k, alphabet, opts.parallel, &mut tracker, recorder)
}

/// [`check`] with default options.
pub fn solvable_by(scheme: &dyn OmissionScheme, k: usize, alphabet: &[Letter]) -> CheckResult {
    check(
        scheme,
        k,
        alphabet,
        CheckOptions::default(),
        &mut NullRecorder,
    )
}

/// [`check`] with default options, observed by `recorder`.
pub fn solvable_by_with_recorder<R: Recorder + ?Sized>(
    scheme: &dyn OmissionScheme,
    k: usize,
    alphabet: &[Letter],
    recorder: &mut R,
) -> CheckResult {
    check(scheme, k, alphabet, CheckOptions::default(), recorder)
}

fn solvable_by_impl<R: Recorder + ?Sized>(
    scheme: &dyn OmissionScheme,
    k: usize,
    alphabet: &[Letter],
    parallel: bool,
    tracker: &mut BudgetTracker,
    recorder: &mut R,
) -> CheckResult {
    let mut arena = ViewArena::new();
    // Prefix store: tree-encoded, prefixes[i] = (parent index, letter).
    let mut prefixes: PrefixStore = vec![(0, None)];
    if !scheme.allows_prefix(&Word::empty()) {
        return CheckResult::Empty;
    }

    // Round 0 frontier: the empty prefix with all four input pairs.
    let mut frontier: Vec<ExecState> = Vec::new();
    for wi in [false, true] {
        for bi in [false, true] {
            frontier.push(ExecState {
                prefix_idx: 0,
                white_input: wi,
                black_input: bi,
                view_w: arena.base(Role::White, wi),
                view_b: arena.base(Role::Black, bi),
            });
        }
    }

    if !tracker.charge(frontier.len()) {
        recorder.on_budget_exhausted(0, frontier.len(), tracker.states_spent);
        return CheckResult::BudgetExhausted {
            horizon_reached: 0,
            frontier_size: frontier.len(),
        };
    }

    let mut span_ids = SpanIds::new();
    let mut states_total = frontier.len();
    let mut progress_mark = states_total / CHECKER_PROGRESS_STRIDE;

    for round in 0..k {
        let step_timer = RoundTimer::start_if(recorder.enabled());
        let expand_span = SpanGuard::begin(recorder, &mut span_ids, round + 1, None, "checker_expand");
        // Group by prefix: all four input pairs extend the same way, so
        // test allows_prefix once per (prefix, letter). Entries with the
        // same prefix are contiguous by construction.
        let mut groups: Vec<(usize, usize, u32)> = Vec::new();
        let mut i = 0usize;
        while i < frontier.len() {
            let prefix_idx = frontier[i].prefix_idx;
            let mut j = i;
            while j < frontier.len() && frontier[j].prefix_idx == prefix_idx {
                j += 1;
            }
            groups.push((i, j, prefix_idx));
            i = j;
        }

        // Viability of every (group, letter) extension — the expensive
        // queries. In parallel a batch of words fans out; sequentially
        // each group's word is tested in place, with no batch built.
        let viable: Vec<bool> = if parallel {
            use rayon::prelude::*;
            let candidate_words: Vec<Word> = groups
                .iter()
                .flat_map(|&(_, _, pidx)| {
                    let word = reconstruct(&prefixes, pidx);
                    alphabet.iter().map(move |&l| word.push(l))
                })
                .collect();
            candidate_words
                .par_iter()
                .map(|u| scheme.allows_prefix(u))
                .collect()
        } else {
            let mut viable = Vec::with_capacity(groups.len() * alphabet.len());
            for &(_, _, pidx) in &groups {
                let mut word = reconstruct(&prefixes, pidx);
                for &letter in alphabet {
                    word.0.push(letter);
                    viable.push(scheme.allows_prefix(&word));
                    word.0.pop();
                }
            }
            viable
        };

        // Each viable (group, letter) pair extends the whole group once:
        // size the next frontier and this round's intern table for that.
        let width = alphabet.len();
        let next_len: usize = groups
            .iter()
            .enumerate()
            .map(|(g, &(i, j, _))| {
                (j - i)
                    * viable[g * width..(g + 1) * width]
                        .iter()
                        .filter(|&&v| v)
                        .count()
            })
            .sum();
        let mut next: Vec<ExecState> = Vec::with_capacity(next_len);
        arena.next_round(next_len);
        for (g, &(i, j, prefix_idx)) in groups.iter().enumerate() {
            for (li, &letter) in alphabet.iter().enumerate() {
                if !viable[g * width + li] {
                    continue;
                }
                prefixes.push((prefix_idx, Some(letter)));
                let new_idx = (prefixes.len() - 1) as u32;
                for entry in &frontier[i..j] {
                    let to_white = letter
                        .delivers_from(Role::Black)
                        .then_some(entry.view_b);
                    let to_black = letter
                        .delivers_from(Role::White)
                        .then_some(entry.view_w);
                    next.push(ExecState {
                        prefix_idx: new_idx,
                        white_input: entry.white_input,
                        black_input: entry.black_input,
                        view_w: arena.extend(entry.view_w, to_white),
                        view_b: arena.extend(entry.view_b, to_black),
                    });
                }
            }
        }
        if let Some(span) = expand_span {
            span.end(recorder);
        }
        // Keep same-prefix entries contiguous: sort by prefix index.
        let dedup_span = SpanGuard::begin(recorder, &mut span_ids, round + 1, None, "checker_dedup");
        next.sort_by_key(|e| e.prefix_idx);
        if let Some(span) = dedup_span {
            span.end(recorder);
        }
        frontier = next;
        if recorder.enabled() {
            states_total += frontier.len();
            if states_total / CHECKER_PROGRESS_STRIDE > progress_mark {
                progress_mark = states_total / CHECKER_PROGRESS_STRIDE;
                recorder.on_checker_progress(round + 1, frontier.len(), states_total);
            }
        }
        recorder.on_checker_round(
            round + 1,
            frontier.len(),
            arena.len(),
            step_timer.elapsed_nanos(),
        );
        if frontier.is_empty() {
            return CheckResult::Empty;
        }
        // Budget is checked at round granularity: the round that tips
        // the scales still finishes, so `horizon_reached` is always a
        // fully-explored depth.
        if round + 1 < k && !tracker.charge(frontier.len()) {
            recorder.on_budget_exhausted(round + 1, frontier.len(), tracker.states_spent);
            return CheckResult::BudgetExhausted {
                horizon_reached: round + 1,
                frontier_size: frontier.len(),
            };
        }
    }
    // Decide needs only how many views exist, not their keys.
    let n_views = arena.len();
    drop(arena);
    // Decide indexes executions, and the chain search its two entries
    // per execution, by `u32`.
    assert!(
        frontier.len() < u32::MAX as usize / 2,
        "execution indices fit in u32"
    );

    let decide_span = SpanGuard::begin(recorder, &mut span_ids, k, None, "checker_decide");
    let decide_id = decide_span.as_ref().map(SpanGuard::id);
    let uf_span = SpanGuard::begin(recorder, &mut span_ids, k, decide_id, "checker_uf");
    let decision = union_and_pin(&frontier, n_views);
    if let Some(span) = uf_span {
        span.end(recorder);
    }
    let result = match decision {
        Ok(solvable) => solvable,
        Err((start, goal)) => {
            let chain_span =
                SpanGuard::begin(recorder, &mut span_ids, k, decide_id, "checker_chain");
            let chain = extract_chain(&frontier, n_views, prefixes, start, goal);
            if let Some(span) = chain_span {
                span.end(recorder);
            }
            CheckResult::Unsolvable { chain }
        }
    };
    if let Some(span) = decide_span {
        span.end(recorder);
    }
    result
}

/// Unions the two final views of every execution and pins each
/// uniform-input execution's component to its input. Returns the
/// [`CheckResult::Solvable`] verdict, or — for the first component (by
/// root id) pinned both ways — its first 0-pinned and first 1-pinned
/// executions.
fn union_and_pin(frontier: &[ExecState], n_views: usize) -> Result<CheckResult, (usize, usize)> {
    let mut uf = UnionFind::new(n_views);
    for e in frontier {
        uf.union(e.view_w.0, e.view_b.0);
    }
    // Pins: root → execution index + 1 of a representative execution
    // (0 = unpinned).
    let mut pin0 = vec![0u32; n_views];
    let mut pin1 = vec![0u32; n_views];
    for (idx, e) in frontier.iter().enumerate() {
        if e.white_input == e.black_input {
            let root = uf.find(e.view_w.0) as usize;
            let slot = if e.white_input {
                &mut pin1[root]
            } else {
                &mut pin0[root]
            };
            if *slot == 0 {
                *slot = idx as u32 + 1;
            }
        }
    }
    // Only roots carry pins.
    if let Some(root) = (0..n_views).find(|&r| pin0[r] != 0 && pin1[r] != 0) {
        return Err((pin0[root] as usize - 1, pin1[root] as usize - 1));
    }
    // Count components among final views only.
    let mut finals: Vec<u32> = frontier
        .iter()
        .flat_map(|e| [e.view_w.0, e.view_b.0])
        .collect();
    finals.sort_unstable();
    finals.dedup();
    let views = finals.len();
    let mut roots: Vec<u32> = finals.into_iter().map(|v| uf.find(v)).collect();
    roots.sort_unstable();
    roots.dedup();
    Ok(CheckResult::Solvable {
        views,
        components: roots.len(),
    })
}

/// BFS over executions: two executions are adjacent when they share a
/// final view (some process cannot distinguish them). Returns the chain
/// from the 0-pinned execution to the 1-pinned one.
fn extract_chain(
    frontier: &[ExecState],
    n_views: usize,
    prefixes: PrefixStore,
    start: usize,
    goal: usize,
) -> Chain {
    let views = |e: &ExecState| [e.view_w.0 as usize, e.view_b.0 as usize];
    // CSR adjacency view → executions, by counting sort in execution
    // order: count view `v` at `offsets[v + 2]`, prefix-sum, then fill
    // through the cursor `offsets[v + 1]`, which leaves `v`'s executions
    // at `entries[offsets[v]..offsets[v + 1]]`.
    let mut offsets = vec![0u32; n_views + 2];
    for e in frontier {
        for v in views(e) {
            offsets[v + 2] += 1;
        }
    }
    for i in 2..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let mut entries = vec![0u32; 2 * frontier.len()];
    for (idx, e) in frontier.iter().enumerate() {
        for v in views(e) {
            let cursor = &mut offsets[v + 1];
            entries[*cursor as usize] = idx as u32;
            *cursor += 1;
        }
    }

    let mut parent = vec![u32::MAX; frontier.len()];
    parent[start] = start as u32;
    let mut queue: Vec<u32> = Vec::with_capacity(frontier.len());
    queue.push(start as u32);
    let mut head = 0;
    while head < queue.len() {
        let cur = queue[head];
        head += 1;
        if cur as usize == goal {
            break;
        }
        for v in views(&frontier[cur as usize]) {
            for &other in &entries[offsets[v] as usize..offsets[v + 1] as usize] {
                if parent[other as usize] == u32::MAX {
                    parent[other as usize] = cur;
                    queue.push(other);
                }
            }
        }
    }
    // Rebuild the path from the goal back.
    let mut steps = Vec::new();
    let mut cur = goal;
    loop {
        let e = &frontier[cur];
        steps.push((e.prefix_idx, e.white_input, e.black_input));
        if cur == start {
            break;
        }
        cur = parent[cur] as usize;
    }
    steps.reverse();
    Chain { prefixes, steps }
}

/// The `Γ` alphabet for the checker.
pub fn gamma_alphabet() -> Vec<Letter> {
    vec![Letter::Full, Letter::DropWhite, Letter::DropBlack]
}

/// The full `Σ` alphabet for the checker.
pub fn sigma_alphabet() -> Vec<Letter> {
    Letter::ALL.to_vec()
}

/// The outcome of a horizon sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HorizonOutcome {
    /// The smallest solvable horizon.
    Solvable(usize),
    /// Every horizon `k ≤ max_k` was fully checked and none is solvable.
    UnsolvableWithin(usize),
    /// The budget ran out mid-sweep. All horizons `< at_horizon` were
    /// fully checked and unsolvable; the verdict for `at_horizon` and
    /// beyond is unknown.
    BudgetExhausted {
        /// The horizon whose check hit the cap.
        at_horizon: usize,
        /// Deepest fully-explored round inside that check.
        horizon_reached: usize,
        /// Frontier size at the stop point.
        frontier_size: usize,
    },
}

/// Sweeps `k = 0..=max_k` for the smallest horizon at which the scheme
/// is solvable, under `opts`. By Corollary III.14 / Proposition III.15
/// this equals the paper's worst-case round complexity `p` whenever it
/// exists.
///
/// The budget is **cumulative across the whole sweep**: every inner check
/// draws on the same state/time caps, so the sweep as a whole degrades
/// gracefully instead of paying the cap once per horizon. `recorder` sees
/// every inner check's events, and each fully checked horizon `k` closes
/// with a `horizon` event carrying its verdict and wall time.
pub fn first_horizon<R: Recorder + ?Sized>(
    scheme: &dyn OmissionScheme,
    max_k: usize,
    alphabet: &[Letter],
    opts: CheckOptions,
    recorder: &mut R,
) -> HorizonOutcome {
    let mut tracker = BudgetTracker::new(opts.budget);
    for k in 0..=max_k {
        let timer = RoundTimer::start_if(recorder.enabled());
        let result = solvable_by_impl(scheme, k, alphabet, opts.parallel, &mut tracker, recorder);
        if let CheckResult::BudgetExhausted {
            horizon_reached,
            frontier_size,
        } = result
        {
            return HorizonOutcome::BudgetExhausted {
                at_horizon: k,
                horizon_reached,
                frontier_size,
            };
        }
        let solvable = result.is_solvable();
        recorder.on_horizon(k, solvable, timer.elapsed_nanos());
        if solvable {
            return HorizonOutcome::Solvable(k);
        }
    }
    HorizonOutcome::UnsolvableWithin(max_k)
}

/// [`first_horizon`] with default options: the smallest solvable horizon
/// `k ≤ max_k`, or `None`.
pub fn first_solvable_horizon(
    scheme: &dyn OmissionScheme,
    max_k: usize,
    alphabet: &[Letter],
) -> Option<usize> {
    match first_horizon(
        scheme,
        max_k,
        alphabet,
        CheckOptions::default(),
        &mut NullRecorder,
    ) {
        HorizonOutcome::Solvable(k) => Some(k),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minobs_core::minimal::CanonicalMinimalObstruction;
    use minobs_core::scheme::{classic, ClassicScheme};
    use minobs_core::theorem::min_excluded_prefix;

    fn gamma() -> Vec<Letter> {
        gamma_alphabet()
    }

    fn budgeted(budget: Budget) -> CheckOptions {
        CheckOptions {
            budget,
            ..CheckOptions::default()
        }
    }

    const PARALLEL: CheckOptions = CheckOptions {
        budget: Budget::UNLIMITED,
        parallel: true,
    };

    #[test]
    fn nothing_is_solvable_at_horizon_zero() {
        // Without communication mixed inputs force a conflict.
        let r = solvable_by(&classic::s0(), 0, &gamma());
        assert!(!r.is_solvable());
    }

    #[test]
    fn s0_and_t_solvable_at_one_round() {
        for scheme in [classic::s0(), classic::t_white(), classic::t_black()] {
            assert!(
                solvable_by(&scheme, 1, &gamma()).is_solvable(),
                "{}",
                scheme.name()
            );
        }
    }

    #[test]
    fn c1_and_s1_need_exactly_two_rounds() {
        for scheme in [classic::c1(), classic::s1()] {
            assert!(!solvable_by(&scheme, 1, &gamma()).is_solvable(), "{}", scheme.name());
            assert!(solvable_by(&scheme, 2, &gamma()).is_solvable(), "{}", scheme.name());
            assert_eq!(
                first_solvable_horizon(&scheme, 4, &gamma()),
                Some(2),
                "{}",
                scheme.name()
            );
        }
    }

    #[test]
    fn r1_unsolvable_at_every_tested_horizon() {
        for k in 0..=6 {
            let r = solvable_by(&classic::r1(), k, &gamma());
            assert!(!r.is_solvable(), "k={k}");
        }
    }

    #[test]
    fn s2_unsolvable_with_sigma_alphabet() {
        for k in 0..=4 {
            let r = solvable_by(&classic::s2(), k, &sigma_alphabet());
            assert!(!r.is_solvable(), "k={k}");
        }
    }

    /// Both processes' full-information views after `step`, spelled out
    /// as nested strings: built from the letters alone, without the
    /// checker's interner.
    fn spelled_views(step: &ChainStep) -> (String, String) {
        let mut white = format!("W{}", step.white_input as u8);
        let mut black = format!("B{}", step.black_input as u8);
        for letter in &step.prefix.0 {
            let heard = |sender: Role, view: &str| {
                if letter.delivers_from(sender) {
                    view.to_string()
                } else {
                    "⊥".to_string()
                }
            };
            let next_white = format!("({white}|{})", heard(Role::Black, &black));
            let next_black = format!("({black}|{})", heard(Role::White, &white));
            (white, black) = (next_white, next_black);
        }
        (white, black)
    }

    /// Checks `scheme`'s `k`-round chain as a certificate: uniform
    /// endpoints with opposite inputs, every prefix allowed and of length
    /// `k`, and every consecutive pair indistinguishable to some process.
    fn assert_certificate(scheme: &dyn OmissionScheme, k: usize, alphabet: &[Letter]) {
        let result = solvable_by(scheme, k, alphabet);
        assert_eq!(
            result,
            check(scheme, k, alphabet, PARALLEL, &mut NullRecorder),
            "{} k={k}",
            scheme.name()
        );
        let CheckResult::Unsolvable { chain } = result else {
            panic!("{} must be unsolvable at k={k}", scheme.name());
        };
        assert!(chain.len() >= 2);
        assert_eq!(chain.iter().len(), chain.len());
        // Endpoints are the uniform executions with opposite values.
        let first = chain.first().unwrap();
        let last = chain.last().unwrap();
        assert_eq!(first.white_input, first.black_input);
        assert_eq!(last.white_input, last.black_input);
        assert_ne!(first.white_input, last.white_input);
        let steps: Vec<ChainStep> = chain.iter().collect();
        assert_eq!(steps.first(), Some(&first));
        assert_eq!(steps.last(), Some(&last));
        for step in &chain {
            assert!(scheme.allows_prefix(&step.prefix), "{:?}", step);
            assert_eq!(step.prefix.len(), k);
        }
        for pair in steps.windows(2) {
            let (w0, b0) = spelled_views(&pair[0]);
            let (w1, b1) = spelled_views(&pair[1]);
            assert!(
                w0 == w1 || b0 == b1,
                "{} k={k}: {:?} and {:?} are told apart by both processes",
                scheme.name(),
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn bivalency_chain_is_a_valid_certificate() {
        for k in 1..=6 {
            assert_certificate(&classic::r1(), k, &gamma());
        }
        for k in 0..=4 {
            assert_certificate(&classic::s2(), k, &sigma_alphabet());
        }
        for k in 0..=5 {
            assert_certificate(&CanonicalMinimalObstruction, k, &gamma());
        }
    }

    #[test]
    fn spelled_views_tell_executions_apart() {
        // The test oracle itself: White hears Black's input only if the
        // letter delivers Black's message.
        let step = |prefix: &str, white_input, black_input| ChainStep {
            prefix: prefix.parse().unwrap(),
            white_input,
            black_input,
        };
        let (w, b) = spelled_views(&step("w", false, true));
        assert_eq!((w.as_str(), b.as_str()), ("(W0|B1)", "(B1|⊥)"));
        let (w_other, b_other) = spelled_views(&step("w", false, false));
        assert_ne!(w, w_other);
        assert_eq!(b.replace("B1", "B0"), b_other);
    }

    #[test]
    fn horizon_matches_min_excluded_prefix_for_catalog() {
        // The structural identity: first_solvable_horizon = p
        // (Cor. III.14 / Prop. III.15), including the unbounded cases.
        let schemes = [
            classic::s0(),
            classic::t_white(),
            classic::t_black(),
            classic::c1(),
            classic::s1(),
            classic::r1(),
            classic::fair_gamma(),
            classic::almost_fair(),
        ];
        for scheme in schemes {
            let p = min_excluded_prefix(&scheme, 4).map(|(p, _)| p);
            let h = first_solvable_horizon(&scheme, 4, &gamma());
            assert_eq!(h, p, "{}", scheme.name());
        }
    }

    #[test]
    fn avoid_prefix_horizon_is_prefix_length() {
        for w0 in ["w", "wb", "b-w"] {
            let scheme = ClassicScheme::AvoidPrefix(w0.parse().unwrap());
            assert_eq!(
                first_solvable_horizon(&scheme, 5, &gamma()),
                Some(w0.len()),
                "{w0}"
            );
        }
    }

    #[test]
    fn canonical_minimal_obstruction_unsolvable_at_horizons() {
        // Pref(L) = Γ* for the canonical minimal obstruction, so the
        // checker must reject every horizon.
        let l = CanonicalMinimalObstruction;
        for k in 0..=5 {
            assert!(!solvable_by(&l, k, &gamma()).is_solvable(), "k={k}");
        }
    }

    #[test]
    fn empty_scheme_is_vacuously_solvable() {
        let l = ClassicScheme::AvoidPrefix(Word::empty());
        assert_eq!(solvable_by(&l, 3, &gamma()), CheckResult::Empty);
        assert!(solvable_by(&l, 3, &gamma()).is_solvable());
    }

    #[test]
    fn chain_grows_with_horizon() {
        // Deeper horizons need longer chains to connect 0 to 1 — the
        // quantitative face of "the impossibility proof gets harder".
        let mut prev_len = 0;
        for k in 1..=5 {
            let CheckResult::Unsolvable { chain } = solvable_by(&classic::r1(), k, &gamma())
            else {
                panic!("R1 unsolvable");
            };
            assert!(chain.len() >= prev_len, "k={k}");
            prev_len = chain.len();
        }
        assert!(prev_len >= 4);
    }

    #[test]
    fn solvable_components_structure() {
        let CheckResult::Solvable { views, components } =
            solvable_by(&classic::s0(), 1, &gamma())
        else {
            panic!("S0 solvable at 1");
        };
        // Four executions (input pairs) over the single Full prefix:
        // 8 final views in 4 components.
        assert_eq!(views, 8);
        assert_eq!(components, 4);
    }

    #[test]
    fn parallel_checker_matches_sequential() {
        // (scheme, alphabet, horizons, budgets): parallel viability must
        // return the same verdict, and degrade at the same round, as the
        // sequential check.
        let mut table: Vec<_> = [
            classic::s0(),
            classic::s1(),
            classic::c1(),
            classic::r1(),
            classic::almost_fair(),
            classic::total_budget(2),
            ClassicScheme::AvoidPrefix("wb".parse().unwrap()),
        ]
        .into_iter()
        .map(|scheme| (scheme, gamma(), 0..=4, vec![Budget::UNLIMITED]))
        .collect();
        table.push((
            classic::s2(),
            sigma_alphabet(),
            0..=3,
            vec![Budget::UNLIMITED],
        ));
        table.push((
            classic::r1(),
            gamma(),
            5..=5,
            vec![
                Budget::states(50),
                Budget::states(10_000),
                Budget::UNLIMITED,
            ],
        ));
        for (scheme, alphabet, horizons, budgets) in table {
            for k in horizons {
                for &budget in &budgets {
                    let seq = check(&scheme, k, &alphabet, budgeted(budget), &mut NullRecorder);
                    let opts = CheckOptions {
                        budget,
                        parallel: true,
                    };
                    assert_eq!(
                        check(&scheme, k, &alphabet, opts, &mut NullRecorder),
                        seq,
                        "{} k={k} {budget:?}",
                        scheme.name()
                    );
                }
            }
        }
    }

    /// `rec`'s events with the wall-clock fields zeroed.
    fn untimed(rec: &minobs_obs::MemoryRecorder) -> Vec<minobs_obs::TraceEvent> {
        use minobs_obs::TraceEvent;
        let mut events = rec.events().to_vec();
        for event in &mut events {
            if let TraceEvent::CheckerRound { nanos, .. }
            | TraceEvent::Horizon { nanos, .. }
            | TraceEvent::SpanEnd { nanos, .. } = event
            {
                *nanos = 0;
            }
        }
        events
    }

    #[test]
    fn parallel_sweep_traces_like_the_sequential_one() {
        use minobs_obs::MemoryRecorder;
        for (scheme, max_k, budget) in [
            (classic::c1(), 4, Budget::UNLIMITED),
            (classic::r1(), 4, Budget::UNLIMITED),
            (classic::r1(), 6, Budget::states(40)),
        ] {
            let sweep = |parallel| {
                let mut rec = MemoryRecorder::new();
                let opts = CheckOptions { budget, parallel };
                let outcome = first_horizon(&scheme, max_k, &gamma(), opts, &mut rec);
                (outcome, untimed(&rec))
            };
            assert_eq!(sweep(true), sweep(false), "{}", scheme.name());
        }
    }

    #[test]
    fn gamma_minus_half_pair_unsolvable_bounded() {
        // Γω \ {-(w)} is an obstruction; its prefixes are all of Γ*, so
        // the checker rejects every horizon.
        let l = ClassicScheme::GammaMinus(vec!["-(w)".parse().unwrap()]);
        for k in 0..=5 {
            assert!(!solvable_by(&l, k, &gamma()).is_solvable(), "k={k}");
        }
    }

    #[test]
    fn solvable_pair_scheme_still_unbounded_horizon() {
        // Γω \ {-(w), b(w)} IS solvable (Theorem III.8) but with
        // unbounded round complexity: Pref(L) = Γ*, so no fixed-horizon
        // algorithm exists. The checker and the theorem answer different
        // questions — and both answers are right.
        let l = ClassicScheme::GammaMinus(vec!["-(w)".parse().unwrap(), "b(w)".parse().unwrap()]);
        assert!(minobs_core::theorem::decide_gamma(&l).is_solvable());
        for k in 0..=5 {
            assert!(!solvable_by(&l, k, &gamma()).is_solvable(), "k={k}");
        }
    }

    #[test]
    fn generous_budget_matches_unbudgeted() {
        // A finite budget the run never reaches — on both axes, so the
        // clock is armed — returns the unlimited verdict.
        let generous = Budget {
            max_states: 1 << 40,
            max_millis: 3_600_000,
        };
        for scheme in [classic::s0(), classic::c1(), classic::r1()] {
            for k in 0..=3 {
                assert_eq!(
                    check(&scheme, k, &gamma(), budgeted(generous), &mut NullRecorder),
                    solvable_by(&scheme, k, &gamma()),
                    "{} k={k}",
                    scheme.name()
                );
            }
        }
    }

    #[test]
    fn exhausted_budget_reports_partial_horizon() {
        // R1's frontier at depth 4 is far beyond 50 cumulative states,
        // so the check must stop early — deterministically, since a
        // states-only budget never consults the clock.
        let opts = budgeted(Budget::states(50));
        let r = check(&classic::r1(), 6, &gamma(), opts, &mut NullRecorder);
        let CheckResult::BudgetExhausted {
            horizon_reached,
            frontier_size,
        } = r
        else {
            panic!("expected BudgetExhausted, got {r:?}");
        };
        assert!(!r.is_solvable());
        assert!(horizon_reached < 6, "stopped at {horizon_reached}");
        assert!(frontier_size > 0);
        // Determinism: the same budget stops at the same point.
        assert_eq!(
            check(&classic::r1(), 6, &gamma(), opts, &mut NullRecorder),
            r
        );
    }

    #[test]
    fn budget_never_cuts_a_completed_check_short() {
        // A budget big enough for the run returns the real verdict —
        // the final frontier is never charged against further work.
        let full = solvable_by(&classic::s1(), 2, &gamma());
        let opts = budgeted(Budget::states(100_000));
        assert_eq!(
            check(&classic::s1(), 2, &gamma(), opts, &mut NullRecorder),
            full
        );
    }

    #[test]
    fn budgeted_horizon_sweep_surfaces_exhaustion() {
        let sweep = |scheme: &ClassicScheme, max_k, budget| {
            first_horizon(scheme, max_k, &gamma(), budgeted(budget), &mut NullRecorder)
        };
        // Unlimited budget reproduces the plain sweep.
        assert_eq!(
            sweep(&classic::c1(), 4, Budget::UNLIMITED),
            HorizonOutcome::Solvable(2)
        );
        assert_eq!(first_solvable_horizon(&classic::c1(), 4, &gamma()), Some(2));
        assert_eq!(
            sweep(&classic::r1(), 3, Budget::UNLIMITED),
            HorizonOutcome::UnsolvableWithin(3)
        );
        assert_eq!(first_solvable_horizon(&classic::r1(), 3, &gamma()), None);
        // A tiny cumulative budget dies mid-sweep and says where.
        let out = sweep(&classic::r1(), 6, Budget::states(40));
        let HorizonOutcome::BudgetExhausted {
            at_horizon,
            horizon_reached,
            frontier_size,
        } = out
        else {
            panic!("expected BudgetExhausted, got {out:?}");
        };
        assert!(at_horizon <= 6);
        assert!(horizon_reached < at_horizon || at_horizon == 0);
        assert!(frontier_size > 0);
    }

    #[test]
    fn exhaustion_emits_budget_exhausted_event() {
        use minobs_obs::{MemoryRecorder, TraceEvent};
        let mut rec = MemoryRecorder::new();
        let r = check(
            &classic::r1(),
            6,
            &gamma(),
            budgeted(Budget::states(50)),
            &mut rec,
        );
        let CheckResult::BudgetExhausted {
            horizon_reached,
            frontier_size,
        } = r
        else {
            panic!("expected BudgetExhausted");
        };
        let events: Vec<_> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::BudgetExhausted {
                    horizon,
                    frontier,
                    states,
                } => Some((*horizon, *frontier, *states)),
                _ => None,
            })
            .collect();
        assert_eq!(events.len(), 1);
        let (horizon, frontier, states) = events[0];
        assert_eq!(horizon, horizon_reached);
        assert_eq!(frontier, frontier_size);
        assert!(frontier <= states, "trace_lint invariant");
    }

    #[test]
    fn checker_emits_bracketed_spans_per_round() {
        use minobs_obs::{MemoryRecorder, TraceEvent};
        let k = 3;
        // C1 is solvable at 3 (no chain to extract); R1 is not.
        for (scheme, decide_children) in [
            (classic::c1(), &["checker_uf"][..]),
            (classic::r1(), &["checker_uf", "checker_chain"][..]),
        ] {
            let mut rec = MemoryRecorder::new();
            solvable_by_with_recorder(&scheme, k, &gamma(), &mut rec);

            let mut stack: Vec<u64> = Vec::new();
            let mut seen_ids = std::collections::BTreeSet::new();
            let mut names = Vec::new();
            for event in rec.events() {
                match event {
                    TraceEvent::SpanStart {
                        span_id,
                        parent,
                        name,
                        ..
                    } => {
                        assert!(seen_ids.insert(*span_id), "span ids must be unique");
                        assert_eq!(*parent, stack.last().copied(), "{name} names its parent");
                        stack.push(*span_id);
                        // Indent by depth so the list shows the nesting.
                        names.push(format!("{}{name}", "  ".repeat(stack.len() - 1)));
                    }
                    TraceEvent::SpanEnd { span_id, .. } => {
                        assert_eq!(stack.pop(), Some(*span_id), "spans must nest");
                    }
                    _ => {}
                }
            }
            assert!(stack.is_empty(), "all spans closed");
            let expected: Vec<String> = (0..k)
                .flat_map(|_| ["checker_expand".to_string(), "checker_dedup".to_string()])
                .chain(["checker_decide".to_string()])
                .chain(decide_children.iter().map(|name| format!("  {name}")))
                .collect();
            assert_eq!(names, expected, "{}", scheme.name());
        }
    }

    #[test]
    fn checker_progress_fires_at_every_stride_crossing() {
        use minobs_obs::{MemoryRecorder, TraceEvent};
        let mut rec = MemoryRecorder::new();
        solvable_by_with_recorder(&classic::r1(), 8, &gamma(), &mut rec);

        // Replay the frontier trajectory to predict the heartbeats.
        let mut cumulative = 4usize; // round-0 frontier: 4 input pairs
        let mut mark = cumulative / CHECKER_PROGRESS_STRIDE;
        let mut expected = Vec::new();
        for event in rec.events() {
            if let TraceEvent::CheckerRound {
                round, frontier, ..
            } = event
            {
                cumulative += frontier;
                if cumulative / CHECKER_PROGRESS_STRIDE > mark {
                    mark = cumulative / CHECKER_PROGRESS_STRIDE;
                    expected.push((*round, *frontier, cumulative));
                }
            }
        }
        let observed: Vec<(usize, usize, usize)> = rec
            .events()
            .iter()
            .filter_map(|event| match event {
                TraceEvent::CheckerProgress {
                    round,
                    frontier,
                    states,
                } => Some((*round, *frontier, *states)),
                _ => None,
            })
            .collect();
        assert_eq!(observed, expected);
        assert!(
            !observed.is_empty(),
            "an 8-round sweep must cross the progress stride at least once"
        );
    }
}

#ifndef ATENA_EVAL_METRICS_H_
#define ATENA_EVAL_METRICS_H_

#include <vector>

#include "eval/view_signature.h"

namespace atena {

/// The A-EDA metric suite (paper §6.3) comparing a generated notebook to a
/// set of gold-standard notebooks over the same dataset.
struct AedaScores {
  double precision = 0.0;
  double t_bleu_1 = 0.0;
  double t_bleu_2 = 0.0;
  double t_bleu_3 = 0.0;
  double eda_sim = 0.0;
};

/// Precision: the notebook as a *set* of distinct views; a view is a hit if
/// it occurs in any gold notebook (paper: hits / #views).
double ViewPrecision(const std::vector<ViewSignature>& candidate,
                     const std::vector<std::vector<ViewSignature>>& gold);

/// T-BLEU-n: BLEU [33] over view-signature tokens — clipped n-gram
/// precision against the gold set, geometric mean of orders 1..n, brevity
/// penalty against the closest gold length.
double TBleu(const std::vector<ViewSignature>& candidate,
             const std::vector<std::vector<ViewSignature>>& gold, int max_n);

/// Pruning accounting of one MaxEdaSim call (tests/bench).
struct EdaSimPruningStats {
  int references_total = 0;
  /// References whose full alignment DP actually ran.
  int references_evaluated = 0;
  /// References skipped because their upper bound could not beat the
  /// running best — the result is identical with or without them.
  int references_pruned = 0;
};

/// EDA-Sim [29]: order-aware similarity with fine-grained per-view partial
/// credit. Against one reference notebook it is the best global alignment
/// (Needleman-Wunsch with zero gap penalty) of the two view sequences under
/// ViewSimilarity, normalized by the longer sequence (1 when both are
/// empty, 0 when one is); the score is the max over the gold notebooks.
/// The max is sub-linear in practice: view signatures are interned so
/// pairwise ViewSimilarity values are computed once across all
/// references, each reference gets a cheap alignment upper bound
/// (Σ_i max_j sim(c_i, r_j) / max(n, m) — every candidate view aligns to
/// at most one reference view, so this dominates the DP's matched sum),
/// and references are evaluated best-bound-first, pruning any whose bound
/// cannot exceed the best alignment found so far. Pruned references
/// cannot change the max, so the returned score is identical to the
/// unpruned loop over every reference (test-enforced in tests/eval_test.cc
/// against the plain alignment in tests/support/reference_metrics.h).
double MaxEdaSim(const std::vector<ViewSignature>& candidate,
                 const std::vector<std::vector<ViewSignature>>& gold);
double MaxEdaSim(const std::vector<ViewSignature>& candidate,
                 const std::vector<std::vector<ViewSignature>>& gold,
                 EdaSimPruningStats* stats);

/// All five metrics at once.
AedaScores ComputeAedaScores(
    const std::vector<ViewSignature>& candidate,
    const std::vector<std::vector<ViewSignature>>& gold);

}  // namespace atena

#endif  // ATENA_EVAL_METRICS_H_

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
/// penalty against the closest gold length. Smoothed by Chen & Cherry
/// (2014) method 1 as NLTK computes it: an order with no clipped match
/// counts 0.1 matches over max(1, candidate n-grams); a candidate with no
/// matching unigram scores 0.
double TBleu(const std::vector<ViewSignature>& candidate,
             const std::vector<std::vector<ViewSignature>>& gold, int max_n);

/// EDA-Sim [29]: order-aware similarity with fine-grained per-view partial
/// credit. Against one reference notebook it is the best global alignment
/// (Needleman-Wunsch with zero gap penalty) of the two view sequences under
/// ViewSimilarity, normalized by the longer sequence (1 when both are
/// empty, 0 when one is); the score is the max over the gold notebooks.
/// View signatures are interned so each pairwise ViewSimilarity is
/// computed once across all references (test-enforced equal to the plain
/// alignment in tests/support/reference_metrics.h).
double MaxEdaSim(const std::vector<ViewSignature>& candidate,
                 const std::vector<std::vector<ViewSignature>>& gold);

/// All five metrics at once.
AedaScores ComputeAedaScores(
    const std::vector<ViewSignature>& candidate,
    const std::vector<std::vector<ViewSignature>>& gold);

}  // namespace atena

#endif  // ATENA_EVAL_METRICS_H_

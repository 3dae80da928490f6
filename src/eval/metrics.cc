#include "eval/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>

namespace atena {

namespace {

std::vector<std::string> Keys(const std::vector<ViewSignature>& views) {
  std::vector<std::string> keys;
  keys.reserve(views.size());
  for (const auto& v : views) keys.push_back(v.ToKey());
  return keys;
}

/// Modified n-gram precision of `candidate` against the references, with
/// reference-clipped counts (standard BLEU ingredient).
double ClippedNgramPrecision(const std::vector<std::string>& candidate,
                             const std::vector<std::vector<std::string>>& refs,
                             size_t n) {
  if (candidate.size() < n) return 0.0;
  std::map<std::vector<std::string>, int> cand_counts;
  for (size_t i = 0; i + n <= candidate.size(); ++i) {
    std::vector<std::string> gram(candidate.begin() + static_cast<long>(i),
                                  candidate.begin() + static_cast<long>(i + n));
    ++cand_counts[gram];
  }
  std::map<std::vector<std::string>, int> max_ref_counts;
  for (const auto& ref : refs) {
    std::map<std::vector<std::string>, int> counts;
    for (size_t i = 0; i + n <= ref.size(); ++i) {
      std::vector<std::string> gram(ref.begin() + static_cast<long>(i),
                                    ref.begin() + static_cast<long>(i + n));
      ++counts[gram];
    }
    for (const auto& [gram, c] : counts) {
      auto it = max_ref_counts.find(gram);
      if (it == max_ref_counts.end()) {
        max_ref_counts[gram] = c;
      } else {
        it->second = std::max(it->second, c);
      }
    }
  }
  int matched = 0, total = 0;
  for (const auto& [gram, c] : cand_counts) {
    total += c;
    auto it = max_ref_counts.find(gram);
    if (it != max_ref_counts.end()) matched += std::min(c, it->second);
  }
  return total == 0 ? 0.0
                    : static_cast<double>(matched) /
                          static_cast<double>(total);
}

}  // namespace

double ViewPrecision(const std::vector<ViewSignature>& candidate,
                     const std::vector<std::vector<ViewSignature>>& gold) {
  if (candidate.empty()) return 0.0;
  std::unordered_set<std::string> gold_keys;
  for (const auto& notebook : gold) {
    for (const auto& view : notebook) gold_keys.insert(view.ToKey());
  }
  // Distinct candidate views (the measure treats notebooks as sets).
  std::unordered_set<std::string> seen;
  int hits = 0, total = 0;
  for (const auto& view : candidate) {
    const std::string key = view.ToKey();
    if (!seen.insert(key).second) continue;
    ++total;
    if (gold_keys.count(key)) ++hits;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

double TBleu(const std::vector<ViewSignature>& candidate,
             const std::vector<std::vector<ViewSignature>>& gold, int max_n) {
  if (candidate.empty() || gold.empty() || max_n <= 0) return 0.0;
  std::vector<std::string> cand = Keys(candidate);
  std::vector<std::vector<std::string>> refs;
  refs.reserve(gold.size());
  for (const auto& notebook : gold) refs.push_back(Keys(notebook));

  // Geometric mean of smoothed clipped precisions (add-epsilon smoothing so
  // a single missing order does not zero the whole score, as is standard
  // for sentence-level BLEU).
  double log_sum = 0.0;
  for (int n = 1; n <= max_n; ++n) {
    double p = ClippedNgramPrecision(cand, refs, static_cast<size_t>(n));
    log_sum += std::log(std::max(p, 1e-9));
  }
  const double geo = std::exp(log_sum / max_n);

  // Brevity penalty against the closest reference length.
  size_t closest = refs.front().size();
  for (const auto& ref : refs) {
    if (std::llabs(static_cast<long long>(ref.size()) -
                   static_cast<long long>(cand.size())) <
        std::llabs(static_cast<long long>(closest) -
                   static_cast<long long>(cand.size()))) {
      closest = ref.size();
    }
  }
  double bp = 1.0;
  if (cand.size() < closest) {
    bp = std::exp(1.0 - static_cast<double>(closest) /
                            static_cast<double>(cand.size()));
  }
  return bp * geo;
}

namespace {

/// Interning table over view signatures: each distinct ToKey gets one id,
/// and pairwise ViewSimilarity values are memoized per unordered id pair.
/// ViewSimilarity is a pure function, so a memoized value is bit-identical
/// to recomputing it — gold sets share most of their views across
/// notebooks, which is what makes the cache pay.
class ViewSimTable {
 public:
  std::vector<int> Intern(const std::vector<ViewSignature>& views) {
    std::vector<int> ids;
    ids.reserve(views.size());
    for (const auto& view : views) {
      const auto [it, inserted] =
          id_by_key_.emplace(view.ToKey(), static_cast<int>(views_.size()));
      if (inserted) views_.push_back(&view);
      ids.push_back(it->second);
    }
    return ids;
  }

  double Sim(int a, int b) {
    const uint64_t key = (static_cast<uint64_t>(std::min(a, b)) << 32) |
                         static_cast<uint64_t>(std::max(a, b));
    const auto it = sims_.find(key);
    if (it != sims_.end()) return it->second;
    const double sim = ViewSimilarity(*views_[static_cast<size_t>(a)],
                                      *views_[static_cast<size_t>(b)]);
    sims_.emplace(key, sim);
    return sim;
  }

 private:
  std::unordered_map<std::string, int> id_by_key_;
  std::vector<const ViewSignature*> views_;  // one representative per id
  std::unordered_map<uint64_t, double> sims_;
};

/// EDA-Sim's alignment DP over interned ids with memoized similarities:
/// the heaviest monotone alignment, normalized by the longer sequence.
double AlignedSim(const std::vector<int>& candidate,
                  const std::vector<int>& reference, ViewSimTable* sims) {
  const size_t n = candidate.size(), m = reference.size();
  if (n == 0 || m == 0) return (n == m) ? 1.0 : 0.0;
  std::vector<std::vector<double>> dp(n + 1, std::vector<double>(m + 1, 0.0));
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      const double match =
          dp[i - 1][j - 1] + sims->Sim(candidate[i - 1], reference[j - 1]);
      dp[i][j] = std::max({match, dp[i - 1][j], dp[i][j - 1]});
    }
  }
  return dp[n][m] / static_cast<double>(std::max(n, m));
}

/// Margin the upper-bound comparison concedes to floating point: the
/// bound's sum and the DP's matched sum accumulate in different orders,
/// so their rounding can differ by ~1e-13 at these magnitudes (scores
/// live in [0, 1]); 1e-9 dominates that comfortably while pruning
/// essentially everything a tight bound would.
constexpr double kEdaSimBoundSlack = 1e-9;

}  // namespace

double MaxEdaSim(const std::vector<ViewSignature>& candidate,
                 const std::vector<std::vector<ViewSignature>>& gold) {
  return MaxEdaSim(candidate, gold, nullptr);
}

double MaxEdaSim(const std::vector<ViewSignature>& candidate,
                 const std::vector<std::vector<ViewSignature>>& gold,
                 EdaSimPruningStats* stats) {
  if (stats != nullptr) *stats = EdaSimPruningStats();
  if (gold.empty()) return 0.0;
  if (stats != nullptr) stats->references_total = static_cast<int>(gold.size());

  ViewSimTable sims;
  const std::vector<int> cand = sims.Intern(candidate);
  std::vector<std::vector<int>> refs;
  refs.reserve(gold.size());
  for (const auto& reference : gold) refs.push_back(sims.Intern(reference));

  // Upper bound per reference: in any monotone alignment each candidate
  // view matches at most one reference view, so the matched-sim sum is at
  // most Σ_i max_j sim(c_i, r_j); divide by the same max(n, m) as the DP.
  // Empty sequences take AlignedSim's exact special-case value as their
  // bound.
  std::vector<double> bounds(refs.size(), 0.0);
  for (size_t r = 0; r < refs.size(); ++r) {
    const std::vector<int>& ref = refs[r];
    if (cand.empty() || ref.empty()) {
      bounds[r] = (cand.size() == ref.size()) ? 1.0 : 0.0;
      continue;
    }
    double sum = 0.0;
    for (const int c : cand) {
      double best_sim = 0.0;
      for (const int v : ref) best_sim = std::max(best_sim, sims.Sim(c, v));
      sum += best_sim;
    }
    bounds[r] = sum / static_cast<double>(std::max(cand.size(), ref.size()));
  }

  // Best-bound-first: the strongest candidate reference is aligned first,
  // so the running best rises fast and prunes the tail. Ties keep input
  // order — evaluation order never affects the returned max anyway.
  std::vector<size_t> order(refs.size());
  for (size_t r = 0; r < refs.size(); ++r) order[r] = r;
  std::stable_sort(order.begin(), order.end(), [&bounds](size_t a, size_t b) {
    return bounds[a] > bounds[b];
  });

  double best = 0.0;
  for (const size_t r : order) {
    // A reference whose bound (plus the FP slack) cannot beat the running
    // best cannot change the max: AlignedSim(c, r) <= bound < best.
    if (bounds[r] + kEdaSimBoundSlack <= best) {
      if (stats != nullptr) ++stats->references_pruned;
      continue;
    }
    if (stats != nullptr) ++stats->references_evaluated;
    best = std::max(best, AlignedSim(cand, refs[r], &sims));
  }
  return best;
}

AedaScores ComputeAedaScores(
    const std::vector<ViewSignature>& candidate,
    const std::vector<std::vector<ViewSignature>>& gold) {
  AedaScores scores;
  scores.precision = ViewPrecision(candidate, gold);
  scores.t_bleu_1 = TBleu(candidate, gold, 1);
  scores.t_bleu_2 = TBleu(candidate, gold, 2);
  scores.t_bleu_3 = TBleu(candidate, gold, 3);
  scores.eda_sim = MaxEdaSim(candidate, gold);
  return scores;
}

}  // namespace atena

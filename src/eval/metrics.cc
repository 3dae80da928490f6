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

/// Clipped n-gram matches of `candidate` against the references: each
/// candidate n-gram counts at most as often as it occurs in one reference
/// (standard BLEU ingredient), over the candidate's n-gram total.
struct NgramMatches {
  int matched = 0;
  int total = 0;
};

NgramMatches ClippedNgramMatches(
    const std::vector<std::string>& candidate,
    const std::vector<std::vector<std::string>>& refs, size_t n) {
  NgramMatches m;
  if (candidate.size() < n) return m;
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
  for (const auto& [gram, c] : cand_counts) {
    m.total += c;
    auto it = max_ref_counts.find(gram);
    if (it != max_ref_counts.end()) m.matched += std::min(c, it->second);
  }
  return m;
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

  // Geometric mean of the clipped precisions, smoothed by Chen & Cherry
  // (2014) method 1 as NLTK's SmoothingFunction().method1 computes it: an
  // order with no clipped match counts kNoMatchEpsilon matches over
  // max(1, candidate n-grams). As in NLTK's sentence BLEU, a candidate
  // without a single matching unigram scores 0.
  constexpr double kNoMatchEpsilon = 0.1;
  double log_sum = 0.0;
  for (int n = 1; n <= max_n; ++n) {
    const NgramMatches m =
        ClippedNgramMatches(cand, refs, static_cast<size_t>(n));
    if (n == 1 && m.matched == 0) return 0.0;
    const double total = static_cast<double>(std::max(1, m.total));
    const double p = m.matched > 0 ? static_cast<double>(m.matched) / total
                                   : kNoMatchEpsilon / total;
    log_sum += std::log(p);
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

}  // namespace

double MaxEdaSim(const std::vector<ViewSignature>& candidate,
                 const std::vector<std::vector<ViewSignature>>& gold) {
  ViewSimTable sims;
  const std::vector<int> cand = sims.Intern(candidate);
  double best = 0.0;
  for (const auto& reference : gold) {
    best = std::max(best, AlignedSim(cand, sims.Intern(reference), &sims));
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

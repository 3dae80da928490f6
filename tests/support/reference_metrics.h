#ifndef ATENA_TESTS_SUPPORT_REFERENCE_METRICS_H_
#define ATENA_TESTS_SUPPORT_REFERENCE_METRICS_H_

#include <vector>

#include "eval/view_signature.h"

namespace atena {

/// EDA-Sim of one candidate against one reference notebook, the plain
/// alignment MaxEdaSim's memoized search must reproduce: the best
/// monotone alignment (Needleman-Wunsch with zero gap penalty) of the two
/// view sequences under ViewSimilarity, normalized by the longer sequence.
/// Two empty sequences score 1, one empty sequence 0. MaxEdaSim equals the
/// max of this over the gold notebooks, bit for bit; no library under src/
/// links it.
double EdaSim(const std::vector<ViewSignature>& candidate,
              const std::vector<ViewSignature>& reference);

}  // namespace atena

#endif  // ATENA_TESTS_SUPPORT_REFERENCE_METRICS_H_

#include "tglink/similarity/numeric.h"

#include <cassert>
#include <cmath>

namespace tglink {

namespace {

/// 1 at equality, falling linearly to 0 at |a-b| >= max_diff (> 0).
double LinearDecay(double a, double b, double max_diff) {
  assert(max_diff > 0.0);
  const double diff = std::fabs(a - b);
  if (diff >= max_diff) return 0.0;
  return 1.0 - diff / max_diff;
}

}  // namespace

double AgeDiffSimilarity(int diff_old, int diff_new, int tolerance) {
  // Tolerance t means: a deviation of t+1 or more scores 0, so a deviation
  // of exactly t still scores > 0 (it is "within tolerance").
  return LinearDecay(diff_old, diff_new, static_cast<double>(tolerance + 1));
}

double TemporalAgeSimilarity(int age_old, int age_new, int year_gap,
                             int tolerance) {
  return LinearDecay(age_old + year_gap, age_new,
                     static_cast<double>(tolerance + 1));
}

}  // namespace tglink

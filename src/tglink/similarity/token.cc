#include "tglink/similarity/token.h"

#include <algorithm>
#include <string>
#include <vector>

#include "tglink/similarity/batch_kernels.h"
#include "tglink/util/strings.h"

namespace tglink {

namespace {
double DirectedMongeElkan(const std::vector<std::string>& from,
                          const std::vector<std::string>& to,
                          const CharSimilarityFn& inner) {
  double sum = 0.0;
  for (const std::string& f : from) {
    double best = 0.0;
    for (const std::string& t : to) best = std::max(best, inner(f, t));
    sum += best;
  }
  return sum / static_cast<double>(from.size());
}
}  // namespace

double MongeElkanSimilarity(std::string_view a, std::string_view b,
                            const CharSimilarityFn& inner) {
  const std::vector<std::string> ta = SplitWhitespace(a);
  const std::vector<std::string> tb = SplitWhitespace(b);
  if (ta.empty() && tb.empty()) return 1.0;
  if (ta.empty() || tb.empty()) return 0.0;
  return 0.5 * (DirectedMongeElkan(ta, tb, inner) +
                DirectedMongeElkan(tb, ta, inner));
}

double MongeElkanJaroWinkler(std::string_view a, std::string_view b) {
  return MongeElkanSimilarity(a, b, [](std::string_view x, std::string_view y) {
    return simkernel::JaroWinklerKernel(simkernel::MakeRef(x),
                                        simkernel::MakeRef(y), 0.0);
  });
}

}  // namespace tglink

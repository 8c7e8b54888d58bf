// Numeric similarities: linear decay over age deviations, for the temporal
// age component of a record pair and for the edge-property similarity over
// age differences used by subgraph matching (Section 3.3 of the paper).

#ifndef TGLINK_SIMILARITY_NUMERIC_H_
#define TGLINK_SIMILARITY_NUMERIC_H_

namespace tglink {

/// Similarity between two *age differences* (an edge property that is stable
/// over time for a pair of persons). The paper accepts edges whose age
/// differences agree within a small tolerance; we expose the underlying
/// linear-decay value so that edge similarity (Eq. 6) can aggregate it.
/// Defaults to tolerance 3 years (the paper filters record pairs whose
/// normalized age difference exceeds 3 years).
[[nodiscard]] double AgeDiffSimilarity(int diff_old, int diff_new, int tolerance = 3);

/// Similarity of two ages observed `year_gap` years apart: a person aged a1
/// in census t should be about a1 + year_gap in census t+1. Linear decay
/// with the given tolerance around the expected value.
[[nodiscard]] double TemporalAgeSimilarity(int age_old, int age_new, int year_gap,
                             int tolerance = 3);

}  // namespace tglink

#endif  // TGLINK_SIMILARITY_NUMERIC_H_

// Soundex, the phonetic code used as a blocking key and by the soundex
// measure: two names that sound alike get the same code even when spelled differently ("smith"/"smyth" -> S530),
// which is exactly the property blocking needs so that transcription noise
// does not separate true matches into different blocks.

#ifndef TGLINK_SIMILARITY_PHONETIC_H_
#define TGLINK_SIMILARITY_PHONETIC_H_

#include <string>
#include <string_view>

namespace tglink {

/// American Soundex: first letter + 3 digits (e.g. "ashworth" -> "A263").
/// Non-alphabetic characters are ignored; an empty / all-symbol input yields
/// the empty string.
[[nodiscard]] std::string Soundex(std::string_view name);

}  // namespace tglink

#endif  // TGLINK_SIMILARITY_PHONETIC_H_

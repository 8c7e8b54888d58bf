// Blocking key functions: map a record to a short string key; only records
// sharing a key in some pass are compared. Keys are built from phonetic
// codes so that transcription noise rarely separates a true match.

#ifndef TGLINK_BLOCKING_BLOCK_KEY_H_
#define TGLINK_BLOCKING_BLOCK_KEY_H_

#include <functional>
#include <string>

#include "tglink/census/record.h"

namespace tglink {

/// Returns the blocking key for a record; an empty key means "exclude this
/// record from the pass" (records with both name fields missing would
/// otherwise congregate in one giant junk block).
using BlockKeyFn = std::function<std::string(const PersonRecord&)>;

/// Soundex(surname) + first letter of the first name.
[[nodiscard]] BlockKeyFn SoundexSurnameFirstInitial();

/// Soundex(first name) + first letter of the surname.
[[nodiscard]] BlockKeyFn SoundexFirstNameSurnameInitial();

/// Soundex(first name) + sex. Surname-independent: the pass that keeps
/// married women (whose surname changed entirely between censuses) in a
/// shared block with their earlier record.
[[nodiscard]] BlockKeyFn SoundexFirstNameSex();

}  // namespace tglink

#endif  // TGLINK_BLOCKING_BLOCK_KEY_H_

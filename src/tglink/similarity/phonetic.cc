#include "tglink/similarity/phonetic.h"

namespace tglink {

namespace {

/// Soundex digit for a letter, or '0' for vowels/ignored letters.
char SoundexDigit(char c) {
  switch (c) {
    case 'b':
    case 'f':
    case 'p':
    case 'v':
      return '1';
    case 'c':
    case 'g':
    case 'j':
    case 'k':
    case 'q':
    case 's':
    case 'x':
    case 'z':
      return '2';
    case 'd':
    case 't':
      return '3';
    case 'l':
      return '4';
    case 'm':
    case 'n':
      return '5';
    case 'r':
      return '6';
    default:
      return '0';
  }
}

std::string LettersOnlyLower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c >= 'a' && c <= 'z') out.push_back(c);
    else if (c >= 'A' && c <= 'Z') out.push_back(static_cast<char>(c - 'A' + 'a'));
  }
  return out;
}

}  // namespace

std::string Soundex(std::string_view name) {
  const std::string letters = LettersOnlyLower(name);
  if (letters.empty()) return "";
  std::string code;
  code.push_back(static_cast<char>(letters[0] - 'a' + 'A'));
  char prev_digit = SoundexDigit(letters[0]);
  for (size_t i = 1; i < letters.size() && code.size() < 4; ++i) {
    const char c = letters[i];
    const char digit = SoundexDigit(c);
    // 'h' and 'w' are transparent: they do not reset the previous digit.
    if (c == 'h' || c == 'w') continue;
    if (digit != '0' && digit != prev_digit) code.push_back(digit);
    prev_digit = digit;
  }
  while (code.size() < 4) code.push_back('0');
  return code;
}

}  // namespace tglink

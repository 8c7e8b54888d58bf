#include "tglink/blocking/block_key.h"

#include "tglink/similarity/phonetic.h"

namespace tglink {

BlockKeyFn SoundexSurnameFirstInitial() {
  return [](const PersonRecord& r) -> std::string {
    if (r.surname.empty()) return "";
    std::string key = Soundex(r.surname);
    if (!r.first_name.empty()) key.push_back(r.first_name[0]);
    return key;
  };
}

BlockKeyFn SoundexFirstNameSurnameInitial() {
  return [](const PersonRecord& r) -> std::string {
    if (r.first_name.empty()) return "";
    std::string key = Soundex(r.first_name);
    if (!r.surname.empty()) key.push_back(r.surname[0]);
    return key;
  };
}

BlockKeyFn SoundexFirstNameSex() {
  return [](const PersonRecord& r) -> std::string {
    if (r.first_name.empty() || r.sex == Sex::kUnknown) return "";
    return Soundex(r.first_name) + "|" + SexName(r.sex);
  };
}

}  // namespace tglink

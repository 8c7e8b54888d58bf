// PersonRecord: one row of a census snapshot. Identifiers are dense
// uint32_t indices into the owning CensusDataset's vectors, so downstream
// algorithms use flat arrays instead of hash maps on the hot path; the
// human-readable external id (e.g. "1871_3") is kept for I/O and debugging.

#ifndef TGLINK_CENSUS_RECORD_H_
#define TGLINK_CENSUS_RECORD_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "tglink/census/roles.h"

namespace tglink {

using RecordId = uint32_t;
using GroupId = uint32_t;

inline constexpr RecordId kInvalidRecord =
    std::numeric_limits<RecordId>::max();
inline constexpr GroupId kInvalidGroup = std::numeric_limits<GroupId>::max();

/// A single person entry in one census snapshot. String attributes are
/// stored in normalized form (lower-case, punctuation stripped; see
/// NormalizeValue); missing values are empty strings / age -1.
struct PersonRecord {
  std::string external_id;
  std::string first_name;
  std::string surname;
  std::string address;
  std::string occupation;
  Sex sex = Sex::kUnknown;
  int age = -1;  // -1 = missing
  Role role = Role::kUnknown;
  GroupId group = kInvalidGroup;

  bool has_age() const { return age >= 0; }

  /// "first_name surname" for diagnostics.
  std::string DisplayName() const;
};

/// The record attributes a similarity function can address.
enum class Field : uint8_t {
  kFirstName,
  kSurname,
  kSex,
  kAddress,
  kOccupation,
  kAge,
};

const char* FieldName(Field field);

/// The string value of a (string-typed) field; Sex is rendered "m"/"f"/"";
/// Age is rendered as decimal or "" when missing.
std::string GetFieldValue(const PersonRecord& record, Field field);

/// GetFieldValue without the copy; empty for Age, which stores no string.
std::string_view GetStringFieldView(const PersonRecord& record, Field field);

/// True when the field value is missing on this record.
bool IsFieldMissing(const PersonRecord& record, Field field);

}  // namespace tglink

#endif  // TGLINK_CENSUS_RECORD_H_

#include "tglink/census/record.h"

namespace tglink {

std::string PersonRecord::DisplayName() const {
  if (first_name.empty()) return surname;
  if (surname.empty()) return first_name;
  return first_name + " " + surname;
}

const char* FieldName(Field field) {
  switch (field) {
    case Field::kFirstName:
      return "first_name";
    case Field::kSurname:
      return "surname";
    case Field::kSex:
      return "sex";
    case Field::kAddress:
      return "address";
    case Field::kOccupation:
      return "occupation";
    case Field::kAge:
      return "age";
  }
  return "?";
}

std::string GetFieldValue(const PersonRecord& record, Field field) {
  if (field == Field::kAge) {
    return record.has_age() ? std::to_string(record.age) : std::string();
  }
  return std::string(GetStringFieldView(record, field));
}

std::string_view GetStringFieldView(const PersonRecord& record, Field field) {
  switch (field) {
    case Field::kFirstName:
      return record.first_name;
    case Field::kSurname:
      return record.surname;
    case Field::kSex:
      return SexName(record.sex);
    case Field::kAddress:
      return record.address;
    case Field::kOccupation:
      return record.occupation;
    case Field::kAge:
      break;
  }
  return {};
}

bool IsFieldMissing(const PersonRecord& record, Field field) {
  switch (field) {
    case Field::kFirstName:
      return record.first_name.empty();
    case Field::kSurname:
      return record.surname.empty();
    case Field::kSex:
      return record.sex == Sex::kUnknown;
    case Field::kAddress:
      return record.address.empty();
    case Field::kOccupation:
      return record.occupation.empty();
    case Field::kAge:
      return !record.has_age();
  }
  return true;
}

}  // namespace tglink

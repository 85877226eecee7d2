// Small hand-built tables for the multi-attribute binning suites.
//
// Two quasi-identifying columns (age, role) mirroring the paper's example
// of attributes that are each k-anonymous alone but not in combination.

#ifndef PRIVMARK_TESTS_TESTING_MULTI_ATTRIBUTE_FIXTURES_H_
#define PRIVMARK_TESTS_TESTING_MULTI_ATTRIBUTE_FIXTURES_H_

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "hierarchy/domain_hierarchy.h"
#include "relation/schema.h"
#include "relation/table.h"

namespace privmark {

inline DomainHierarchy AgeTree() {
  return BuildNumericHierarchy("age", {0, 25, 50, 75, 100}).ValueOrDie();
}

// Ten decade-wide age leaves: wide enough that enumeration explodes.
inline DomainHierarchy DecadeAgeTree() {
  return BuildNumericHierarchy(
             "age", {0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
      .ValueOrDie();
}

inline DomainHierarchy RoleTree() {
  return HierarchyBuilder::FromOutline("role", R"(Person
  Doctor
  Nurse)").ValueOrDie();
}

inline Schema TwoQiSchema() {
  Schema schema;
  EXPECT_TRUE(schema.AddColumn({"id", ColumnRole::kIdentifying,
                                ValueType::kString}).ok());
  EXPECT_TRUE(schema.AddColumn({"age", ColumnRole::kQuasiNumeric,
                                ValueType::kInt64}).ok());
  EXPECT_TRUE(schema.AddColumn({"role", ColumnRole::kQuasiCategorical,
                                ValueType::kString}).ok());
  return schema;
}

// Quasi-identifying columns are {1, 2}: age, role.
inline Table MakeTable(const std::vector<std::pair<int, std::string>>& rows) {
  Table t(TwoQiSchema());
  int id = 0;
  for (const auto& [age, role] : rows) {
    EXPECT_TRUE(t.AppendRow({Value::String("id" + std::to_string(id++)),
                             Value::Int64(age), Value::String(role)}).ok());
  }
  return t;
}

// A table where each attribute alone is 4-anonymous but the combination is
// not: 4 young doctors + 4 old nurses + ... crossing cells of size 2.
inline Table CrossedTable() {
  std::vector<std::pair<int, std::string>> rows;
  for (int i = 0; i < 2; ++i) rows.push_back({10, "Doctor"});
  for (int i = 0; i < 2; ++i) rows.push_back({10, "Nurse"});
  for (int i = 0; i < 2; ++i) rows.push_back({60, "Doctor"});
  for (int i = 0; i < 2; ++i) rows.push_back({60, "Nurse"});
  return MakeTable(rows);
}

// Over DecadeAgeTree: three doctors and one nurse in every decade.
inline Table WiderTable() {
  std::vector<std::pair<int, std::string>> rows;
  for (int a = 5; a < 100; a += 10) {
    for (int i = 0; i < 3; ++i) rows.push_back({a, "Doctor"});
    rows.push_back({a, "Nurse"});
  }
  return MakeTable(rows);
}

}  // namespace privmark

#endif  // PRIVMARK_TESTS_TESTING_MULTI_ATTRIBUTE_FIXTURES_H_

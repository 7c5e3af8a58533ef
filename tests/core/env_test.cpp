/// \file env_test.cpp
/// \brief Strict environment parsing (pml::env): garbage and negative
/// values must fail loudly with the variable's name, never silently map
/// to 0 the way atol/strtoull did.

#include "core/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "core/error.hpp"

namespace pml::env {
namespace {

TEST(EnvParse, AcceptsPlainDecimalDigits) {
  EXPECT_EQ(parse_u64("X", "0"), 0u);
  EXPECT_EQ(parse_u64("X", "123"), 123u);
  EXPECT_EQ(parse_u64("X", "007"), 7u);
  EXPECT_EQ(parse_u64("X", "18446744073709551615"), UINT64_MAX);
}

TEST(EnvParse, RejectsEverythingElse) {
  EXPECT_THROW(parse_u64("X", ""), UsageError);
  EXPECT_THROW(parse_u64("X", "abc"), UsageError);
  EXPECT_THROW(parse_u64("X", "12abc"), UsageError);
  EXPECT_THROW(parse_u64("X", " 12"), UsageError);
  EXPECT_THROW(parse_u64("X", "12 "), UsageError);
  EXPECT_THROW(parse_u64("X", "-5"), UsageError);
  EXPECT_THROW(parse_u64("X", "+5"), UsageError);
  EXPECT_THROW(parse_u64("X", "0x10"), UsageError);
  EXPECT_THROW(parse_u64("X", "1e3"), UsageError);
  EXPECT_THROW(parse_u64("X", "18446744073709551616"), UsageError);  // 2^64
  EXPECT_THROW(parse_u64("X", "99999999999999999999999"), UsageError);
}

TEST(EnvParse, ErrorNamesTheVariableAndTheValue) {
  try {
    parse_u64("PML_MP_EAGER_BYTES", "abc");
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("PML_MP_EAGER_BYTES"), std::string::npos) << what;
    EXPECT_NE(what.find("abc"), std::string::npos) << what;
  }
}

TEST(EnvParse, KnobReadsTheProcessEnvironment) {
  constexpr Knob<std::uint64_t> knob{{"PML_TEST_ENV_U64", "a test knob"}, &parse_u64};
  ASSERT_EQ(::setenv("PML_TEST_ENV_U64", "42", 1), 0);
  EXPECT_EQ(knob.resolve(std::nullopt, 7), 42u);
  EXPECT_EQ(knob.resolve(3, 7), 3u);  // a given value wins over the variable

  ASSERT_EQ(::setenv("PML_TEST_ENV_U64", "-1", 1), 0);
  EXPECT_THROW(knob.resolve(std::nullopt, 7), UsageError);

  ASSERT_EQ(::setenv("PML_TEST_ENV_U64", "", 1), 0);
  EXPECT_THROW(knob.resolve(std::nullopt, 7), UsageError);

  ASSERT_EQ(::unsetenv("PML_TEST_ENV_U64"), 0);
  EXPECT_EQ(knob.resolve(std::nullopt, 7), 7u);
}

}  // namespace
}  // namespace pml::env

// Unit tests for the common module: Status/Result, Value, Rng.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"

namespace smoothscan {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing page");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing page");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing page");
}

TEST(StatusTest, FactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::Internal("boom"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ValueTest, Int64RoundTrip) {
  const Value v = Value::Int64(-17);
  EXPECT_EQ(v.type(), ValueType::kInt64);
  EXPECT_EQ(v.AsInt64(), -17);
}

TEST(ValueTest, DoubleRoundTrip) {
  const Value v = Value::Double(3.25);
  EXPECT_EQ(v.type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(v.AsDouble(), 3.25);
}

TEST(ValueTest, StringRoundTrip) {
  const Value v = Value::String("hello");
  EXPECT_EQ(v.type(), ValueType::kString);
  EXPECT_EQ(v.AsString(), "hello");
}

TEST(ValueTest, SetStringReusesBufferAcrossTypeChanges) {
  Value v = Value::Int64(3);
  const std::string long_text(40, 'x');
  v.SetString(long_text.data(), long_text.size());
  EXPECT_EQ(v.type(), ValueType::kString);
  EXPECT_EQ(v.AsString(), long_text);
  const char* buffer = v.AsString().data();
  v.SetString("short", 5);  // Fits: the same buffer is reused.
  EXPECT_EQ(v.AsString(), "short");
  EXPECT_EQ(v.AsString().data(), buffer);
  v.SetDouble(2.5);  // Releases the string.
  EXPECT_EQ(v.type(), ValueType::kDouble);
  v.SetString("", 0);
  EXPECT_EQ(v, Value::String(""));
}

TEST(ValueTest, DateComparesAsInt) {
  const Value a = Value::Date(100);
  const Value b = Value::Date(200);
  EXPECT_LT(a.Compare(b), 0);
  EXPECT_GT(b.Compare(a), 0);
  EXPECT_EQ(a.Compare(a), 0);
}

TEST(ValueTest, ComparisonWithinTypes) {
  EXPECT_TRUE(Value::Int64(1) < Value::Int64(2));
  EXPECT_TRUE(Value::Double(1.5) < Value::Double(2.5));
  EXPECT_TRUE(Value::String("a") < Value::String("b"));
  EXPECT_EQ(Value::Int64(7), Value::Int64(7));
}

TEST(TidTest, OrderingIsPageThenSlot) {
  EXPECT_LT((Tid{1, 5}), (Tid{2, 0}));
  EXPECT_LT((Tid{1, 5}), (Tid{1, 6}));
  EXPECT_EQ((Tid{3, 4}), (Tid{3, 4}));
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differences = 0;
  for (int i = 0; i < 10; ++i) differences += a.Next() != b.Next();
  EXPECT_GT(differences, 0);
}

TEST(RngTest, UniformIntStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(9);
  bool seen[4] = {false, false, false, false};
  for (int i = 0; i < 1000; ++i) seen[rng.UniformInt(0, 3)] = true;
  EXPECT_TRUE(seen[0] && seen[1] && seen[2] && seen[3]);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformDoubleMeanIsCentered) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.UniformDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, AlphaStringShapeAndDeterminism) {
  Rng a(21), b(21);
  const std::string s = a.AlphaString(32);
  EXPECT_EQ(s.size(), 32u);
  for (char c : s) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
  EXPECT_EQ(s, b.AlphaString(32));
}

}  // namespace
}  // namespace smoothscan

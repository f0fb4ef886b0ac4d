// Unit tests for the common module: Status/Result, Value, Rng, TupleBatch
// and the checked text parsers.

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/parse.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/tuple_batch.h"
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


// ---------------------------------------------------------------- TupleBatch

/// Appends rows {first}, {first + 1}, ... to `b`, each slot warmed to hold
/// `width` values (only column 0 is compared).
void FillRows(TupleBatch* b, size_t n, int64_t first, size_t width = 1) {
  for (size_t i = 0; i < n; ++i) {
    Tuple* t = b->AppendSlot();
    t->assign(width, Value::Int64(0));
    (*t)[0] = Value::Int64(first + static_cast<int64_t>(i));
  }
}

std::vector<int64_t> Col0(const TupleBatch& b) {
  std::vector<int64_t> keys;
  for (size_t i = 0; i < b.size(); ++i) keys.push_back(b.row(i)[0].AsInt64());
  return keys;
}

TEST(TupleBatchTest, TakeFromSwapsWholeBatchesOfEqualCapacity) {
  TupleBatch dst(8), src(8);
  FillRows(&dst, 8, 100, /*width=*/3);  // Warm dst's slots, then empty it.
  dst.Clear();
  FillRows(&src, 5, 0);
  Tuple* const dst_rows = dst.fill_rows();
  Tuple* const src_rows = src.fill_rows();
  size_t pos = 0;
  EXPECT_TRUE(dst.TakeFrom(&src, &pos));
  EXPECT_EQ(Col0(dst), (std::vector<int64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(pos, src.size());  // Spent: src is empty.
  EXPECT_TRUE(src.empty());
  // Buffers, not rows, changed hands: src now holds dst's warm storage.
  EXPECT_EQ(dst.fill_rows(), src_rows);
  EXPECT_EQ(src.fill_rows(), dst_rows);
  EXPECT_GE(src.fill_rows()[0].capacity(), 3u);
}

TEST(TupleBatchTest, TakeFromSwapsRowsWhenCapacitiesDiffer) {
  TupleBatch dst(4), src(8);
  FillRows(&dst, 4, 100, /*width=*/3);
  const Value* const warm = dst.row(0).data();
  dst.Clear();
  FillRows(&src, 6, 0);
  size_t pos = 0;
  EXPECT_FALSE(dst.TakeFrom(&src, &pos));
  EXPECT_EQ(Col0(dst), (std::vector<int64_t>{0, 1, 2, 3}));
  EXPECT_EQ(pos, 4u);
  EXPECT_EQ(src.size(), 6u);  // Not spent: two rows left.
  // Swapped slot by slot: src's taken slots hold dst's warm tuples.
  EXPECT_EQ(src.row(0).data(), warm);
  EXPECT_GE(src.row(0).capacity(), 3u);
  dst.Clear();
  EXPECT_FALSE(dst.TakeFrom(&src, &pos));
  EXPECT_EQ(Col0(dst), (std::vector<int64_t>{4, 5}));
  EXPECT_EQ(pos, src.size());
}

TEST(TupleBatchTest, TakeFromAPartlyTakenSourceSwapsRows) {
  TupleBatch dst(8), src(8);
  FillRows(&dst, 3, 100, /*width=*/3);
  const Value* const warm = dst.row(0).data();
  dst.Clear();
  FillRows(&src, 5, 0);
  Tuple* const dst_rows = dst.fill_rows();
  size_t pos = 2;  // Rows 0 and 1 already handed on.
  EXPECT_FALSE(dst.TakeFrom(&src, &pos));
  EXPECT_EQ(Col0(dst), (std::vector<int64_t>{2, 3, 4}));
  EXPECT_EQ(pos, src.size());
  EXPECT_EQ(dst.fill_rows(), dst_rows);  // No buffer swap.
  EXPECT_EQ(src.row(2).data(), warm);
}

TEST(TupleBatchTest, TakeFromFillsANonEmptyTargetRowByRow) {
  TupleBatch dst(8), src(8);
  FillRows(&dst, 2, 100);
  FillRows(&src, 8, 0);
  size_t pos = 0;
  EXPECT_FALSE(dst.TakeFrom(&src, &pos));
  EXPECT_EQ(Col0(dst), (std::vector<int64_t>{100, 101, 0, 1, 2, 3, 4, 5}));
  EXPECT_TRUE(dst.full());
  EXPECT_EQ(pos, 6u);
}

TEST(TupleBatchTest, FilterKeepsSurvivorsInOrderAndDroppedStorageWarm) {
  TupleBatch b(8);
  FillRows(&b, 8, 0, /*width=*/2);
  b.Filter([](const Tuple& t) { return t[0].AsInt64() % 3 != 0; });
  EXPECT_EQ(Col0(b), (std::vector<int64_t>{1, 2, 4, 5, 7}));
  b.Filter([](const Tuple& t) { return t[0].AsInt64() > 2; });
  EXPECT_EQ(Col0(b), (std::vector<int64_t>{4, 5, 7}));
  // Every slot, live or dropped, still holds its two warm values.
  for (size_t i = 0; i < b.capacity(); ++i) {
    EXPECT_GE(b.fill_rows()[i].capacity(), 2u) << i;
  }
}

// ------------------------------------------------------------ Text parsing

TEST(TextParseTest, AcceptsInRangeDecimalText) {
  int64_t i = 0;
  EXPECT_TRUE(ParseInteger("-9223372036854775808", &i));
  EXPECT_EQ(i, std::numeric_limits<int64_t>::min());
  uint64_t u = 0;
  EXPECT_TRUE(ParseInteger("18446744073709551615", &u));
  EXPECT_EQ(u, std::numeric_limits<uint64_t>::max());
  int n = 0;
  EXPECT_TRUE(ParseInteger("2147483647", &n));
  EXPECT_EQ(n, 2147483647);
}

TEST(TextParseTest, RejectsOutOfRangeAndMalformedText) {
  int n = 7;
  for (const char* bad : {"", "4294967297", "2147483648", "1x", " 1", "+1",
                          "-", "0x10"}) {
    EXPECT_FALSE(ParseInteger(bad, &n)) << bad;
    EXPECT_EQ(n, 7) << bad;  // Untouched on failure.
  }
  uint64_t u = 7;
  EXPECT_FALSE(ParseInteger("-1", &u));
  EXPECT_FALSE(ParseInteger("18446744073709551616", &u));
  EXPECT_EQ(u, 7u);
}

TEST(TextParseTest, EqualsIgnoreCaseComparesAsciiLetters) {
  EXPECT_TRUE(EqualsIgnoreCase("Window", "WINDOW"));
  EXPECT_FALSE(EqualsIgnoreCase("WINDOW", "WINDOWS"));
  EXPECT_FALSE(EqualsIgnoreCase("lane", "lame"));
}

}  // namespace
}  // namespace smoothscan

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <thread>
#include <utility>

#include "common/file_io.h"
#include "common/random.h"
#include "dataframe/csv.h"
#include "dataframe/ops.h"
#include "dataframe/stats.h"
#include "dataframe/table.h"
#include "support/reference_ops.h"

namespace atena {
namespace {

/// A small mixed-type fixture table:
///   city (string), population (int, one null), area (double).
TablePtr MakeCityTable() {
  TableBuilder b("cities");
  b.AddColumn("city", DataType::kString);
  b.AddColumn("population", DataType::kInt64);
  b.AddColumn("area", DataType::kFloat64);
  EXPECT_TRUE(b.AppendRow({Value(std::string("berlin")), Value(int64_t{3600}),
                           Value(891.0)}).ok());
  EXPECT_TRUE(b.AppendRow({Value(std::string("paris")), Value(int64_t{2100}),
                           Value(105.0)}).ok());
  EXPECT_TRUE(b.AppendRow({Value(std::string("berlin")), Value::Null(),
                           Value(890.0)}).ok());
  EXPECT_TRUE(b.AppendRow({Value(std::string("rome")), Value(int64_t{2800}),
                           Value(1285.0)}).ok());
  EXPECT_TRUE(b.AppendRow({Value(std::string("madrid")), Value(int64_t{3200}),
                           Value(604.0)}).ok());
  auto t = b.Finish();
  EXPECT_TRUE(t.ok());
  return t.value();
}

// ---------------------------------------------------------------- Value

TEST(ValueTest, TypePredicatesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  Value i(int64_t{5});
  EXPECT_TRUE(i.is_int());
  EXPECT_EQ(i.as_int(), 5);
  Value d(2.5);
  EXPECT_TRUE(d.is_double());
  Value s(std::string("x"));
  EXPECT_TRUE(s.is_string());
  double out = 0;
  EXPECT_TRUE(i.ToDouble(&out));
  EXPECT_DOUBLE_EQ(out, 5.0);
  EXPECT_FALSE(s.ToDouble(&out));
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "null");
  EXPECT_EQ(Value(int64_t{7}).ToString(), "7");
  EXPECT_EQ(Value(2.50).ToString(), "2.5");
  EXPECT_EQ(Value(std::string("hi")).ToString(), "hi");
}

TEST(ValueTest, ValueLessOrdering) {
  EXPECT_TRUE(ValueLess(Value::Null(), Value(int64_t{0})));
  EXPECT_TRUE(ValueLess(Value(int64_t{1}), Value(2.5)));
  EXPECT_TRUE(ValueLess(Value(9.0), Value(std::string("a"))));
  EXPECT_TRUE(ValueLess(Value(std::string("a")), Value(std::string("b"))));
  EXPECT_FALSE(ValueLess(Value(std::string("b")), Value(std::string("a"))));
}

// --------------------------------------------------------------- Column

TEST(ColumnTest, BuilderTypeChecking) {
  ColumnBuilder b("x", DataType::kInt64);
  EXPECT_TRUE(b.AppendInt(1).ok());
  EXPECT_FALSE(b.AppendDouble(1.0).ok());
  EXPECT_FALSE(b.AppendString("a").ok());
}

TEST(ColumnTest, IntWidensIntoFloatColumn) {
  ColumnBuilder b("x", DataType::kFloat64);
  EXPECT_TRUE(b.AppendInt(3).ok());
  auto col = b.Finish();
  EXPECT_DOUBLE_EQ(col->GetDouble(0), 3.0);
}

TEST(ColumnTest, DictionaryEncoding) {
  ColumnBuilder b("s", DataType::kString);
  ASSERT_TRUE(b.AppendString("a").ok());
  ASSERT_TRUE(b.AppendString("b").ok());
  ASSERT_TRUE(b.AppendString("a").ok());
  auto col = b.Finish();
  EXPECT_EQ(col->dictionary_size(), 2);
  EXPECT_EQ(col->GetCode(0), col->GetCode(2));
  EXPECT_NE(col->GetCode(0), col->GetCode(1));
  EXPECT_EQ(col->FindCode("b"), col->GetCode(1));
  EXPECT_EQ(col->FindCode("zzz"), -1);
}

TEST(ColumnTest, NullTracking) {
  ColumnBuilder b("x", DataType::kInt64);
  ASSERT_TRUE(b.AppendInt(1).ok());
  b.AppendNull();
  ASSERT_TRUE(b.AppendInt(3).ok());
  auto col = b.Finish();
  EXPECT_EQ(col->null_count(), 1);
  EXPECT_FALSE(col->IsNull(0));
  EXPECT_TRUE(col->IsNull(1));
  EXPECT_TRUE(col->GetValue(1).is_null());
  EXPECT_TRUE(std::isnan(col->AsDoubleOrNan(1)));
}

TEST(ColumnTest, CellKeyEqualityMatchesValueEquality) {
  ColumnBuilder b("s", DataType::kString);
  ASSERT_TRUE(b.AppendString("x").ok());
  ASSERT_TRUE(b.AppendString("y").ok());
  ASSERT_TRUE(b.AppendString("x").ok());
  b.AppendNull();
  auto col = b.Finish();
  EXPECT_EQ(col->CellKey(0), col->CellKey(2));
  EXPECT_NE(col->CellKey(0), col->CellKey(1));
  EXPECT_NE(col->CellKey(3), col->CellKey(0));
}

/// Codes of a finished column against its cells: every non-null cell's
/// code maps back to the cell's key (CodeKey), every code is some non-null
/// cell's, CodeRank and CodeAtRank are inverse, and on an order-coded
/// column ascending ranks are strictly ascending values under ValueLess.
void ExpectCodesMatchCells(const Column& col) {
  std::vector<bool> seen(static_cast<size_t>(col.num_codes()), false);
  for (int64_t r = 0; r < col.length(); ++r) {
    if (col.IsNull(r)) continue;
    const int32_t code = col.GetCode(r);
    ASSERT_GE(code, 0) << "row " << r;
    ASSERT_LT(code, col.num_codes()) << "row " << r;
    EXPECT_EQ(col.CodeKey(code), col.CellKey(r)) << "row " << r;
    seen[static_cast<size_t>(code)] = true;
  }
  if (col.type() != DataType::kString) {
    EXPECT_EQ(std::count(seen.begin(), seen.end(), true), col.num_codes());
    EXPECT_EQ(col.distinct_count(), col.num_codes());
  }
  for (int32_t rank = 0; rank < col.num_codes(); ++rank) {
    EXPECT_EQ(col.CodeRank(col.CodeAtRank(rank)), rank);
  }
  if (!col.order_coded()) return;
  for (int32_t rank = 1; rank < col.num_codes(); ++rank) {
    const Value lo = col.KeyValue(col.CodeKey(col.CodeAtRank(rank - 1)));
    const Value hi = col.KeyValue(col.CodeKey(col.CodeAtRank(rank)));
    EXPECT_TRUE(ValueLess(lo, hi))
        << "rank " << rank << ": " << lo.ToString() << " vs " << hi.ToString();
  }
}

ColumnPtr IntColumn(const std::vector<int64_t>& values, int null_every = 0) {
  ColumnBuilder b("i", DataType::kInt64);
  for (size_t i = 0; i < values.size(); ++i) {
    if (null_every > 0 && i % static_cast<size_t>(null_every) == 0) {
      b.AppendNull();
    }
    EXPECT_TRUE(b.AppendInt(values[i]).ok());
  }
  return b.Finish();
}

ColumnPtr DoubleColumn(const std::vector<double>& values,
                       int null_every = 0) {
  ColumnBuilder b("d", DataType::kFloat64);
  for (size_t i = 0; i < values.size(); ++i) {
    if (null_every > 0 && i % static_cast<size_t>(null_every) == 0) {
      b.AppendNull();
    }
    EXPECT_TRUE(b.AppendDouble(values[i]).ok());
  }
  return b.Finish();
}

// Numeric codes come from two builds: keys that first appear in ascending
// order are numbered as they come, any other order through a hash table
// and a sort of the distinct keys. Both must number codes in ascending
// value order and map each back to its cell.
TEST(ColumnTest, NumericCodesMapBackToCellKeys) {
  Rng rng(17);
  std::vector<int64_t> shuffled;
  std::vector<double> doubles;
  for (int i = 0; i < 3000; ++i) {
    shuffled.push_back(static_cast<int64_t>(rng.NextBounded(700)) - 350);
    doubles.push_back(static_cast<double>(rng.NextBounded(500)) * 0.37 - 9.0);
  }
  std::vector<int64_t> ascending;
  for (int i = 0; i < 3000; ++i) ascending.push_back(i / 3 - 500);
  // Ascending, then one step back to a key seen before, then new keys.
  std::vector<int64_t> late_break = ascending;
  late_break.push_back(-400);
  late_break.push_back(7);
  late_break.push_back(100000);
  late_break.push_back(-100000);
  const std::vector<ColumnPtr> columns = {
      IntColumn(shuffled),      IntColumn(shuffled, 7),
      IntColumn(ascending),     IntColumn(ascending, 5),
      IntColumn(late_break, 9), DoubleColumn(doubles),
      DoubleColumn(doubles, 4),
      DoubleColumn({-std::numeric_limits<double>::infinity(), 1e300, -2.5,
                    0.0, std::numeric_limits<double>::infinity(), -1e-300,
                    0.0})};
  for (const ColumnPtr& col : columns) {
    SCOPED_TRACE(std::string(DataTypeName(col->type())) + " column of " +
                 std::to_string(col->length()) + " rows");
    EXPECT_TRUE(col->order_coded());
    ExpectCodesMatchCells(*col);
  }
  EXPECT_EQ(IntColumn(ascending)->num_codes(), 1000);
  EXPECT_EQ(IntColumn(late_break, 9)->num_codes(), 1002);
}

// A numeric column is order-coded exactly when no two of its distinct keys
// tie under ValueLess; strings always are.
TEST(ColumnTest, OrderCodedFlagFollowsValueLessTies) {
  constexpr int64_t kBig = int64_t{1} << 53;
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    ColumnPtr column;
    bool order_coded;
    const char* what;
  };
  const std::vector<Case> cases = {
      {IntColumn({kBig, -kBig, 0, 3}), true, "ints within ±2^53"},
      {IntColumn({kBig + 1, 0}), false, "an int past 2^53"},
      {IntColumn({5, -kBig - 1}), false, "an int past -2^53"},
      {DoubleColumn({0.0, 1.0, -2.0}), true, "+0.0 alone"},
      {DoubleColumn({-0.0, 1.0}), true, "-0.0 alone"},
      {DoubleColumn({0.0, -0.0, 1.0}), false, "+0.0 and -0.0"},
      {DoubleColumn({1.0, kNaN}), false, "NaN"},
      {DoubleColumn({kNaN}), false, "NaN alone"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(c.column->order_coded(), c.order_coded) << c.what;
    ExpectCodesMatchCells(*c.column);
  }
  ColumnBuilder strings("s", DataType::kString);
  for (const char* token : {"b", "a", "", "aa", "a"}) {
    ASSERT_TRUE(strings.AppendString(token).ok());
  }
  const ColumnPtr col = strings.Finish();
  EXPECT_TRUE(col->order_coded());
  EXPECT_EQ(col->distinct_count(), 4);
  ExpectCodesMatchCells(*col);
}

// Null cells carry no code a counting pass reads; an all-null or empty
// column has no codes and counts no distinct value. A string column's ""
// counts only when a non-null cell holds it, not when it is the null
// cells' placeholder.
TEST(ColumnTest, NullsAndEmptyColumnsHaveNoCodes) {
  for (DataType type :
       {DataType::kInt64, DataType::kFloat64, DataType::kString}) {
    ColumnBuilder empty("e", type);
    const ColumnPtr none = empty.Finish();
    EXPECT_EQ(none->num_codes(), 0);
    EXPECT_EQ(none->distinct_count(), 0);
    EXPECT_TRUE(none->order_coded());
    ColumnBuilder nulls("n", type);
    for (int i = 0; i < 5; ++i) nulls.AppendNull();
    const ColumnPtr all_null = nulls.Finish();
    EXPECT_EQ(all_null->distinct_count(), 0) << DataTypeName(type);
    EXPECT_TRUE(all_null->order_coded());
    if (type != DataType::kString) {
      EXPECT_EQ(all_null->num_codes(), 0);
    }
  }
  ColumnBuilder placeholder("s", DataType::kString);
  placeholder.AppendNull();
  ASSERT_TRUE(placeholder.AppendString("x").ok());
  placeholder.AppendNull();
  const ColumnPtr col = placeholder.Finish();
  EXPECT_EQ(col->num_codes(), 2);  // the placeholder "" and "x"
  EXPECT_EQ(col->distinct_count(), 1);
  ColumnBuilder real("s", DataType::kString);
  real.AppendNull();
  ASSERT_TRUE(real.AppendString("x").ok());
  ASSERT_TRUE(real.AppendString("").ok());
  EXPECT_EQ(real.Finish()->distinct_count(), 2);
  const ColumnPtr ints = IntColumn({4, 4, 9}, 2);
  EXPECT_EQ(ints->null_count(), 2);
  EXPECT_EQ(ints->distinct_count(), 2);
  ExpectCodesMatchCells(*ints);
}

// ---------------------------------------------------------------- Table

TEST(TableTest, MakeRejectsMismatchedLengths) {
  ColumnBuilder a("a", DataType::kInt64);
  ASSERT_TRUE(a.AppendInt(1).ok());
  ColumnBuilder b("b", DataType::kInt64);
  ASSERT_TRUE(b.AppendInt(1).ok());
  ASSERT_TRUE(b.AppendInt(2).ok());
  auto t = Table::Make("t", {a.Finish(), b.Finish()});
  EXPECT_FALSE(t.ok());
}

TEST(TableTest, MakeRejectsDuplicateNames) {
  ColumnBuilder a("a", DataType::kInt64);
  ColumnBuilder b("a", DataType::kInt64);
  auto t = Table::Make("t", {a.Finish(), b.Finish()});
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kAlreadyExists);
}

TEST(TableTest, FindColumn) {
  auto t = MakeCityTable();
  EXPECT_EQ(t->FindColumn("city"), 0);
  EXPECT_EQ(t->FindColumn("area"), 2);
  EXPECT_EQ(t->FindColumn("nope"), -1);
}

TEST(TableTest, TakeMaterializesSelection) {
  auto t = MakeCityTable();
  auto taken = t->Take({3, 0}, "sel");
  ASSERT_TRUE(taken.ok());
  EXPECT_EQ(taken.value()->num_rows(), 2);
  EXPECT_EQ(taken.value()->column(0)->GetString(0), "rome");
  EXPECT_EQ(taken.value()->column(0)->GetString(1), "berlin");
}

TEST(TableTest, TakePreservesNulls) {
  auto t = MakeCityTable();
  auto taken = t->Take({2}, "sel");
  ASSERT_TRUE(taken.ok());
  EXPECT_TRUE(taken.value()->column(1)->IsNull(0));
}

TEST(TableTest, TakeRejectsOutOfRange) {
  auto t = MakeCityTable();
  EXPECT_FALSE(t->Take({99}, "sel").ok());
}

TEST(TableTest, ToStringMentionsShape) {
  auto t = MakeCityTable();
  std::string s = t->ToString(2);
  EXPECT_NE(s.find("5 rows"), std::string::npos);
  EXPECT_NE(s.find("city"), std::string::npos);
  EXPECT_NE(s.find("more rows"), std::string::npos);
}

TEST(TableBuilderTest, RejectsWrongArity) {
  TableBuilder b("t");
  b.AddColumn("a", DataType::kInt64);
  EXPECT_FALSE(b.AppendRow({Value(int64_t{1}), Value(int64_t{2})}).ok());
}

// -------------------------------------------------------------- Filters

TEST(FilterTest, NumericEquality) {
  auto t = MakeCityTable();
  auto rows = AllRows(*t).value();
  auto out = FilterRows(*t, rows, 1, CompareOp::kEq, Value(int64_t{2100}));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_EQ(out.value()[0], 1);
}

TEST(FilterTest, NullCellsNeverMatch) {
  auto t = MakeCityTable();
  auto rows = AllRows(*t).value();
  // population != 0 keeps every non-null row but not the null one.
  auto out = FilterRows(*t, rows, 1, CompareOp::kNeq, Value(int64_t{0}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 4u);
}

TEST(FilterTest, StringEqualityViaDictionary) {
  auto t = MakeCityTable();
  auto rows = AllRows(*t).value();
  auto out = FilterRows(*t, rows, 0, CompareOp::kEq,
                        Value(std::string("berlin")));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 2u);
  auto none = FilterRows(*t, rows, 0, CompareOp::kEq,
                         Value(std::string("unknown")));
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none.value().empty());
}

TEST(FilterTest, SubstringOperators) {
  auto t = MakeCityTable();
  auto rows = AllRows(*t).value();
  auto contains = FilterRows(*t, rows, 0, CompareOp::kContains,
                             Value(std::string("ar")));
  ASSERT_TRUE(contains.ok());
  EXPECT_EQ(contains.value().size(), 1u);  // paris
  auto starts = FilterRows(*t, rows, 0, CompareOp::kStartsWith,
                           Value(std::string("ma")));
  ASSERT_TRUE(starts.ok());
  EXPECT_EQ(starts.value().size(), 1u);  // madrid
  auto ends = FilterRows(*t, rows, 0, CompareOp::kEndsWith,
                         Value(std::string("in")));
  ASSERT_TRUE(ends.ok());
  EXPECT_EQ(ends.value().size(), 2u);  // berlin x2
}

struct OrderingCase {
  CompareOp op;
  double threshold;
  size_t expected;
};

class FilterOrderingTest : public ::testing::TestWithParam<OrderingCase> {};

TEST_P(FilterOrderingTest, OrderingOperators) {
  auto t = MakeCityTable();
  auto rows = AllRows(*t).value();
  const OrderingCase& c = GetParam();
  auto out = FilterRows(*t, rows, 2, c.op, Value(c.threshold));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Areas, FilterOrderingTest,
    ::testing::Values(OrderingCase{CompareOp::kGt, 800.0, 3},
                      OrderingCase{CompareOp::kGe, 891.0, 2},
                      OrderingCase{CompareOp::kLt, 600.0, 1},
                      OrderingCase{CompareOp::kLe, 604.0, 2}));

TEST(FilterTest, TypeMismatchesRejected) {
  auto t = MakeCityTable();
  auto rows = AllRows(*t).value();
  EXPECT_FALSE(FilterRows(*t, rows, 0, CompareOp::kGt,
                          Value(std::string("berlin"))).ok());
  EXPECT_FALSE(FilterRows(*t, rows, 1, CompareOp::kContains,
                          Value(std::string("2"))).ok());
  EXPECT_FALSE(FilterRows(*t, rows, 1, CompareOp::kEq,
                          Value(std::string("x"))).ok());
  EXPECT_FALSE(FilterRows(*t, rows, 0, CompareOp::kEq,
                          Value(int64_t{1})).ok());
  EXPECT_FALSE(FilterRows(*t, rows, 9, CompareOp::kEq,
                          Value(int64_t{1})).ok());
  EXPECT_FALSE(FilterRows(*t, rows, 0, CompareOp::kEq, Value::Null()).ok());
}

TEST(FilterTest, OperatesOnGivenSubsetOnly) {
  auto t = MakeCityTable();
  std::vector<int32_t> subset = {0, 1};
  auto out = FilterRows(*t, subset, 0, CompareOp::kEq,
                        Value(std::string("berlin")));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 1u);  // row 2 not in subset
}

/// Fixture for null-handling edge cases: a string column with a null cell
/// and a numeric column that is entirely null.
TablePtr MakeNullableTable() {
  TableBuilder b("nullable");
  b.AddColumn("name", DataType::kString);
  b.AddColumn("score", DataType::kFloat64);
  EXPECT_TRUE(b.AppendRow({Value(std::string("a")), Value::Null()}).ok());
  EXPECT_TRUE(b.AppendRow({Value::Null(), Value::Null()}).ok());
  EXPECT_TRUE(b.AppendRow({Value(std::string("b")), Value::Null()}).ok());
  EXPECT_TRUE(b.AppendRow({Value(std::string("a")), Value::Null()}).ok());
  auto t = b.Finish();
  EXPECT_TRUE(t.ok());
  return t.value();
}

TEST(FilterTest, NeqAbsentDictionaryTermKeepsAllNonNullRows) {
  // "zzz" has no dictionary code (FindCode returns -1): != must keep every
  // non-null row, and == must select nothing — without scanning strings.
  auto t = MakeNullableTable();
  auto rows = AllRows(*t).value();
  auto neq = FilterRows(*t, rows, 0, CompareOp::kNeq,
                        Value(std::string("zzz")));
  ASSERT_TRUE(neq.ok());
  EXPECT_EQ(neq.value(), (std::vector<int32_t>{0, 2, 3}));
  auto eq = FilterRows(*t, rows, 0, CompareOp::kEq,
                       Value(std::string("zzz")));
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(eq.value().empty());
}

TEST(FilterTest, NullStringCellsExcludedUnderEveryOpFamily) {
  auto t = MakeNullableTable();
  auto rows = AllRows(*t).value();
  auto eq = FilterRows(*t, rows, 0, CompareOp::kEq, Value(std::string("a")));
  ASSERT_TRUE(eq.ok());
  EXPECT_EQ(eq.value(), (std::vector<int32_t>{0, 3}));
  auto neq = FilterRows(*t, rows, 0, CompareOp::kNeq,
                        Value(std::string("a")));
  ASSERT_TRUE(neq.ok());
  EXPECT_EQ(neq.value(), (std::vector<int32_t>{2}));  // null row 1 dropped
  // Substring family: an empty needle matches every string, so only the
  // null cell keeps a row out.
  auto contains = FilterRows(*t, rows, 0, CompareOp::kContains,
                             Value(std::string("")));
  ASSERT_TRUE(contains.ok());
  EXPECT_EQ(contains.value(), (std::vector<int32_t>{0, 2, 3}));
  auto starts = FilterRows(*t, rows, 0, CompareOp::kStartsWith,
                           Value(std::string("a")));
  ASSERT_TRUE(starts.ok());
  EXPECT_EQ(starts.value(), (std::vector<int32_t>{0, 3}));
  auto ends = FilterRows(*t, rows, 0, CompareOp::kEndsWith,
                         Value(std::string("b")));
  ASSERT_TRUE(ends.ok());
  EXPECT_EQ(ends.value(), (std::vector<int32_t>{2}));
}

TEST(FilterTest, NullNumericCellsExcludedUnderOrderingOps) {
  auto t = MakeCityTable();  // population has one null (row 2)
  auto rows = AllRows(*t).value();
  for (CompareOp op :
       {CompareOp::kGt, CompareOp::kGe, CompareOp::kLt, CompareOp::kLe}) {
    auto out = FilterRows(*t, rows, 1, op, Value(int64_t{2100}));
    ASSERT_TRUE(out.ok());
    for (int32_t r : out.value()) EXPECT_NE(r, 2) << "op " << int(op);
  }
  // A threshold below every value: > keeps all four non-null rows only.
  auto all = FilterRows(*t, rows, 1, CompareOp::kGt, Value(int64_t{0}));
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value(), (std::vector<int32_t>{0, 1, 3, 4}));
}

TEST(FilterTest, OrderingOpsOnAllNullNumericColumnSelectNothing) {
  auto t = MakeNullableTable();
  auto rows = AllRows(*t).value();
  for (CompareOp op : {CompareOp::kGt, CompareOp::kGe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kEq, CompareOp::kNeq}) {
    auto out = FilterRows(*t, rows, 1, op, Value(0.0));
    ASSERT_TRUE(out.ok()) << "op " << int(op);
    EXPECT_TRUE(out.value().empty()) << "op " << int(op);
  }
}

// -------------------------------------------------------------- GroupBy

/// Value equality at the bit level: NaN keys compare equal to themselves
/// (operator== follows IEEE and would report identical NaN groups unequal).
bool ValueBitEq(const Value& x, const Value& y) {
  if (x.is_double() && y.is_double()) {
    return std::bit_cast<uint64_t>(x.as_double()) ==
           std::bit_cast<uint64_t>(y.as_double());
  }
  return x == y;
}

/// A kernel result of `rows` of `t` against the scalar reference's, bit for
/// bit. Every group's member row must lie in the selection, and every key
/// the kernel materializes from it (GroupedResult::Key) must equal the
/// reference's boxed key; since a key is read off the member row's cells,
/// equal keys also prove that the row belongs to its group. Sizes and
/// aggregates are exact, not approximately equal: the kernel must preserve
/// the scalar accumulation order.
void ExpectMatchesReference(const Table& t, const std::vector<int32_t>& rows,
                            const GroupedResult& kernel,
                            const ReferenceGroupedResult& reference) {
  ASSERT_EQ(kernel.groups.size(), reference.groups.size());
  EXPECT_EQ(kernel.key_names, reference.key_names);
  EXPECT_EQ(kernel.agg_name, reference.agg_name);
  std::vector<int32_t> selected = rows;
  std::sort(selected.begin(), selected.end());
  for (size_t g = 0; g < kernel.groups.size(); ++g) {
    const Group& got = kernel.groups[g];
    const ReferenceGroup& want = reference.groups[g];
    EXPECT_TRUE(std::binary_search(selected.begin(), selected.end(), got.row))
        << "group " << g << ": member row " << got.row << " is not selected";
    ASSERT_EQ(want.keys.size(), kernel.spec.group_columns.size());
    for (size_t k = 0; k < want.keys.size(); ++k) {
      const Value key = kernel.Key(t, g, k);
      EXPECT_TRUE(ValueBitEq(key, want.keys[k]))
          << "group " << g << " key " << k << ": " << key.ToString()
          << " vs " << want.keys[k].ToString();
    }
    EXPECT_EQ(got.size, want.size) << "group " << g;
    EXPECT_EQ(got.agg_valid, want.agg_valid) << "group " << g;
    EXPECT_EQ(std::bit_cast<uint64_t>(got.aggregate),
              std::bit_cast<uint64_t>(want.aggregate))
        << "group " << g;
  }
}

TEST(GroupTest, CountPerGroup) {
  auto t = MakeCityTable();
  GroupSpec spec;
  spec.group_columns = {0};
  auto out = GroupAggregate(*t, AllRows(*t).value(), spec);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().groups.size(), 4u);  // berlin, madrid, paris, rome
  // Sorted by key: berlin first with 2 rows.
  EXPECT_EQ(out.value().Key(*t, 0, 0).as_string(), "berlin");
  EXPECT_DOUBLE_EQ(out.value().groups[0].aggregate, 2.0);
  EXPECT_EQ(out.value().agg_name, "COUNT(*)");
}

struct AggCase {
  AggFunc func;
  double berlin_expected;
};

class GroupAggTest : public ::testing::TestWithParam<AggCase> {};

TEST_P(GroupAggTest, NumericAggregations) {
  auto t = MakeCityTable();
  GroupSpec spec;
  spec.group_columns = {0};
  spec.agg = GetParam().func;
  spec.agg_column = 2;  // area
  auto out = GroupAggregate(*t, AllRows(*t).value(), spec);
  ASSERT_TRUE(out.ok());
  // Group 0 is berlin (areas 891, 890).
  EXPECT_DOUBLE_EQ(out.value().groups[0].aggregate,
                   GetParam().berlin_expected);
}

INSTANTIATE_TEST_SUITE_P(
    BerlinAreas, GroupAggTest,
    ::testing::Values(AggCase{AggFunc::kSum, 1781.0},
                      AggCase{AggFunc::kMin, 890.0},
                      AggCase{AggFunc::kMax, 891.0},
                      AggCase{AggFunc::kAvg, 890.5}));

TEST(GroupTest, NullAggInputsSkipped) {
  auto t = MakeCityTable();
  GroupSpec spec;
  spec.group_columns = {0};
  spec.agg = AggFunc::kAvg;
  spec.agg_column = 1;  // population (berlin has one null)
  auto out = GroupAggregate(*t, AllRows(*t).value(), spec);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out.value().groups[0].aggregate, 3600.0);
  EXPECT_TRUE(out.value().groups[0].agg_valid);
}

TEST(GroupTest, MultiColumnGrouping) {
  auto t = MakeCityTable();
  GroupSpec spec;
  spec.group_columns = {0, 1};
  auto out = GroupAggregate(*t, AllRows(*t).value(), spec);
  ASSERT_TRUE(out.ok());
  // berlin splits into (berlin,null) and (berlin,3600).
  EXPECT_EQ(out.value().groups.size(), 5u);
}

TEST(GroupTest, RequiresGroupColumns) {
  auto t = MakeCityTable();
  GroupSpec spec;
  EXPECT_FALSE(GroupAggregate(*t, AllRows(*t).value(), spec).ok());
}

TEST(GroupTest, RejectsStringAggColumn) {
  auto t = MakeCityTable();
  GroupSpec spec;
  spec.group_columns = {1};
  spec.agg = AggFunc::kSum;
  spec.agg_column = 0;
  EXPECT_FALSE(GroupAggregate(*t, AllRows(*t).value(), spec).ok());
}

TEST(GroupTest, ToTableShape) {
  auto t = MakeCityTable();
  GroupSpec spec;
  spec.group_columns = {0};
  spec.agg = AggFunc::kAvg;
  spec.agg_column = 2;
  auto grouped = GroupAggregate(*t, AllRows(*t).value(), spec);
  ASSERT_TRUE(grouped.ok());
  auto table = grouped.value().ToTable(*t);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value()->num_columns(), 2);
  EXPECT_EQ(table.value()->num_rows(), 4);
  EXPECT_EQ(table.value()->column_name(1), "AVG(area)");
}

TEST(GroupTest, GroupSizes) {
  auto t = MakeCityTable();
  GroupSpec spec;
  spec.group_columns = {0};
  auto grouped = GroupAggregate(*t, AllRows(*t).value(), spec);
  ASSERT_TRUE(grouped.ok());
  auto sizes = grouped.value().GroupSizes();
  double total = 0;
  for (double s : sizes) total += s;
  EXPECT_DOUBLE_EQ(total, 5.0);
}

TEST(GroupTest, NullKeyNeverMergesWithAValue) {
  // CellKey's null sentinel is also the key of int64 INT64_MIN+1 and of the
  // double with bits 0x8000000000000001 (-denorm_min); both parse from CSV
  // cells. Each row below is its own group, on either key column alone and
  // on both together (where row 0 is (null, -denorm_min) and row 1 is
  // (INT64_MIN+1, null)), and on a 65-column key whose only difference
  // between rows 0 and 1 is the null in its last column. The hash path
  // runs: the int range is too wide for direct addressing, and doubles
  // never take it.
  ColumnBuilder ints("i", DataType::kInt64);
  ints.AppendNull();
  ASSERT_TRUE(ints.AppendInt(std::numeric_limits<int64_t>::min() + 1).ok());
  ASSERT_TRUE(ints.AppendInt(5).ok());
  ColumnBuilder doubles("d", DataType::kFloat64);
  ASSERT_TRUE(
      doubles.AppendDouble(-std::numeric_limits<double>::denorm_min()).ok());
  doubles.AppendNull();
  ASSERT_TRUE(doubles.AppendDouble(1.0).ok());
  ColumnBuilder constant("c", DataType::kInt64);
  for (int r = 0; r < 3; ++r) ASSERT_TRUE(constant.AppendInt(7).ok());
  std::vector<ColumnPtr> columns;
  columns.push_back(ints.Finish());
  columns.push_back(doubles.Finish());
  columns.push_back(constant.Finish());
  TablePtr t = Table::Make("null_keys", std::move(columns)).value();
  const std::vector<int32_t> rows = AllRows(*t).value();

  std::vector<int> wide(64, 2);
  wide.push_back(0);
  for (const std::vector<int>& keys :
       {std::vector<int>{0}, std::vector<int>{1}, std::vector<int>{0, 1},
        wide}) {
    GroupSpec spec;
    spec.group_columns = keys;
    auto out = GroupAggregate(*t, rows, spec);
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out.value().groups.size(), 3u) << keys.size() << " keys";
    for (const Group& g : out.value().groups) EXPECT_EQ(g.size, 1);
    ExpectMatchesReference(*t, rows, out.value(),
                           ScalarGroupAggregate(*t, rows, spec));
  }
}

// ---------------------------------------------------------------- Stats

TEST(StatsTest, ColumnStatsBasics) {
  auto t = MakeCityTable();
  auto rows = AllRows(*t).value();
  ColumnStats stats = ComputeColumnStats(*t->column(0), rows);
  EXPECT_EQ(stats.distinct, 4);
  EXPECT_EQ(stats.nulls, 0);
  EXPECT_EQ(stats.count, 5);
  EXPECT_GT(stats.normalized_entropy, 0.9);  // nearly uniform

  ColumnStats pop = ComputeColumnStats(*t->column(1), rows);
  EXPECT_EQ(pop.nulls, 1);
  EXPECT_EQ(pop.distinct, 4);
}

TEST(StatsTest, TokenFrequenciesSortedByCount) {
  auto t = MakeCityTable();
  auto tokens = TokenFrequencies(*t->column(0), AllRows(*t).value());
  ASSERT_EQ(tokens.size(), 4u);
  const Column& city = *t->column(0);
  EXPECT_EQ(city.KeyValue(tokens[0].key).as_string(), "berlin");
  EXPECT_EQ(tokens[0].count, 2);
  // Ties broken by value order.
  EXPECT_EQ(city.KeyValue(tokens[1].key).as_string(), "madrid");
}

TEST(StatsTest, SelectionKlDivergenceExcludesNulls) {
  auto t = MakeCityTable();
  const Column& population = *t->column(1);
  // Row 2's population is null: with it or without it the histogram is the
  // same four values, so the divergence is exactly zero.
  EXPECT_EQ(SelectionKlDivergence(population, AllRows(*t).value(),
                                  {0, 1, 3, 4}),
            0.0);
  EXPECT_GT(SelectionKlDivergence(population, {0, 2}, {0, 1, 3, 4}), 0.0);
}

TEST(StatsTest, TableStoresDistinctRatios) {
  auto t = MakeCityTable();
  // city: berlin, paris, rome, madrid over 5 rows; population: 4 values
  // and a null; area: 5 values.
  EXPECT_EQ(t->distinct_ratios(), (std::vector<double>{0.8, 0.8, 1.0}));
}

// ------------------------------------------------------------------ CSV

TEST(CsvTest, ParsesTypedColumns) {
  const std::string csv = "name,age,score\nana,31,9.5\nbob,22,7\n";
  auto t = ReadCsvString(csv, "people");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value()->num_rows(), 2);
  EXPECT_EQ(t.value()->column(0)->type(), DataType::kString);
  EXPECT_EQ(t.value()->column(1)->type(), DataType::kInt64);
  EXPECT_EQ(t.value()->column(2)->type(), DataType::kFloat64);
  EXPECT_EQ(t.value()->column(0)->GetString(1), "bob");
  EXPECT_EQ(t.value()->column(1)->GetInt(0), 31);
}

TEST(CsvTest, EmptyFieldsBecomeNulls) {
  const std::string csv = "a,b\n1,\n,2\n";
  auto t = ReadCsvString(csv, "t");
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t.value()->column(1)->IsNull(0));
  EXPECT_TRUE(t.value()->column(0)->IsNull(1));
}

TEST(CsvTest, QuotedFieldsWithDelimitersAndQuotes) {
  const std::string csv = "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n";
  auto t = ReadCsvString(csv, "t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value()->column(0)->GetString(0), "x,y");
  EXPECT_EQ(t.value()->column(1)->GetString(0), "he said \"hi\"");
}

TEST(CsvTest, RejectsRaggedRows) {
  EXPECT_FALSE(ReadCsvString("a,b\n1,2,3\n", "t").ok());
  EXPECT_FALSE(ReadCsvString("", "t").ok());
}

TEST(CsvTest, RoundTripPreservesData) {
  auto t = MakeCityTable();
  std::string csv = WriteCsvString(*t);
  auto back = ReadCsvString(csv, "cities");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value()->num_rows(), t->num_rows());
  EXPECT_EQ(back.value()->num_columns(), t->num_columns());
  EXPECT_EQ(back.value()->column(0)->GetString(0), "berlin");
  EXPECT_TRUE(back.value()->column(1)->IsNull(2));
  // Integral-looking floats re-infer as int64 on the way back; the value is
  // preserved under the numeric view.
  EXPECT_DOUBLE_EQ(back.value()->column(2)->AsDoubleOrNan(3), 1285.0);
}

TEST(CsvTest, FileRoundTrip) {
  auto t = MakeCityTable();
  const std::string path = ::testing::TempDir() + "/atena_cities.csv";
  ASSERT_TRUE(WriteCsvFile(*t, path).ok());
  auto back = ReadCsvFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value()->num_rows(), 5);
  EXPECT_EQ(back.value()->name(), "atena_cities");
}

TEST(CsvTest, MissingFileIsIOError) {
  auto r = ReadCsvFile("/nonexistent/definitely_missing.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  // The message carries the OS-level reason.
  EXPECT_NE(r.status().message().find("No such file"), std::string::npos)
      << r.status();
}

TEST(CsvTest, RaggedRowErrorNamesLineAndCounts) {
  // Row on (1-based) line 3 has 3 cells against a 2-column header.
  auto r = ReadCsvString("a,b\n1,2\n1,2,3\n", "t");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  const std::string& message = r.status().message();
  EXPECT_NE(message.find("line 3"), std::string::npos) << r.status();
  EXPECT_NE(message.find("3 columns"), std::string::npos) << r.status();
  EXPECT_NE(message.find("expected 2"), std::string::npos) << r.status();
}

TEST(CsvTest, RaggedRowLineNumberCountsQuotedNewlines) {
  // The quoted cell on line 2 spans lines 2-3, so the ragged record is
  // reported at the physical line where it starts: line 4.
  auto r = ReadCsvString("a,b\n\"multi\nline\",2\n5\n", "t");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 4"), std::string::npos)
      << r.status();
}

TEST(CsvTest, MissingTrailingNewlineParsesLastRow) {
  auto t = ReadCsvString("a,b\n1,2\n3,4", "t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value()->num_rows(), 2);
  EXPECT_EQ(t.value()->column(1)->GetInt(1), 4);
}

TEST(CsvTest, QuotedDelimiterDoesNotSplitCell) {
  auto t = ReadCsvString("a,b\n\"1,000\",2\n", "t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value()->num_columns(), 2);
  EXPECT_EQ(t.value()->column(0)->GetString(0), "1,000");
}

TEST(CsvTest, MalformedNumericOutsideInferenceWindowBecomesNull) {
  // With a 2-row inference window the column types as int64; the "oops" on
  // a later row cannot retroactively change the type, so it lands as null
  // instead of corrupting the column or aborting the load.
  CsvOptions options;
  options.inference_rows = 2;
  auto t = ReadCsvString("a\n1\n2\noops\n4\n", "t", options);
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t.value()->column(0)->type(), DataType::kInt64);
  EXPECT_EQ(t.value()->column(0)->GetInt(1), 2);
  EXPECT_TRUE(t.value()->column(0)->IsNull(2));
  EXPECT_EQ(t.value()->column(0)->GetInt(3), 4);
}

TEST(CsvTest, WriteFailurePreservesExistingFile) {
  auto t = MakeCityTable();
  const std::string path = ::testing::TempDir() + "/atena_cities_keep.csv";
  ASSERT_TRUE(WriteCsvFile(*t, path).ok());
  SetFileIoFailureHookForTesting(
      [](const char* op, const std::string&) {
        return std::string(op) == "write";
      });
  Status failed = WriteCsvFile(*t, path);
  SetFileIoFailureHookForTesting({});
  EXPECT_EQ(failed.code(), StatusCode::kIOError);
  // The previous contents survived the failed overwrite.
  auto back = ReadCsvFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value()->num_rows(), 5);
}

// ------------------------------------------------------- Kernel parity
//
// FilterRows and GroupAggregate must be bit-identical to the scalar
// reference (tests/support/reference_ops.h) on any table, selection and
// operator. These property tests throw randomized tables at both: nulls, a
// fully-null chunk, NaNs, multi-chunk sizes with a ragged tail, selections
// with whole-chunk gaps, and shuffled (unsorted) selections that force the
// filter kernel off its sorted fast path.

TablePtr MakeRandomTable(uint64_t seed, int64_t rows) {
  Rng rng(seed);
  ColumnBuilder ints("ints", DataType::kInt64);
  ColumnBuilder doubles("doubles", DataType::kFloat64);
  ColumnBuilder strings("strings", DataType::kString);
  const std::vector<std::string> vocab = {"alpha", "beta", "gamma", "delta",
                                          "epsilon"};
  for (int64_t r = 0; r < rows; ++r) {
    // Chunk 2 is fully null in every column: the zone maps must classify it
    // as skippable for every operator except string !=.
    const bool null_block =
        r >= 2 * kColumnChunkSize && r < 3 * kColumnChunkSize;
    if (null_block || rng.NextBool(0.1)) {
      ints.AppendNull();
    } else {
      EXPECT_TRUE(ints.AppendInt(rng.NextInt(-50, 50)).ok());
    }
    if (null_block || rng.NextBool(0.1)) {
      doubles.AppendNull();
    } else if (rng.NextBool(0.05)) {
      EXPECT_TRUE(
          doubles.AppendDouble(std::numeric_limits<double>::quiet_NaN()).ok());
    } else {
      EXPECT_TRUE(doubles.AppendDouble(rng.NextDouble(-10.0, 10.0)).ok());
    }
    if (null_block || rng.NextBool(0.1)) {
      strings.AppendNull();
    } else {
      EXPECT_TRUE(
          strings.AppendString(vocab[rng.NextBounded(vocab.size())]).ok());
    }
  }
  std::vector<ColumnPtr> columns;
  columns.push_back(ints.Finish());
  columns.push_back(doubles.Finish());
  columns.push_back(strings.Finish());
  auto t = Table::Make("random", std::move(columns));
  EXPECT_TRUE(t.ok());
  return t.value();
}

/// Selections that stress every ChunkedScan mode: the identity selection,
/// a sorted-sparse selection with a whole-chunk gap (chunk 1 absent), and a
/// deterministically shuffled unsorted selection.
std::vector<std::vector<int32_t>> StressSelections(int64_t rows,
                                                   uint64_t seed) {
  const auto n = static_cast<int32_t>(rows);
  std::vector<std::vector<int32_t>> selections;
  std::vector<int32_t> all(static_cast<size_t>(n));
  for (int32_t r = 0; r < n; ++r) all[static_cast<size_t>(r)] = r;
  selections.push_back(all);
  std::vector<int32_t> gapped;
  for (int32_t r = 0; r < n; r += 2) {
    if (r >= kColumnChunkSize && r < 2 * kColumnChunkSize) continue;
    gapped.push_back(r);
  }
  selections.push_back(std::move(gapped));
  Rng rng(seed ^ 0xC0FFEE);
  std::vector<int32_t> shuffled = all;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.NextBounded(i)]);
  }
  selections.push_back(std::move(shuffled));
  selections.push_back({});  // empty selection
  return selections;
}

TEST(KernelParityTest, FilterMatchesScalarOnRandomTables) {
  constexpr int64_t kRows = 4 * kColumnChunkSize + 1000;
  for (uint64_t seed : {uint64_t{1}, uint64_t{2}, uint64_t{3}}) {
    TablePtr t = MakeRandomTable(seed, kRows);
    const auto selections = StressSelections(kRows, seed);

    struct Case {
      int column;
      CompareOp op;
      Value term;
    };
    std::vector<Case> cases;
    for (CompareOp op : {CompareOp::kEq, CompareOp::kNeq, CompareOp::kGt,
                         CompareOp::kGe, CompareOp::kLt, CompareOp::kLe}) {
      for (const Value& term :
           {Value(int64_t{0}), Value(int64_t{-50}), Value(3.5),
            Value(int64_t{999})}) {
        cases.push_back({0, op, term});
        cases.push_back({1, op, term});
      }
    }
    for (CompareOp op :
         {CompareOp::kEq, CompareOp::kNeq, CompareOp::kContains,
          CompareOp::kStartsWith, CompareOp::kEndsWith}) {
      for (const char* term : {"beta", "a", "zzz-absent", ""}) {
        cases.push_back({2, op, Value(std::string(term))});
      }
    }

    for (const auto& c : cases) {
      for (const auto& rows : selections) {
        auto kernel = FilterRows(*t, rows, c.column, c.op, c.term);
        ASSERT_TRUE(kernel.ok());
        EXPECT_EQ(kernel.value(),
                  ScalarFilterRows(*t, rows, c.column, c.op, c.term))
            << "column " << c.column << " op "
            << CompareOpSymbol(c.op) << " term " << c.term.ToString();
      }
    }
  }
}

TEST(KernelErrorTest, FilterRejectsEachBadInputWithItsCode) {
  TablePtr t = MakeCityTable();
  std::vector<int32_t> rows = AllRows(*t).value();
  struct Case {
    int column;
    CompareOp op;
    Value term;
    StatusCode code;
  };
  // Every validation branch: bad column, null term, ordering over strings,
  // substring over numerics, non-numeric term for ordering, and a
  // mistyped equality term on either column type.
  const std::vector<Case> cases = {
      {9, CompareOp::kEq, Value(int64_t{1}), StatusCode::kOutOfRange},
      {-1, CompareOp::kEq, Value(int64_t{1}), StatusCode::kOutOfRange},
      {0, CompareOp::kEq, Value::Null(), StatusCode::kInvalidArgument},
      {0, CompareOp::kGt, Value(std::string("x")), StatusCode::kTypeMismatch},
      {1, CompareOp::kContains, Value(std::string("x")),
       StatusCode::kTypeMismatch},
      {1, CompareOp::kGe, Value(std::string("x")), StatusCode::kTypeMismatch},
      {0, CompareOp::kEq, Value(int64_t{1}), StatusCode::kTypeMismatch},
      {1, CompareOp::kEq, Value(std::string("x")), StatusCode::kTypeMismatch},
  };
  for (const auto& c : cases) {
    auto result = FilterRows(*t, rows, c.column, c.op, c.term);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), c.code)
        << "column " << c.column << " op " << CompareOpSymbol(c.op)
        << ": " << result.status();
  }
}

/// Two kernel results, bit for bit: member rows, sizes and aggregates.
void ExpectGroupedBitIdentical(const GroupedResult& a,
                               const GroupedResult& b) {
  ASSERT_EQ(a.groups.size(), b.groups.size());
  EXPECT_EQ(a.key_names, b.key_names);
  EXPECT_EQ(a.agg_name, b.agg_name);
  for (size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_EQ(a.groups[g].row, b.groups[g].row) << "group " << g;
    EXPECT_EQ(a.groups[g].size, b.groups[g].size) << "group " << g;
    EXPECT_EQ(a.groups[g].agg_valid, b.groups[g].agg_valid) << "group " << g;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.groups[g].aggregate),
              std::bit_cast<uint64_t>(b.groups[g].aggregate))
        << "group " << g;
  }
}

TEST(KernelParityTest, GroupAggregateMatchesScalar) {
  struct Input {
    TablePtr table;
    std::vector<std::vector<int32_t>> selections;
    std::vector<GroupSpec> specs;
  };
  std::vector<Input> inputs;

  constexpr int64_t kRows = 3 * kColumnChunkSize + 777;
  inputs.push_back({MakeRandomTable(11, kRows),
                    StressSelections(kRows, 11),
                    {{{2}, AggFunc::kCount, -1},    // strings, dense path
                     {{0}, AggFunc::kAvg, 1},       // ints, dense path
                     {{1}, AggFunc::kSum, 0},       // doubles, hash path
                     {{2, 0}, AggFunc::kMin, 1},    // multi-key, hash path
                     {{0, 2}, AggFunc::kMax, 0}}});

  // More than 2^16 rows and more than 2^16 distinct (double, string) keys:
  // the hash table regrows many times mid-pass and ends past 65,536 groups.
  constexpr int64_t kBigRows = 100'000;
  inputs.push_back({MakeRandomTable(12, kBigRows),
                    StressSelections(kBigRows, 12),
                    {{{1, 2}, AggFunc::kAvg, 0}}});

  for (const Input& in : inputs) {
    const Table& t = *in.table;
    for (const auto& spec : in.specs) {
      for (const auto& rows : in.selections) {
        auto kernel = GroupAggregate(t, rows, spec);
        ASSERT_TRUE(kernel.ok());
        ExpectMatchesReference(t, rows, kernel.value(),
                               ScalarGroupAggregate(t, rows, spec));
      }
    }
  }
  const auto& big = inputs.back();
  EXPECT_GT(GroupAggregate(*big.table, big.selections.front(), big.specs[0])
                .value()
                .groups.size(),
            size_t{1} << 16);
}

/// Key columns whose ValueLess order is easy to get wrong, each with nulls
/// except the time column: a dictionary whose first-appearance order
/// ("b", "a", "", "aa") is not lexicographic; int64 keys beyond ±2^53,
/// where distinct values can round to one double and tie (2^53 + 1 rounds
/// to 2^53); 20 doubles including both +0.0 and -0.0, which tie; NaN with
/// two payloads, which ties with everything, among 6 values (NaN is not
/// ordered, so std::sort stays well-defined only with at most 16 groups);
/// an ascending time column, so hash groups are discovered in key order;
/// and a small int column for the middle of multi-column keys.
TablePtr MakeOrderingEdgeTable() {
  constexpr int kRows = 640;
  constexpr int64_t kBig = int64_t{1} << 53;
  const std::vector<std::string> tokens = {"b", "a", "", "aa"};
  const std::vector<double> nan_values = {
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(), 0.0, -0.0, 1.0, -1.0};
  ColumnBuilder strings("s", DataType::kString);
  ColumnBuilder big("big", DataType::kInt64);
  ColumnBuilder zeros("zeros", DataType::kFloat64);
  ColumnBuilder nans("nans", DataType::kFloat64);
  ColumnBuilder time("time", DataType::kFloat64);
  ColumnBuilder mid("mid", DataType::kInt64);
  Rng rng(2020);
  for (int r = 0; r < kRows; ++r) {
    if (r % 9 == 4) {
      strings.AppendNull();
    } else {
      const size_t token =
          r < 4 ? static_cast<size_t>(r) : rng.NextBounded(tokens.size());
      EXPECT_TRUE(strings.AppendString(tokens[token]).ok());
    }
    const auto b = static_cast<int64_t>(rng.NextBounded(32));
    if (r % 11 == 5) {
      big.AppendNull();
    } else {
      EXPECT_TRUE(big.AppendInt(b < 24 ? kBig + b : -kBig - (b - 24)).ok());
    }
    const auto z = rng.NextBounded(20);
    if (r % 13 == 6) {
      zeros.AppendNull();
    } else {
      EXPECT_TRUE(zeros
                      .AppendDouble(z == 0   ? 0.0
                                    : z == 1 ? -0.0
                                             : (static_cast<double>(z) - 10.5) *
                                                   0.75)
                      .ok());
    }
    if (r % 7 == 3) {
      nans.AppendNull();
    } else {
      EXPECT_TRUE(nans.AppendDouble(nan_values[rng.NextBounded(6)]).ok());
    }
    EXPECT_TRUE(time.AppendDouble(0.5 * r).ok());
    if (r % 5 == 2) {
      mid.AppendNull();
    } else {
      EXPECT_TRUE(mid.AppendInt(static_cast<int64_t>(rng.NextBounded(3))).ok());
    }
  }
  std::vector<ColumnPtr> columns;
  for (ColumnBuilder* builder : {&strings, &big, &zeros, &nans, &time, &mid}) {
    columns.push_back(builder->Finish());
  }
  return Table::Make("ordering_edges", std::move(columns)).value();
}

TEST(KernelParityTest, GroupOrderMatchesScalarOnKeyEdgeCases) {
  TablePtr t = MakeOrderingEdgeTable();
  std::vector<std::vector<int32_t>> selections =
      StressSelections(t->num_rows(), 21);
  std::vector<int32_t> reversed = selections.front();
  std::reverse(reversed.begin(), reversed.end());
  selections.push_back(std::move(reversed));
  const std::vector<GroupSpec> specs = {
      {{0}, AggFunc::kCount, -1},  // strings, dense path
      {{0}, AggFunc::kAvg, 4},
      {{1}, AggFunc::kCount, -1},  // beyond ±2^53, hash path
      {{1}, AggFunc::kSum, 4},
      {{1, 0}, AggFunc::kCount, -1},
      {{0, 1}, AggFunc::kMin, 4},
      {{2}, AggFunc::kCount, -1},  // ±0.0 among 21 groups
      {{2}, AggFunc::kMax, 4},
      {{2, 0}, AggFunc::kCount, -1},
      {{3}, AggFunc::kCount, -1},  // two NaN payloads among 7 groups
      {{3}, AggFunc::kAvg, 1},
      {{4}, AggFunc::kCount, -1},  // ascending discovery order
      {{4}, AggFunc::kSum, 2},
      {{0, 5, 1}, AggFunc::kCount, -1},  // nulls in the middle column
      {{2, 5}, AggFunc::kAvg, 4},
      {{4, 5, 0}, AggFunc::kCount, -1},
      {{0, 3}, AggFunc::kCount, -1},  // string + NaN double: exact keys
      {{0, 2}, AggFunc::kSum, 4},     // string + ±0.0: exact keys
      {{5, 0}, AggFunc::kCount, -1},  // code keys, nulls first and last
      {{5, 4, 0}, AggFunc::kAvg, 2},
  };
  // Which key form each column takes: ±2^53 ints, ±0.0 and NaN are not
  // order-coded; strings, the time and the small int column are.
  const std::vector<bool> order_coded = {true, false, false, false, true,
                                         true};
  for (int c = 0; c < t->num_columns(); ++c) {
    EXPECT_EQ(t->column(c)->order_coded(),
              order_coded[static_cast<size_t>(c)])
        << t->column_name(c);
  }
  for (const GroupSpec& spec : specs) {
    for (size_t s = 0; s < selections.size(); ++s) {
      SCOPED_TRACE("spec on column " + std::to_string(spec.group_columns[0]) +
                   " with " + std::to_string(spec.group_columns.size()) +
                   " keys, selection " + std::to_string(s));
      auto kernel = GroupAggregate(*t, selections[s], spec);
      ASSERT_TRUE(kernel.ok());
      ExpectMatchesReference(*t, selections[s], kernel.value(),
                             ScalarGroupAggregate(*t, selections[s], spec));
    }
  }
  // The dense string path emits dictionary rank order, not code order.
  const GroupedResult by_string =
      GroupAggregate(*t, selections.front(), {{0}, AggFunc::kCount, -1})
          .value();
  ASSERT_EQ(by_string.groups.size(), 5u);
  EXPECT_TRUE(by_string.Key(*t, 0, 0).is_null());
  EXPECT_EQ(by_string.Key(*t, 1, 0).as_string(), "");
  EXPECT_EQ(by_string.Key(*t, 2, 0).as_string(), "a");
  EXPECT_EQ(by_string.Key(*t, 3, 0).as_string(), "aa");
  EXPECT_EQ(by_string.Key(*t, 4, 0).as_string(), "b");
}

/// Key columns sized around the dense composite limit, each with nulls, so
/// a null digit turns up in every key position: `i255` (int64) and `d255`
/// (double) have 255 distinct values each, a 256 x 256 = 2^16-slot space,
/// the largest the dense tally takes; `d256` (double, 256 values) makes
/// 256 x 257 slots with `i255`, just past it; `s3` (3 strings, first seen
/// out of lexicographic order) sits between them in three-column keys.
/// Values come in random order, so the numeric codes are built through the
/// hash table and a sort.
TablePtr MakeCodeSpaceTable() {
  constexpr int kRows = 6000;
  const std::vector<std::string> tokens = {"m", "b", "x"};
  ColumnBuilder i255("i255", DataType::kInt64);
  ColumnBuilder d255("d255", DataType::kFloat64);
  ColumnBuilder d256("d256", DataType::kFloat64);
  ColumnBuilder s3("s3", DataType::kString);
  Rng rng(2022);
  for (int r = 0; r < kRows; ++r) {
    // The first 256 rows hold every value once, none null.
    const bool cover = r < 256;
    const auto pick = [&](uint64_t distinct) {
      return cover ? (static_cast<uint64_t>(r) * 97) % distinct
                   : rng.NextBounded(distinct);
    };
    if (!cover && rng.NextBool(0.05)) {
      i255.AppendNull();
    } else {
      EXPECT_TRUE(i255.AppendInt(static_cast<int64_t>(pick(255)) * 3 - 300)
                      .ok());
    }
    if (!cover && rng.NextBool(0.05)) {
      d255.AppendNull();
    } else {
      EXPECT_TRUE(
          d255.AppendDouble(static_cast<double>(pick(255)) * -0.5 + 7.25)
              .ok());
    }
    if (!cover && rng.NextBool(0.05)) {
      d256.AppendNull();
    } else {
      EXPECT_TRUE(
          d256.AppendDouble(static_cast<double>(pick(256)) * 1.5 - 100.0)
              .ok());
    }
    if (!cover && rng.NextBool(0.05)) {
      s3.AppendNull();
    } else {
      EXPECT_TRUE(s3.AppendString(tokens[pick(3)]).ok());
    }
  }
  std::vector<ColumnPtr> columns;
  for (ColumnBuilder* builder : {&i255, &d255, &d256, &s3}) {
    columns.push_back(builder->Finish());
  }
  return Table::Make("code_space", std::move(columns)).value();
}

/// The product of the key columns' code counts plus one (the null digit),
/// saturated at 2^64 - 1.
unsigned __int128 CodeSpace(const Table& t, const std::vector<int>& keys) {
  unsigned __int128 space = 1;
  for (int c : keys) {
    space *= static_cast<unsigned __int128>(t.column(c)->num_codes()) + 1;
  }
  return space;
}

// Composite code keys at the dense tally's limit and just past it, with
// null digits in the first, middle and last key positions, against the
// scalar reference on every selection kind.
TEST(KernelParityTest, CompositeCodeKeysMatchScalar) {
  TablePtr t = MakeCodeSpaceTable();
  const std::vector<int> expect_codes = {255, 255, 256, 3};
  for (int c = 0; c < t->num_columns(); ++c) {
    EXPECT_EQ(t->column(c)->num_codes(),
              expect_codes[static_cast<size_t>(c)]);
    EXPECT_TRUE(t->column(c)->order_coded());
  }
  EXPECT_EQ(CodeSpace(*t, {0, 1}), 1u << 16);
  EXPECT_EQ(CodeSpace(*t, {0, 2}), (1u << 16) + 256);
  std::vector<std::vector<int32_t>> selections =
      StressSelections(t->num_rows(), 31);
  std::vector<int32_t> reversed = selections.front();
  std::reverse(reversed.begin(), reversed.end());
  selections.push_back(std::move(reversed));
  const std::vector<GroupSpec> specs = {
      // 2^16 slots: the dense tally on the full-size selections, the
      // hashed code key on the gapped one (over 16 slots per row).
      {{0, 1}, AggFunc::kCount, -1},
      {{1, 0}, AggFunc::kAvg, 2},
      {{0, 2}, AggFunc::kCount, -1},  // 2^16 + 256 slots: hashed code key
      {{2, 0}, AggFunc::kSum, 0},
      {{3, 0}, AggFunc::kMin, 1},     // dense, string first
      {{0, 3}, AggFunc::kMax, 2},     // dense, string last
      {{0, 3, 1}, AggFunc::kCount, -1},  // string in the middle, hashed
      {{3, 2, 1}, AggFunc::kAvg, 0},
      {{2}, AggFunc::kCount, -1},     // one numeric column, dense
  };
  for (const GroupSpec& spec : specs) {
    for (size_t s = 0; s < selections.size(); ++s) {
      SCOPED_TRACE("spec on column " + std::to_string(spec.group_columns[0]) +
                   " with " + std::to_string(spec.group_columns.size()) +
                   " keys, selection " + std::to_string(s));
      auto kernel = GroupAggregate(*t, selections[s], spec);
      ASSERT_TRUE(kernel.ok());
      ExpectMatchesReference(*t, selections[s], kernel.value(),
                             ScalarGroupAggregate(*t, selections[s], spec));
    }
  }
}

// Code spaces past 2^16 on one column and past 2^62 on five: 70,000 rows
// with two all-distinct numeric columns (`id`, `t`) and three columns of
// 9,000 values (`u`, `w`, `s`), each with nulls. A single order-coded
// column with more than 2^16 codes takes the hashed code key; five columns
// whose code space passes 2^62 keep exact keys.
TEST(KernelParityTest, LargeCodeSpacesMatchScalar) {
  constexpr int kRows = 70'000;
  ColumnBuilder id("id", DataType::kInt64);
  ColumnBuilder time("t", DataType::kFloat64);
  ColumnBuilder u("u", DataType::kInt64);
  ColumnBuilder w("w", DataType::kFloat64);
  ColumnBuilder str("s", DataType::kString);
  Rng rng(4242);
  std::vector<int64_t> perm(kRows);
  for (int r = 0; r < kRows; ++r) perm[static_cast<size_t>(r)] = r;
  for (size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.NextBounded(i)]);
  }
  for (int r = 0; r < kRows; ++r) {
    const int64_t p = perm[static_cast<size_t>(r)];
    const int64_t v = p % 9000;
    // Rows 0..8999 hold every value of the 9,000-value columns.
    const bool null_row = r >= 9000 && r % 53 == 0;
    if (null_row) {
      id.AppendNull();
      str.AppendNull();
    } else {
      EXPECT_TRUE(id.AppendInt(p * 13 - 400'000).ok());
      EXPECT_TRUE(str.AppendString("k" + std::to_string(v)).ok());
    }
    if (r >= 9000 && r % 61 == 0) {
      time.AppendNull();
      u.AppendNull();
    } else {
      EXPECT_TRUE(time.AppendDouble(static_cast<double>(p) * 0.125).ok());
      EXPECT_TRUE(u.AppendInt(v * 7 - 1000).ok());
    }
    if (r >= 9000 && r % 67 == 0) {
      w.AppendNull();
    } else {
      EXPECT_TRUE(w.AppendDouble(static_cast<double>(v) * -0.25).ok());
    }
  }
  std::vector<ColumnPtr> columns;
  for (ColumnBuilder* builder : {&id, &time, &u, &w, &str}) {
    columns.push_back(builder->Finish());
  }
  TablePtr t = Table::Make("large_code_space", std::move(columns)).value();
  for (int c = 0; c < t->num_columns(); ++c) {
    EXPECT_TRUE(t->column(c)->order_coded());
  }
  EXPECT_GT(CodeSpace(*t, {0}), 1u << 16);
  EXPECT_LE(CodeSpace(*t, {2, 3, 4, 0}), (uint64_t{1} << 62));
  EXPECT_GT(CodeSpace(*t, {0, 1, 2, 3, 4}), (uint64_t{1} << 62));
  const std::vector<GroupSpec> specs = {
      {{0}, AggFunc::kCount, -1},           // hashed code key, one column
      {{1, 4}, AggFunc::kAvg, 3},           // hashed code key
      {{2, 3, 4, 0}, AggFunc::kSum, 1},     // hashed code key below 2^62
      {{0, 1, 2, 3, 4}, AggFunc::kCount, -1},  // past 2^62: exact keys
      {{4, 3, 2, 1, 0}, AggFunc::kMax, 2},
  };
  const auto selections = StressSelections(kRows, 43);
  for (const GroupSpec& spec : specs) {
    for (size_t s = 0; s < selections.size(); ++s) {
      SCOPED_TRACE("spec on column " + std::to_string(spec.group_columns[0]) +
                   " with " + std::to_string(spec.group_columns.size()) +
                   " keys, selection " + std::to_string(s));
      auto kernel = GroupAggregate(*t, selections[s], spec);
      ASSERT_TRUE(kernel.ok());
      ExpectMatchesReference(*t, selections[s], kernel.value(),
                             ScalarGroupAggregate(*t, selections[s], spec));
    }
  }
}

TEST(KernelErrorTest, GroupAggregateRejectsEachBadSpecWithItsCode) {
  TablePtr t = MakeCityTable();
  std::vector<int32_t> rows = AllRows(*t).value();
  const std::vector<std::pair<GroupSpec, StatusCode>> cases = {
      {{{}, AggFunc::kCount, -1}, StatusCode::kInvalidArgument},  // no keys
      {{{9}, AggFunc::kCount, -1}, StatusCode::kOutOfRange},  // group column
      {{{0, -1}, AggFunc::kCount, -1}, StatusCode::kOutOfRange},
      {{{0}, AggFunc::kSum, 9}, StatusCode::kOutOfRange},  // agg column
      {{{0}, AggFunc::kAvg, 0}, StatusCode::kTypeMismatch},  // AVG of strings
  };
  for (const auto& [spec, code] : cases) {
    auto result = GroupAggregate(*t, rows, spec);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), code) << result.status();
  }
}

TEST(FilterKernelStatsTest, ZoneMapSkipAndAllMatchCounters) {
  // Three full chunks of constant values 1 / 5 / 9. Filtering > 6 must
  // skip the first two chunks from the zone map alone and emit the third
  // without per-row tests.
  ColumnBuilder b("v", DataType::kInt64);
  for (int64_t r = 0; r < 3 * kColumnChunkSize; ++r) {
    ASSERT_TRUE(b.AppendInt(1 + 4 * (r >> kColumnChunkShift)).ok());
  }
  std::vector<ColumnPtr> columns;
  columns.push_back(b.Finish());
  TablePtr t = Table::Make("zones", std::move(columns)).value();
  std::vector<int32_t> rows = AllRows(*t).value();

  FilterKernelStats stats;
  auto result =
      FilterRows(*t, rows, 0, CompareOp::kGt, Value(int64_t{6}), &stats);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().size(), static_cast<size_t>(kColumnChunkSize));
  EXPECT_EQ(result.value().front(), 2 * kColumnChunkSize);
  EXPECT_EQ(stats.chunks_total, 3);
  EXPECT_EQ(stats.chunks_skipped, 2);
  EXPECT_EQ(stats.chunks_all_match, 1);
  EXPECT_EQ(stats.chunks_scanned, 0);
  EXPECT_DOUBLE_EQ(stats.skip_rate(), 2.0 / 3.0);

  // On a constant chunk even equality is decidable from the zone map alone
  // (min == max == term), so nothing is ever scanned.
  FilterKernelStats eq;
  ASSERT_TRUE(
      FilterRows(*t, rows, 0, CompareOp::kEq, Value(int64_t{5}), &eq)
          .ok());
  EXPECT_EQ(eq.chunks_skipped, 2);
  EXPECT_EQ(eq.chunks_all_match, 1);
  EXPECT_EQ(eq.chunks_scanned, 0);

  // A chunk whose range straddles the threshold must be genuinely scanned.
  ColumnBuilder mixed("v", DataType::kInt64);
  for (int64_t r = 0; r < kColumnChunkSize; ++r) {
    ASSERT_TRUE(mixed.AppendInt(r % 2 == 0 ? 1 : 9).ok());
  }
  std::vector<ColumnPtr> mixed_columns;
  mixed_columns.push_back(mixed.Finish());
  TablePtr tm = Table::Make("mixed", std::move(mixed_columns)).value();
  std::vector<int32_t> mrows = AllRows(*tm).value();
  FilterKernelStats scanned;
  auto odd = FilterRows(*tm, mrows, 0, CompareOp::kGt, Value(int64_t{6}),
                        &scanned);
  ASSERT_TRUE(odd.ok());
  EXPECT_EQ(odd.value().size(), static_cast<size_t>(kColumnChunkSize / 2));
  EXPECT_EQ(scanned.chunks_total, 1);
  EXPECT_EQ(scanned.chunks_skipped, 0);
  EXPECT_EQ(scanned.chunks_all_match, 0);
  EXPECT_EQ(scanned.chunks_scanned, 1);
}

TEST(KernelConcurrencyTest, SharedTableCallsFromManyThreadsMatchSerial) {
  // Parallel environment stepping (training actors, served sessions) calls
  // FilterRows and GroupAggregate on one shared table from several threads
  // at once, so neither may keep scratch state beyond the call. Under
  // ThreadSanitizer this is the dataframe engine's race check.
  constexpr int64_t kRows = 3 * kColumnChunkSize + 777;
  TablePtr t = MakeRandomTable(13, kRows);
  const auto selections = StressSelections(kRows, 13);
  const GroupSpec dense_spec{{2}, AggFunc::kAvg, 1};
  const GroupSpec hash_spec{{1, 0}, AggFunc::kSum, 0};
  struct Outputs {
    std::vector<std::vector<int32_t>> filtered;
    std::vector<GroupedResult> grouped;
  };
  auto compute = [&] {
    Outputs out;
    for (const auto& rows : selections) {
      out.filtered.push_back(
          FilterRows(*t, rows, 1, CompareOp::kGt, Value(0.5)).value());
      out.filtered.push_back(FilterRows(*t, rows, 2, CompareOp::kContains,
                                        Value(std::string("a")))
                                 .value());
      out.grouped.push_back(GroupAggregate(*t, rows, dense_spec).value());
      out.grouped.push_back(GroupAggregate(*t, rows, hash_spec).value());
    }
    return out;
  };
  const Outputs serial = compute();
  std::vector<Outputs> concurrent(4);
  {
    std::vector<std::thread> threads;
    for (Outputs& out : concurrent) {
      threads.emplace_back([&out, &compute] { out = compute(); });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (const Outputs& out : concurrent) {
    EXPECT_EQ(out.filtered, serial.filtered);
    ASSERT_EQ(out.grouped.size(), serial.grouped.size());
    for (size_t i = 0; i < out.grouped.size(); ++i) {
      ExpectGroupedBitIdentical(out.grouped[i], serial.grouped[i]);
    }
  }
}

// ------------------------------------------------------ AllRows boundary

TEST(AllRowsTest, Int32BoundaryIsEnforced) {
  const int64_t limit = std::numeric_limits<int32_t>::max();
  // Exactly INT32_MAX rows is still addressable; one more is not. The
  // validator takes a row count, so the boundary is testable without
  // materializing a 2^31-row table.
  EXPECT_TRUE(ValidateInt32RowRange(limit, "AllRows: row count").ok());
  Status over = ValidateInt32RowRange(limit + 1, "AllRows: row count");
  EXPECT_EQ(over.code(), StatusCode::kOutOfRange);
  EXPECT_NE(over.message().find("2147483648 rows"), std::string::npos);

  auto result = AllRowsForCount(limit + 1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);

  auto small = AllRowsForCount(3);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small.value(), (std::vector<int32_t>{0, 1, 2}));
}

}  // namespace
}  // namespace atena

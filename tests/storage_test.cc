// The flat row store and its zero-copy views (relation/row_store.h,
// relation/tuple_ref.h): storage layout, view lifetime rules, and the
// Table surface built on top of them. See docs/storage.md.

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "relation/csv.h"
#include "relation/row_store.h"
#include "relation/schema.h"
#include "relation/table.h"
#include "relation/tuple_ref.h"
#include "relation/value_pool.h"

namespace fixrep {
namespace {

TEST(TupleRefTest, ViewsOwningTupleImplicitly) {
  const Tuple t = {1, 2, 3};
  const TupleRef view = t;
  EXPECT_EQ(view.size(), 3u);
  EXPECT_EQ(view[0], 1);
  EXPECT_EQ(view[2], 3);
  EXPECT_EQ(view.data(), t.data());
}

TEST(TupleRefTest, EqualityComparesCells) {
  const Tuple a = {1, 2, 3};
  const Tuple b = {1, 2, 3};
  const Tuple c = {1, 2, 4};
  const Tuple shorter = {1, 2};
  EXPECT_EQ(TupleRef(a), TupleRef(b));  // distinct storage, same cells
  EXPECT_NE(TupleRef(a), TupleRef(c));
  EXPECT_NE(TupleRef(a), TupleRef(shorter));
  EXPECT_EQ(TupleRef(a), b);  // mixed Tuple/TupleRef comparison
}

TEST(TupleRefTest, ToTupleMaterializesACopy) {
  Tuple t = {7, 8};
  const TupleRef view = t;
  const Tuple copy = view.ToTuple();
  t[0] = 99;
  EXPECT_EQ(copy, (Tuple{7, 8}));
}

TEST(TupleRefTest, DefaultIsEmpty) {
  const TupleRef view;
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.size(), 0u);
  EXPECT_EQ(view, TupleRef());
}

TEST(TupleSpanTest, WritesThroughToTheOwningTuple) {
  Tuple t = {1, 2, 3};
  const TupleSpan span = t;  // shallow-const: still writable
  span[1] = 42;
  EXPECT_EQ(t[1], 42);
}

TEST(TupleSpanTest, ConvertsToTupleRef) {
  Tuple t = {5, 6};
  const TupleSpan span = t;
  const TupleRef view = span;
  EXPECT_EQ(view, t);
}

TEST(TupleSpanTest, CopyFromRestoresCells) {
  Tuple t = {1, 2, 3};
  const Tuple original = t;
  const TupleSpan span = t;
  span[0] = 9;
  span[2] = 9;
  span.CopyFrom(original);
  EXPECT_EQ(t, original);
}

TEST(RowStoreTest, AppendAndReadBack) {
  RowStore store(3);
  EXPECT_EQ(store.arity(), 3u);
  EXPECT_EQ(store.num_rows(), 0u);
  store.AppendRow(Tuple{1, 2, 3});
  store.AppendRow(Tuple{4, 5, 6});
  ASSERT_EQ(store.num_rows(), 2u);
  EXPECT_EQ(store.row(0), (Tuple{1, 2, 3}));
  EXPECT_EQ(store.row(1), (Tuple{4, 5, 6}));
  EXPECT_EQ(store.cell(1, 2), 6);
}

TEST(RowStoreTest, CellsAreContiguousAndArityStrided) {
  RowStore store(2);
  store.AppendRow(Tuple{10, 11});
  store.AppendRow(Tuple{20, 21});
  store.AppendRow(Tuple{30, 31});
  // One flat array: row i begins exactly arity cells after row i-1.
  const ValueId* base = store.row(0).data();
  EXPECT_EQ(store.row(1).data(), base + 2);
  EXPECT_EQ(store.row(2).data(), base + 4);
}

TEST(RowStoreTest, WriteCellAndWriteRow) {
  RowStore store(2);
  store.AppendRow(Tuple{1, 2});
  store.WriteCell(0, 1, 42);
  EXPECT_EQ(store.cell(0, 1), 42);
  const TupleSpan span = store.WriteRow(0);
  span[0] = 7;
  EXPECT_EQ(store.row(0), (Tuple{7, 42}));
}

TEST(RowStoreTest, InPlaceWritesNeverInvalidateViews) {
  RowStore store(2);
  store.AppendRow(Tuple{1, 2});
  store.AppendRow(Tuple{3, 4});
  const TupleRef view = store.row(0);
  const ValueId* before = view.data();
  for (size_t i = 0; i < 100; ++i) {
    store.WriteCell(1, 0, static_cast<ValueId>(i));
    store.WriteRow(1)[1] = static_cast<ValueId>(i);
  }
  EXPECT_EQ(view.data(), before);
  EXPECT_EQ(view, (Tuple{1, 2}));
}

TEST(RowStoreTest, ReserveMakesViewsStableAcrossAppends) {
  RowStore store(2);
  store.Reserve(1000);
  store.AppendRow(Tuple{1, 2});
  const ValueId* before = store.row(0).data();
  for (ValueId i = 0; i < 999; ++i) store.AppendRow(Tuple{i, i});
  EXPECT_EQ(store.row(0).data(), before);
  EXPECT_EQ(store.num_rows(), 1000u);
}

TEST(RowStoreTest, AppendRowUninitFillsWithNulls) {
  RowStore store(3);
  const TupleSpan span = store.AppendRowUninit();
  EXPECT_EQ(span.size(), 3u);
  EXPECT_EQ(store.row(0), (Tuple{kNullValue, kNullValue, kNullValue}));
  span[1] = 5;
  EXPECT_EQ(store.cell(0, 1), 5);
}

TEST(RowStoreTest, ClearKeepsTheAllocation) {
  RowStore store(4);
  for (ValueId i = 0; i < 100; ++i) {
    store.AppendRow(Tuple{i, i, i, i});
  }
  const size_t bytes_before = store.bytes();
  ASSERT_GT(bytes_before, 0u);
  store.Clear();
  EXPECT_EQ(store.num_rows(), 0u);
  EXPECT_EQ(store.bytes(), bytes_before);  // chunk reuse: no realloc
  store.AppendRow(Tuple{1, 2, 3, 4});
  EXPECT_EQ(store.row(0), (Tuple{1, 2, 3, 4}));
  EXPECT_EQ(store.bytes(), bytes_before);
}

TEST(RowStoreTest, GrowthIsRowAligned) {
  RowStore store(5);
  for (ValueId i = 0; i < 10000; ++i) {
    store.AppendRow(Tuple{i, i, i, i, i});
    // Capacity always holds whole rows: a reallocation can never split
    // one.
    EXPECT_EQ(store.capacity_rows() * store.arity() % store.arity(), 0u);
    ASSERT_GE(store.capacity_rows(), store.num_rows());
  }
  for (ValueId i = 0; i < 10000; ++i) {
    ASSERT_EQ(store.cell(static_cast<size_t>(i), 3), i) << "row " << i;
  }
}

TEST(RowStoreTest, ReserveRoundsUpToWholeBlocks) {
  RowStore store(2);
  store.Reserve(1);
  EXPECT_GE(store.capacity_rows(), RowStore::kRowsPerBlock);
  EXPECT_EQ(store.capacity_rows() % RowStore::kRowsPerBlock, 0u);
}

class TableStorageTest : public ::testing::Test {
 protected:
  TableStorageTest()
      : pool_(std::make_shared<ValuePool>()),
        schema_(std::make_shared<Schema>(
            "R", std::vector<std::string>{"a", "b", "c"})),
        table_(schema_, pool_) {}

  std::shared_ptr<ValuePool> pool_;
  std::shared_ptr<const Schema> schema_;
  Table table_;
};

TEST_F(TableStorageTest, RowViewsReadTheFlatStore) {
  table_.AppendRowStrings({"x", "y", "z"});
  const TupleRef row = table_.row(0);
  EXPECT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], pool_->Find("x"));
  EXPECT_EQ(row.ToTuple(),
            (Tuple{pool_->Find("x"), pool_->Find("y"), pool_->Find("z")}));
}

TEST_F(TableStorageTest, CopyingATableCopiesCells) {
  table_.AppendRowStrings({"x", "y", "z"});
  Table copy = table_;
  copy.WriteCell(0, 0, pool_->Intern("other"));
  EXPECT_EQ(table_.CellString(0, 0), "x");
  EXPECT_EQ(copy.CellString(0, 0), "other");
  EXPECT_FALSE(table_.RowsEqual(copy));
}

TEST_F(TableStorageTest, RowsEqualComparesCellsOnly) {
  table_.AppendRowStrings({"x", "y", "z"});
  Table other(schema_, pool_);
  EXPECT_FALSE(table_.RowsEqual(other));  // row-count mismatch
  other.AppendRowStrings({"x", "y", "z"});
  EXPECT_TRUE(table_.RowsEqual(other));
  other.WriteCell(0, 2, kNullValue);
  EXPECT_FALSE(table_.RowsEqual(other));
}

TEST_F(TableStorageTest, ClearKeepsSchemaAndPool) {
  table_.AppendRowStrings({"x", "y", "z"});
  table_.Clear();
  EXPECT_EQ(table_.num_rows(), 0u);
  table_.AppendRowStrings({"p", "q", "r"});
  EXPECT_EQ(table_.CellString(0, 0), "p");
}

// Satellite: CellString on a kNullValue cell must return a reference that
// can never dangle, whatever the table's lifetime.
TEST_F(TableStorageTest, NullCellStringIsEmptyAndOutlivesTheTable) {
  const std::string* empty = nullptr;
  {
    Table local(schema_, pool_);
    local.AppendRow({kNullValue, pool_->Intern("v"), kNullValue});
    empty = &local.CellString(0, 0);
    EXPECT_EQ(*empty, "");
    EXPECT_EQ(local.CellString(0, 2), "");
    EXPECT_EQ(local.CellString(0, 1), "v");
  }
  // The table is gone; the reference is to the process-lifetime empty
  // string, not into freed table state.
  EXPECT_EQ(*empty, "");
  Table another(schema_, pool_);
  another.AppendRow({kNullValue, kNullValue, kNullValue});
  // Every null cell of every table aliases the same static string.
  EXPECT_EQ(&another.CellString(0, 0), empty);
}

TEST_F(TableStorageTest, NullCellsRoundTripThroughCsvWrite) {
  table_.AppendRow({kNullValue, pool_->Intern("mid"), kNullValue});
  table_.AppendRowStrings({"u", "v", "w"});
  std::ostringstream out;
  WriteCsv(table_, out);
  EXPECT_EQ(out.str(), "a,b,c\n,mid,\nu,v,w\n");

  // Reading it back: the empty fields come back as the interned empty
  // string (a real value), rendering identically through CellString.
  std::istringstream in(out.str());
  const Table reread = ReadCsv(in, "R", pool_);
  ASSERT_EQ(reread.num_rows(), 2u);
  EXPECT_EQ(reread.CellString(0, 0), "");
  EXPECT_EQ(reread.CellString(0, 1), "mid");
  EXPECT_EQ(reread.CellString(0, 2), "");
  EXPECT_EQ(reread.cell(0, 0), pool_->Find(""));
  // And a second write is byte-identical to the first.
  std::ostringstream again;
  WriteCsv(reread, again);
  EXPECT_EQ(again.str(), out.str());
}

TEST(ValuePoolGrowthTest, GrowthDoesNotDisturbInterning) {
  ValuePool pool;
  const ValueId a = pool.Intern("before");
  // Enough distinct values to double the slot table many times over.
  for (int i = 0; i < 100000; ++i) {
    EXPECT_EQ(pool.Intern("v" + std::to_string(i)), i + 1);
  }
  EXPECT_EQ(pool.Find("before"), a);
  EXPECT_EQ(pool.Find("v99999"), 100000);
  EXPECT_EQ(pool.Find("v100000"), kNullValue);
  // Values that differ only past the first 8-byte word, or only by a
  // trailing NUL, stay distinct.
  const ValueId nul = pool.Intern(std::string_view("before\0", 7));
  EXPECT_NE(nul, a);
  EXPECT_NE(pool.Intern("prefix__x"), pool.Intern("prefix__y"));
  const ValueId b = pool.Intern("after");
  EXPECT_EQ(pool.GetString(b), "after");
  EXPECT_EQ(pool.size(), 100005u);
}

}  // namespace
}  // namespace fixrep

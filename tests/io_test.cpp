// Tests for text I/O: DOT export, edge lists, tables, schedule and
// bit-string formatting.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "shc/bits/bitstring.hpp"
#include "shc/graph/generators.hpp"
#include "shc/graph/io.hpp"
#include "shc/sim/flat_schedule.hpp"

namespace shc {
namespace {

TEST(Dot, DecimalLabelsWhenBitsZero) {
  std::ostringstream os;
  write_dot(os, make_path(3), "p3");
  const std::string dot = os.str();
  EXPECT_NE(dot.find("graph p3 {"), std::string::npos);
  EXPECT_EQ(dot.find("label="), std::string::npos);
  EXPECT_NE(dot.find("v0 -- v1;"), std::string::npos);
  EXPECT_NE(dot.find("v1 -- v2;"), std::string::npos);
  EXPECT_EQ(dot.back(), '\n');
}

TEST(Dot, BinaryLabels) {
  std::ostringstream os;
  write_dot(os, make_hypercube(2), "q2", 2);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("v0 [label=\"00\"];"), std::string::npos);
  EXPECT_NE(dot.find("v3 [label=\"11\"];"), std::string::npos);
}

TEST(EdgeList, CanonicalPairs) {
  std::ostringstream os;
  write_edge_list(os, make_cycle(4));
  EXPECT_EQ(os.str(), "0 1\n0 3\n1 2\n2 3\n");
}

TEST(Table, AlignsColumns) {
  TextTable t({"a", "bb"});
  t.add_row({"100", "2"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  // Header padded to the widest cell in each column.
  EXPECT_NE(out.find("  a  bb"), std::string::npos);
  EXPECT_NE(out.find("100   2"), std::string::npos);
}

TEST(Table, EmptyTableStillPrintsHeader) {
  TextTable t({"x"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find('x'), std::string::npos);
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(ScheduleFormat, DirectAndDetourCalls) {
  FlatSchedule s;
  s.source = 0;
  s.begin_round();
  s.add_call({0, 1});
  s.begin_round();
  s.add_call({0, 2, 3});
  s.add_call({1, 5});
  const std::string text = format_schedule(s, 3);
  EXPECT_NE(text.find("broadcast from 000 in 2 round(s)"), std::string::npos);
  EXPECT_NE(text.find("000 -> 001  (length 1)"), std::string::npos);
  EXPECT_NE(text.find("000 -> 011  (length 2, via 010)"), std::string::npos);
  EXPECT_NE(text.find("001 -> 101"), std::string::npos);
}

TEST(ScheduleFormat, DecimalMode) {
  FlatSchedule s;
  s.source = 7;
  s.begin_round();
  s.add_call({7, 6});
  const std::string text = format_schedule(s, 0);
  EXPECT_NE(text.find("broadcast from 7"), std::string::npos);
  EXPECT_NE(text.find("7 -> 6"), std::string::npos);
}

TEST(ScheduleStats, CountsCallsAndLengths) {
  FlatSchedule s;
  s.source = 0;
  s.begin_round();
  s.add_call({0, 1});
  s.begin_round();
  s.add_call({0, 2, 3});
  s.add_call({1, 5});
  EXPECT_EQ(s.num_rounds(), 2);
  EXPECT_EQ(s.num_calls(), 3u);
  EXPECT_EQ(s.max_call_length(), 2);
  EXPECT_EQ(FlatSchedule{}.max_call_length(), 0);
}

TEST(Bitstring, WidthMatchesCubeDim) {
  EXPECT_EQ(to_bitstring(5, 6), "000101");
  EXPECT_EQ(to_bitstring(63, 6), "111111");
}

TEST(TextTable, RejectsMismatchedRowWidthUnconditionally) {
  // Row width checking was a bare assert (gone under NDEBUG); add_row
  // now throws with both widths named.
  TextTable t({"a", "bb"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  try {
    t.add_row({"1", "2", "3"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "TextTable::add_row: row width 3 does not match header width 2");
  }
  // The table stays usable after a rejected row.
  t.add_row({"x", "yy"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("x  yy"), std::string::npos);
}

}  // namespace
}  // namespace shc

// Exact reproduction of Tables I-IV of the paper from the FlexVC
// admissibility engine. Every cell of every table is asserted.
#include "core/admissibility.hpp"

#include <gtest/gtest.h>

#include "core/canonical_paths.hpp"

namespace flexnet {
namespace {

struct TableCase {
  std::string arrangement;
  std::string min_label;
  std::string val_label;
  std::string par_label;
};

class TableTest : public ::testing::TestWithParam<TableCase> {
 protected:
  static std::string classify(const std::string& arrangement,
                              const CanonicalRouting& routing) {
    const VcTemplate tmpl(VcArrangement::parse(arrangement));
    if (!tmpl.arrangement().has_reply())
      return support_label(
          classify_flexvc(tmpl, MsgClass::kRequest, routing));
    return support_label(classify_flexvc(tmpl, MsgClass::kRequest, routing),
                         classify_flexvc(tmpl, MsgClass::kReply, routing));
  }
};

// ---------------------------------------------------------------- Table I
// Allowed paths using FlexVC in a generic diameter-2 network.
using TableI = TableTest;

TEST_P(TableI, Cell) {
  const auto& c = GetParam();
  EXPECT_EQ(classify(c.arrangement, generic_d2_min()), c.min_label);
  EXPECT_EQ(classify(c.arrangement, generic_d2_valiant()), c.val_label);
  EXPECT_EQ(classify(c.arrangement, generic_d2_par()), c.par_label);
}

INSTANTIATE_TEST_SUITE_P(
    Paper, TableI,
    ::testing::Values(TableCase{"2", "safe", "X", "X"},
                      TableCase{"3", "safe", "opport.", "opport."},
                      TableCase{"4", "safe", "safe", "opport."},
                      TableCase{"5", "safe", "safe", "safe"}),
    [](const auto& info) { return "VCs_" + info.param.arrangement; });

// --------------------------------------------------------------- Table II
// FlexVC with protocol deadlock (request+reply) in a generic diameter-2
// network. The engine reports per-class labels; the paper's Table II prints
// the request-side label only ("X" for 2+2), while its Table IV uses the
// more precise split notation ("X / opport.") for the identical situation —
// we use the precise form throughout.
using TableII = TableTest;

TEST_P(TableII, Cell) {
  const auto& c = GetParam();
  EXPECT_EQ(classify(c.arrangement, generic_d2_min()), c.min_label);
  EXPECT_EQ(classify(c.arrangement, generic_d2_valiant()), c.val_label);
  EXPECT_EQ(classify(c.arrangement, generic_d2_par()), c.par_label);
}

INSTANTIATE_TEST_SUITE_P(
    Paper, TableII,
    ::testing::Values(
        TableCase{"2+2", "safe", "X / opport.", "X / opport."},
        TableCase{"3+2", "safe", "opport.", "opport."},
        TableCase{"3+3", "safe", "opport.", "opport."},
        TableCase{"4+4", "safe", "safe", "opport."},
        TableCase{"5+5", "safe", "safe", "safe"}),
    [](const ::testing::TestParamInfo<TableCase>& info) {
      std::string name = "VCs_" + info.param.arrangement;
      for (auto& ch : name)
        if (ch == '+') ch = 'p';
      return name;
    });

// -------------------------------------------------------------- Table III
// FlexVC in a diameter-3 Dragonfly with local/global link-type order.
using TableIII = TableTest;

TEST_P(TableIII, Cell) {
  const auto& c = GetParam();
  EXPECT_EQ(classify(c.arrangement, dragonfly_min()), c.min_label);
  EXPECT_EQ(classify(c.arrangement, dragonfly_valiant()), c.val_label);
  EXPECT_EQ(classify(c.arrangement, dragonfly_par()), c.par_label);
}

INSTANTIATE_TEST_SUITE_P(
    Paper, TableIII,
    ::testing::Values(TableCase{"2/1", "safe", "X", "X"},
                      TableCase{"3/1", "safe", "X", "X"},
                      TableCase{"2/2", "safe", "X", "X"},
                      TableCase{"3/2", "safe", "opport.", "opport."},
                      TableCase{"4/2", "safe", "safe", "opport."},
                      TableCase{"5/2", "safe", "safe", "safe"}),
    [](const ::testing::TestParamInfo<TableCase>& info) {
      std::string name = "VCs_" + info.param.arrangement;
      for (auto& ch : name)
        if (ch == '/') ch = '_';
      return name;
    });

// --------------------------------------------------------------- Table IV
// FlexVC with protocol deadlock in the Dragonfly. The 4/2 (=2x(2/1)) entry
// is the paper's split "X / opport." case: no safe escape exists within the
// request VCs, but replies can leverage the full unified sequence.
using TableIV = TableTest;

TEST_P(TableIV, Cell) {
  const auto& c = GetParam();
  EXPECT_EQ(classify(c.arrangement, dragonfly_min()), c.min_label);
  EXPECT_EQ(classify(c.arrangement, dragonfly_valiant()), c.val_label);
  EXPECT_EQ(classify(c.arrangement, dragonfly_par()), c.par_label);
}

INSTANTIATE_TEST_SUITE_P(
    Paper, TableIV,
    ::testing::Values(
        TableCase{"2/1+2/1", "safe", "X / opport.", "X / opport."},
        TableCase{"3/2+2/1", "safe", "opport.", "opport."},
        TableCase{"4/2+4/2", "safe", "safe", "opport."},
        TableCase{"5/2+5/2", "safe", "safe", "safe"}),
    [](const ::testing::TestParamInfo<TableCase>& info) {
      std::string name = "VCs_" + info.param.arrangement;
      for (auto& ch : name) {
        if (ch == '/') ch = '_';
        if (ch == '+') ch = 'p';
      }
      return name;
    });

// ------------------------------------------------------- Baseline contrast
// The baseline fixed-VC policy supports only safe arrangements: it has no
// opportunistic mode, which is exactly the inefficiency FlexVC removes.

TEST(BaselineClassification, RequiresFullReference) {
  const VcTemplate t32(VcArrangement::parse("3/2"));
  EXPECT_EQ(classify_baseline(t32, MsgClass::kRequest, dragonfly_valiant()),
            PathSupport::kForbidden);
  const VcTemplate t42(VcArrangement::parse("4/2"));
  EXPECT_EQ(classify_baseline(t42, MsgClass::kRequest, dragonfly_valiant()),
            PathSupport::kSafe);
  EXPECT_EQ(classify_baseline(t42, MsgClass::kRequest, dragonfly_par()),
            PathSupport::kForbidden);
  const VcTemplate t52(VcArrangement::parse("5/2"));
  EXPECT_EQ(classify_baseline(t52, MsgClass::kRequest, dragonfly_par()),
            PathSupport::kSafe);
}

TEST(BaselineClassification, MinAlwaysSafeAtTwoOne) {
  const VcTemplate tmpl(VcArrangement::parse("2/1"));
  EXPECT_EQ(classify_baseline(tmpl, MsgClass::kRequest, dragonfly_min()),
            PathSupport::kSafe);
}

// ------------------------------------------------------------ Memory claim
// SIII-B: distance-based needs 5+5=10 VCs for safe VAL+PAR request/reply;
// FlexVC supports the same paths with 3+2=5, a 50% reduction.

TEST(MemoryReduction, FiftyPercentClaim) {
  const VcTemplate flex(VcArrangement::parse("3+2"));
  EXPECT_EQ(classify_flexvc(flex, MsgClass::kRequest, generic_d2_valiant()),
            PathSupport::kOpportunistic);
  EXPECT_EQ(classify_flexvc(flex, MsgClass::kRequest, generic_d2_par()),
            PathSupport::kOpportunistic);
  EXPECT_EQ(classify_flexvc(flex, MsgClass::kReply, generic_d2_valiant()),
            PathSupport::kOpportunistic);
  EXPECT_EQ(classify_flexvc(flex, MsgClass::kReply, generic_d2_par()),
            PathSupport::kOpportunistic);
  const VcTemplate base(VcArrangement::parse("5+5"));
  for (const MsgClass cls : {MsgClass::kRequest, MsgClass::kReply}) {
    EXPECT_EQ(classify_baseline(base, cls, generic_d2_valiant()),
              PathSupport::kSafe);
    EXPECT_EQ(classify_baseline(base, cls, generic_d2_par()),
              PathSupport::kSafe);
  }
  EXPECT_EQ(flex.num_positions(), 5);
  EXPECT_EQ(base.num_positions(), 10);  // 2x the buffers for the same paths
}

}  // namespace
}  // namespace flexnet

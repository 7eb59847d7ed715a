#include <cmath>
#include <gtest/gtest.h>

#include "dsslice/core/quality.hpp"
#include "dsslice/util/check.hpp"
#include "test_util.hpp"

namespace dsslice {
namespace {

DeadlineAssignment two_windows() {
  DeadlineAssignment a;
  a.windows = {Window{0.0, 30.0}, Window{30.0, 50.0}};
  return a;
}

TEST(Quality, LaxitiesAndMinLaxity) {
  const auto a = two_windows();
  const std::vector<double> est{10.0, 18.0};
  const auto xs = laxities(a, est);
  ASSERT_EQ(xs.size(), 2u);
  EXPECT_DOUBLE_EQ(xs[0], 20.0);
  EXPECT_DOUBLE_EQ(xs[1], 2.0);
  EXPECT_DOUBLE_EQ(min_laxity(a, est), 2.0);
}

TEST(Quality, LatenessFromSchedule) {
  const auto a = two_windows();
  Schedule s(2, 1);
  s.place(0, 0, 0.0, 10.0);    // lateness -20
  EXPECT_DOUBLE_EQ(max_lateness(s, a), -20.0);
  s.place(1, 0, 30.0, 48.0);   // lateness -2
  EXPECT_DOUBLE_EQ(max_lateness(s, a), -2.0);
}

// Schedule::entry throws for an unplaced task, so max_lateness must skip
// task 1 to return task 0's lateness.
TEST(Quality, LatenessSkipsUnplacedTasks) {
  const auto a = two_windows();
  Schedule s(2, 1);
  EXPECT_THROW(max_lateness(s, a), ConfigError);  // no scheduled tasks
  s.place(0, 0, 0.0, 10.0);
  EXPECT_DOUBLE_EQ(max_lateness(s, a), -20.0);
}

TEST(Quality, AssessQualityCombines) {
  const auto a = two_windows();
  const std::vector<double> est{10.0, 18.0};
  Schedule s(2, 1);
  s.place(0, 0, 0.0, 10.0);
  s.place(1, 0, 30.0, 48.0);
  const QualityReport r = assess_quality(a, est, s);
  EXPECT_DOUBLE_EQ(r.min_laxity, 2.0);
  EXPECT_DOUBLE_EQ(r.max_lateness, -2.0);
  EXPECT_TRUE(r.all_deadlines_met);
}

TEST(Quality, MissedDeadlineFlagsReport) {
  const auto a = two_windows();
  const std::vector<double> est{10.0, 18.0};
  Schedule s(2, 1);
  s.place(0, 0, 0.0, 10.0);
  s.place(1, 0, 40.0, 58.0);  // finish 58 > deadline 50
  const QualityReport r = assess_quality(a, est, s);
  EXPECT_DOUBLE_EQ(r.max_lateness, 8.0);
  EXPECT_FALSE(r.all_deadlines_met);
}

TEST(Quality, EmptyScheduleReport) {
  const auto a = two_windows();
  const std::vector<double> est{10.0, 18.0};
  const Schedule s(2, 1);
  const QualityReport r = assess_quality(a, est, s);
  EXPECT_FALSE(r.all_deadlines_met);
  EXPECT_TRUE(std::isinf(r.max_lateness));
}

TEST(Quality, SizeMismatchThrows) {
  const auto a = two_windows();
  EXPECT_THROW(laxities(a, std::vector<double>{1.0}), ConfigError);
}

}  // namespace
}  // namespace dsslice

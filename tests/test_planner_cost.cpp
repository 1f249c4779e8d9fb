// Cost-aware batch planner: pure-function properties over PlannerInput.
//
// plan_cost_batch() is the one reordering point of the serving engine, so
// its contract is pinned here exhaustively: determinism, priority-first
// ordering, laxity ordering within a class, lane/query caps with
// skip-not-stop semantics, root dedup, and the FIFO degeneration that the
// engine's trace-replay test relies on (no deadlines + no congestion =
// admission order).
#include "serve/batch_planner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "serve/cost_model.hpp"
#include "util/prng.hpp"

namespace sembfs::serve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

PlannerInput::Entry entry(Vertex root, std::int64_t degree,
                          double slack_ms = kInf,
                          Priority priority = Priority::Normal) {
  PlannerInput::Entry e;
  e.root = root;
  e.degree = degree;
  e.slack_ms = slack_ms;
  e.priority = priority;
  return e;
}

TEST(CostModelTest, CostGrowsWithDegreeAndCongestion) {
  const CostModelParams params;
  const CongestionSignal calm;
  EXPECT_LT(predicted_cost_ms(0, calm, params),
            predicted_cost_ms(1000, calm, params));
  CongestionSignal busy;
  busy.queue_depth = 16.0;
  busy.avg_wait_us = 500.0;
  EXPECT_LT(predicted_cost_ms(1000, calm, params),
            predicted_cost_ms(1000, busy, params));
  // Pure: identical inputs, identical output.
  EXPECT_EQ(predicted_cost_ms(1000, busy, params),
            predicted_cost_ms(1000, busy, params));
}

TEST(PlanCostBatchTest, HighPriorityAlwaysPlansFirst) {
  PlannerInput input;
  input.max_lanes = 8;
  input.entries.push_back(entry(0, 0, 1.0));  // tightest deadline, normal
  input.entries.push_back(entry(1, 1'000'000, kInf, Priority::High));
  input.entries.push_back(entry(2, 0, kInf, Priority::High));
  const PlanDecision decision = plan_cost_batch(input);
  ASSERT_EQ(decision.picked.size(), 3u);
  // Both high entries precede the normal one even though the normal one
  // is cheaper and nearer its deadline.
  EXPECT_EQ(input.entries[decision.picked[0]].priority, Priority::High);
  EXPECT_EQ(input.entries[decision.picked[1]].priority, Priority::High);
  EXPECT_EQ(decision.picked[2], 0u);
}

TEST(PlanCostBatchTest, LaxityOrdersWithinPriorityClass) {
  // Same slack: the expensive query has less laxity, so it plans first.
  PlannerInput input;
  input.max_lanes = 8;
  input.entries.push_back(entry(0, 10, 50.0));
  input.entries.push_back(entry(1, 1'000'000, 50.0));
  const PlanDecision expensive_first = plan_cost_batch(input);
  ASSERT_EQ(expensive_first.picked.size(), 2u);
  EXPECT_EQ(expensive_first.picked[0], 1u);

  // Cheap near-deadline vs expensive slack: the cheap one wins on both
  // terms — this is the headline property of the cost-aware planner.
  PlannerInput mixed;
  mixed.max_lanes = 8;
  mixed.entries.push_back(entry(0, 1'000'000, 10'000.0));  // slack hog
  mixed.entries.push_back(entry(1, 10, 5.0));              // urgent, cheap
  const PlanDecision urgent_first = plan_cost_batch(mixed);
  ASSERT_EQ(urgent_first.picked.size(), 2u);
  EXPECT_EQ(urgent_first.picked[0], 1u);
}

TEST(PlanCostBatchTest, NoDeadlinesDegenerateToAdmissionOrder) {
  // The engine's determinism contract: no deadlines (infinite slack) and
  // all-normal priority leave only the admission-index tie-break, so the
  // plan is FIFO regardless of degrees or congestion.
  PlannerInput input;
  input.max_lanes = 8;
  input.congestion.queue_depth = 12.0;
  input.congestion.avg_wait_us = 900.0;
  input.entries.push_back(entry(0, 500));
  input.entries.push_back(entry(1, 5));
  input.entries.push_back(entry(2, 50'000));
  const PlanDecision decision = plan_cost_batch(input);
  EXPECT_EQ(decision.picked, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(PlanCostBatchTest, LaneCapSkipsNewRootsButKeepsRiders) {
  // FIFO stops at the lane cap; the cost planner must SKIP the new root
  // and still pack a later rider of an already-chosen lane.
  PlannerInput input;
  input.max_lanes = 2;
  input.entries.push_back(entry(10, 0));
  input.entries.push_back(entry(20, 0));
  input.entries.push_back(entry(30, 0));  // third root: no lane for it
  input.entries.push_back(entry(10, 0));  // rider of lane 0, behind the skip
  const PlanDecision decision = plan_cost_batch(input);
  EXPECT_EQ(decision.width(), 2u);
  ASSERT_EQ(decision.picked.size(), 3u);
  EXPECT_EQ(decision.picked, (std::vector<std::size_t>{0, 1, 3}));
  EXPECT_EQ(decision.lane_of, (std::vector<std::size_t>{0, 1, 0}));
}

TEST(PlanCostBatchTest, QueryCapBoundsTotalPicks) {
  PlannerInput input;
  input.max_lanes = 8;
  input.max_queries = 3;
  for (int i = 0; i < 10; ++i) input.entries.push_back(entry(7, 0));
  const PlanDecision decision = plan_cost_batch(input);
  EXPECT_EQ(decision.width(), 1u);  // all riders of one root
  EXPECT_EQ(decision.picked.size(), 3u);
}

TEST(PlanCostBatchTest, SeededPropertySweep) {
  // Property test over seeded random inputs:
  //   1. determinism — same input twice gives the same decision;
  //   2. every High pick precedes every Normal pick;
  //   3. within a priority class, picks are sorted by (laxity, index);
  //   4. width <= max_lanes, picks <= max_queries, lanes consistent with
  //      roots, no entry picked twice.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Xoroshiro128 rng{derive_seed(4242, seed)};
    PlannerInput input;
    input.max_lanes = 1 + rng.next_below(8);
    input.max_queries = rng.next_below(2) == 0 ? 0 : 1 + rng.next_below(24);
    input.congestion.queue_depth = static_cast<double>(rng.next_below(32));
    input.congestion.avg_wait_us = static_cast<double>(rng.next_below(2000));
    const std::size_t n = 1 + rng.next_below(40);
    for (std::size_t i = 0; i < n; ++i) {
      const bool deadline = rng.next_below(2) == 0;
      input.entries.push_back(entry(
          static_cast<Vertex>(rng.next_below(12)),
          static_cast<std::int64_t>(rng.next_below(100'000)),
          deadline ? 0.1 * static_cast<double>(1 + rng.next_below(10'000))
                   : kInf,
          rng.next_below(4) == 0 ? Priority::High : Priority::Normal));
    }

    const PlanDecision a = plan_cost_batch(input);
    const PlanDecision b = plan_cost_batch(input);
    EXPECT_EQ(a.picked, b.picked) << "seed=" << seed;
    EXPECT_EQ(a.lane_of, b.lane_of) << "seed=" << seed;
    EXPECT_EQ(a.roots, b.roots) << "seed=" << seed;

    EXPECT_LE(a.width(), input.max_lanes) << "seed=" << seed;
    if (input.max_queries != 0) {
      EXPECT_LE(a.picked.size(), input.max_queries) << "seed=" << seed;
    }
    ASSERT_EQ(a.picked.size(), a.lane_of.size());
    ASSERT_EQ(a.picked.size(), a.cost_ms.size());

    std::vector<bool> taken(n, false);
    bool seen_normal = false;
    double last_laxity = -kInf;
    std::size_t last_index = 0;
    for (std::size_t i = 0; i < a.picked.size(); ++i) {
      const std::size_t idx = a.picked[i];
      ASSERT_LT(idx, n);
      EXPECT_FALSE(taken[idx]) << "seed=" << seed << " picked twice";
      taken[idx] = true;
      const PlannerInput::Entry& e = input.entries[idx];
      EXPECT_EQ(a.roots[a.lane_of[i]], e.root) << "seed=" << seed;
      if (e.priority == Priority::High) {
        EXPECT_FALSE(seen_normal)
            << "seed=" << seed << " High planned after Normal";
      }
      const double laxity = e.slack_ms - a.cost_ms[i];
      if (e.priority == Priority::Normal && !seen_normal) {
        seen_normal = true;  // class boundary: restart the monotone check
        last_laxity = -kInf;
      }
      if (laxity == last_laxity) {
        EXPECT_GT(idx, last_index) << "seed=" << seed << " tie-break broken";
      } else if (i > 0) {
        // Skip-not-stop can interleave riders of earlier lanes, but the
        // pick ORDER itself must still be laxity-monotone within a class
        // (the planner walks its sorted order exactly once).
        EXPECT_GE(laxity, last_laxity) << "seed=" << seed;
      }
      last_laxity = laxity;
      last_index = idx;
    }
  }
}

TEST(PlannerLogTest, RecordsSpansThreadSafely) {
  PlannerLog log;
  PlannerInput input;
  input.max_lanes = 4;
  input.entries.push_back(entry(3, 100, 2.5, Priority::High));
  const PlanDecision decision = plan_cost_batch(input);
  log.record(PlannerSpan{input, decision});
  ASSERT_EQ(log.span_count(), 1u);
  const std::vector<PlannerSpan> spans = log.spans();
  ASSERT_EQ(spans[0].input.entries.size(), 1u);
  EXPECT_EQ(spans[0].input.entries[0].root, 3);
  EXPECT_EQ(spans[0].decision.picked, decision.picked);
  // Replay: re-planning the logged input reproduces the logged decision.
  const PlanDecision replay = plan_cost_batch(spans[0].input);
  EXPECT_EQ(replay.picked, spans[0].decision.picked);
  EXPECT_EQ(replay.roots, spans[0].decision.roots);
  log.clear();
  EXPECT_EQ(log.span_count(), 0u);
}

}  // namespace
}  // namespace sembfs::serve

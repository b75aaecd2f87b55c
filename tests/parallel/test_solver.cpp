#include "parallel/solver.hpp"

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "vc/oracle.hpp"

namespace gvc::parallel {
namespace {

TEST(Solver, MethodNames) {
  EXPECT_STREQ(method_name(Method::kSequential), "Sequential");
  EXPECT_STREQ(method_name(Method::kStackOnly), "StackOnly");
  EXPECT_STREQ(method_name(Method::kHybrid), "Hybrid");
  EXPECT_STREQ(method_name(Method::kGlobalOnly), "GlobalOnly");
  EXPECT_STREQ(method_name(Method::kWorkStealing), "WorkStealing");
}

TEST(Solver, AllMethodsListsEveryMethodOnce) {
  EXPECT_EQ(all_methods().size(), 5u);
  EXPECT_EQ(all_methods().front(), Method::kSequential);
}

TEST(Solver, TryParseMethodReturnsNulloptOnUnknown) {
  EXPECT_EQ(try_parse_method("hybrid"), Method::kHybrid);
  EXPECT_EQ(try_parse_method("WORK-STEALING"), Method::kWorkStealing);
  EXPECT_EQ(try_parse_method("bogus"), std::nullopt);
  EXPECT_EQ(try_parse_method(""), std::nullopt);
}

TEST(Solver, ParseMethodSpellings) {
  EXPECT_EQ(parse_method("sequential"), Method::kSequential);
  EXPECT_EQ(parse_method("SEQ"), Method::kSequential);
  EXPECT_EQ(parse_method("StackOnly"), Method::kStackOnly);
  EXPECT_EQ(parse_method("stack-only"), Method::kStackOnly);
  EXPECT_EQ(parse_method("HYBRID"), Method::kHybrid);
  EXPECT_EQ(parse_method("globalonly"), Method::kGlobalOnly);
  EXPECT_EQ(parse_method("global-only"), Method::kGlobalOnly);
  EXPECT_EQ(parse_method("WorkStealing"), Method::kWorkStealing);
  EXPECT_EQ(parse_method("work-stealing"), Method::kWorkStealing);
}

TEST(SolverDeathTest, ParseMethodRejectsUnknown) {
  EXPECT_DEATH(parse_method("cuda"), "unknown method");
}

// The headline integration property: the code versions (the paper's three
// plus the two study baselines) are interchangeable in their answers on
// every instance class.
class AllMethodsTest : public ::testing::TestWithParam<Method> {};
INSTANTIATE_TEST_SUITE_P(Methods, AllMethodsTest,
                         ::testing::Values(Method::kSequential,
                                           Method::kStackOnly, Method::kHybrid,
                                           Method::kGlobalOnly,
                                           Method::kWorkStealing),
                         [](const auto& info) {
                           return method_name(info.param);
                         });

ParallelConfig small_config() {
  ParallelConfig c;
  c.device = device::DeviceSpec::host_scaled();
  c.grid_override = 4;
  c.start_depth = 3;
  c.worklist_capacity = 128;
  return c;
}

TEST_P(AllMethodsTest, MvcMatchesOracleAcrossFamilies) {
  const Method method = GetParam();
  std::vector<graph::CsrGraph> graphs = {
      graph::complement(graph::p_hat(22, 0.3, 0.8, 1)),  // dense complement
      graph::gnp(26, 0.2, 2),                            // sparse random
      graph::barabasi_albert(26, 3, 3),                  // power law
      graph::watts_strogatz(24, 2, 0.2, 4),              // small world
      graph::power_grid(28, 0.4, 5),                     // quasi-tree
      graph::bipartite(10, 14, 60, 6),                   // bipartite
      graph::random_tree(30, 7),                         // tree
  };
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const auto& g = graphs[i];
    ParallelResult r = solve(g, method, small_config());
    EXPECT_EQ(r.best_size, vc::oracle_mvc_size(g)) << "family " << i;
    EXPECT_TRUE(graph::is_vertex_cover(g, r.cover)) << "family " << i;
  }
}

// A block that reduced a node against one shared best and then tested the
// edge bound against a newer, smaller best pruned subtrees holding a smaller
// cover: on this G(24, p) graph (minimum cover 13) Hybrid, WorkStealing and
// GlobalOnly each returned 14 as optimal in 2-10% of default-config solves
// on a 4-core host. The race needs blocks running in parallel, so on one
// core this passes either way.
TEST_P(AllMethodsTest, MvcOptimumSurvivesConcurrentBestUpdates) {
  const Method method = GetParam();
  const graph::CsrGraph g = graph::from_edges(
      24, {{0, 1},   {0, 5},   {0, 22},  {0, 23},  {1, 7},   {1, 12},
           {2, 4},   {2, 5},   {2, 6},   {2, 7},   {2, 8},   {2, 12},
           {2, 21},  {3, 8},   {3, 13},  {3, 15},  {3, 21},  {3, 23},
           {4, 15},  {5, 9},   {5, 16},  {6, 8},   {6, 14},  {6, 20},
           {7, 11},  {8, 13},  {8, 17},  {8, 21},  {9, 22},  {9, 23},
           {10, 16}, {10, 18}, {10, 20}, {11, 21}, {12, 18}, {13, 14},
           {13, 15}, {13, 16}, {13, 19}, {13, 21}, {14, 19}, {14, 23},
           {15, 21}, {17, 20}, {18, 19}, {18, 21}, {20, 21}});
  ASSERT_EQ(vc::oracle_mvc_size(g), 13);
  SolveWorkspace ws;
  int wrong = 0;
  for (int i = 0; i < 300; ++i) {
    ParallelResult r = solve(g, method, ParallelConfig{}, nullptr, &ws);
    if (r.outcome != vc::Outcome::kOptimal || r.best_size != 13 ||
        !graph::is_vertex_cover(g, r.cover))
      ++wrong;
  }
  EXPECT_EQ(wrong, 0);
}

TEST_P(AllMethodsTest, PvcAgreesWithOracleAroundMin) {
  const Method method = GetParam();
  auto g = graph::gnp(24, 0.3, 9);
  int min = vc::oracle_mvc_size(g);
  for (int k : {min - 1, min, min + 1}) {
    if (k <= 0) continue;
    ParallelConfig c = small_config();
    c.problem = vc::Problem::kPvc;
    c.k = k;
    ParallelResult r = solve(g, method, c);
    EXPECT_EQ(r.has_cover(), vc::oracle_pvc(g, k)) << "k=" << k;
    if (r.has_cover()) {
      EXPECT_LE(r.best_size, k);
      EXPECT_TRUE(graph::is_vertex_cover(g, r.cover));
    }
  }
}

TEST_P(AllMethodsTest, PvcSweepOverAllK) {
  // Full k sweep: found(k) must be the oracle's indicator function, which
  // in particular is monotone in k.
  const Method method = GetParam();
  auto g = graph::complement(graph::p_hat(18, 0.35, 0.85, 12));
  int opt = vc::oracle_mvc_size(g);
  for (int k = 1; k <= std::min(opt + 2, g.num_vertices()); ++k) {
    ParallelConfig c = small_config();
    c.problem = vc::Problem::kPvc;
    c.k = k;
    ParallelResult r = solve(g, method, c);
    EXPECT_EQ(r.has_cover(), k >= opt) << "k=" << k << " opt=" << opt;
  }
}

TEST_P(AllMethodsTest, SimSecondsPopulatedAndPlausible) {
  auto g = graph::complement(graph::p_hat(24, 0.35, 0.85, 14));
  ParallelResult r = solve(g, GetParam(), small_config());
  EXPECT_GE(r.sim_seconds, 0.0);
  if (GetParam() == Method::kSequential) {
    EXPECT_DOUBLE_EQ(r.sim_seconds, r.seconds);
  } else {
    // Simulated parallel time never exceeds total work by construction
    // (it is the max per-SM share of the measured CPU work).
    EXPECT_LE(r.sim_seconds,
              static_cast<double>([&] {
                std::uint64_t total = 0;
                for (const auto& b : r.launch.blocks) total += b.cpu_ns;
                return total;
              }()) * 1e-9 + 1e-9);
  }
}

TEST_P(AllMethodsTest, GreedyBoundReportedAndValid) {
  auto g = graph::gnp(30, 0.25, 10);
  ParallelResult r = solve(g, GetParam(), small_config());
  EXPECT_GE(r.greedy_upper_bound, r.best_size);
  EXPECT_GT(r.tree_nodes, 0u);
  EXPECT_GE(r.seconds, 0.0);
}

TEST_P(AllMethodsTest, OptimumInvariantUnderBranchStrategy) {
  // Branch-strategy soundness holds through every traversal engine, not
  // just the sequential one.
  auto g = graph::gnp(26, 0.2, 15);
  int opt = vc::oracle_mvc_size(g);
  for (vc::BranchStrategy strat : vc::all_branch_strategies()) {
    ParallelConfig c = small_config();
    c.branch = strat;
    c.branch_seed = 99;
    ParallelResult r = solve(g, GetParam(), c);
    EXPECT_EQ(r.best_size, opt) << vc::branch_strategy_name(strat);
    EXPECT_TRUE(graph::is_vertex_cover(g, r.cover))
        << vc::branch_strategy_name(strat);
  }
}

}  // namespace
}  // namespace gvc::parallel

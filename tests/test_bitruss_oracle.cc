// Oracle test: a brute-force peeler that re-counts butterflies from
// scratch after every single removal (definition-level, shares no code
// with the library's counting or index machinery) must agree with all five
// Algorithm variants on random small graphs across seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "core/decompose.h"
#include "core/peeling_state.h"
#include "core/verify.h"
#include "gen/chung_lu.h"
#include "gen/random_bipartite.h"
#include "graph/bipartite_graph.h"
#include "obs/metrics.h"

namespace bitruss {
namespace {

// Supports of every alive edge, recounted from scratch by set intersection.
std::vector<SupportT> BruteForceSupports(
    const BipartiteGraph& g, const std::vector<bool>& alive) {
  const VertexId n = g.NumVertices();
  std::vector<std::set<VertexId>> neighbors(n);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (!alive[e]) continue;
    neighbors[g.EdgeUpper(e)].insert(g.EdgeLower(e));
    neighbors[g.EdgeLower(e)].insert(g.EdgeUpper(e));
  }
  std::vector<SupportT> sup(g.NumEdges(), 0);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (!alive[e]) continue;
    const VertexId u = g.EdgeUpper(e);
    const VertexId v = g.EdgeLower(e);
    SupportT s = 0;
    for (const VertexId w : neighbors[v]) {
      if (w == u) continue;
      // Common neighbors of u and w other than v complete a butterfly.
      for (const VertexId y : neighbors[u]) {
        if (y != v && neighbors[w].count(y)) ++s;
      }
    }
    sup[e] = s;
  }
  return sup;
}

std::uint64_t BruteForceTotalButterflies(const BipartiteGraph& g) {
  std::vector<bool> alive(g.NumEdges(), true);
  std::uint64_t sum = 0;
  for (const SupportT s : BruteForceSupports(g, alive)) sum += s;
  return sum / 4;
}

// Definition-level peeling: one edge per step, full recount per step.
std::vector<SupportT> OracleBitruss(const BipartiteGraph& g) {
  const EdgeId m = g.NumEdges();
  std::vector<bool> alive(m, true);
  std::vector<SupportT> phi(m, 0);
  SupportT level = 0;
  for (EdgeId step = 0; step < m; ++step) {
    const std::vector<SupportT> sup = BruteForceSupports(g, alive);
    EdgeId argmin = kInvalidEdge;
    for (EdgeId e = 0; e < m; ++e) {
      if (alive[e] && (argmin == kInvalidEdge || sup[e] < sup[argmin])) {
        argmin = e;
      }
    }
    level = std::max(level, sup[argmin]);
    phi[argmin] = level;
    alive[argmin] = false;
  }
  return phi;
}

struct Case {
  std::string name;
  BipartiteGraph graph;
};

std::vector<Case> OracleCases() {
  std::vector<Case> cases;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const VertexId nu = 4 + static_cast<VertexId>(seed % 7);
    const VertexId nl = 3 + static_cast<VertexId>((3 * seed) % 8);
    const EdgeId m = static_cast<EdgeId>(20 + 15 * (seed % 9));
    cases.push_back({"uniform_seed" + std::to_string(seed),
                     GenerateUniformBipartite(nu, nl, m, seed)});
  }
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ChungLuParams params;
    params.num_upper = 6 + static_cast<VertexId>(seed % 5);
    params.num_lower = 5 + static_cast<VertexId>((2 * seed) % 6);
    params.num_edges = static_cast<EdgeId>(40 + 16 * (seed % 10));
    params.upper_exponent = 0.6 + 0.03 * static_cast<double>(seed % 5);
    params.lower_exponent = 0.8;
    params.seed = 1000 + seed;
    cases.push_back(
        {"chunglu_seed" + std::to_string(seed), GenerateChungLu(params)});
  }
  return cases;
}

TEST(BitrussOracle, AllAlgorithmsMatchBruteForceAcrossSeeds) {
  const std::vector<Case> cases = OracleCases();
  ASSERT_GE(cases.size(), 20u);

  const struct {
    Algorithm algorithm;
    double tau;
    const char* label;
  } variants[] = {
      {Algorithm::kBS, 0.02, "BS"},          {Algorithm::kBU, 0.02, "BU"},
      {Algorithm::kBUPlus, 0.02, "BU+"},     {Algorithm::kBUPlusPlus, 0.02, "BU++"},
      {Algorithm::kPC, 0.02, "PC tau=0.02"}, {Algorithm::kPC, 0.3, "PC tau=0.3"},
      {Algorithm::kPC, 1.0, "PC tau=1"},
  };

  for (const Case& test_case : cases) {
    ASSERT_LE(test_case.graph.NumEdges(), 200u) << test_case.name;
    const std::vector<SupportT> oracle = OracleBitruss(test_case.graph);
    const std::uint64_t butterflies =
        BruteForceTotalButterflies(test_case.graph);
    for (const auto& variant : variants) {
      DecomposeOptions options;
      options.algorithm = variant.algorithm;
      options.tau = variant.tau;
      const BitrussResult result = Decompose(test_case.graph, options);
      EXPECT_FALSE(result.timed_out);
      EXPECT_EQ(result.total_butterflies, butterflies)
          << test_case.name << " " << variant.label;
      EXPECT_EQ(result.phi, oracle) << test_case.name << " " << variant.label;
    }
  }
}

TEST(BitrussOracle, InitialSupportsMatchBruteForce) {
  // BU, BU+ and BU++ read supports off the BE-Index (Lemma 4); BS and PC
  // count them.  Both sources must agree with brute force.
  for (std::uint64_t seed = 50; seed < 56; ++seed) {
    const BipartiteGraph g = GenerateUniformBipartite(8, 7, 35, seed);
    const std::vector<bool> alive(g.NumEdges(), true);
    const std::vector<SupportT> expected = BruteForceSupports(g, alive);
    for (const Algorithm algorithm :
         {Algorithm::kBS, Algorithm::kBU, Algorithm::kBUPlus,
          Algorithm::kBUPlusPlus, Algorithm::kPC}) {
      DecomposeOptions options;
      options.algorithm = algorithm;
      const BitrussResult result = Decompose(g, options);
      EXPECT_EQ(result.original_support, expected)
          << "seed " << seed << " algorithm " << static_cast<int>(algorithm);
    }
  }
}

TEST(BitrussOracle, VerifyBitrussNumbersAgreesWithDecomposition) {
  for (std::uint64_t seed = 70; seed < 74; ++seed) {
    const BipartiteGraph g = GenerateUniformBipartite(9, 8, 60, seed);
    const BitrussResult result = Decompose(g);
    std::string error;
    EXPECT_TRUE(VerifyBitrussNumbers(g, result.phi, &error))
        << "seed " << seed << ": " << error;
    if (g.NumEdges() > 0 && result.MaxPhi() > 0) {
      std::vector<SupportT> corrupted = result.phi;
      corrupted[0] = corrupted[0] > 0 ? corrupted[0] - 1 : 1;
      EXPECT_FALSE(VerifyBitrussNumbers(g, corrupted)) << "seed " << seed;
    }
  }
}

TEST(BitrussOracle, CountersBehaveAsThePaperPredicts) {
  // Edge batching (BU+) and then bloom batching (BU++) can only reduce
  // update operations vs BU (Figure 13), and PC's compression can only
  // reduce them further on hub-heavy graphs (Figure 10); all on identical
  // phi (checked above).  BS re-enumerates butterflies instead, and its
  // count is fixed by the butterflies alone.
  ChungLuParams params;
  params.num_upper = 300;
  params.num_lower = 20;
  params.num_edges = 2500;
  params.upper_exponent = 0.5;
  params.lower_exponent = 0.9;
  params.seed = 2026;
  const BipartiteGraph g = GenerateChungLu(params);

  DecomposeOptions options;
  options.algorithm = Algorithm::kBU;
  options.track_per_edge_updates = true;
  const BitrussResult bu = Decompose(g, options);
  options.algorithm = Algorithm::kBUPlus;
  const BitrussResult buplus = Decompose(g, options);
  options.algorithm = Algorithm::kBUPlusPlus;
  const BitrussResult bupp = Decompose(g, options);
  options.algorithm = Algorithm::kBS;
  const BitrussResult bs = Decompose(g, options);
  options.algorithm = Algorithm::kPC;
  options.tau = 0.05;
  const obs::Counter* pc_rounds = obs::MetricsRegistry::Default().GetCounter(
      "bitruss_core_pc_rounds_total");
  const std::uint64_t pc_rounds_before = pc_rounds->Value();
  const BitrussResult pc = Decompose(g, options);

  EXPECT_EQ(bu.phi, buplus.phi);
  EXPECT_EQ(bu.phi, bupp.phi);
  EXPECT_EQ(bu.phi, pc.phi);
  EXPECT_EQ(bu.phi, bs.phi);
  // The supports span many SupportBuckets windows, so every peel here
  // refills its queue from the overflow list repeatedly; the
  // definition-level verifier checks each result, not only the pins below.
  EXPECT_GE(bu.MaxSupport(), 16 * SupportBuckets::kWindow);
  for (const BitrussResult* result : {&bu, &buplus, &bupp, &bs, &pc}) {
    std::string error;
    EXPECT_TRUE(VerifyBitrussNumbers(g, result->phi, &error)) << error;
  }
  // Each butterfly dies once, with its first peeled edge, and charges its
  // other three edges one update each.
  EXPECT_GT(bs.total_butterflies, 0u);
  EXPECT_EQ(bs.counters.support_updates, 3 * bs.total_butterflies);
  EXPECT_EQ(std::accumulate(bs.counters.per_edge_updates.begin(),
                            bs.counters.per_edge_updates.end(),
                            std::uint64_t{0}),
            bs.counters.support_updates);
  EXPECT_GT(bu.counters.support_updates, 0u);
  EXPECT_LE(bupp.counters.support_updates, buplus.counters.support_updates);
  EXPECT_LE(buplus.counters.support_updates, bu.counters.support_updates);
  EXPECT_LT(pc.counters.support_updates, bu.counters.support_updates);
  // BU++ and PC kill a level's batch as a set, so their counts do not
  // depend on the pop order within a level.  BU+'s does, though only
  // through a bloom holding a wedge with both edges in the batch, and
  // its pin holds for the queue's order on this graph.  BU's depends on
  // the order throughout, and gets only the ordering check.
  EXPECT_EQ(buplus.counters.support_updates, 735027u);
  EXPECT_EQ(bupp.counters.support_updates, 447133u);
  EXPECT_EQ(pc.counters.support_updates, 226239u);
  EXPECT_GT(pc.counters.peak_index_bytes, 0u);
  EXPECT_LT(pc.counters.peak_index_bytes, bu.counters.peak_index_bytes);

  // pc_trace is Figure 8's only record: theta walks the ladder down to 0,
  // every edge is assigned exactly once within its round's candidate, and
  // the rounds account for the index peak and fit inside the peel time.
  ASSERT_FALSE(pc.pc_trace.empty());
  EXPECT_EQ(pc.pc_trace.back().theta, 0u);
  EXPECT_EQ(pc_rounds->Value() - pc_rounds_before, pc.pc_trace.size());
  std::uint64_t assigned_sum = 0;
  std::uint64_t max_round_index = 0;
  double round_seconds_sum = 0;
  for (std::size_t i = 0; i < pc.pc_trace.size(); ++i) {
    const PCIterationTrace& round = pc.pc_trace[i];
    if (i > 0) {
      EXPECT_LT(round.theta, pc.pc_trace[i - 1].theta);
    }
    EXPECT_LE(round.assigned_now, round.candidate_edges);
    EXPECT_GE(round.seconds, 0.0);
    assigned_sum += round.assigned_now;
    max_round_index = std::max(max_round_index, round.index_bytes);
    round_seconds_sum += round.seconds;
  }
  EXPECT_EQ(assigned_sum, g.NumEdges());
  EXPECT_EQ(max_round_index, pc.counters.peak_index_bytes);
  EXPECT_LE(round_seconds_sum, pc.counters.peeling_seconds);

  // Per-edge update tracking is consistent with the aggregate counter,
  // PC's accumulated across its rounds included.
  for (const BitrussResult* result : {&bu, &buplus, &bupp, &pc}) {
    std::uint64_t per_edge_sum = 0;
    for (const std::uint64_t u : result->counters.per_edge_updates) {
      per_edge_sum += u;
    }
    EXPECT_EQ(result->counters.per_edge_updates.size(), g.NumEdges());
    EXPECT_EQ(per_edge_sum, result->counters.support_updates);
  }
}

TEST(BitrussOracle, DeadlineProducesPartialTimedOutResult) {
  ChungLuParams params;
  params.num_upper = 400;
  params.num_lower = 80;
  params.num_edges = 6000;
  params.seed = 31;
  const BipartiteGraph g = GenerateChungLu(params);
  const BitrussResult truth = Decompose(g);
  for (const Algorithm algorithm :
       {Algorithm::kBS, Algorithm::kBU, Algorithm::kBUPlus,
        Algorithm::kBUPlusPlus}) {
    DecomposeOptions options;
    options.algorithm = algorithm;
    options.deadline = Deadline::After(0.0);
    const BitrussResult result = Decompose(g, options);
    EXPECT_TRUE(result.timed_out) << static_cast<int>(algorithm);
    ASSERT_EQ(result.phi.size(), g.NumEdges());
    // Partial phi: unassigned edges read 0, and every assigned non-zero
    // value is already the edge's true bitruss number.  The peelers poll
    // the deadline only every few hundred edges, so an already-expired
    // deadline still leaves some assigned values to check.
    EdgeId assigned = 0;
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      if (result.phi[e] != 0) {
        EXPECT_EQ(result.phi[e], truth.phi[e])
            << "edge " << e << " algorithm " << static_cast<int>(algorithm);
        ++assigned;
      }
    }
    EXPECT_GT(assigned, 0u) << static_cast<int>(algorithm);
  }
}

}  // namespace
}  // namespace bitruss

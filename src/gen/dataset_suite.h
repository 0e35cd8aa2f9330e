// The named synthetic dataset suite standing in for the paper's Table II
// datasets (Section VI protocol).  Every dataset is generated — no
// downloads — with a fixed per-name seed, so a given build reproduces the
// same graphs on every run; `scale` multiplies the vertex and edge budgets
// so benches and smoke tests can dial the cost.  (Chung-Lu weights go
// through std::pow, so bit-identity across different libm implementations
// is not guaranteed — see gen/chung_lu.h.)

#ifndef BITRUSS_GEN_DATASET_SUITE_H_
#define BITRUSS_GEN_DATASET_SUITE_H_

#include <string>
#include <vector>

#include "graph/bipartite_graph.h"

namespace bitruss {

/// All dataset names, ordered by size (mirrors Table II's 15 rows).
std::vector<std::string> DatasetNames();

/// Generates the named dataset at the given scale (1.0 = bench default).
/// Deterministic in (name, scale); throws std::invalid_argument for an
/// unknown name.  Beyond DatasetNames(), the bench-only "Tracker-XL"
/// (~1M edges at scale 1) is accepted — it exists for fig12_scalability
/// and is deliberately left out of the default 15-dataset sweep.
BipartiteGraph MakeDataset(const std::string& name, double scale);

}  // namespace bitruss

#endif  // BITRUSS_GEN_DATASET_SUITE_H_

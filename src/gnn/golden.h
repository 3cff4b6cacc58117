// Golden equivalence harness for the model zoo.
//
// A GoldenCase pins every source of randomness (model seed, circuit spec)
// so a forward + backward pass is a pure function of the implementation.
// The fixtures committed under tests/golden/ were generated from the
// pre-engine per-model implementations; run_golden_case() replays the same
// computation through whatever make_model() currently builds, letting the
// test suite prove the refactored engine is numerically equivalent.
//
// Shared by tools/gen_golden.cpp (fixture writer) and
// tests/golden_equivalence_test.cpp (fixture checker).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "gnn/models.h"
#include "nn/matrix.h"

namespace paragraph::gnn {

struct GoldenCase {
  ModelKind kind;
  std::size_t embed_dim;
  std::size_t num_layers;
  std::size_t num_heads;
  std::uint64_t model_seed;
  std::string file_stem;  // fixture file name without extension
};

// One case per ModelKind (F=16, L=3, paper-ish but CPU-cheap) plus a
// 2-head ParaGraph case exercising the multi-head average path.
const std::vector<GoldenCase>& golden_cases();

struct GoldenResult {
  // Per node type: the embedding matrix (empty Matrix for absent types).
  std::vector<nn::Matrix> embeddings;
  // Gradient of the scalar loss w.r.t. every parameter, in parameters()
  // order. Doubles as a check that the parameter layout is stable, which
  // is what core/serialize depends on.
  std::vector<nn::Matrix> param_grads;
  double loss = 0.0;
};

// Builds the deterministic evaluation circuit (shared by all cases).
graph::HeteroGraph golden_graph();

// Seed-fixed forward + backward on the golden graph.
GoldenResult run_golden_case(const GoldenCase& c);

// Binary fixture I/O: a magic + version header, the loss, then the
// embeddings and the gradients as two core/serialize matrix blocks. A
// damaged fixture raises util::CorruptArtifactError.
void write_golden(std::ostream& os, const GoldenResult& r);
GoldenResult read_golden(std::istream& is);

}  // namespace paragraph::gnn

// The train workload: GnnPredictor::train on the scale-0.25 suite with
// the CLI's CAP defaults (ParaGraph, F = 32, L = 5, max_v 10 pF, batch
// size 1, Adam lr 0.01) for a fixed number of epochs. Its operation is the
// epoch: the latency percentiles and epoch_ms are epoch wall times, the
// throughput is training circuits (optimiser steps at batch size 1) per
// second, and error_rate counts epochs with a non-finite loss.
#include <cmath>
#include <optional>

#include "bench.h"
#include "core/predictor.h"
#include "dataset/dataset.h"
#include "gnn/models.h"
#include "gnn/plan.h"
#include "graph/hetero_graph.h"
#include "obs/control.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using namespace paragraph;

constexpr int kSetupReps = 5;
// The training suite is the CLI's default (seed 42), so every run trains on
// the same 18 circuits; the workload seed sets initial weights and shuffle.
constexpr std::uint64_t kDataSeed = 42;
constexpr double kNominalEpochSeconds = 0.6;  // sets the epoch count from --seconds
constexpr int kCountingEpochs = 3;

struct StopTraining {};

core::PredictorConfig train_config(const Options& opt, int epochs) {
  core::PredictorConfig pc;
  pc.model = gnn::ModelKind::kParaGraph;
  pc.target = dataset::TargetKind::kCap;
  pc.embed_dim = 32;
  pc.num_layers = 5;
  pc.max_v_ff = 1e4;
  pc.learning_rate = 0.01f;
  pc.batch_size = 1;
  pc.epochs = epochs;
  pc.seed = opt.seed;
  pc.scale = 0.25;
  pc.train_threads = opt.threads;
  return pc;
}

}  // namespace

void run_train(const Options& opt, Result& r) {
  const int epochs = std::max(4, static_cast<int>(std::lround(opt.seconds / kNominalEpochSeconds)));
  note("train: scale 0.25, %d epochs", epochs);
  Tracer tr;
  Tracer* const traced = opt.trace ? &tr : nullptr;

  // Set-up: build_dataset, predictor construction, and train()'s work
  // before epoch 0 (the first callback's time minus epoch 0's own wall
  // time). Every repetition but the last stops after epoch 0.
  std::vector<double> setup_s;
  std::optional<dataset::SuiteDataset> ds;
  std::optional<core::GnnPredictor> predictor;
  std::vector<Clock::time_point> ticks;
  std::vector<core::EpochRecord> recs;
  std::vector<double> forward_ms;
  std::vector<gnn::GraphPlan> plans;
  Clock::time_point train_start;
  const int reps = opt.trace ? 1 : kSetupReps;
  const CpuTimes cpu0 = read_cpu_times();
  for (int k = 0; k < reps; ++k) {
    const bool last = k + 1 == reps;
    ds.reset();
    predictor.reset();
    ticks.clear();
    recs.clear();
    const auto t0 = Clock::now();
    {
      Tracer::Scope s(traced, "dataset.build_dataset");
      ds.emplace(dataset::build_dataset(kDataSeed, 0.25));
    }
    const auto t1 = Clock::now();
    predictor.emplace(train_config(opt, epochs));
    const auto t2 = Clock::now();
    // Traced run: the graph and plan builds training runs on each circuit.
    if (opt.trace && plans.empty())
      for (const dataset::Sample& s : ds->train) {
        {
          Tracer::Scope sc(traced, "graph.build_graph");
          static_cast<void>(graph::build_graph(s.netlist));
        }
        Tracer::Scope sc(traced, "gnn.GraphPlan::build");
        plans.push_back(gnn::GraphPlan::build(s.graph, predictor->needs_homo()));
      }
    // Traced run: each epoch is a span between callbacks; after it, a
    // forward-only pass over the training circuits, outside the epoch.
    Clock::time_point epoch_start;
    const core::EpochCallback on_epoch = [&](const core::EpochRecord& rec) {
      const auto now = Clock::now();
      ticks.push_back(now);
      recs.push_back(rec);
      if (!last) throw StopTraining{};
      if (!opt.trace) return;
      if (recs.size() > 1) tr.add("core.GnnPredictor::train.epoch", epoch_start, now, rec.epoch);
      const auto f0 = Clock::now();
      for (std::size_t i = 0; i < ds->train.size(); ++i) {
        Tracer::Scope s(&tr, "core.GnnPredictor::predict_all", rec.epoch);
        predictor->predict_all(*ds, ds->train[i], plans[i]);
      }
      forward_ms.push_back(ms_between(f0, Clock::now()));
      epoch_start = Clock::now();
    };
    train_start = Clock::now();
    try {
      predictor->train(*ds, on_epoch);
    } catch (const StopTraining&) {
    }
    const double pre_epoch_ms = ms_between(train_start, ticks.front()) - recs.front().wall_ms;
    setup_s.push_back((ms_between(t0, t1) + ms_between(t1, t2) + pre_epoch_ms) / 1000.0);
  }
  const CpuTimes cpu1 = read_cpu_times();
  const double rss_mb = peak_rss_mb();

  // Checks: every epoch loss finite, the last below the first.
  r.attempted = recs.size();
  for (const auto& rec : recs)
    if (!std::isfinite(rec.loss)) ++r.failed;
  if (r.failed != 0) r.fail(std::to_string(r.failed) + " epochs had a non-finite loss");
  if (recs.size() != static_cast<std::size_t>(epochs))
    r.fail("ran " + std::to_string(recs.size()) + " of " + std::to_string(epochs) + " epochs");
  else if (!(recs.back().loss < recs.front().loss))
    r.fail("last epoch loss " + std::to_string(recs.back().loss) + " is not below the first " +
           std::to_string(recs.front().loss));
  note("train: loss %.6f -> %.6f over %zu epochs", recs.front().loss, recs.back().loss,
       recs.size());

  // Epoch wall time seen from outside: the interval between callbacks
  // (epoch 0 has no left edge and is excluded). Traced runs subtract the
  // forward pass they run inside the callback.
  std::vector<double> epoch_ms;
  for (std::size_t i = 1; i < ticks.size(); ++i) {
    double ms = ms_between(ticks[i - 1], ticks[i]);
    if (opt.trace) ms -= forward_ms[i - 1];
    epoch_ms.push_back(ms);
  }
  r.record.set("epochs", epochs);
  r.record.set("training_circuits", ds->train.size());
  r.record.set("host.steal_share", steal_share(cpu0, cpu1));

  if (!opt.trace) {
    double total_ms = 0.0;
    for (const double ms : epoch_ms) total_ms += ms;
    r.metric("setup_s", median(setup_s), "s");
    latency_metrics(epoch_ms, r);
    r.metric("throughput_rps",
             1000.0 * static_cast<double>(ds->train.size() * epoch_ms.size()) / total_ms, "1/s");
    r.metric("error_rate", error_rate_bound(r.failed, r.attempted), "share");
    r.metric("epoch_ms", median(epoch_ms), "ms");
    r.metric("peak_rss_mb", rss_mb, "MB");
    return;
  }

  // Embedding-only forward of a fresh ParaGraph model over each graph.
  {
    util::Rng rng(opt.seed);
    const auto model = gnn::make_model(gnn::ModelKind::kParaGraph, 32, 5, rng);
    for (std::size_t i = 0; i < ds->train.size(); ++i) {
      const dataset::Sample& s = ds->train[i];
      gnn::GraphBatch batch;
      batch.graph = &s.graph;
      batch.plan = &plans[i];
      for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
        const auto nt = static_cast<graph::NodeType>(t);
        if (s.graph.num_nodes(nt) != 0)
          batch.features[t] = nn::Tensor(ds->normalizer.apply(s.graph, nt));
      }
      Tracer::Scope sc(&tr, "gnn.EmbeddingModel::embed", static_cast<std::int64_t>(i));
      model->embed(batch);
    }
  }

  // Counting pass: a short training run with the instrumentation on, at
  // nproc runtime threads (see the serve counting pass).
  runtime::set_num_threads(opt.connections);
  obs::set_enabled(true);
  auto& mem = obs::MemTracker::instance();
  mem.reset();
  std::vector<std::uint64_t> allocs_at;
  {
    core::GnnPredictor counted(train_config(opt, kCountingEpochs));
    counted.train(*ds, [&](const core::EpochRecord&) { allocs_at.push_back(mem.allocs()); });
  }
  std::vector<double> allocs_per_epoch;
  for (std::size_t i = 1; i < allocs_at.size(); ++i)
    allocs_per_epoch.push_back(static_cast<double>(allocs_at[i] - allocs_at[i - 1]));
  runtime::publish_runtime_metrics();
  const double utilization =
      obs::MetricsRegistry::instance().gauge("runtime.utilization").value();
  const double matrix_peak_mb = static_cast<double>(mem.peak_bytes()) / (1024.0 * 1024.0);
  obs::set_enabled(false);

  const std::map<std::string, double> self = tr.self_ms();
  const auto total = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double forward = median(forward_ms);
  r.metric("dataset.build_ms", total("dataset.build_dataset"), "ms");
  r.metric("graph.build_ms", total("graph.build_graph"), "ms");
  r.metric("gnn.plan_ms", total("gnn.GraphPlan::build"), "ms");
  r.metric("gnn.embed_ms", total("gnn.EmbeddingModel::embed"), "ms");
  r.metric("core.train_forward_ms", forward, "ms");
  r.metric("core.train_rest_ms", median(epoch_ms) - forward, "ms");
  r.metric("nn.matrix_allocs", median(allocs_per_epoch), "count");
  r.metric("nn.matrix_peak_mb", matrix_peak_mb, "MB");
  r.metric("runtime.utilization", utilization, "share");
  r.metric("host.steal_share", steal_share(cpu0, cpu1), "share");
  tr.write("trace-train-" + std::to_string(opt.seed) + ".json");
}

}  // namespace perfbench

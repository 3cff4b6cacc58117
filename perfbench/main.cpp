// End-to-end benchmark harness for ParaGraph (see README.md).
//
//   perfbench fixture --out ENS
//       Trains and saves the served ensemble: a 4-member CAP CapEnsemble
//       at paper config (ParaGraph, F = 32, L = 5, max_v 1/10/100/10k fF),
//       2 epochs at a fixed seed on the scale-0.08 suite.
//   perfbench run --workload serve_sweep|serve_hier|train --seed N
//                 --seconds S --trace 0|1 --rate R --paragraph BIN
//                 --ensemble ENS --workdir DIR
//                 [--git-commit SHA --git-dirty 0|1 | --source-digest HEX]
//       One measured run. Progress goes to stderr; the last stdout line is
//       the result object {correct, attempted, failed, metrics}. Exits 1
//       when an output check fails.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "bench.h"
#include "core/ensemble.h"
#include "dataset/dataset.h"
#include "runtime/thread_pool.h"

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t kFixtureSeed = 7;
constexpr double kFixtureScale = 0.08;
constexpr int kFixtureEpochs = 2;
// Runtime threads of the fixture, the daemon and train (README.md says why
// it is 1, not nproc). The counting passes run at nproc.
constexpr std::size_t kRuntimeThreads = 1;

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc)
      throw std::invalid_argument("expected --flag value, got '" + key + "'");
    flags[key.substr(2)] = argv[++i];
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& f, const std::string& key) {
  const auto it = f.find(key);
  if (it == f.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

int fixture(const std::map<std::string, std::string>& f) {
  const std::string out = need(f, "out");
  paragraph::runtime::set_num_threads(kRuntimeThreads);
  paragraph::core::EnsembleConfig cfg;
  cfg.max_vs_ff = {1.0, 10.0, 100.0, 1e4};
  cfg.base.model = paragraph::gnn::ModelKind::kParaGraph;
  cfg.base.target = paragraph::dataset::TargetKind::kCap;
  cfg.base.embed_dim = 32;
  cfg.base.num_layers = 5;
  cfg.base.epochs = kFixtureEpochs;
  cfg.base.seed = kFixtureSeed;
  cfg.base.scale = kFixtureScale;
  const auto t0 = Clock::now();
  const auto ds = paragraph::dataset::build_dataset(kFixtureSeed, kFixtureScale);
  paragraph::core::CapEnsemble ens(cfg);
  ens.train(ds);
  ens.save(out);
  note("fixture: trained %zu-member ensemble in %.1f s -> %s", ens.num_models(),
       ms_between(t0, Clock::now()) / 1000.0, out.c_str());
  return 0;
}

int run(const std::map<std::string, std::string>& f) {
  Options opt;
  opt.workload = need(f, "workload");
  opt.seed = std::stoull(need(f, "seed"));
  opt.seconds = std::stod(need(f, "seconds"));
  opt.trace = need(f, "trace") == "1";
  opt.rate_rps = std::stod(need(f, "rate"));
  opt.paragraph_bin = fs::absolute(need(f, "paragraph")).string();
  opt.ensemble = fs::absolute(need(f, "ensemble")).string();
  opt.threads = kRuntimeThreads;
  opt.connections = static_cast<std::size_t>(::sysconf(_SC_NPROCESSORS_ONLN));
  if (opt.seconds <= 0 || opt.rate_rps <= 0)
    throw std::invalid_argument("--seconds and --rate must be positive");
  const fs::path workdir = need(f, "workdir");
  fs::create_directories(workdir);
  // Sockets, daemon logs and traces live in the working directory; unix
  // socket paths are short relative names, whatever the checkout path.
  if (::chdir(workdir.c_str()) != 0) throw std::runtime_error("cannot enter " + workdir.string());
  paragraph::runtime::set_num_threads(opt.threads);

  Result r;
  obs::JsonValue& rec = r.record;
  rec.set("workload", opt.workload);
  rec.set("seed", static_cast<unsigned long long>(opt.seed));
  rec.set("seconds", opt.seconds);
  rec.set("trace", opt.trace);
  rec.set("nproc", opt.connections);
  rec.set("runtime_threads", paragraph::runtime::num_threads());
  rec.set("build_type", PERFBENCH_BUILD_TYPE);
  rec.set("compiler", PERFBENCH_COMPILER);
  // The commit when the checkout is a git repository, else a digest of the
  // sources the build reads.
  if (f.count("git-commit")) {
    rec.set("git_commit", f.at("git-commit"));
    rec.set("git_dirty", need(f, "git-dirty") == "1");
  } else {
    rec.set("source_digest", f.count("source-digest") ? f.at("source-digest") : "unknown");
  }
  rec.set("cpu_model", cpu_model());

  if (opt.workload == "serve_sweep") run_serve_sweep(opt, r);
  else if (opt.workload == "serve_hier") run_serve_hier(opt, r);
  else if (opt.workload == "train") run_train(opt, r);
  else throw std::invalid_argument("unknown workload '" + opt.workload + "'");

  obs::JsonValue metrics = obs::JsonValue::object();
  for (const auto& [name, vu] : r.metrics) metrics.set(name, vu.first);
  rec.set("metrics", std::move(metrics));
  rec.set("correct", r.correct);
  const std::string record = rec.dump();
  std::ofstream("record-" + opt.workload + "-" + std::to_string(opt.seed) +
                (opt.trace ? "-trace" : "") + ".json")
      << record << "\n";
  note("record %s", record.c_str());
  std::printf("%s\n", r.line().c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench fixture|run [--flag value ...]\n");
    return 2;
  }
  try {
    const auto flags = parse_flags(argc, argv);
    if (std::strcmp(argv[1], "fixture") == 0) return fixture(flags);
    if (std::strcmp(argv[1], "run") == 0) return run(flags);
    std::fprintf(stderr, "perfbench: unknown command '%s'\n", argv[1]);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}

// The two serve workloads: load against a spawned `paragraph serve`,
// output checks against an in-process CapEnsemble, and (traced run) an
// in-process replay of the worker's steps plus a counting pass.
//
// serve_sweep: the 22 paper-suite decks in seeded sweep sessions. Phase A
// sends them one at a time on one connection (latency); passes send the
// whole pool once each, one at a time (epoch_ms); phase B keeps nproc
// connections busy at saturation (throughput); the three alternate in
// rounds. The traced run adds phase C, an open loop with Poisson arrivals
// at the calibrated rate, for the queueing counts.
// serve_hier: a seeded rotation of three hier_giant decks (8/16/24
// columns sharing their templates), closed loop over one connection; one
// rotation is the workload's pass (epoch_ms).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench.h"
#include "circuit/spice_parser.h"
#include "circuit/spice_writer.h"
#include "circuitgen/hier.h"
#include "core/ensemble.h"
#include "dataset/dataset.h"
#include "gnn/models.h"
#include "gnn/plan.h"
#include "gnn/plan_cache.h"
#include "graph/hetero_graph.h"
#include "obs/control.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using namespace paragraph;

constexpr int kSetupRepsSweep = 9;  // daemon spawns per timed run (median)
constexpr int kSetupRepsHier = 5;
constexpr std::size_t kSweepRequests = 1024;  // phase A (and C): >= 10 beyond p99
constexpr std::size_t kPhaseBDepth = 2;       // serve_sweep: outstanding per connection
constexpr std::size_t kRounds = 8;            // serve_sweep: rounds of phase A, passes, phase B
constexpr std::size_t kPassesPerRound = 2;    // serve_sweep: passes over the pool per round
// Each load sends a fixed number of requests for a given --seconds, so the
// n of error_rate never follows the program's speed. The rates are about
// what the seed build sustains on the measurement host (phase B: ~105 req/s
// over the ~3/5 of the run that phase A and the passes leave; hier: ~6
// req/s), so a run measures about --seconds.
constexpr double kPhaseBPerSecond = 60.0;
constexpr double kHierPerSecond = 6.0;
constexpr std::size_t kHierMinRequests = 102;  // >= 10 samples beyond p90
constexpr double kLoadCapFactor = 3.0;  // the load stops at 3 x --seconds; unsent requests fail
constexpr std::size_t kReplaySweep = 300;      // traced run: replayed requests
constexpr std::size_t kReplayHierRotations = 5;

struct Deck {
  std::string name;
  std::string text;
  std::string escaped;
};

// One request of a load phase and what became of it.
struct Outcome {
  int deck = 0;
  Clock::time_point scheduled{}, sent{}, done{};
  bool sent_ok = false;
  bool answered = false;
  bool ok = false;
  std::string error;
  NamedValues cap;

  double latency_ms(bool from_schedule) const {
    if (!ok) return kInf;
    return ms_between(from_schedule ? scheduled : sent, done);
  }
};

// The sweep's deck sequence, read by every phase and every connection. It
// is made of sessions of kSessionRequests consecutive requests: each
// session draws a seeded order of the pool, and each of its requests draws
// its deck by Zipf(1) over that order, so the session's first decks recur.
// One order per run would let its first few decks set the run's mix; the
// sessions average over orders within each run (README.md, "Sweep
// sessions", has the spreads with and without them).
std::vector<int> sweep_sequence(std::size_t pool, std::size_t count, std::uint64_t seed) {
  constexpr std::size_t kSessionRequests = 20;
  util::Rng rng(seed);
  std::vector<int> order(pool);
  std::vector<double> weights(pool);
  for (std::size_t i = 0; i < pool; ++i) {
    order[i] = static_cast<int>(i);
    weights[i] = 1.0 / static_cast<double>(i + 1);
  }
  std::vector<int> seq(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i % kSessionRequests == 0) rng.shuffle(order);
    seq[i] = order[rng.weighted_choice(weights)];
  }
  return seq;
}

// ------------------------------------------------------------ load phases

void mark_failed(Outcome& o, const std::string& why) {
  o.ok = false;
  if (o.error.empty()) o.error = why;
}

// Reads one response frame and files it under its id. Returns false when
// the connection is gone.
bool receive(int fd, std::vector<Outcome>& outcomes) {
  std::string frame;
  if (!serve::read_frame(fd, &frame)) return false;
  ParsedResponse r = parse_response(frame);
  const auto done = Clock::now();
  if (r.id < 0 || static_cast<std::size_t>(r.id) >= outcomes.size()) {
    note("response with unknown id %lld", static_cast<long long>(r.id));
    return true;
  }
  Outcome& o = outcomes[static_cast<std::size_t>(r.id)];
  o.done = done;
  o.answered = true;
  o.ok = r.ok;
  o.error = r.error_code;
  o.cap = std::move(r.cap);
  return true;
}

// Runs body(conn) for conn in [0, conns) with conn 0 on the calling
// thread, so the generator never uses more than `conns` threads.
void on_connections(std::size_t conns, const std::function<void(std::size_t)>& body) {
  std::vector<std::thread> threads;
  for (std::size_t c = 1; c < conns; ++c) threads.emplace_back(body, c);
  body(0);
  for (auto& t : threads) t.join();
}

// Open loop: request i goes out at t0 + at_ms[i] on connection i % conns,
// whether or not earlier answers arrived. One thread polls every
// connection without sleeping, so sends leave on time and answers are
// timed when they arrive, not when a sleeping thread wakes up.
void open_loop(const std::string& sock, const std::vector<double>& at_ms,
               const std::vector<Deck>& decks, std::vector<Outcome>& outcomes,
               std::size_t conns, double drain_s) {
  std::vector<serve::ServeClient> clients;
  std::vector<pollfd> fds;
  for (std::size_t c = 0; c < conns; ++c) {
    clients.push_back(serve::ServeClient::connect_unix(sock));
    fds.push_back({clients.back().fd(), POLLIN, 0});
  }
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t i = 0; i < outcomes.size(); ++i)
    outcomes[i].scheduled =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(at_ms[i]));
  const auto drain_deadline =
      outcomes.back().scheduled +
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(drain_s));
  std::vector<bool> alive(conns, true);
  std::size_t next = 0, outstanding = 0;
  while (next < outcomes.size() || outstanding > 0) {
    const auto now = Clock::now();
    if (next < outcomes.size() && now >= outcomes[next].scheduled) {
      Outcome& o = outcomes[next];
      const std::size_t c = next % conns;
      o.sent = now;
      if (alive[c]) {
        try {
          serve::write_frame(fds[c].fd,
                             request_frame(static_cast<std::int64_t>(next),
                                           decks[static_cast<std::size_t>(o.deck)].escaped));
          o.sent_ok = true;
          ++outstanding;
        } catch (const std::exception& e) {
          mark_failed(o, std::string("send failed: ") + e.what());
          alive[c] = false;
        }
      } else {
        mark_failed(o, "connection dropped");
      }
      ++next;
      continue;
    }
    if (next >= outcomes.size() && now >= drain_deadline) break;  // the rest timed out
    if (::poll(fds.data(), fds.size(), 0) <= 0) continue;
    for (std::size_t c = 0; c < conns; ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0 || !alive[c]) continue;
      try {
        if (receive(fds[c].fd, outcomes)) {
          --outstanding;
          continue;
        }
      } catch (const std::exception& e) {
        note("connection %zu dropped: %s", c, e.what());
      }
      alive[c] = false;
      fds[c].fd = -1;  // poll ignores it from now on
    }
  }
  for (Outcome& o : outcomes)
    if (!o.answered) mark_failed(o, o.sent_ok ? "timed out or dropped" : o.error);
}

// Wall time of requests sent in a closed loop, from the first send to the
// last answer; +inf when one of them failed.
double wall_ms(const Outcome* first, const Outcome* last) {
  Clock::time_point from = Clock::time_point::max(), to = Clock::time_point::min();
  for (const Outcome* o = first; o != last; ++o) {
    if (!o->ok) return kInf;
    from = std::min(from, o->sent);
    to = std::max(to, o->done);
  }
  return ms_between(from, to);
}

Clock::time_point load_deadline(const Options& opt) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(kLoadCapFactor * opt.seconds));
}

// Closed loop: `conns` connections, each keeping `depth` requests
// outstanding, send the decks of `seq` in order; a connection takes the
// next deck when an answer arrives. Requests still unsent at `deadline`
// count as failed.
std::vector<Outcome> closed_loop(const std::string& sock, std::size_t conns, std::size_t depth,
                                 const std::vector<int>& seq, Clock::time_point deadline,
                                 const std::vector<Deck>& decks) {
  std::vector<serve::ServeClient> clients;
  for (std::size_t c = 0; c < conns; ++c)
    clients.push_back(serve::ServeClient::connect_unix(sock));
  std::vector<std::vector<Outcome>> per_conn(conns);
  std::atomic<std::size_t> next{0};
  on_connections(conns, [&](std::size_t c) {
    const int fd = clients[c].fd();
    std::vector<Outcome>& mine = per_conn[c];  // ids index this connection's requests
    std::size_t outstanding = 0;
    for (bool sending = true;;) {
      if (sending && outstanding < depth) {
        const auto now = Clock::now();
        const std::size_t i = now < deadline ? next.fetch_add(1) : seq.size();
        if (i >= seq.size()) {
          sending = false;
          continue;
        }
        Outcome& o = mine.emplace_back();
        o.deck = seq[i];
        o.scheduled = o.sent = now;
        try {
          serve::write_frame(fd, request_frame(static_cast<std::int64_t>(mine.size() - 1),
                                               decks[static_cast<std::size_t>(o.deck)].escaped));
          o.sent_ok = true;
          ++outstanding;
        } catch (const std::exception& e) {
          mark_failed(o, std::string("send failed: ") + e.what());
          break;
        }
        continue;
      }
      if (outstanding == 0) break;
      try {
        if (!receive(fd, mine)) break;
        --outstanding;
      } catch (const std::exception& e) {
        note("connection %zu dropped: %s", c, e.what());
        break;
      }
    }
    for (Outcome& o : mine)
      if (!o.answered) mark_failed(o, o.sent_ok ? "connection dropped" : o.error);
  });
  std::vector<Outcome> all;
  for (auto& v : per_conn)
    for (auto& o : v) all.push_back(std::move(o));
  for (std::size_t i = std::min(next.load(), seq.size()); i < seq.size(); ++i) {
    Outcome& o = all.emplace_back();
    o.deck = seq[i];
    mark_failed(o, "unsent when the load's time cap passed");
  }
  return all;
}

// ------------------------------------------------------- in-process model

// What the daemon holds: the fixture ensemble and the normaliser it
// rebuilds from the members' (seed, scale).
struct Reference {
  std::optional<core::CapEnsemble> ens;
  dataset::SuiteDataset ds;
};

Reference load_reference(const Options& opt, Tracer* tr) {
  Reference ref;
  {
    Tracer::Scope s(tr, "core.CapEnsemble::load");
    ref.ens.emplace(core::CapEnsemble::load(opt.ensemble));
  }
  const auto& cfg = ref.ens->model(0).config();
  Tracer::Scope s(tr, "dataset.build_dataset");
  ref.ds.normalizer = dataset::build_dataset(cfg.seed, cfg.scale).normalizer;
  return ref;
}

dataset::Sample sample_of(const std::string& text) {
  dataset::Sample s;
  circuit::Netlist nl = circuit::parse_spice_string(text);
  s.name = nl.name();
  s.graph = graph::build_graph(nl);
  s.netlist = std::move(nl);
  return s;
}

bool is_hier(const std::string& text, const dataset::Sample& s) {
  return (text.find(".subckt") != std::string::npos ||
          text.find(".SUBCKT") != std::string::npos) &&
         !s.netlist.instances().empty();
}

// Net names and values in the order the worker writes them.
template <typename Fn>
void for_each_net(const dataset::Sample& s, const std::vector<float>& preds, Fn&& fn) {
  std::size_t k = 0;
  for (const auto nt : dataset::target_node_types(dataset::TargetKind::kCap))
    for (const auto origin : s.graph.origins(nt)) {
      const std::string& name = nt == graph::NodeType::kNet ? s.netlist.net(origin).name
                                                            : s.netlist.device(origin).name;
      if (k < preds.size()) fn(name, preds[k++]);
    }
}

// The worker's response for one deck: set per net, then dump. The
// predictions object is copied into the response, as the worker copies
// the result it shares among coalesced requests.
std::string encode_response(std::int64_t id, const dataset::Sample& s,
                            const std::vector<float>& preds) {
  obs::JsonValue cap = obs::JsonValue::object();
  for_each_net(s, preds, [&](const std::string& name, float v) {
    cap.set(name, static_cast<double>(v));
  });
  obs::JsonValue all = obs::JsonValue::object();
  all.set(dataset::target_name(dataset::TargetKind::kCap), std::move(cap));
  obs::JsonValue resp = serve::make_ok_response(id, 1, false);
  resp.set("predictions", all);
  return resp.dump();
}

// Every ok response must equal CapEnsemble::predict bit for bit.
void check_outputs(const Reference& ref, const std::vector<Deck>& decks,
                   const std::vector<const Outcome*>& outcomes, Result& r) {
  std::map<int, NamedValues> expected;
  std::size_t checked = 0;
  for (const Outcome* o : outcomes) {
    if (!o->ok) continue;
    auto it = expected.find(o->deck);
    if (it == expected.end()) {
      const dataset::Sample s = sample_of(decks[static_cast<std::size_t>(o->deck)].text);
      const std::vector<float> p = ref.ens->predict(ref.ds, s);
      NamedValues nv;
      for_each_net(s, p, [&](const std::string& name, float v) {
        nv.names.push_back(name);
        nv.values.push_back(v);
      });
      it = expected.emplace(o->deck, std::move(nv)).first;
    }
    const NamedValues& want = it->second;
    const std::string& deck = decks[static_cast<std::size_t>(o->deck)].name;
    if (o->cap.names != want.names) {
      r.fail("deck " + deck + ": response nets differ from the in-process prediction");
      return;
    }
    for (std::size_t i = 0; i < want.values.size(); ++i) {
      if (std::memcmp(&o->cap.values[i], &want.values[i], sizeof(float)) != 0) {
        r.fail("deck " + deck + ": net " + want.names[i] + " served " +
               std::to_string(o->cap.values[i]) + ", in-process " +
               std::to_string(want.values[i]));
        return;
      }
    }
    ++checked;
  }
  note("output check: %zu ok responses over %zu decks bitwise equal to CapEnsemble::predict",
       checked, expected.size());
}

// --------------------------------------------------------------- daemon

struct Served {
  std::unique_ptr<Daemon> daemon;
  std::vector<double> setup_s;
};

// Spawns the daemon `reps` times; each setup runs from spawn to the ok
// answer of the last warm-up deck. All but the last daemon are shut down.
Served start_daemon(const Options& opt, int reps, const std::vector<Deck>& decks,
                    const std::vector<int>& warmup, Result& r) {
  Served out;
  for (int k = 0; k < reps; ++k) {
    const auto t0 = Clock::now();
    auto d = std::make_unique<Daemon>(opt, opt.workload + ".sock",
                                      opt.workload + "-daemon" + std::to_string(k) + ".log");
    d->wait_ready();
    auto client = serve::ServeClient::connect_unix(d->socket_path());
    for (const int deck : warmup) {
      const obs::JsonValue resp = client.predict(decks[static_cast<std::size_t>(deck)].text);
      const obs::JsonValue* ok = resp.find("ok");
      if (ok == nullptr || !ok->as_bool())
        throw std::runtime_error("warm-up request failed: " + resp.dump());
    }
    out.setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    if (k + 1 < reps) {
      if (d->shutdown() != 0) r.fail("daemon did not exit cleanly after a setup repetition");
    } else {
      out.daemon = std::move(d);
    }
  }
  note("setup: %s", [&] {
    std::string s;
    for (double v : out.setup_s) s += std::to_string(v) + " s ";
    return s;
  }().c_str());
  return out;
}

// Counter/histogram deltas between two stats documents.
struct StatsDelta {
  const obs::JsonValue& a;
  const obs::JsonValue& b;

  static double num(const obs::JsonValue& doc, std::initializer_list<const char*> path) {
    const obs::JsonValue* v = &doc;
    for (const char* key : path) {
      v = v->find(key);
      if (v == nullptr) return 0.0;  // idle instruments are omitted
    }
    return v->is_number() ? v->as_double() : 0.0;
  }
  double d(std::initializer_list<const char*> path) const { return num(b, path) - num(a, path); }
  // Mean of the samples recorded between the snapshots, in ms.
  double hist_mean_ms(const char* name) const {
    const double n = d({"metrics", "histograms", name, "count"});
    return n > 0 ? d({"metrics", "histograms", name, "sum"}) / n / 1000.0 : 0.0;
  }
  // Error responses over the window, per wire code.
  std::map<std::string, double> errors() const {
    std::map<std::string, double> out;
    const obs::JsonValue* server = b.find("server");
    if (const obs::JsonValue* codes = server ? server->find("error_codes") : nullptr)
      for (const auto& [code, v] : codes->items())
        out[code] = v.as_double() - num(a, {"server", "error_codes", code.c_str()});
    return out;
  }
};

// Batching counters summed over several stats windows.
struct BatchCounts {
  double requests = 0.0, batches = 0.0, coalesced = 0.0;
  void add(const StatsDelta& w) {
    requests += w.d({"server", "requests"});
    batches += w.d({"server", "batches"});
    coalesced += w.d({"server", "coalesced"});
  }
};

// ------------------------------------------------------------- replay

// write_frame on one end of a socketpair, read_frame on the other. A
// helper thread writes so frames larger than the socket buffer flow.
class FramePipe {
 public:
  FramePipe() {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_) != 0)
      throw std::runtime_error("socketpair failed");
    writer_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        cv_.wait(lock, [&] { return stop_ || pending_ != nullptr; });
        if (stop_) return;
        const std::string* p = pending_;
        lock.unlock();
        serve::write_frame(fds_[0], *p);
        lock.lock();
        pending_ = nullptr;
        cv_.notify_all();
      }
    });
  }
  ~FramePipe() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    writer_.join();
    ::close(fds_[0]);
    ::close(fds_[1]);
  }
  void transfer(const std::string& payload, std::string* out) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_ = &payload;
    }
    cv_.notify_all();
    if (!serve::read_frame(fds_[1], out)) throw std::runtime_error("frame pipe closed");
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return pending_ == nullptr; });
  }

 private:
  int fds_[2] = {-1, -1};
  std::thread writer_;
  std::mutex mu_;
  std::condition_variable cv_;
  const std::string* pending_ = nullptr;
  bool stop_ = false;
};

// The worker's steps for one request, in process, one caller. With a
// tracer each step is a span under a "serve.request" root.
void replay_one(const Reference& ref, const Deck& deck, std::int64_t rid, gnn::PlanCache& cache,
                FramePipe& pipe, Tracer* tr) {
  Tracer::Scope root(tr, "serve.request", rid);
  std::string frame;
  const std::string req = request_frame(rid, deck.escaped);
  {
    Tracer::Scope s(tr, "serve.frame_io", rid);
    pipe.transfer(req, &frame);
  }
  std::string text;
  {
    Tracer::Scope s(tr, "obs.JsonValue::parse", rid);
    const auto doc = obs::JsonValue::parse(frame);
    text = doc->at("netlist").as_string();
  }
  circuit::Netlist nl;
  {
    Tracer::Scope s(tr, "circuit.parse_spice_string", rid);
    nl = circuit::parse_spice_string(text);
  }
  dataset::Sample sample;
  {
    Tracer::Scope s(tr, "graph.build_graph", rid);
    sample.name = nl.name();
    sample.graph = graph::build_graph(nl);
    sample.netlist = std::move(nl);
  }
  std::vector<float> preds;
  if (is_hier(text, sample)) {
    Tracer::Scope s(tr, "core.CapEnsemble::predict_with_cache", rid);
    preds = ref.ens->predict_with_cache(ref.ds, sample, cache);
  } else {
    std::optional<gnn::GraphPlan> plan;
    {
      Tracer::Scope s(tr, "gnn.GraphPlan::build", rid);
      plan.emplace(gnn::GraphPlan::build(sample.graph, ref.ens->model(0).needs_homo()));
    }
    Tracer::Scope s(tr, "core.CapEnsemble::predict_with_plan", rid);
    preds = ref.ens->predict_with_plan(ref.ds, sample, *plan);
  }
  std::string resp;
  {
    Tracer::Scope s(tr, "obs.JsonValue::set+dump", rid);
    resp = encode_response(rid, sample, preds);
  }
  {
    Tracer::Scope s(tr, "serve.frame_io", rid);
    pipe.transfer(resp, &frame);
  }
  {
    Tracer::Scope s(tr, "obs.JsonValue::parse", rid);
    if (!obs::JsonValue::parse(frame)) throw std::runtime_error("replayed response unparsable");
  }
}

// One ParaGraph embedding model (F = 32, L = 5) over a replayed graph.
void replay_embed(const gnn::EmbeddingModel& model, const dataset::FeatureNormalizer& norm,
                  const dataset::Sample& s, std::int64_t rid, Tracer& tr) {
  const gnn::GraphPlan plan = gnn::GraphPlan::build(s.graph, false);
  gnn::GraphBatch batch;
  batch.graph = &s.graph;
  batch.plan = &plan;
  for (std::size_t t = 0; t < graph::kNumNodeTypes; ++t) {
    const auto nt = static_cast<graph::NodeType>(t);
    if (s.graph.num_nodes(nt) != 0) batch.features[t] = nn::Tensor(norm.apply(s.graph, nt));
  }
  Tracer::Scope span(&tr, "gnn.EmbeddingModel::embed", rid);
  model.embed(batch);
}

struct TraceInputs {
  std::vector<int> replay;        // deck per replayed request
  std::vector<double> daemon_ms;  // the same request sent to the daemon alone
  // Stats snapshots bounding the untraced load: queue wait and service
  // time come from the `load` window, batching from the `batch` windows,
  // error and PlanCache counts from the whole window.
  obs::JsonValue begin, load_from, load_to, end;
  BatchCounts batch;
  double lag_p99_ms = -1.0;
  double steal = 0.0;
};

void emit_trace(const Options& opt, const Reference& ref, const std::vector<Deck>& decks,
                const TraceInputs& in, Tracer& tr, Result& r) {
  FramePipe pipe;
  {
    util::Rng rng(opt.seed);
    const auto model = gnn::make_model(gnn::ModelKind::kParaGraph, 32, 5, rng);
    std::map<int, dataset::Sample> samples;
    for (std::size_t i = 0; i < in.replay.size(); ++i) {
      const int d = in.replay[i];
      auto it = samples.find(d);
      if (it == samples.end())
        it = samples.emplace(d, sample_of(decks[static_cast<std::size_t>(d)].text)).first;
      replay_embed(*model, ref.ds.normalizer, it->second, static_cast<std::int64_t>(i), tr);
    }
  }
  const std::map<std::string, double> self = tr.self_ms();
  const double n = static_cast<double>(std::max<std::size_t>(in.replay.size(), 1));
  const auto per_req = [&](const char* span) {
    const auto it = self.find(span);
    return it == self.end() ? 0.0 : it->second / n;
  };
  const auto once = [&](const char* span) {  // spans recorded once per run
    const auto it = self.find(span);
    return it == self.end() ? 0.0 : it->second;
  };

  // Unexplained share of the daemon's one-at-a-time latency.
  double sum_explained = 0.0, sum_daemon = 0.0;
  for (const auto& [rid, ms] : tr.child_ms_by_rid("serve.request")) {
    sum_explained += ms;
    sum_daemon += in.daemon_ms.at(static_cast<std::size_t>(rid));
  }

  // Counting pass: the same requests with the program's instrumentation
  // on, at nproc runtime threads so runtime.utilization describes how well
  // the parallel runtime would use the machine's cores on this work.
  runtime::set_num_threads(opt.connections);
  obs::set_enabled(true);
  auto& mem = obs::MemTracker::instance();
  mem.reset();
  std::size_t counted = 0;
  std::uint64_t allocs0 = 0;
  {
    gnn::PlanCache counting_cache;
    std::set<int> seen;
    for (const int d : in.replay)
      if (seen.insert(d).second)
        replay_one(ref, decks[static_cast<std::size_t>(d)], -1, counting_cache, pipe, nullptr);
    allocs0 = mem.allocs();
    for (const int d : in.replay) {
      replay_one(ref, decks[static_cast<std::size_t>(d)], -1, counting_cache, pipe, nullptr);
      ++counted;
    }
  }
  const double allocs = static_cast<double>(mem.allocs() - allocs0) /
                        static_cast<double>(std::max<std::size_t>(counted, 1));
  const double matrix_peak_mb = static_cast<double>(mem.peak_bytes()) / (1024.0 * 1024.0);
  runtime::publish_runtime_metrics();
  const double utilization =
      obs::MetricsRegistry::instance().gauge("runtime.utilization").value();
  obs::set_enabled(false);
  runtime::set_num_threads(opt.threads);

  // Server-side counts over the untraced load.
  const StatsDelta a{in.load_from, in.load_to};
  const StatsDelta all{in.begin, in.end};
  const double queue_ms = a.hist_mean_ms("serve.queue_wait_us.normal");
  const double batches = in.batch.batches;
  const double requests_b = in.batch.requests;
  const double hits = all.d({"metrics", "counters", "plancache.hits"});
  const double misses = all.d({"metrics", "counters", "plancache.misses"});
  double errors = 0.0;
  std::string by_code;
  for (const auto& [code, n] : all.errors()) {
    errors += n;
    by_code += code + "=" + std::to_string(static_cast<long long>(n)) + " ";
  }
  note("server errors by code over the window: %s", by_code.c_str());

  r.metric("serve.queue_wait_ms", queue_ms, "ms");
  r.metric("serve.batch_size_mean", batches > 0 ? requests_b / batches : 0.0, "count");
  r.metric("serve.coalesced_share",
           requests_b > 0 ? in.batch.coalesced / requests_b : 0.0, "share");
  r.metric("serve.service_ms", a.hist_mean_ms("serve.latency_us") - queue_ms, "ms");
  r.metric("serve.errors", errors, "count");
  r.metric("serve.frame_ms", per_req("serve.frame_io"), "ms");
  r.metric("obs.json_encode_ms", per_req("obs.JsonValue::set+dump"), "ms");
  r.metric("obs.json_decode_ms", per_req("obs.JsonValue::parse"), "ms");
  r.metric("circuit.parse_ms", per_req("circuit.parse_spice_string"), "ms");
  r.metric("graph.build_ms", per_req("graph.build_graph"), "ms");
  r.metric("gnn.plan_ms", per_req("gnn.GraphPlan::build"), "ms");
  r.metric("gnn.plan_cache_hit_share", hits + misses > 0 ? hits / (hits + misses) : 0.0,
           "share");
  r.metric("gnn.plan_cache_mb",
           StatsDelta::num(in.end, {"metrics", "gauges", "plancache.bytes"}) / (1024.0 * 1024.0),
           "MB");
  r.metric("gnn.embed_ms", per_req("gnn.EmbeddingModel::embed"), "ms");
  r.metric("core.ensemble_ms",
           per_req("core.CapEnsemble::predict_with_plan") +
               per_req("core.CapEnsemble::predict_with_cache"),
           "ms");
  r.metric("core.model_load_ms", once("core.CapEnsemble::load"), "ms");
  r.metric("dataset.build_ms", once("dataset.build_dataset"), "ms");
  r.metric("nn.matrix_allocs", allocs, "count");
  r.metric("nn.matrix_peak_mb", matrix_peak_mb, "MB");
  r.metric("runtime.utilization", utilization, "share");
  r.metric("trace.remainder_share", sum_daemon > 0 ? 1.0 - sum_explained / sum_daemon : 0.0,
           "share");
  if (in.lag_p99_ms >= 0.0) r.metric("gen.lag_p99_ms", in.lag_p99_ms, "ms");
  r.metric("host.steal_share", in.steal, "share");
}

// The traced replay, each request paired with the same deck sent alone to
// the live, otherwise idle daemon just before it, so host drift between
// the two cannot pass for unexplained time.
void replay_paired(const Reference& ref, const std::vector<Deck>& decks, const Daemon& d,
                   Tracer& tr, TraceInputs& in) {
  gnn::PlanCache cache;
  FramePipe pipe;
  auto client = serve::ServeClient::connect_unix(d.socket_path());
  // Warm the replay's cache (hier) and lazy state as the daemon's were.
  std::set<int> seen;
  for (const int deck : in.replay)
    if (seen.insert(deck).second)
      replay_one(ref, decks[static_cast<std::size_t>(deck)], -1, cache, pipe, nullptr);
  for (std::size_t i = 0; i < in.replay.size(); ++i) {
    const Deck& deck = decks[static_cast<std::size_t>(in.replay[i])];
    const std::string req = request_frame(0, deck.escaped);
    const auto t0 = Clock::now();
    serve::write_frame(client.fd(), req);
    std::string frame;
    if (!serve::read_frame(client.fd(), &frame)) throw std::runtime_error("daemon hung up");
    // Timed up to the response parse, the replay's last step.
    const auto doc = obs::JsonValue::parse(frame);
    in.daemon_ms.push_back(ms_between(t0, Clock::now()));
    const obs::JsonValue* ok = doc ? doc->find("ok") : nullptr;
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool())
      throw std::runtime_error("single request failed: " + frame.substr(0, 300));
    replay_one(ref, deck, static_cast<std::int64_t>(i), cache, pipe, &tr);
  }
}

void finish_daemon(Served& served, Result& r) {
  const int rc = served.daemon->shutdown();
  if (rc != 0) r.fail("paragraph serve exited with status " + std::to_string(rc));
}

std::vector<const Outcome*> pointers(std::initializer_list<const std::vector<Outcome>*> phases) {
  std::vector<const Outcome*> out;
  for (const auto* phase : phases)
    for (const Outcome& o : *phase) out.push_back(&o);
  return out;
}

void count_outcomes(const std::vector<const Outcome*>& all, Result& r) {
  std::map<std::string, std::size_t> why;
  for (const Outcome* o : all) {
    ++r.attempted;
    if (!o->ok) {
      ++r.failed;
      ++why[o->error];
    }
  }
  for (const auto& [e, n] : why) note("failed requests: %zu x %s", n, e.c_str());
}

}  // namespace

// ================================================================ sweep

void run_serve_sweep(const Options& opt, Result& r) {
  // Inputs: the paper suite at scale 0.08, written back as SPICE decks.
  std::vector<Deck> decks;
  {
    dataset::SuiteDataset ds = dataset::build_dataset(opt.seed, 0.08);
    for (auto* split : {&ds.train, &ds.test})
      for (const dataset::Sample& s : *split) {
        Deck d{s.name, circuit::write_spice_string(s.netlist), ""};
        d.escaped = escape_deck(d.text);
        decks.push_back(std::move(d));
      }
  }
  const std::size_t conns = opt.connections;
  const std::size_t per_round_a = kSweepRequests / kRounds;
  const std::size_t per_round_b = std::max<std::size_t>(
      conns * kPhaseBDepth, static_cast<std::size_t>(std::lround(opt.seconds * kPhaseBPerSecond /
                                                                 static_cast<double>(kRounds))));
  // Phase A (and the traced run's phase C) reads the first kSweepRequests
  // decks of the sequence, phase B the rest.
  const std::vector<int> sequence = sweep_sequence(
      decks.size(), kSweepRequests + kRounds * per_round_b, opt.seed ^ 0x5a17f00dULL);
  const auto slice = [&](std::size_t from, std::size_t n) {
    return std::vector<int>(sequence.begin() + static_cast<std::ptrdiff_t>(from),
                            sequence.begin() + static_cast<std::ptrdiff_t>(from + n));
  };
  // Each pass sends every deck once, in an order of its own.
  std::vector<std::vector<int>> pass_orders(kRounds * kPassesPerRound);
  {
    util::Rng rng(opt.seed ^ 0x9a55e5ULL);
    for (auto& order : pass_orders) {
      for (std::size_t i = 0; i < decks.size(); ++i) order.push_back(static_cast<int>(i));
      rng.shuffle(order);
    }
  }
  note("serve_sweep: %zu decks; %zu rounds of phase A (%zu requests, one at a time), "
       "%zu passes over the pool and phase B (%zu requests over %zu connections)%s",
       decks.size(), kRounds, per_round_a, kPassesPerRound, per_round_b, conns,
       opt.trace ? ", then phase C open loop (traced run)" : "");

  // The set-up's warm-up request is the suite's first circuit, whatever
  // the seed, so set-up time does not follow the seeded draw.
  Served served = start_daemon(opt, opt.trace ? 1 : kSetupRepsSweep, decks, {0}, r);
  Daemon& d = *served.daemon;
  {
    // Warm-up: every deck once on each connection, unmeasured.
    std::vector<serve::ServeClient> clients;
    for (std::size_t c = 0; c < conns; ++c)
      clients.push_back(serve::ServeClient::connect_unix(d.socket_path()));
    for (std::size_t i = 0; i < decks.size(); ++i)
      for (auto& c : clients) c.predict(decks[i].text);
  }

  // Phase A, the passes and phase B alternate in kRounds rounds, so each
  // figure spans the whole run rather than one stretch of it.
  // A: one caller, one request at a time.
  // Passes: one caller sends the whole pool, one deck at a time; a pass
  //    runs from its first send to its last answer.
  // B: nproc connections with kPhaseBDepth requests outstanding each; its
  //    time runs from a round's first send to its last answer.
  TraceInputs ti;
  ti.begin = d.stats();
  const CpuTimes cpu0 = read_cpu_times();
  const Clock::time_point deadline = load_deadline(opt);
  std::vector<Outcome> phase_a, passes, phase_b;
  std::vector<double> pass_ms;
  std::size_t ok_b = 0;
  double seconds_b = 0.0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (Outcome& o : closed_loop(d.socket_path(), 1, 1, slice(round * per_round_a, per_round_a),
                                  deadline, decks))
      phase_a.push_back(std::move(o));
    for (std::size_t k = 0; k < kPassesPerRound; ++k) {
      const std::vector<Outcome> pass = closed_loop(
          d.socket_path(), 1, 1, pass_orders[round * kPassesPerRound + k], deadline, decks);
      pass_ms.push_back(wall_ms(pass.data(), pass.data() + pass.size()));
      passes.insert(passes.end(), pass.begin(), pass.end());
    }
    const obs::JsonValue from = opt.trace ? d.stats() : obs::JsonValue();
    Clock::time_point first = Clock::time_point::max(), last = Clock::time_point::min();
    for (Outcome& o : closed_loop(d.socket_path(), conns, kPhaseBDepth,
                                  slice(kSweepRequests + round * per_round_b, per_round_b),
                                  deadline, decks)) {
      if (o.sent_ok) first = std::min(first, o.sent);
      if (o.answered) last = std::max(last, o.done);
      if (o.ok) ++ok_b;
      phase_b.push_back(std::move(o));
    }
    if (last > first) seconds_b += ms_between(first, last) / 1000.0;
    if (opt.trace) ti.batch.add(StatsDelta{from, d.stats()});
  }
  const CpuTimes cpu1 = read_cpu_times();
  ti.load_from = d.stats();
  const double rss_mb = peak_rss_mb(d.pid());
  ti.steal = steal_share(cpu0, cpu1);

  // Phase C (traced run): open loop, Poisson arrivals at the calibrated
  // rate over nproc connections, for the queueing counts.
  std::vector<Outcome> phase_c;
  if (opt.trace) {
    phase_c.resize(kSweepRequests);
    std::vector<double> at_ms(phase_c.size());
    util::Rng arrivals(opt.seed ^ 0xa11a11a1ULL);
    double t = 0.0;
    for (std::size_t i = 0; i < phase_c.size(); ++i) {
      t += -std::log(1.0 - arrivals.uniform()) / opt.rate_rps * 1000.0;  // Exp(rate) gaps
      at_ms[i] = t;
      phase_c[i].deck = sequence[i];
    }
    open_loop(d.socket_path(), at_ms, decks, phase_c, conns, 10.0);
    ti.load_to = d.stats();
    std::vector<double> lat_c, lag_c;
    for (const Outcome& o : phase_c) {
      lat_c.push_back(o.latency_ms(true));
      if (o.sent_ok) lag_c.push_back(ms_between(o.scheduled, o.sent));
    }
    ti.lag_p99_ms = percentile(lag_c, 0.99);
    r.record.set("open_loop.rate_rps", opt.rate_rps);
    r.record.set("open_loop.latency_p50_ms", percentile(lat_c, 0.50));
    r.record.set("open_loop.latency_p99_ms", percentile(lat_c, 0.99));
    ti.replay.assign(sequence.begin(),
                     sequence.begin() + std::min(kReplaySweep, sequence.size()));
  }
  ti.end = d.stats();
  Tracer tr;
  const Reference ref = load_reference(opt, opt.trace ? &tr : nullptr);
  if (opt.trace) replay_paired(ref, decks, d, tr, ti);
  finish_daemon(served, r);

  std::vector<double> lat_a;
  for (const Outcome& o : phase_a) lat_a.push_back(o.latency_ms(false));
  const std::vector<const Outcome*> all = pointers({&phase_a, &passes, &phase_b, &phase_c});
  count_outcomes(all, r);
  check_outputs(ref, decks, all, r);

  r.record.set("phase_a_requests", phase_a.size());
  r.record.set("passes", pass_ms.size());
  r.record.set("phase_b_requests", phase_b.size());
  r.record.set("phase_b_seconds", seconds_b);
  r.record.set("connections", conns);
  r.record.set("host.steal_share", ti.steal);
  if (opt.trace) {
    emit_trace(opt, ref, decks, ti, tr, r);
    tr.write("trace-serve_sweep-" + std::to_string(opt.seed) + ".json");
    return;
  }
  r.metric("setup_s", median(served.setup_s), "s");
  latency_metrics(lat_a, r);
  r.metric("throughput_rps", static_cast<double>(ok_b) / seconds_b, "1/s");
  r.metric("error_rate", error_rate_bound(r.failed, r.attempted), "share");
  r.metric("epoch_ms", median(pass_ms), "ms");
  r.metric("peak_rss_mb", rss_mb, "MB");
}

// ================================================================= hier

void run_serve_hier(const Options& opt, Result& r) {
  std::vector<Deck> decks;
  for (const int columns : {8, 16, 24}) {
    circuitgen::HierGiantSpec spec;
    spec.name = "hier_giant_c" + std::to_string(columns);
    spec.seed = opt.seed;
    spec.columns = columns;
    spec.cells_per_column = 16;
    spec.stages_per_cell = 10;
    Deck d{spec.name, circuitgen::hier_giant_deck(spec), ""};
    d.escaped = escape_deck(d.text);
    decks.push_back(std::move(d));
  }
  std::vector<int> rotation = {0, 1, 2};
  {
    util::Rng rng(opt.seed ^ 0x41e7ULL);
    rng.shuffle(rotation);
  }
  // A whole number of rotations, so each deck is sent equally often.
  std::size_t requests = std::max<std::size_t>(
      kHierMinRequests, static_cast<std::size_t>(std::lround(opt.seconds * kHierPerSecond)));
  requests = (requests + rotation.size() - 1) / rotation.size() * rotation.size();
  std::vector<int> sequence(requests);
  for (std::size_t i = 0; i < requests; ++i) sequence[i] = rotation[i % rotation.size()];
  note("serve_hier: rotation %s, %s, %s; %zu requests closed loop over one connection",
       decks[static_cast<std::size_t>(rotation[0])].name.c_str(),
       decks[static_cast<std::size_t>(rotation[1])].name.c_str(),
       decks[static_cast<std::size_t>(rotation[2])].name.c_str(), requests);

  // Set-up warms the PlanCache with the three decks in size order.
  Served served = start_daemon(opt, opt.trace ? 1 : kSetupRepsHier, decks, {0, 1, 2}, r);
  Daemon& d = *served.daemon;

  TraceInputs ti;
  ti.begin = d.stats();
  const CpuTimes cpu0 = read_cpu_times();
  const Clock::time_point deadline = load_deadline(opt);
  std::vector<Outcome> outcomes = closed_loop(d.socket_path(), 1, 1, sequence, deadline, decks);
  const CpuTimes cpu1 = read_cpu_times();
  ti.end = d.stats();
  ti.load_from = ti.begin;
  ti.load_to = ti.end;
  ti.batch.add(StatsDelta{ti.begin, ti.end});
  const double rss_mb = peak_rss_mb(d.pid());
  ti.steal = steal_share(cpu0, cpu1);

  std::vector<double> lat;
  for (const Outcome& o : outcomes) lat.push_back(o.latency_ms(false));
  const std::vector<const Outcome*> all = pointers({&outcomes});
  count_outcomes(all, r);

  for (std::size_t k = 0; k < kReplayHierRotations; ++k)
    ti.replay.insert(ti.replay.end(), rotation.begin(), rotation.end());
  Tracer tr;
  const Reference ref = load_reference(opt, opt.trace ? &tr : nullptr);
  if (opt.trace) replay_paired(ref, decks, d, tr, ti);
  finish_daemon(served, r);
  check_outputs(ref, decks, all, r);

  r.record.set("requests", outcomes.size());
  r.record.set("host.steal_share", ti.steal);
  if (opt.trace) {
    emit_trace(opt, ref, decks, ti, tr, r);
    tr.write("trace-serve_hier-" + std::to_string(opt.seed) + ".json");
    return;
  }
  // Throughput over the whole loop; a rotation is the workload's pass.
  Clock::time_point first = Clock::time_point::max(), last = Clock::time_point::min();
  std::size_t ok = 0;
  for (const Outcome& o : outcomes) {
    if (o.sent_ok) first = std::min(first, o.sent);
    if (o.answered) last = std::max(last, o.done);
    if (o.ok) ++ok;
  }
  std::vector<double> rotation_ms;
  for (std::size_t i = 0; i + rotation.size() <= outcomes.size(); i += rotation.size())
    rotation_ms.push_back(wall_ms(&outcomes[i], &outcomes[i] + rotation.size()));
  r.metric("setup_s", median(served.setup_s), "s");
  latency_metrics(lat, r);
  r.metric("throughput_rps",
           last > first ? 1000.0 * static_cast<double>(ok) / ms_between(first, last) : 0.0, "1/s");
  r.metric("error_rate", error_rate_bound(r.failed, r.attempted), "share");
  r.metric("epoch_ms", median(rotation_ms), "ms");
  r.metric("peak_rss_mb", rss_mb, "MB");
}

}  // namespace perfbench

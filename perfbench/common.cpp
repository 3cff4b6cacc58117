#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.h"
#include "serve/client.h"

namespace perfbench {

void note(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::fputs("perfbench: ", stderr);
  std::vfprintf(stderr, fmt, ap);
  std::fputc('\n', stderr);
  va_end(ap);
}

// ----------------------------------------------------------------- stats

namespace {

// ceil(q*n) with a guard against q*n landing a hair above an integer.
std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  return v[nearest_rank(v.size(), q) - 1];
}

std::size_t samples_beyond(std::size_t n, double q) { return n == 0 ? 0 : n - nearest_rank(n, q); }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void latency_metrics(const std::vector<double>& latencies_ms, Result& r) {
  for (const auto& [name, q] : {std::pair{"latency_p50_ms", 0.50},
                                std::pair{"latency_p90_ms", 0.90},
                                std::pair{"latency_p99_ms", 0.99}}) {
    const double value = percentile(latencies_ms, q);
    if (q < 0.99) r.metric(name, value, "ms");
    else r.record.set(name, value);
    r.record.set(std::string(name) + ".samples_beyond", samples_beyond(latencies_ms.size(), q));
  }
}

double error_rate_bound(std::uint64_t failed, std::uint64_t attempted) {
  if (attempted == 0) return 1.0;
  constexpr double z = 1.6448536269514722;  // one-sided 95%
  const double n = static_cast<double>(attempted);
  const double p = static_cast<double>(failed) / n;
  const double z2n = z * z / n;
  return (p + z2n / 2.0 + z * std::sqrt(p * (1.0 - p) / n + z2n / (4.0 * n))) / (1.0 + z2n);
}

// ------------------------------------------------------------- host state

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTimes t;
  if (label != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user/nice).
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    in >> v;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_share(const CpuTimes& a, const CpuTimes& b) {
  const double total = static_cast<double>(b.total - a.total);
  return total > 0.0 ? static_cast<double>(b.steal - a.steal) / total : 0.0;
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

// ------------------------------------------------------------------ spans

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
}

Tracer::Scope::Scope(Tracer* t, const char* name, std::int64_t rid) : t_(t) {
  if (t_ == nullptr) return;
  t_->spans_.push_back({name, t_->now_us(), 0.0, t_->current_, rid});
  index_ = static_cast<int>(t_->spans_.size()) - 1;
  t_->current_ = index_;
}

Tracer::Scope::~Scope() {
  if (t_ == nullptr) return;
  Span& s = t_->spans_[static_cast<std::size_t>(index_)];
  s.end_us = t_->now_us();
  t_->current_ = s.parent;
}

void Tracer::add(const char* name, Clock::time_point start, Clock::time_point end,
                 std::int64_t rid) {
  const auto us = [&](Clock::time_point p) {
    return std::chrono::duration<double, std::micro>(p - origin_).count();
  };
  spans_.push_back({name, us(start), us(end), current_, rid});
}

std::map<std::string, double> Tracer::self_ms() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] += (spans_[i].end_us - spans_[i].start_us - child[i]) / 1000.0;
  return out;
}

std::map<std::int64_t, double> Tracer::child_ms_by_rid(const std::string& root) const {
  std::map<std::int64_t, double> out;
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    if (p.parent < 0 && p.name == root) out[p.rid] += (s.end_us - s.start_us) / 1000.0;
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::string out = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    obs::JsonValue e = obs::JsonValue::object();
    e.set("name", s.name);
    e.set("ph", "X");
    e.set("ts", s.start_us);
    e.set("dur", s.end_us - s.start_us);
    e.set("pid", 1);
    e.set("tid", 1);
    obs::JsonValue args = obs::JsonValue::object();
    args.set("span", static_cast<long long>(i));
    args.set("parent", s.parent);
    args.set("rid", static_cast<long long>(s.rid));
    e.set("args", std::move(args));
    if (i != 0) out += ',';
    e.dump_to(out);
  }
  out += "]}\n";
  std::ofstream(path) << out;
}

// ----------------------------------------------------------------- daemon

Daemon::Daemon(const Options& opt, const std::string& socket_path, const std::string& log_path)
    : socket_path_(socket_path) {
  ::unlink(socket_path_.c_str());
  const std::string threads = std::to_string(opt.threads);
  std::vector<std::string> args = {opt.paragraph_bin, "serve",    "--socket", socket_path_,
                                   "--ensemble",      opt.ensemble, "--threads", threads};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  if (pid_ == 0) {
    // Child: only async-signal-safe calls until exec. The daemon dies with
    // the harness, so an aborted run never leaves it behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    const int devnull = ::open("/dev/null", O_RDONLY);
    if (devnull >= 0) ::dup2(devnull, 0);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
}

Daemon::~Daemon() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  ::unlink(socket_path_.c_str());
}

void Daemon::wait_ready(double timeout_s) {
  const auto start = Clock::now();
  for (;;) {
    try {
      paragraph::serve::ServeClient::connect_unix(socket_path_);
      return;
    } catch (const std::exception&) {
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("paragraph serve exited before listening (see its log)");
    }
    if (ms_between(start, Clock::now()) > timeout_s * 1000.0)
      throw std::runtime_error("paragraph serve did not start listening in time");
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

obs::JsonValue Daemon::stats() const {
  auto client = paragraph::serve::ServeClient::connect_unix(socket_path_);
  const obs::JsonValue resp = client.admin("stats");
  const obs::JsonValue* s = resp.find("stats");
  if (s == nullptr) throw std::runtime_error("stats admin verb returned no document");
  return *s;
}

int Daemon::shutdown(double timeout_s) {
  if (pid_ <= 0) return -1;
  try {
    auto client = paragraph::serve::ServeClient::connect_unix(socket_path_);
    client.admin("shutdown");
  } catch (const std::exception& e) {
    note("shutdown request failed: %s", e.what());
  }
  const auto start = Clock::now();
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (ms_between(start, Clock::now()) > timeout_s * 1000.0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  ::unlink(socket_path_.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string escape_deck(const std::string& deck) {
  std::string out;
  obs::json_escape_to(deck, out);
  return out;
}

std::string request_frame(std::int64_t id, const std::string& escaped_deck) {
  std::string out = "{\"id\":" + std::to_string(id) + ",\"netlist\":";
  out += escaped_deck;
  out += '}';
  return out;
}

ParsedResponse parse_response(const std::string& frame) {
  ParsedResponse r;
  const auto doc = obs::JsonValue::parse(frame);
  if (!doc || !doc->is_object()) {
    r.error_code = "unparsable_response";
    return r;
  }
  if (const obs::JsonValue* id = doc->find("id"); id != nullptr && id->is_number())
    r.id = id->as_int();
  const obs::JsonValue* ok = doc->find("ok");
  r.ok = ok != nullptr && ok->is_bool() && ok->as_bool();
  if (!r.ok) {
    const obs::JsonValue* err = doc->find("error");
    const obs::JsonValue* code = err != nullptr ? err->find("code") : nullptr;
    r.error_code = code != nullptr && code->is_string() ? code->as_string() : "unknown";
    return r;
  }
  const obs::JsonValue* preds = doc->find("predictions");
  const obs::JsonValue* cap = preds != nullptr ? preds->find("CAP") : nullptr;
  if (cap == nullptr || !cap->is_object()) {
    r.ok = false;
    r.error_code = "missing_predictions";
    return r;
  }
  r.cap.names.reserve(cap->size());
  r.cap.values.reserve(cap->size());
  for (const auto& [name, v] : cap->items()) {
    r.cap.names.push_back(name);
    r.cap.values.push_back(static_cast<float>(v.as_double()));
  }
  return r;
}

// ----------------------------------------------------------------- result

void Result::metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    return;
  }
  metrics[name] = {value, unit};
}

void Result::fail(const std::string& why) {
  correct = false;
  note("CHECK FAILED: %s", why.c_str());
}

std::string Result::line() const {
  obs::JsonValue m = obs::JsonValue::object();
  for (const auto& [name, vu] : metrics) {
    obs::JsonValue e = obs::JsonValue::object();
    e.set("value", vu.first);
    e.set("unit", vu.second);
    m.set(name, std::move(e));
  }
  obs::JsonValue out = obs::JsonValue::object();
  out.set("correct", correct);
  out.set("attempted", static_cast<unsigned long long>(attempted));
  out.set("failed", static_cast<unsigned long long>(failed));
  out.set("metrics", std::move(m));
  return out.dump();
}

}  // namespace perfbench

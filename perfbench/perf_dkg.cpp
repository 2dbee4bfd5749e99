// perf_dkg: the measuring half of the repo benchmark (perfbench/run.py is
// the reporting half). It runs one workload of fresh HybridDKG committees
// in a closed loop for a fixed wall time, then replays every one of those
// DKGs under tracing, and prints the raw per-DKG samples as one JSON object.
//
//  * Untraced loop: engine::run_scenario on kWorkers threads, each taking
//    the next committee as soon as its last one finished, with library
//    defaults. No A/B knob is touched and the VerifyPool is never
//    configured; a guard checks both at start and at exit.
//  * Traced replay: the same specs through core::DkgRunner, every node a
//    benchmark-side TracedNode<core::DkgNode> that times on_message per
//    message type and on_timer. The public calls around the run (runner
//    construction, Simulator run, outputs_consistent) are timed as spans of
//    their own. Spans stay in memory, carry the DKG's index, and are
//    written out at the end. The replay must reproduce each untraced
//    transcript (messages, bytes, completion tick) exactly.
//
// Usage: perf_dkg --workload <name> --seed <n> --seconds <s>
//                 [--spans <csv>] [--host <stamp>]
//        perf_dkg --workload <name> --setup-only
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "crypto/bipolynomial.hpp"
#include "crypto/feldman.hpp"
#include "crypto/multiexp.hpp"
#include "crypto/sigverify.hpp"
#include "dkg/byzantine_leader.hpp"
#include "dkg/runner.hpp"
#include "engine/runner.hpp"
#include "engine/verify_pool.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace dkg;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

std::int64_t since_epoch_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - kEpoch).count();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "perf_dkg: %s\n", why.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------- workloads

/// Committees in flight on every workload. One worker rides on one vCPU,
/// and a noisy neighbour slows one vCPU at a time, so per-DKG medians over
/// four workers move far less from run to run than over one or two.
constexpr unsigned kWorkers = 4;

struct Workload {
  const char* name;
  const crypto::Group& (*group)();
  std::size_t n;
  std::size_t t;
  vss::CommitmentMode mode;
  unsigned silent_every;  // every k-th committee has a mute leader (0 = none)
};

const Workload kWorkloads[] = {
    {"dkg-full-ec256-n31", &crypto::Group::ec256, 31, 10, vss::CommitmentMode::Full, 0},
    {"dkg-hashed-modp-n25", &crypto::Group::mod1024, 25, 8, vss::CommitmentMode::Hashed, 0},
    {"committee-burst-ec256-n7", &crypto::Group::ec256, 7, 2, vss::CommitmentMode::Full, 4},
};

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool is_silent(const Workload& w, std::size_t index) {
  return w.silent_every != 0 && index % w.silent_every == w.silent_every - 1;
}

/// Committee `index` of the run: every DKG gets its own seed, hence its own
/// keyring and dealt secrets. n = 3t + 1 + 2f as in the E4 grid.
engine::ScenarioSpec make_spec(const Workload& w, std::size_t n, std::size_t t,
                               std::uint64_t seed, bool silent_leader) {
  engine::ScenarioSpec spec;
  spec.label = w.name;
  spec.variant = engine::Variant::Dkg;
  spec.grp = &w.group();
  spec.n = n;
  spec.t = t;
  spec.f = (n - 1 - 3 * t) / 2;
  spec.mode = w.mode;
  spec.seed = seed;
  if (silent_leader) spec.adversary.kind = engine::AdversaryKind::SilentLeader;
  return spec;
}

engine::ScenarioSpec committee_spec(const Workload& w, std::uint64_t base_seed, std::size_t index) {
  std::uint64_t seed = splitmix64(base_seed ^ splitmix64(index + 1));
  return make_spec(w, w.n, w.t, seed, is_silent(w, index));
}

// ----------------------------------------------------------- defaults guard

/// Every process-wide A/B knob must read its library default and the
/// VerifyPool must be inert, or the numbers describe some other program.
std::vector<std::string> defaults_violations() {
  std::vector<std::string> bad;
  if (!crypto::sig_cache_enabled()) bad.push_back("sig cache is off");
  if (!crypto::sig_batch_enabled()) bad.push_back("sig batch is off");
  if (!crypto::point_memo_enabled()) bad.push_back("point memo is off");
  if (!crypto::multiexp_montgomery_enabled()) bad.push_back("montgomery multiexp is off");
  if (!engine::verify_pool_enabled()) bad.push_back("verify pool knob is off");
  if (engine::VerifyPool::instance().configured_jobs() > 1) bad.push_back("verify pool is sized");
  if (engine::current_verify_jobs() != 0) bad.push_back("verify-jobs override is set");
  if (engine::verify_parallel_active()) bad.push_back("verify pool is active");
  return bad;
}

void check_defaults(const char* when) {
  std::vector<std::string> bad = defaults_violations();
  if (bad.empty()) return;
  std::string msg = std::string("defaults guard failed ") + when + ":";
  for (const std::string& b : bad) msg += " " + b + ";";
  die(msg);
}

// -------------------------------------------------------------- worker pool

/// The benchmark's one thread pool: `workers` threads each take the next
/// index from a shared counter and call job(i, worker) until take(i) says
/// no. Returns the time each worker stopped.
template <class Take, class Job>
std::vector<Clock::time_point> run_pool(unsigned workers, Take take, Job job) {
  std::atomic<std::size_t> next{0};
  std::vector<Clock::time_point> stopped(workers);
  auto worker = [&](unsigned k) {
    for (;;) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (!take(i)) break;
      job(i, k);
    }
    stopped[k] = Clock::now();
  };
  std::vector<std::thread> threads;
  for (unsigned k = 1; k < workers; ++k) threads.emplace_back(worker, k);
  worker(0);
  for (std::thread& th : threads) th.join();
  return stopped;
}

// ------------------------------------------------------------------ tracing

enum Layer : std::uint8_t {
  kVssSend,
  kVssEcho,
  kVssReady,
  kVssCc,
  kDkgDeal,
  kDkgAgree,
  kDkgTimer,
  kOtherMsg,
  kSimRun,
  kEngineSetup,
  kEngineAudit,
  kEngineTeardown,
  kLayerCount,
};

constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "vss.send",  "vss.echo",  "vss.ready", "vss.cc",       "dkg.deal",     "dkg.agree",
    "dkg.timer", "other.msg", "sim.run",   "engine.setup", "engine.audit", "engine.teardown",
};

Layer layer_of(std::string_view type) {
  if (type == "vss.send") return kVssSend;
  if (type == "vss.echo") return kVssEcho;
  if (type == "vss.ready") return kVssReady;
  if (type == "vss.ccreq" || type == "vss.ccreply") return kVssCc;
  if (type.substr(0, 7) == "dkg.in.") return kDkgDeal;
  if (type.substr(0, 4) == "dkg.") return kDkgAgree;
  return kOtherMsg;
}

struct Span {
  std::uint32_t dkg;
  Layer layer;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// One DKG's trace: per-layer totals plus its own spans. The caller
/// reserves `spans` for every event up front, so recording a span inside
/// the simulator run never reallocates.
struct DkgTrace {
  std::uint32_t dkg = 0;
  std::vector<Span> spans;
  std::array<std::int64_t, kLayerCount> ns{};
  std::array<std::uint64_t, kLayerCount> calls{};

  void record(Layer l, Clock::time_point a, Clock::time_point b) {
    std::int64_t s = since_epoch_ns(a);
    std::int64_t e = since_epoch_ns(b);
    ns[l] += e - s;
    ++calls[l];
    spans.push_back(Span{dkg, l, s, e});
  }
};

/// Benchmark-side node wrapper: the protocol logic is Base's, untouched;
/// only the handler entry points are timed. The message type is classified
/// inside the handler span, so the only tracer work billed to the
/// simulator's own time is the clock read after the handler and one append.
template <class Base>
class TracedNode final : public Base {
 public:
  template <class... Args>
  explicit TracedNode(DkgTrace* trace, Args&&... args)
      : Base(std::forward<Args>(args)...), trace_(trace) {}

  void on_message(sim::Context& ctx, sim::NodeId from, const sim::MessagePtr& msg) override {
    Clock::time_point a = Clock::now();
    Layer layer = layer_of(msg->type());
    Base::on_message(ctx, from, msg);
    trace_->record(layer, a, Clock::now());
  }

  void on_timer(sim::Context& ctx, sim::TimerId id) override {
    Clock::time_point a = Clock::now();
    Base::on_timer(ctx, id);
    trace_->record(kDkgTimer, a, Clock::now());
  }

 private:
  DkgTrace* trace_;
};

/// The engine's ScenarioSpec -> RunnerConfig mapping for a Dkg spec, so the
/// replay builds the very network the untraced run built.
core::RunnerConfig runner_config(const engine::ScenarioSpec& spec) {
  core::RunnerConfig cfg;
  cfg.grp = spec.grp;
  cfg.n = spec.n;
  cfg.t = spec.t;
  cfg.f = spec.f;
  cfg.seed = spec.seed;
  cfg.tau = spec.tau;
  cfg.d_kappa = spec.d_kappa;
  cfg.mode = spec.mode;
  cfg.delay_lo = spec.delay_lo;
  cfg.delay_hi = spec.delay_hi;
  cfg.slow_nodes = spec.slow_nodes;
  cfg.slow_penalty = spec.slow_penalty;
  cfg.timeout_base = spec.timeout_base;
  if (spec.adversary.active()) {
    cfg.delay_factory = [spec]() { return engine::make_delay_model(spec); };
  }
  return cfg;
}

// ------------------------------------------------------------------ samples

struct Sample {
  std::size_t index = 0;  // committee index within the run
  unsigned worker = 0;
  std::uint64_t seed = 0;
  double wall_s = 0;
  bool completed = false;
  bool ok = false;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t ticks = 0;
};

struct TracedSample {
  double wall_s = 0;  // what run_scenario spans: set-up, run and teardown, not the audit
  bool completed = false;
  bool consistent = false;  // Definition 4.1 audit (outputs_consistent)
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t ticks = 0;
  std::array<std::int64_t, kLayerCount> ns{};
  std::array<std::uint64_t, kLayerCount> calls{};
};

/// One committee through engine::run_scenario, timed on its worker. A
/// throwing scenario is a failed DKG, not a failed run.
Sample run_untraced_one(const engine::ScenarioSpec& spec) {
  Sample s;
  s.seed = spec.seed;
  Clock::time_point a = Clock::now();
  try {
    engine::ScenarioResult r = engine::run_scenario(spec);
    s.wall_s = seconds_between(a, Clock::now());
    s.completed = r.completed;
    s.ok = r.ok;
    s.messages = r.messages;
    s.bytes = r.bytes;
    s.ticks = r.completion_time;
  } catch (const std::exception& e) {
    s.wall_s = seconds_between(a, Clock::now());
    std::fprintf(stderr, "perf_dkg: scenario (seed %llu) threw: %s\n",
                 static_cast<unsigned long long>(spec.seed), e.what());
  }
  return s;
}

struct Loop {
  std::vector<Sample> samples;   // in committee-index order
  std::vector<double> worker_s;  // each worker's time in the loop
};

/// Closed loop: each worker takes the next committee as soon as its last
/// one finished, and takes none once `seconds` of wall time have passed.
Loop run_untraced(const Workload& w, std::uint64_t base_seed, double seconds) {
  std::vector<std::vector<Sample>> per_worker(kWorkers);
  Clock::time_point start = Clock::now();
  auto take = [&](std::size_t) { return seconds_between(start, Clock::now()) < seconds; };
  auto job = [&](std::size_t i, unsigned k) {
    Sample s = run_untraced_one(committee_spec(w, base_seed, i));
    s.index = i;
    s.worker = k;
    per_worker[k].push_back(s);
  };
  std::vector<Clock::time_point> stopped = run_pool(kWorkers, take, job);
  Loop loop;
  for (unsigned k = 0; k < kWorkers; ++k) {
    loop.worker_s.push_back(seconds_between(start, stopped[k]));
    loop.samples.insert(loop.samples.end(), per_worker[k].begin(), per_worker[k].end());
  }
  std::sort(loop.samples.begin(), loop.samples.end(),
            [](const Sample& x, const Sample& y) { return x.index < y.index; });
  return loop;
}

TracedSample run_traced(const engine::ScenarioSpec& spec, DkgTrace& trace) {
  TracedSample s;
  Clock::time_point a = Clock::now();
  auto runner = std::make_unique<core::DkgRunner>(runner_config(spec));
  for (sim::NodeId id = 1; id <= spec.n; ++id) {
    if (id == 1 && spec.adversary.kind == engine::AdversaryKind::SilentLeader) {
      runner->replace_node(1, std::make_unique<TracedNode<core::ByzantineLeaderNode>>(
                                  &trace, runner->params(), 1, core::LeaderFault::Mute));
    } else {
      runner->simulator().set_node(
          id, std::make_unique<TracedNode<core::DkgNode>>(&trace, runner->params(), id));
    }
  }
  runner->start_all();
  Clock::time_point b = Clock::now();
  trace.record(kEngineSetup, a, b);
  s.completed = runner->run_to_completion(spec.min_outputs, spec.max_events);
  Clock::time_point c = Clock::now();
  trace.record(kSimRun, b, c);
  s.consistent = s.completed && runner->outputs_consistent();
  Clock::time_point d = Clock::now();
  trace.record(kEngineAudit, c, d);
  const sim::Metrics& m = runner->simulator().metrics();
  s.messages = m.total_messages();
  s.bytes = m.total_bytes();
  s.ticks = runner->simulator().now();
  Clock::time_point e = Clock::now();
  runner.reset();
  Clock::time_point f = Clock::now();
  trace.record(kEngineTeardown, e, f);
  s.wall_s = seconds_between(a, c) + seconds_between(e, f);
  s.ns = trace.ns;
  s.calls = trace.calls;
  return s;
}

/// Replays the loop's committees on the loop's workers. DKG i's spans go
/// to (*spans)[i], reserved from its untraced message count: every handler
/// dispatch is a delivered message, a timer or a start.
std::vector<TracedSample> replay(const std::vector<engine::ScenarioSpec>& specs,
                                 const std::vector<Sample>& untraced,
                                 std::vector<std::vector<Span>>* spans) {
  std::vector<TracedSample> out(specs.size());
  spans->assign(specs.size(), {});
  auto take = [&](std::size_t i) { return i < specs.size(); };
  auto job = [&](std::size_t i, unsigned) {
    DkgTrace trace;
    trace.dkg = static_cast<std::uint32_t>(i);
    trace.spans.reserve(untraced[i].messages + 8 * specs[i].n + 16);
    out[i] = run_traced(specs[i], trace);
    std::sort(trace.spans.begin(), trace.spans.end(),
              [](const Span& x, const Span& y) { return x.start_ns < y.start_ns; });
    (*spans)[i] = std::move(trace.spans);
  };
  run_pool(kWorkers, take, job);
  return out;
}

/// Pushes every entry out of the process-wide interned-decode cache (a
/// FIFO of 256 entries) with one-entry tiny256 commitments, so the replay
/// decodes its commitments fresh instead of reusing the untraced run's, and
/// both runs do the same work.
void evict_decode_cache() {
  const crypto::Group& grp = crypto::Group::tiny256();
  crypto::Drbg rng(0x70657266ULL);
  for (int k = 0; k < 512; ++k) {
    crypto::BiPolynomial f = crypto::BiPolynomial::random(crypto::Scalar::from_u64(grp, k + 1), 0,
                                                          rng);
    crypto::FeldmanMatrix c = crypto::FeldmanMatrix::commit(f);
    if (!crypto::FeldmanMatrix::from_bytes_interned(grp, c.canonical_bytes(), 0)) {
      die("decode-cache eviction: commitment failed to decode");
    }
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Process start through one cold, untimed DKG of the workload's group and
/// commitment mode (n = 7): static groups, generator combs and Montgomery
/// contexts are built here, not inside the timed loop.
double cold_setup(const Workload& w) {
  engine::ScenarioResult r = engine::run_scenario(make_spec(w, 7, 2, 0x5e7u, false));
  if (!r.completed || !r.ok) die("cold set-up DKG failed");
  return seconds_between(kEpoch, Clock::now());
}

// ------------------------------------------------------------------- output

void write_spans(const std::string& path, const std::string& host,
                 const std::vector<engine::ScenarioSpec>& specs,
                 const std::vector<std::vector<Span>>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) die("cannot write " + path);
  std::fprintf(f, "# host: %s build=%s\n", host.c_str(), PERFBENCH_BUILD_TYPE);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::fprintf(f, "# dkg %zu seed %llu\n", i, static_cast<unsigned long long>(specs[i].seed));
  }
  std::fprintf(f, "# engine.setup, sim.run and engine.audit are children of the DKG; every\n"
                  "# other span is a handler, a child of its DKG's sim.run.\n");
  std::fprintf(f, "dkg,name,start_ns,end_ns\n");
  for (const std::vector<Span>& dkg : spans) {
    for (const Span& s : dkg) {
      std::fprintf(f, "%u,%s,%lld,%lld\n", s.dkg, kLayerNames[s.layer],
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
    }
  }
  std::fclose(f);
}

void print_json(const Workload& w, double setup_s, const Loop& loop, double rss_mb,
                const std::vector<TracedSample>& traced, const crypto::SigVerifyStats& d,
                std::size_t mismatches, std::size_t guard_violations) {
  std::printf("{\"workload\": \"%s\", \"build_type\": \"%s\", ", w.name, PERFBENCH_BUILD_TYPE);
  std::printf("\"workers\": %u, \"setup_s\": %.9f, \"worker_s\": [", kWorkers, setup_s);
  for (std::size_t k = 0; k < loop.worker_s.size(); ++k) {
    std::printf("%s%.9f", k == 0 ? "" : ", ", loop.worker_s[k]);
  }
  std::printf("], ");
  const std::vector<Sample>& untraced = loop.samples;
  std::printf("\"peak_rss_mb\": %.6f, \"transcript_mismatches\": %zu, ", rss_mb, mismatches);
  std::printf("\"guard_violations\": %zu,\n \"untraced\": [", guard_violations);
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    const Sample& s = untraced[i];
    std::printf("%s\n  {\"seed\": %llu, \"worker\": %u, \"wall_s\": %.9f, "
                "\"completed\": %s, \"ok\": %s, \"messages\": %llu, \"bytes\": %llu, "
                "\"ticks\": %llu}",
                i == 0 ? "" : ",", static_cast<unsigned long long>(s.seed), s.worker, s.wall_s,
                s.completed ? "true" : "false",
                s.ok ? "true" : "false", static_cast<unsigned long long>(s.messages),
                static_cast<unsigned long long>(s.bytes), static_cast<unsigned long long>(s.ticks));
  }
  std::printf("],\n \"traced\": [");
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const TracedSample& s = traced[i];
    std::printf("%s\n  {\"wall_s\": %.9f, \"completed\": %s, \"consistent\": %s, \"layers\": {",
                i == 0 ? "" : ",", s.wall_s, s.completed ? "true" : "false",
                s.consistent ? "true" : "false");
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      std::printf("%s\"%s\": [%.6f, %llu]", l == 0 ? "" : ", ", kLayerNames[l], s.ns[l] / 1e6,
                  static_cast<unsigned long long>(s.calls[l]));
    }
    std::printf("}}");
  }
  std::printf("],\n \"crypto\": {\"cache_hits\": %llu, \"cache_misses\": %llu, "
              "\"batch_items\": %llu, \"comb_builds\": %llu, \"point_memo_hits\": %llu, "
              "\"point_memo_misses\": %llu}}\n",
              static_cast<unsigned long long>(d.cache_hits),
              static_cast<unsigned long long>(d.cache_misses),
              static_cast<unsigned long long>(d.batch_items),
              static_cast<unsigned long long>(d.comb_builds),
              static_cast<unsigned long long>(d.point_memo_hits),
              static_cast<unsigned long long>(d.point_memo_misses));
}

crypto::SigVerifyStats stats_delta(const crypto::SigVerifyStats& a,
                                   const crypto::SigVerifyStats& b) {
  crypto::SigVerifyStats d;
  d.cache_hits = b.cache_hits - a.cache_hits;
  d.cache_misses = b.cache_misses - a.cache_misses;
  d.batch_items = b.batch_items - a.batch_items;
  d.comb_builds = b.comb_builds - a.comb_builds;
  d.point_memo_hits = b.point_memo_hits - a.point_memo_hits;
  d.point_memo_misses = b.point_memo_misses - a.point_memo_misses;
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool setup_only = false;
  std::string spans_path;
  std::string host;
  for (int i = 1; i < argc; ++i) {
    std::string_view a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value for " + std::string(a));
      return argv[++i];
    };
    if (a == "--workload") {
      workload = value();
    } else if (a == "--seed") {
      seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--spans") {
      spans_path = value();
    } else if (a == "--host") {
      host = value();
    } else if (a == "--setup-only") {
      setup_only = true;
    } else {
      die("unknown argument " + std::string(a));
    }
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr) die("unknown workload '" + workload + "'");

  check_defaults("at start");
  double setup_s = cold_setup(*w);
  if (setup_only) {
    std::printf("{\"setup_s\": %.9f}\n", setup_s);
    return 0;
  }

  Loop loop = run_untraced(*w, seed, seconds);
  const std::vector<Sample>& untraced = loop.samples;
  double rss_mb = peak_rss_mb();

  std::vector<engine::ScenarioSpec> specs;
  for (const Sample& s : untraced) specs.push_back(committee_spec(*w, seed, s.index));
  evict_decode_cache();
  crypto::SigVerifyStats before = crypto::sig_verify_stats();
  std::vector<std::vector<Span>> spans;
  std::vector<TracedSample> traced = replay(specs, untraced, &spans);
  crypto::SigVerifyStats delta = stats_delta(before, crypto::sig_verify_stats());

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    const Sample& u = untraced[i];
    const TracedSample& t = traced[i];
    if (u.messages != t.messages || u.bytes != t.bytes || u.ticks != t.ticks ||
        u.completed != t.completed) {
      ++mismatches;
      std::fprintf(stderr,
                   "perf_dkg: transcript mismatch on DKG %zu (seed %llu): untraced "
                   "%llu msgs / %llu B / tick %llu, traced %llu msgs / %llu B / tick %llu\n",
                   i, static_cast<unsigned long long>(u.seed),
                   static_cast<unsigned long long>(u.messages),
                   static_cast<unsigned long long>(u.bytes),
                   static_cast<unsigned long long>(u.ticks),
                   static_cast<unsigned long long>(t.messages),
                   static_cast<unsigned long long>(t.bytes),
                   static_cast<unsigned long long>(t.ticks));
    }
  }
  std::size_t guard_violations = defaults_violations().size();
  if (!spans_path.empty()) write_spans(spans_path, host, specs, spans);
  print_json(*w, setup_s, loop, rss_mb, traced, delta, mismatches, guard_violations);
  return 0;
}

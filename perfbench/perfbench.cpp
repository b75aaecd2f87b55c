// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--size full|tiny] [--trace-out FILE] [--inject-fault]
//
// Workloads (BENCHMARK.json records why each was chosen):
//
//   table1-exhaustive  Table I PVC k = min-1 cells (p_hat_500_3, LastFM_Asia
//                      at --scale default). k = min-1 is infeasible, so the
//                      whole tree is searched and its size does not depend on
//                      the schedule. Hybrid passes over the cells alternate
//                      with Sequential passes (the single-thread baseline).
//   wire-tiny          closed loop of two loopback connections, one
//                      request in flight each, against an in-process
//                      net::Server + SolveService (2 workers). Every request
//                      names a distinct small G(n,p) graph uploaded during
//                      set-up; one request in eight repeats the request made
//                      three before it, so the ResultCache hit path runs beside
//                      the miss path. Hybrid (the default method) requests are
//                      timed first, then Sequential ones as the baseline.
//   corpus-stream      repeated passes of one in-memory gspan corpus of
//                      small graphs (bench/corpus_throughput's size and
//                      density mix) through CorpusReader and
//                      SolveService::submit_batch (2 workers); direct
//                      solve_batch passes over the pre-parsed graphs are the
//                      baseline.
//
// The Table I cells are the catalog's fixed instances; the seed orders the
// cells and picks which method runs first. The wire and corpus inputs are
// generated from the seed.
//
// End-to-end metrics (--trace 0), every workload:
//   setup_s           median over repeated set-ups within the run
//   ok_share          verified operations / attempted operations
//   peak_rss_mb       VmHWM at exit
//   p50_ms            median latency of one operation: a Hybrid pass over the
//                     cells / a client round trip / a corpus pass through the
//                     service
//   tail_ms           p90 of the same when at least ten samples lie beyond
//                     it, else the median (the percentile used is printed)
//   throughput_per_s  median rate over Hybrid passes (tree nodes/s) / over
//                     one-second windows (requests/s) / over service passes
//                     (graphs/s)
//   baseline_p50_ms   median latency of the baseline operation: a Sequential
//                     pass / a Sequential round trip / a direct solve_batch
//                     corpus pass
//
// With --trace 1 the run measures the workload once with tracing on (spans
// kept in memory around every call into a layer), muted on every other
// operation (every other one-second window on wire-tiny), so that the traced
// and untraced operations interleave. It prints every per-layer metric, the
// per-span self time, and writes the spans to --trace-out as Chrome
// trace-event JSON. End-to-end metrics are never taken from a traced run.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Exit status is 0 whenever that
// line is printed; 2 on bad arguments.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "device/virtual_device.hpp"
#include "graph/corpus.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "harness/catalog.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "parallel/batch.hpp"
#include "parallel/solver.hpp"
#include "service/graph_hash.hpp"
#include "service/solve_service.hpp"
#include "trace.hpp"

namespace {

using namespace gvc;
using perfbench::set_thread_traced;
using perfbench::SpanScope;
using perfbench::Tracer;

// ---- options and result accounting -----------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool tiny = false;         ///< small inputs, for the benchmark's own tests
  bool inject_fault = false; ///< corrupt the first checked result
  std::string trace_out;
};

/// The unit every metric is printed with, in the order they are printed.
struct MetricDef {
  const char* name;
  const char* unit;
};
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"ok_share", "share"},
    {"peak_rss_mb", "MB"},     {"p50_ms", "ms"},
    {"tail_ms", "ms"},         {"throughput_per_s", "1/s"},
    {"baseline_p50_ms", "ms"},
};
constexpr MetricDef kPerLayer[] = {
    {"graph.parse_mb_per_s", "MB/s"},
    {"graph.generate_s", "s"},
    {"vc.tree_nodes", "count"},
    {"vc.seq_ns_per_node", "ns"},
    {"worklist.adds", "count"},
    {"worklist.removes", "count"},
    {"worklist.donations_rejected", "count"},
    {"worklist.idle_share", "share"},
    {"parallel.hybrid_nodes_per_s", "1/s"},
    {"parallel.sm_load_max_over_mean", "ratio"},
    {"parallel.sim_s", "s"},
    {"parallel.tiny_hybrid_us", "us"},
    {"parallel.tiny_sequential_us", "us"},
    {"parallel.batch_graphs_per_s", "1/s"},
    {"device.empty_launch_us", "us"},
    {"device.blocks_per_launch", "count"},
    {"service.queue_wait_p50_ms", "ms"},
    {"service.solve_p50_ms", "ms"},
    {"service.overhead_us", "us"},
    {"service.cache_hit_share", "share"},
    {"net.ping_rtt_us", "us"},
    {"net.upload_ms", "ms"},
    {"net.wire_overhead_us", "us"},
    {"obs.trace_overhead_share", "share"},
};

using Metrics = std::map<std::string, double>;

/// Verified and attempted operations of the whole run. Checks never abort:
/// a wrong result is counted and the run goes on.
struct Tally {
  std::atomic<long long> attempted{0};
  std::atomic<long long> failed{0};
  std::atomic<bool> fault_pending{false};

  void record(bool ok, const char* what) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!ok) {
      if (failed.fetch_add(1, std::memory_order_relaxed) < 5)
        std::printf("check failed: %s\n", what);
    }
  }
  /// True exactly once when --inject-fault is set: the caller corrupts the
  /// result it is about to check.
  bool take_fault() { return fault_pending.exchange(false); }
};
Tally g_tally;

// ---- small helpers ---------------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(q * static_cast<double>(xs.size()));
  const std::size_t i =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return xs[std::min(i, xs.size() - 1)];
}
double median(const std::vector<double>& xs) { return percentile(xs, 0.5); }
double mean(const std::vector<double>& xs) {
  double sum = 0.0;
  for (double x : xs) sum += x;
  return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

/// p90 when at least ten samples lie beyond it, else the median; `label`
/// names the percentile used. p99 is printed beside it but not used: on the
/// shared reference host it moved by a third between identical runs.
double tail(const std::vector<double>& xs, const char** label) {
  if (xs.size() >= 100) {
    *label = "p90";
    return percentile(xs, 0.90);
  }
  *label = "p50";
  return median(xs);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// {all, steal} jiffies of /proc/stat: their deltas give the share of CPU
/// time the hypervisor gave to other guests.
std::pair<double, double> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  for (double& x : v) in >> x;
  double total = 0.0;
  for (double x : v) total += x;
  return {total, v[7]};
}

std::string load_average() {
  std::ifstream in("/proc/loadavg");
  std::string a, b, c;
  in >> a >> b >> c;
  return a + " " + b + " " + c;
}

int host_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

/// Checks a reported cover against its graph and the reference optimum.
/// With a pending injected fault the cover is corrupted first, which this
/// check must then reject.
bool cover_ok(const graph::CsrGraph& g, std::vector<graph::Vertex> cover,
              int best_size, int expected_size) {
  if (g_tally.take_fault() && !cover.empty()) cover.pop_back();
  return best_size == expected_size &&
         static_cast<int>(cover.size()) == best_size &&
         graph::is_vertex_cover(g, cover);
}

/// Distinct small G(n,p) graphs (no two share a canonical hash, across
/// `taken` too): n in [lo_n, lo_n + spread_n), p in [p_lo, p_lo + p_span).
std::vector<graph::CsrGraph> distinct_gnp(std::size_t count,
                                          std::uint64_t seed, int lo_n,
                                          int spread_n, double p_lo,
                                          double p_span,
                                          std::unordered_set<std::uint64_t>* taken) {
  std::vector<graph::CsrGraph> out;
  out.reserve(count);
  for (std::uint64_t i = 0; out.size() < count; ++i) {
    const std::uint64_t s = service::mix64(seed * 0x9E3779B97F4A7C15ull + i);
    const int n = lo_n + static_cast<int>(s % static_cast<std::uint64_t>(spread_n));
    const double p = p_lo + p_span * static_cast<double>((s >> 20) % 1000) / 1000.0;
    graph::CsrGraph g = graph::gnp(n, p, s);
    if (g.num_edges() == 0) continue;
    if (!taken->insert(service::canonical_graph_hash(g)).second) continue;
    out.push_back(std::move(g));
  }
  return out;
}

/// The size and density mix of bench/corpus_throughput (graph i has
/// n = 8 + i mod 13 and p = 0.2 + 0.05 (i mod 7)), with a graph redrawn
/// until its canonical hash is new, so that no two records are the same.
std::vector<graph::CsrGraph> corpus_mix(std::size_t count, std::uint64_t seed) {
  std::unordered_set<std::uint64_t> taken;
  std::vector<graph::CsrGraph> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const int n = 8 + static_cast<int>(i % 13);
    const double p = 0.2 + 0.05 * static_cast<double>(i % 7);
    for (std::uint64_t draw = 0;; ++draw) {
      graph::CsrGraph g = graph::gnp(
          n, p, service::mix64(seed * 0x9E3779B97F4A7C15ull + (i << 16) + draw));
      if (!taken.insert(service::canonical_graph_hash(g)).second) continue;
      out.push_back(std::move(g));
      break;
    }
  }
  return out;
}

/// Reference Sequential MVC solves: optimum size and tree nodes per graph.
struct Reference {
  std::vector<int> optimum;
  std::uint64_t tree_nodes = 0;
  double seconds = 0.0;
};
Reference reference_solves(const std::vector<graph::CsrGraph>& graphs) {
  Reference ref;
  parallel::SolveWorkspace ws;
  const parallel::ParallelConfig config;
  const double t0 = now_s();
  for (const auto& g : graphs) {
    const parallel::ParallelResult r =
        parallel::solve(g, parallel::Method::kSequential, config, nullptr, &ws);
    g_tally.record(r.outcome == vc::Outcome::kOptimal &&
                       graph::is_vertex_cover(g, r.cover),
                   "reference Sequential solve");
    ref.optimum.push_back(r.best_size);
    ref.tree_nodes += r.tree_nodes;
  }
  ref.seconds = now_s() - t0;
  return ref;
}

/// Samples of one measured segment of a workload.
struct Samples {
  std::vector<double> op_ms;        ///< primary operation latencies
  /// Whether each primary operation ran traced (traced runs only).
  std::vector<char> op_traced;
  std::vector<double> baseline_ms;  ///< baseline operation latencies
  /// Primary work rates (units/s) of each op or one-second window; their
  /// median is throughput_per_s.
  std::vector<double> rates;
};

// ---- per-layer probes shared by the workloads ------------------------------

/// Worklist and load-balance counters summed over Hybrid results.
struct HybridCounters {
  std::uint64_t adds = 0, removes = 0, rejected = 0;
  double idle = 0.0, load = 0.0, sim_s = 0.0;
  int solves = 0;

  void add(const parallel::ParallelResult& r) {
    adds += r.worklist.adds;
    removes += r.worklist.removes;
    rejected += r.worklist.donations_rejected_threshold +
                r.worklist.donations_rejected_full;
    idle += r.launch.mean_activity_fractions()[static_cast<int>(
        util::Activity::kTerminate)];
    const auto l = r.launch.load_per_sm_normalized();
    load += l.empty() ? 0.0 : *std::max_element(l.begin(), l.end());
    sim_s += r.sim_seconds;
    ++solves;
  }
  void emit(double nodes_per_s, Metrics& out) const {
    const double n = std::max(1, solves);
    out["worklist.adds"] = static_cast<double>(adds);
    out["worklist.removes"] = static_cast<double>(removes);
    out["worklist.donations_rejected"] = static_cast<double>(rejected);
    out["worklist.idle_share"] = idle / n;
    out["parallel.hybrid_nodes_per_s"] = nodes_per_s;
    out["parallel.sm_load_max_over_mean"] = load / n;
    out["parallel.sim_s"] = sim_s;
  }
};

/// Adds the direct-solve layers measured on small graphs: tiny Hybrid and
/// Sequential solve times, the device launch probe, and (unless the
/// workload measures them itself) the Hybrid worklist/load counters.
void tiny_solve_layers(const std::vector<graph::CsrGraph>& graphs,
                       bool worklist_counters, Metrics& out) {
  const parallel::ParallelConfig config;
  parallel::SolveWorkspace hws, sws;
  HybridCounters counters;
  std::uint64_t nodes = 0;
  std::size_t grid = 0;
  const double t0 = now_s();
  for (const auto& g : graphs) {
    SpanScope s("parallel.solve");
    const parallel::ParallelResult r = parallel::solve(
        g, parallel::Method::kHybrid, config, nullptr, &hws);
    counters.add(r);
    nodes += r.tree_nodes;
    grid = r.launch.blocks.size();
  }
  const double hybrid_s = now_s() - t0;
  const double t1 = now_s();
  for (const auto& g : graphs) {
    SpanScope s("parallel.solve");
    parallel::solve(g, parallel::Method::kSequential, config, nullptr, &sws);
  }
  const double seq_s = now_s() - t1;
  const double n = static_cast<double>(graphs.size());
  out["parallel.tiny_hybrid_us"] = hybrid_s / n * 1e6;
  out["parallel.tiny_sequential_us"] = seq_s / n * 1e6;
  if (worklist_counters)
    counters.emit(static_cast<double>(nodes) / hybrid_s, out);

  // An empty launch at the grid Hybrid used: the per-job launch cost.
  const device::VirtualDevice dev(config.device);
  const int g = static_cast<int>(grid);
  int reps = 0;
  const double t2 = now_s();
  do {
    SpanScope s("device.launch");
    const device::LaunchStats st =
        dev.launch(g, /*cooperative=*/true, [](device::BlockContext&) {});
    g_tally.record(st.blocks.size() == grid, "empty launch block count");
    ++reps;
  } while (now_s() - t2 < 0.2 && reps < 2000);
  out["device.empty_launch_us"] = (now_s() - t2) / reps * 1e6;
  out["device.blocks_per_launch"] = static_cast<double>(grid);
}

/// solve_batch throughput over pre-parsed graphs, repeated for >= 0.2 s.
void batch_layers(const std::vector<graph::CsrGraph>& graphs, Metrics& out) {
  std::vector<const graph::CsrGraph*> views;
  for (const auto& g : graphs) views.push_back(&g);
  const parallel::ParallelConfig config;
  parallel::SolveWorkspace ws;
  std::size_t solved = 0;
  const double t0 = now_s();
  do {
    SpanScope s("parallel.solve_batch");
    solved += parallel::solve_batch(views, config, nullptr, &ws).results.size();
  } while (now_s() - t0 < 0.2);
  out["parallel.batch_graphs_per_s"] =
      static_cast<double>(solved) / (now_s() - t0);
}

/// CorpusReader::next throughput over `bytes`, repeated for >= 0.2 s.
void parse_layers(const std::string& bytes, Metrics& out) {
  std::size_t parsed = 0;
  const double t0 = now_s();
  do {
    std::istringstream in(bytes);
    graph::CorpusReader reader(in);
    SpanScope s("graph.parse");
    while (reader.next()) {
    }
    parsed += bytes.size();
  } while (now_s() - t0 < 0.2);
  out["graph.parse_mb_per_s"] = static_cast<double>(parsed) / 1e6 /
                                (now_s() - t0);
}

std::string gspan_of(const std::vector<const graph::CsrGraph*>& graphs) {
  std::ostringstream os;
  for (std::size_t i = 0; i < graphs.size(); ++i)
    graph::write_gspan(os, *graphs[i], std::to_string(i));
  return os.str();
}

/// The difference of two cumulative histogram snapshots.
obs::Histogram::Snapshot since(const obs::Histogram::Snapshot& before,
                               const obs::Histogram::Snapshot& after) {
  obs::Histogram::Snapshot d = after;
  d.count -= before.count;
  d.sum_ns -= before.sum_ns;
  d.min_ns = 0;
  for (std::size_t i = 0; i < d.buckets.size(); ++i)
    d.buckets[i] -= before.buckets[i];
  return d;
}

/// Width in microseconds of the histogram bucket a quantile was read from.
double bucket_width_us(double quantile_s) {
  const int i = obs::Histogram::bucket_index(
      static_cast<std::uint64_t>(quantile_s * 1e9));
  const std::uint64_t lo = i > 0 ? obs::Histogram::bucket_upper_ns(i - 1) : 0;
  return static_cast<double>(obs::Histogram::bucket_upper_ns(i) - lo) / 1e3;
}

/// Service-layer timings over the jobs between two stats snapshots. Every
/// job there must have been queued and solved (no cache hits), so that the
/// queue, solve and e2e samples describe one population. The overhead is
/// exact: the e2e sum minus the solve sum, per job. The p50s are histogram
/// bucket bounds; the width of their buckets is printed beside them.
void service_layers(const service::ServiceStats& before,
                    const service::ServiceStats& after, Metrics& out) {
  const auto queue = since(before.queue_wait, after.queue_wait);
  const auto solve = since(before.solve_latency, after.solve_latency);
  const auto e2e = since(before.e2e_latency, after.e2e_latency);
  g_tally.record(e2e.count > 0 && solve.count == e2e.count &&
                     queue.count == e2e.count,
                 "service timings cover solved jobs only");
  const double queue_p50 = queue.quantile_seconds(0.5);
  const double solve_p50 = solve.quantile_seconds(0.5);
  out["service.queue_wait_p50_ms"] = queue_p50 * 1e3;
  out["service.solve_p50_ms"] = solve_p50 * 1e3;
  out["service.overhead_us"] =
      (e2e.sum_seconds() - solve.sum_seconds()) /
      static_cast<double>(std::max<std::uint64_t>(1, e2e.count)) * 1e6;
  std::printf("service jobs=%llu queue_p50_bucket_us=%.3f "
              "solve_p50_bucket_us=%.3f\n",
              static_cast<unsigned long long>(e2e.count),
              bucket_width_us(queue_p50), bucket_width_us(solve_p50));
}

/// Cache hits over submissions between two stats snapshots.
double cache_hit_share(const service::ServiceStats& before,
                       const service::ServiceStats& after) {
  const double submitted =
      static_cast<double>(after.submitted - before.submitted);
  return submitted > 0
             ? static_cast<double>(after.cache_hits - before.cache_hits) /
                   submitted
             : 0.0;
}

// ---- the workloads ---------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Everything before the first timed operation; timed as setup_s.
  virtual void setup() = 0;
  /// Exact counts fixed by set-up; every repeated set-up must agree.
  virtual std::vector<std::uint64_t> pinned() const = 0;
  /// Runs the timed loop for about `seconds`, checking every output.
  virtual Samples measure(double seconds) = 0;
  /// Per-layer metrics (called after a traced measure()).
  virtual void layers(Metrics& out) = 0;
  /// Inputs generation time of the last set-up.
  double generate_s = 0.0;
  /// In a traced run: trace every other operation (or one-second window)
  /// and mute the rest, recording which in Samples::op_traced.
  bool interleave_trace = false;
};

void wire_probe_layers(const Options& opt, Metrics& out);

// -- table1-exhaustive --------------------------------------------------------

class Table1Exhaustive : public Workload {
 public:
  explicit Table1Exhaustive(const Options& opt) : opt_(opt) {}

  void setup() override {
    const double t0 = now_s();
    // p_hat_500_3 (high degree) at --scale default; LastFM_Asia (low
    // degree, where Hybrid loses to Sequential) at --scale smoke, because
    // its default-scale cell takes 3.5 s per Hybrid solve and leaves too few
    // passes in a run for a steady median.
    const auto smoke = harness::paper_catalog(harness::Scale::kSmoke);
    const auto full = harness::paper_catalog(
        opt_.tiny ? harness::Scale::kSmoke : harness::Scale::kDefault);
    cells_.clear();
    for (const auto& [name, catalog] :
         {std::pair{"p_hat_500_3", &full}, std::pair{"LastFM_Asia", &smoke}}) {
      Cell c;
      c.name = name;
      c.graph = harness::find_instance(*catalog, name).graph();
      cells_.push_back(std::move(c));
    }
    if (opt_.seed % 2 == 1) std::swap(cells_[0], cells_[1]);
    generate_s = now_s() - t0;

    // The k = min witness fixes k, and one Sequential k = min-1 solve pins
    // the exhaustive tree size that every timed solve must reproduce.
    parallel::SolveWorkspace ws;
    for (Cell& c : cells_) {
      const double c0 = now_s();
      parallel::ParallelConfig mvc;
      const auto w = parallel::solve(c.graph, parallel::Method::kSequential,
                                     mvc, nullptr, &ws);
      g_tally.record(w.outcome == vc::Outcome::kOptimal &&
                         graph::is_vertex_cover(c.graph, w.cover) &&
                         static_cast<int>(w.cover.size()) == w.best_size,
                     "k = min witness");
      c.k = w.best_size - 1;
      const auto p = parallel::solve(c.graph, parallel::Method::kSequential,
                                     pvc(c), nullptr, &ws);
      g_tally.record(p.outcome == vc::Outcome::kInfeasible,
                     "pinning solve is infeasible");
      c.pinned_nodes = p.tree_nodes;
      // Warm the Hybrid path on the cell itself: a node-limited launch
      // fixes the grid every timed Hybrid launch must use.
      vc::SolveControl control(vc::Limits{2000, 0.0});
      const auto h = parallel::solve(c.graph, parallel::Method::kHybrid,
                                     pvc(c), &control, &hybrid_ws_);
      c.blocks = h.launch.blocks.size();
      std::printf("setup cell=%s n=%d k=%d witness_s=%.3f pin_s=%.3f "
                  "total_s=%.3f\n",
                  c.name.c_str(), c.graph.num_vertices(), c.k, w.seconds,
                  p.seconds, now_s() - c0);
    }
  }

  std::vector<std::uint64_t> pinned() const override {
    std::vector<std::uint64_t> v;
    for (const Cell& c : cells_) {
      v.push_back(c.pinned_nodes);
      v.push_back(static_cast<std::uint64_t>(c.k));
      v.push_back(c.blocks);
    }
    return v;
  }

  Samples measure(double seconds) override {
    Samples s;
    const double start = now_s();
    // Alternate the methods; the seed picks which goes first. Each method
    // gets at least one pass.
    // When tracing interleaves, every other Hybrid pass runs muted.
    bool hybrid = opt_.seed % 4 < 2;
    int passes[2] = {0, 0};
    const int min_hybrid = interleave_trace ? 2 : 1;
    while (passes[0] < min_hybrid || passes[1] == 0 ||
           now_s() - start < seconds) {
      const bool traced = !interleave_trace || !hybrid || passes[0] % 2 == 1;
      set_thread_traced(traced);
      const std::uint64_t nodes = pass(hybrid, s);
      set_thread_traced(true);
      if (hybrid) {
        s.rates.push_back(static_cast<double>(nodes) / (s.op_ms.back() / 1e3));
        s.op_traced.push_back(traced);
      }
      ++passes[hybrid ? 0 : 1];
      hybrid = !hybrid;
    }
    std::printf("count tree_nodes_per_pass hybrid=%llu sequential=%llu "
                "pinned=%llu passes hybrid=%d sequential=%d\n",
                static_cast<unsigned long long>(last_nodes_[0]),
                static_cast<unsigned long long>(last_nodes_[1]),
                static_cast<unsigned long long>(pinned_pass_nodes()),
                passes[0], passes[1]);
    return s;
  }

  void layers(Metrics& out) override {
    const double nodes = static_cast<double>(pinned_pass_nodes());
    out["graph.generate_s"] = generate_s;
    out["vc.tree_nodes"] = nodes;
    out["vc.seq_ns_per_node"] = median(seq_pass_ms_) * 1e6 / nodes;
    last_hybrid_.emit(nodes / (median(hyb_pass_ms_) / 1e3), out);
    // Layers this workload bypasses are measured on small seeded inputs.
    std::unordered_set<std::uint64_t> taken;
    const auto small = distinct_gnp(opt_.tiny ? 32 : 256, opt_.seed, 20, 5,
                                    0.18, 0.04, &taken);
    tiny_solve_layers(small, /*worklist_counters=*/false, out);
    batch_layers(small, out);
    std::vector<const graph::CsrGraph*> views;
    for (const Cell& c : cells_) views.push_back(&c.graph);
    parse_layers(gspan_of(views), out);
    wire_probe_layers(opt_, out);
  }

 private:
  struct Cell {
    std::string name;
    graph::CsrGraph graph;
    int k = 0;
    std::uint64_t pinned_nodes = 0;
    std::size_t blocks = 0;
  };

  static parallel::ParallelConfig pvc(const Cell& c) {
    parallel::ParallelConfig config;
    config.problem = vc::Problem::kPvc;
    config.k = c.k;
    return config;
  }

  std::uint64_t pinned_pass_nodes() const {
    std::uint64_t n = 0;
    for (const Cell& c : cells_) n += c.pinned_nodes;
    return n;
  }

  /// One pass over the cells; returns the tree nodes it visited.
  std::uint64_t pass(bool hybrid, Samples& s) {
    const auto method =
        hybrid ? parallel::Method::kHybrid : parallel::Method::kSequential;
    parallel::SolveWorkspace& ws = hybrid ? hybrid_ws_ : seq_ws_;
    std::vector<parallel::ParallelResult> results;
    const double t0 = now_s();
    {
      SpanScope op(hybrid ? "op.hybrid_pass" : "op.sequential_pass",
                   Tracer::instance().next_id());
      for (const Cell& c : cells_) {
        SpanScope span("parallel.solve");
        results.push_back(parallel::solve(c.graph, method, pvc(c), nullptr, &ws));
      }
    }
    const double ms = (now_s() - t0) * 1e3;
    (hybrid ? s.op_ms : s.baseline_ms).push_back(ms);
    (hybrid ? hyb_pass_ms_ : seq_pass_ms_).push_back(ms);

    std::uint64_t nodes = 0;
    HybridCounters counters;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Cell& c = cells_[i];
      const parallel::ParallelResult& r = results[i];
      std::uint64_t tree = r.tree_nodes;
      if (g_tally.take_fault()) ++tree;
      bool ok = r.outcome == vc::Outcome::kInfeasible &&
                tree == c.pinned_nodes;
      if (hybrid) {
        ok = ok && r.launch.blocks.size() == c.blocks &&
             r.launch.total_nodes() == c.pinned_nodes;
        counters.add(r);
      }
      g_tally.record(ok, hybrid ? "Hybrid cell: kInfeasible, pinned tree, grid"
                                : "Sequential cell: kInfeasible, pinned tree");
      nodes += r.tree_nodes;
    }
    if (hybrid) last_hybrid_ = counters;
    last_nodes_[hybrid ? 0 : 1] = nodes;
    return nodes;
  }

  Options opt_;
  std::vector<Cell> cells_;
  parallel::SolveWorkspace hybrid_ws_, seq_ws_;
  std::vector<double> hyb_pass_ms_, seq_pass_ms_;
  HybridCounters last_hybrid_;  ///< of the last Hybrid pass
  std::uint64_t last_nodes_[2] = {0, 0};  ///< last pass: Hybrid, Sequential
};

// -- wire-tiny -----------------------------------------------------------------

class WireTiny : public Workload {
 public:
  static constexpr int kWorkers = 2;
  static constexpr int kRepeatEvery = 8;  ///< request j % 8 == 7 repeats j - 3
  static constexpr int kWarmGraphs = 8;

  WireTiny(const Options& opt, int connections, int pool)
      : opt_(opt), conns_(connections), pool_(pool) {}
  ~WireTiny() override { stop(); }

  void setup() override {
    stop();
    const double t0 = now_s();
    std::unordered_set<std::uint64_t> taken;
    graphs_.assign(static_cast<std::size_t>(conns_), {});
    for (int c = 0; c < conns_; ++c)
      graphs_[static_cast<std::size_t>(c)] = distinct_gnp(
          static_cast<std::size_t>(pool_ + kWarmGraphs),
          opt_.seed * 131 + static_cast<std::uint64_t>(c), 20, 5, 0.18, 0.04,
          &taken);
    generate_s = now_s() - t0;
    refs_.clear();
    for (const auto& gs : graphs_) refs_.push_back(reference_solves(gs));

    service::ServiceOptions sopts;
    sopts.num_workers = kWorkers;
    svc_ = std::make_unique<service::SolveService>(sopts);
    net::ServerOptions nopts;
    nopts.max_graphs_per_connection =
        static_cast<std::size_t>(pool_ + kWarmGraphs);
    server_ = std::make_unique<net::Server>(*svc_, nopts);
    std::string err;
    if (!server_->start(&err)) {
      std::printf("server start failed: %s\n", err.c_str());
      g_tally.record(false, "server start");
      return;
    }
    clients_.clear();
    for (int c = 0; c < conns_; ++c) {
      clients_.push_back(std::make_unique<net::Client>());
      g_tally.record(clients_.back()->connect("127.0.0.1", server_->port(), &err),
                     "client connect");
    }
    // Uploads run one thread per connection; graph ids are 1-based slots.
    std::vector<double> upload_s(static_cast<std::size_t>(conns_));
    for_each_connection([&](int c) {
      const double u0 = now_s();
      net::Client& cl = *clients_[static_cast<std::size_t>(c)];
      const auto& gs = graphs_[static_cast<std::size_t>(c)];
      for (std::size_t i = 0; i < gs.size(); ++i)
        g_tally.record(cl.upload_graph(i + 1, gs[i]), "graph upload");
      upload_s[static_cast<std::size_t>(c)] = now_s() - u0;
    });
    upload_ms_ = 0.0;
    for (double u : upload_s) upload_ms_ += u;
    upload_ms_ = upload_ms_ * 1e3 / static_cast<double>(conns_ * (pool_ + kWarmGraphs));
    // Warm-up on graphs the timed loop never names: first launches,
    // per-worker workspaces, and both methods' code paths.
    for_each_connection([&](int c) {
      for (int i = 0; i < kWarmGraphs; ++i)
        for (auto m : {parallel::Method::kHybrid, parallel::Method::kSequential})
          request(c, static_cast<std::size_t>(pool_ + i), m, 0);
    });
    cursor_.assign(2, std::vector<std::uint64_t>(
                          static_cast<std::size_t>(conns_), 0));
  }

  std::vector<std::uint64_t> pinned() const override {
    std::vector<std::uint64_t> v;
    for (const Reference& r : refs_) v.push_back(r.tree_nodes);
    return v;
  }

  Samples measure(double seconds) override {
    Samples s;
    // Hybrid, the default method, gets three quarters of the time; the
    // Sequential baseline through the same path gets the rest.
    const Phase h = phase(parallel::Method::kHybrid, seconds * 0.75,
                          /*repeats=*/true, interleave_trace);
    const Phase q = phase(parallel::Method::kSequential, seconds * 0.25,
                          /*repeats=*/true, /*interleave=*/false);
    s.op_ms = h.rtt_ms;
    s.op_traced = h.traced;
    s.baseline_ms = q.rtt_ms;
    s.rates = h.window_rates;
    last_hybrid_ = h;
    return s;
  }

  void layers(Metrics& out) override {
    out["graph.generate_s"] = generate_s;
    std::uint64_t nodes = 0;
    double seconds = 0.0;
    for (const Reference& r : refs_) {
      nodes += r.tree_nodes;
      seconds += r.seconds;
    }
    out["vc.tree_nodes"] = static_cast<double>(nodes);
    out["vc.seq_ns_per_node"] = seconds * 1e9 / static_cast<double>(nodes);
    std::vector<graph::CsrGraph> small(
        graphs_[0].begin(),
        graphs_[0].begin() + std::min<std::ptrdiff_t>(256, pool_));
    tiny_solve_layers(small, /*worklist_counters=*/true, out);
    batch_layers(small, out);
    std::vector<const graph::CsrGraph*> views;
    for (const auto& gs : graphs_)
      for (const auto& g : gs) views.push_back(&g);
    parse_layers(gspan_of(views), out);
    wire_layers(out);
  }

  /// Service and net layers. The hit share is that of the last Hybrid
  /// phase; the timings come from a further Hybrid phase without repeats,
  /// so that every request in it is a queued and solved miss.
  void wire_layers(Metrics& out) {
    out["service.cache_hit_share"] =
        cache_hit_share(last_hybrid_.before, last_hybrid_.after);
    const Phase miss = phase(parallel::Method::kHybrid, opt_.tiny ? 0.2 : 1.0,
                             /*repeats=*/false, /*interleave=*/false);
    service_layers(miss.before, miss.after, out);
    // Exact means over the same requests: client round trip minus the
    // service's submit-to-terminal time.
    out["net.wire_overhead_us"] =
        mean(miss.rtt_ms) * 1e3 -
        since(miss.before.e2e_latency, miss.after.e2e_latency).mean_seconds() *
            1e6;
    out["net.upload_ms"] = upload_ms_;
    std::vector<double> ping_us;
    for (int i = 0; i < 200 && !clients_.empty(); ++i) {
      SpanScope s("net.ping", Tracer::instance().next_id());
      const double t0 = now_s();
      g_tally.record(clients_[0]->ping(), "ping");
      ping_us.push_back((now_s() - t0) * 1e6);
    }
    out["net.ping_rtt_us"] = median(ping_us);
  }

  /// One Hybrid phase of `seconds`, for the workloads that borrow the wire
  /// path as a probe.
  void probe_phase(double seconds) {
    last_hybrid_ = phase(parallel::Method::kHybrid, seconds,
                         /*repeats=*/true, /*interleave=*/false);
  }

 private:
  struct Phase {
    std::vector<double> rtt_ms;
    std::vector<char> traced;  ///< per round trip, in rtt_ms order
    /// Replies per second in each whole one-second window of the phase (the
    /// phase's overall rate when it is shorter than two seconds).
    std::vector<double> window_rates;
    service::ServiceStats before, after;
  };

  template <class F>
  void for_each_connection(F&& body) {
    std::vector<std::thread> threads;
    for (int c = 0; c < conns_; ++c) threads.emplace_back([&body, c] { body(c); });
    for (auto& t : threads) t.join();
  }

  /// One wire round trip on connection `c` for graph `slot`, with its reply
  /// checked. `branch_seed` only distinguishes cache keys: the max-degree
  /// rule never reads it.
  void request(int c, std::size_t slot, parallel::Method method,
               std::uint64_t branch_seed) {
    net::Client& cl = *clients_[static_cast<std::size_t>(c)];
    net::SolveRequestMsg req;
    req.graph_id = slot + 1;
    req.method = method;
    req.config.branch_seed = branch_seed;
    net::ResultMsg res;
    bool ok = false;
    {
      SpanScope s("net.submit");
      const std::uint64_t id = cl.submit(req);
      SpanScope w("net.wait_result");
      ok = id != 0 && cl.wait_result(id, &res);
    }
    SpanScope chk("check");
    const auto& gs = graphs_[static_cast<std::size_t>(c)];
    ok = ok && res.status == 2 /* wire JobStatus: done */ &&
         res.outcome == vc::Outcome::kOptimal &&
         cover_ok(gs[slot], res.cover, res.best_size,
                  refs_[static_cast<std::size_t>(c)].optimum[slot]);
    g_tally.record(ok, "wire reply: verified cover of the optimum size");
  }

  /// Closed loop on every connection for `seconds`. A connection walks its
  /// pool in order, across phases of the same method; each further walk
  /// sends the next branch_seed, so a non-repeat request is always a cache
  /// miss (a new key) and a repeat always a hit. Without `with_repeats` every
  /// request is a miss. With `interleave`, requests that start in an odd
  /// window (one second, or an eighth of a shorter phase) are traced and the
  /// rest muted.
  Phase phase(parallel::Method method, double seconds, bool with_repeats,
              bool interleave) {
    Phase ph;
    auto& cursor = cursor_[method == parallel::Method::kHybrid ? 0 : 1];
    const double window_s = std::min(1.0, seconds / 8);
    std::vector<std::vector<double>> rtts(static_cast<std::size_t>(conns_));
    std::vector<std::vector<char>> traced(static_cast<std::size_t>(conns_));
    std::vector<std::vector<double>> done_at(static_cast<std::size_t>(conns_));
    std::vector<long long> repeats(static_cast<std::size_t>(conns_), 0);
    std::vector<long long> distinct(static_cast<std::size_t>(conns_), 0);
    if (clients_.size() != static_cast<std::size_t>(conns_)) {
      g_tally.record(false, "wire set-up did not finish");
      return ph;
    }
    ph.before = svc_->stats();
    const double start = now_s();
    for_each_connection([&](int c) {
      const std::size_t ci = static_cast<std::size_t>(c);
      std::vector<std::uint64_t> history;  ///< walk position per request
      while (now_s() - start < seconds) {
        const std::size_t j = history.size();
        std::uint64_t pos;
        if (with_repeats && j % kRepeatEvery == kRepeatEvery - 1) {
          pos = history[j - 3];
          ++repeats[ci];
        } else {
          pos = cursor[ci]++;
          ++distinct[ci];
        }
        history.push_back(pos);
        const std::uint64_t pool = static_cast<std::uint64_t>(pool_);
        const double t0 = now_s();
        const bool on =
            !interleave || static_cast<long long>((t0 - start) / window_s) % 2 == 1;
        set_thread_traced(on);
        {
          SpanScope op("op.request", Tracer::instance().next_id());
          request(c, static_cast<std::size_t>(pos % pool), method, pos / pool);
        }
        const double t1 = now_s();
        set_thread_traced(true);
        rtts[ci].push_back((t1 - t0) * 1e3);
        traced[ci].push_back(on);
        done_at[ci].push_back(t1 - start);
      }
    });
    const double wall_s = now_s() - start;
    ph.after = svc_->stats();
    long long reps = 0, dist = 0;
    for (int c = 0; c < conns_; ++c) {
      reps += repeats[static_cast<std::size_t>(c)];
      dist += distinct[static_cast<std::size_t>(c)];
      for (double r : rtts[static_cast<std::size_t>(c)]) ph.rtt_ms.push_back(r);
      for (char t : traced[static_cast<std::size_t>(c)]) ph.traced.push_back(t);
    }
    const std::size_t windows = static_cast<std::size_t>(wall_s);
    if (windows >= 2) {
      ph.window_rates.assign(windows, 0.0);
      for (const auto& times : done_at)
        for (double t : times)
          if (t < static_cast<double>(windows))
            ph.window_rates[static_cast<std::size_t>(t)] += 1.0;
    } else {
      ph.window_rates.push_back(static_cast<double>(ph.rtt_ms.size()) / wall_s);
    }
    const auto hits = ph.after.cache_hits - ph.before.cache_hits;
    const auto solved = ph.after.completed - ph.before.completed;
    std::printf("count %s cache_hits=%llu expected=%lld solves=%llu "
                "expected=%lld\n",
                parallel::method_name(method),
                static_cast<unsigned long long>(hits), reps,
                static_cast<unsigned long long>(solved), dist);
    g_tally.record(static_cast<long long>(hits) == reps &&
                       static_cast<long long>(solved) == dist &&
                       ph.after.rejected == ph.before.rejected,
                   "cache hits and solves match the repeat schedule");
    return ph;
  }

  void stop() {
    clients_.clear();
    if (server_) server_->stop();
    server_.reset();
    svc_.reset();
  }

  Options opt_;
  int conns_;
  int pool_;
  std::vector<std::vector<graph::CsrGraph>> graphs_;  ///< [conn][slot]
  std::vector<Reference> refs_;                       ///< per connection
  std::unique_ptr<service::SolveService> svc_;
  std::unique_ptr<net::Server> server_;
  std::vector<std::unique_ptr<net::Client>> clients_;
  std::vector<std::vector<std::uint64_t>> cursor_;  ///< [method][conn] walk
  double upload_ms_ = 0.0;
  Phase last_hybrid_;
};

/// Service and net metrics for the workloads that do not use the wire: a
/// short wire-tiny phase on its own small pool.
void wire_probe_layers(const Options& opt, Metrics& out) {
  WireTiny probe(opt, 2, opt.tiny ? 64 : 512);
  probe.setup();
  probe.probe_phase(opt.tiny ? 0.2 : 1.0);
  probe.wire_layers(out);
}

// -- corpus-stream -------------------------------------------------------------

class CorpusStream : public Workload {
 public:
  static constexpr int kWorkers = 2;

  explicit CorpusStream(const Options& opt) : opt_(opt) {}

  void setup() override {
    svc_.reset();
    const double t0 = now_s();
    // The traffic bench/corpus_throughput measures, scaled to 12k graphs.
    graphs_ = corpus_mix(opt_.tiny ? 400 : 12000, opt_.seed);
    std::vector<const graph::CsrGraph*> views;
    for (const auto& g : graphs_) views.push_back(&g);
    bytes_ = gspan_of(views);
    generate_s = now_s() - t0;
    ref_ = reference_solves(graphs_);

    service::ServiceOptions sopts;
    sopts.num_workers = kWorkers;
    svc_ = std::make_unique<service::SolveService>(sopts);
    // Warm-up: one untimed pass down each path.
    Samples warm;
    service_pass(warm);
    direct_pass(warm);
  }

  std::vector<std::uint64_t> pinned() const override {
    return {ref_.tree_nodes, static_cast<std::uint64_t>(bytes_.size())};
  }

  Samples measure(double seconds) override {
    Samples s;
    before_ = svc_->stats();
    const double start = now_s();
    // The service path and the direct baseline alternate pass by pass. When
    // tracing interleaves, every other service pass runs muted.
    const std::size_t min_passes = interleave_trace ? 2 : 1;
    while (s.op_ms.size() < min_passes || now_s() - start < seconds) {
      const bool traced = !interleave_trace || s.op_ms.size() % 2 == 1;
      set_thread_traced(traced);
      service_pass(s);
      set_thread_traced(true);
      s.op_traced.push_back(traced);
      direct_pass(s);
    }
    after_ = svc_->stats();
    std::printf("count tree_nodes_per_pass=%llu pinned=%llu passes=%zu\n",
                static_cast<unsigned long long>(last_pass_nodes_),
                static_cast<unsigned long long>(ref_.tree_nodes),
                s.op_ms.size());
    return s;
  }

  void layers(Metrics& out) override {
    out["graph.generate_s"] = generate_s;
    out["vc.tree_nodes"] = static_cast<double>(ref_.tree_nodes);
    out["vc.seq_ns_per_node"] =
        ref_.seconds * 1e9 / static_cast<double>(ref_.tree_nodes);
    service_layers(before_, after_, out);
    out["service.cache_hit_share"] = cache_hit_share(before_, after_);
    std::vector<graph::CsrGraph> sample(
        graphs_.begin(), graphs_.begin() + std::min<std::size_t>(256, graphs_.size()));
    tiny_solve_layers(sample, /*worklist_counters=*/true, out);
    batch_layers(graphs_, out);
    parse_layers(bytes_, out);
    Metrics wire;
    wire_probe_layers(opt_, wire);
    for (const char* k : {"net.ping_rtt_us", "net.upload_ms", "net.wire_overhead_us"})
      out[k] = wire[k];
  }

 private:
  void check_pass(const std::vector<vc::SolveResult>& results) {
    std::uint64_t nodes = 0;
    g_tally.record(results.size() == graphs_.size(), "corpus pass size");
    for (std::size_t i = 0; i < results.size() && i < graphs_.size(); ++i) {
      const vc::SolveResult& r = results[i];
      nodes += r.tree_nodes;
      g_tally.record(r.outcome == vc::Outcome::kOptimal &&
                         cover_ok(graphs_[i], r.cover, r.best_size,
                                  ref_.optimum[i]),
                     "corpus record: verified cover of the optimum size");
    }
    g_tally.record(nodes == ref_.tree_nodes, "corpus pass tree nodes");
    last_pass_nodes_ = nodes;
  }

  void service_pass(Samples& s) {
    std::vector<vc::SolveResult> results;
    const double t0 = now_s();
    {
      SpanScope op("op.service_pass", Tracer::instance().next_id());
      std::istringstream in(bytes_);
      graph::CorpusReader reader(in);
      service::CorpusSubmission sub;
      {
        SpanScope span("service.submit_batch");
        sub = svc_->submit_batch(reader);
      }
      SpanScope span("service.wait");
      for (const auto& ticket : sub.tickets) {
        svc_->wait(ticket);
        const auto& recs = ticket.state->batch_results();
        results.insert(results.end(), recs.begin(), recs.end());
      }
    }
    s.op_ms.push_back((now_s() - t0) * 1e3);
    s.rates.push_back(static_cast<double>(graphs_.size()) /
                      (s.op_ms.back() / 1e3));
    SpanScope chk("check");
    check_pass(results);
  }

  void direct_pass(Samples& s) {
    std::vector<vc::SolveResult> results;
    const parallel::ParallelConfig config;
    const std::size_t chunk = service::ServiceOptions{}.corpus_chunk_size;
    const double t0 = now_s();
    {
      SpanScope op("op.direct_pass", Tracer::instance().next_id());
      for (std::size_t lo = 0; lo < graphs_.size(); lo += chunk) {
        std::vector<const graph::CsrGraph*> views;
        for (std::size_t i = lo; i < std::min(lo + chunk, graphs_.size()); ++i)
          views.push_back(&graphs_[i]);
        SpanScope span("parallel.solve_batch");
        auto r = parallel::solve_batch(views, config, nullptr, &ws_);
        for (auto& rec : r.results) results.push_back(std::move(rec));
      }
    }
    s.baseline_ms.push_back((now_s() - t0) * 1e3);
    SpanScope chk("check");
    check_pass(results);
  }

  Options opt_;
  std::vector<graph::CsrGraph> graphs_;
  std::string bytes_;
  Reference ref_;
  std::unique_ptr<service::SolveService> svc_;
  parallel::SolveWorkspace ws_;
  std::uint64_t last_pass_nodes_ = 0;
  service::ServiceStats before_, after_;  ///< around the last measure()
};

// ---- main ------------------------------------------------------------------

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "table1-exhaustive")
    return std::make_unique<Table1Exhaustive>(opt);
  if (opt.workload == "wire-tiny")
    return std::make_unique<WireTiny>(opt, 2, opt.tiny ? 96 : 4096);
  if (opt.workload == "corpus-stream")
    return std::make_unique<CorpusStream>(opt);
  return nullptr;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "table1-exhaustive|wire-tiny|corpus-stream --seed N "
               "--seconds S --trace 0|1 [--size full|tiny] [--trace-out FILE] "
               "[--inject-fault]\n",
               why);
  return 2;
}

void print_json(const Options& opt, const Metrics& m) {
  const long long attempted = g_tally.attempted.load();
  const long long failed = g_tally.failed.load();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              failed == 0 && attempted > 0 ? "true" : "false", attempted,
              failed);
  bool first = true;
  auto emit = [&](const MetricDef& d) {
    const auto it = m.find(d.name);
    const double v = it == m.end() ? std::nan("") : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", d.name, v, d.unit);
    first = false;
  };
  if (opt.trace) {
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
      have_seconds = opt.seconds > 0.0;
    } else if (a == "--trace") {
      const std::string v = value();
      opt.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else if (a == "--size") {
      const std::string v = value();
      if (v != "full" && v != "tiny") return usage("--size is full or tiny");
      opt.tiny = v == "tiny";
    } else if (a == "--trace-out") {
      opt.trace_out = value();
    } else if (a == "--inject-fault") {
      opt.inject_fault = true;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    return usage("--seed, --seconds > 0 and --trace 0|1 are required");
  if (!make_workload(opt)) return usage("unknown workload");

  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const auto jiffies_start = cpu_jiffies();
  std::printf("host nproc=%d loadavg=%s seed=%llu workload=%s size=%s "
              "trace=%d\n",
              host_cpus(), load_average().c_str(),
              static_cast<unsigned long long>(opt.seed), opt.workload.c_str(),
              opt.tiny ? "tiny" : "full", opt.trace ? 1 : 0);

  // Set up several times and keep the last; every set-up must pin the same
  // exact counts.
  const int setups = 3;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  std::vector<std::uint64_t> pinned;
  for (int r = 0; r < setups; ++r) {
    w.reset();
    // Hand the previous set-up's freed heap back, so that repeating the
    // set-up does not raise peak_rss_mb above what one set-up needs.
    malloc_trim(0);
    w = make_workload(opt);
    const double t0 = now_s();
    w->setup();
    setup_s.push_back(now_s() - t0);
    if (r == 0) pinned = w->pinned();
    g_tally.record(w->pinned() == pinned, "repeated set-up pins the same counts");
  }
  g_tally.fault_pending.store(opt.inject_fault);

  Metrics m;
  if (!opt.trace) {
    const Samples s = w->measure(opt.seconds);
    const char* label = "p50";
    m["setup_s"] = median(setup_s);
    m["p50_ms"] = median(s.op_ms);
    m["tail_ms"] = tail(s.op_ms, &label);
    m["throughput_per_s"] = median(s.rates);
    m["baseline_p50_ms"] = median(s.baseline_ms);
    std::printf("samples op=%zu baseline=%zu tail=%s op_p99_ms=%.4f\n",
                s.op_ms.size(), s.baseline_ms.size(), label,
                percentile(s.op_ms, 0.99));
    if (s.op_ms.size() <= 16) {
      std::printf("op_ms");
      for (double v : s.op_ms) std::printf(" %.1f", v);
      std::printf(" baseline_ms");
      for (double v : s.baseline_ms) std::printf(" %.1f", v);
      std::printf("\n");
    }
  } else {
    // Traced and muted operations interleave in one measurement, so host
    // drift over the run affects both alike; the ratio of their medians is
    // the tracing overhead.
    Tracer::instance().set_enabled(true);
    w->interleave_trace = true;
    const Samples s = w->measure(opt.seconds);
    w->interleave_trace = false;
    w->layers(m);
    Tracer::instance().set_enabled(false);
    std::vector<double> on, off;
    for (std::size_t i = 0; i < s.op_ms.size() && i < s.op_traced.size(); ++i)
      (s.op_traced[i] ? on : off).push_back(s.op_ms[i]);
    g_tally.record(!on.empty() && !off.empty(),
                   "traced and untraced operations both measured");
    std::printf("samples traced=%zu untraced=%zu\n", on.size(), off.size());
    m["obs.trace_overhead_share"] =
        on.empty() || off.empty() ? 0.0 : median(on) / median(off) - 1.0;
    const auto spans = Tracer::instance().collect();
    std::printf("spans kept=%zu dropped=%llu\n", spans.size(),
                static_cast<unsigned long long>(Tracer::instance().dropped()));
    for (const auto& [name, secs] : perfbench::self_seconds(spans))
      std::printf("self_ms %s %.3f\n", name.c_str(), secs * 1e3);
    if (!opt.trace_out.empty())
      g_tally.record(perfbench::write_chrome_trace(opt.trace_out, spans),
                     "trace written");
  }
  w.reset();
  m["ok_share"] = g_tally.attempted > 0
                      ? 1.0 - static_cast<double>(g_tally.failed) /
                                  static_cast<double>(g_tally.attempted)
                      : 0.0;
  m["peak_rss_mb"] = peak_rss_mb();
  const auto jiffies_end = cpu_jiffies();
  const double total = jiffies_end.first - jiffies_start.first;
  std::printf("host loadavg_end=%s steal_share=%.4f\n", load_average().c_str(),
              total > 0 ? (jiffies_end.second - jiffies_start.second) / total
                        : 0.0);
  print_json(opt, m);
  return 0;
}

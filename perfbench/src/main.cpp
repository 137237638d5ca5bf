// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload <census|serve_hot|shard_census>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--scale <f>] [--truth-skew <f>] [--tenant-rate <r>]
//             [--out-dir <dir>]
//
// Prints every metric it measured as one JSON object on the last line of
// stdout. --trace 0 measures the end-to-end metrics with tracing off.
// --trace 1 splits the window in two halves, untraced then traced (a
// TraceRecorder installed), and reports the per-layer metrics of the traced
// half, the tracing overhead (traced over untraced, per end-to-end metric),
// per-layer self time derived from the recorded spans, and two layer
// micro-timings; the spans are written as a Chrome/Perfetto trace file.
// perfbench/run.py builds this binary and keeps the metrics BENCHMARK.json
// names for the mode.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

double median(std::vector<double> xs) { return percentile(std::move(xs), 0.5); }

/// Cumulative walk steps at time t, interpolated between the marks.
double steps_at(const std::vector<std::pair<double, double>>& marks,
                double t) {
  if (marks.empty()) return 0.0;
  auto hi = std::lower_bound(
      marks.begin(), marks.end(), t,
      [](const std::pair<double, double>& m, double v) { return m.first < v; });
  if (hi == marks.begin()) return hi->second;
  if (hi == marks.end()) return marks.back().second;
  const auto lo = std::prev(hi);
  const double span = hi->first - lo->first;
  return span > 0 ? lo->second + (hi->second - lo->second) *
                                     (t - lo->first) / span
                  : hi->second;
}

void report_end_to_end(const Phase& p, Report& r) {
  r.attempted += p.attempted;
  r.failed += p.failed;
  const double attempted = static_cast<double>(std::max<std::uint64_t>(
      p.attempted, 1));
  std::vector<double> rate, p50, p99, steps;
  const double width = p.seconds / kSlices;
  const double step_width = p.step_seconds / kSlices;
  for (int k = 0; k < kSlices; ++k) {
    const LogHistogram& h = p.latency_ms[k];
    rate.push_back(width > 0 ? static_cast<double>(h.count()) / width : 0.0);
    p50.push_back(h.percentile(0.50));
    p99.push_back(h.percentile(0.99));
    steps.push_back(step_width > 0
                        ? (steps_at(p.steps, (k + 1) * step_width) -
                           steps_at(p.steps, k * step_width)) /
                              step_width
                        : 0.0);
  }
  r.set("throughput_ops", median(rate), "1/s");
  r.set("latency_p50_ms", median(p50), "ms");
  r.set("latency_p99_ms", median(p99), "ms");
  r.set("deadline_hit_rate", static_cast<double>(p.deadline_hits) / attempted,
        "ratio");
  r.set("error_rate",
        static_cast<double>(p.attempted - std::min(p.ok, p.attempted)) /
            attempted,
        "ratio");
  r.set("walk_steps_per_s", median(steps), "1/s");
  const Accuracy acc = score_estimates(p.estimates, r);
  r.set("rel_rmse", acc.rel_rmse, "ratio");
  r.set("accuracy.estimates", static_cast<double>(acc.estimates), "count");
  r.set("accuracy.mean_ratio", acc.mean_ratio, "ratio");
  r.set("accuracy.std_error", acc.std_error, "ratio");
  if (p.failed > 0)
    r.fail(std::to_string(p.failed) + " of " + std::to_string(p.attempted) +
           " operations failed");
}

/// Encode + decode of one request/response pair through the public wire
/// protocol functions, in nanoseconds.
double codec_ns() {
  using namespace overcount::net;
  RequestMsg req;
  req.request_id = 12345;
  req.tenant_id = 7;
  req.flags = kReqAllowCached | kReqExplicitTarget;
  req.epsilon = 0.3;
  req.delta = 0.2;
  ResponseMsg resp;
  resp.request_id = 12345;
  resp.value = 20000.5;
  resp.epsilon = 0.29;
  resp.walks = 600;
  resp.graph_version = 42;
  resp.latency_us = 15;
  FrameReader requests, responses;
  Frame frame;
  std::uint64_t sink = 0;
  constexpr int kPairs = 200'000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kPairs; ++i) {
    req.request_id = static_cast<std::uint64_t>(i);
    const std::string a = encode_request(req);
    requests.append(a.data(), a.size());
    if (requests.next(frame) == DecodeStatus::kFrame)
      sink += decode_request(frame)->request_id;
    resp.request_id = static_cast<std::uint64_t>(i);
    const std::string b = encode_response(resp);
    responses.append(b.data(), b.size());
    if (responses.next(frame) == DecodeStatus::kFrame)
      sink += decode_response(frame)->request_id;
  }
  const double ns = 1e9 * seconds_between(t0, Clock::now()) / kPairs;
  asm volatile("" : : "r"(sink) : "memory");  // keeps the loop observable
  return ns;
}

/// One name-keyed MetricsRegistry::counter(name).inc() as the request path
/// does it, from `threads` threads at once; nanoseconds per call per thread.
double registry_inc_ns(unsigned threads) {
  overcount::MetricsRegistry registry;
  const char* names[] = {"net.requests", "net.responses",
                         "net.class.gold.responses", "net.frames_tx",
                         "net.bytes_tx", "net.class.silver.responses"};
  constexpr int kCalls = 100'000;
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kCalls; ++i)
        registry.counter(names[(i + static_cast<int>(t)) % 6]).inc();
    });
  const auto t0 = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  return 1e9 * seconds_between(t0, Clock::now()) / kCalls;
}

/// Self time of the benchmark's own spans: each span's duration minus the
/// part of its interval covered by library spans nested inside it (on any
/// thread), summed per span name, as a share of the spans' total duration.
void report_self_time(const std::vector<overcount::TraceEvent>& events,
                      Report& r) {
  struct Interval {
    std::uint64_t begin, end;
  };
  std::vector<Interval> inner;
  std::vector<const overcount::TraceEvent*> own;
  for (const auto& e : events) {
    if (e.phase != 'X') continue;
    if (std::strncmp(e.cat, "bench.", 6) == 0)
      own.push_back(&e);
    else
      inner.push_back({e.ts_us, e.ts_us + e.dur_us});
  }
  std::sort(inner.begin(), inner.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  const char* layers[][2] = {{"client.request", "trace.self_share.net"},
                             {"graph.snapshot", "trace.self_share.graph"},
                             {"census.batch", "trace.self_share.core"},
                             {"shard.batch", "trace.self_share.shard"}};
  for (const auto& layer : layers) {
    double total = 0.0, self = 0.0;
    for (const overcount::TraceEvent* e : own) {
      if (std::strcmp(e->name, layer[0]) != 0) continue;
      const std::uint64_t b = e->ts_us, end = e->ts_us + e->dur_us;
      std::uint64_t covered = 0, cursor = b;
      auto it = std::lower_bound(
          inner.begin(), inner.end(), b,
          [](const Interval& i, std::uint64_t v) { return i.begin < v; });
      for (; it != inner.end() && it->begin < end; ++it) {
        if (it->end > end) continue;  // not nested
        const std::uint64_t from = std::max(cursor, it->begin);
        if (it->end > from) {
          covered += it->end - from;
          cursor = it->end;
        }
      }
      total += static_cast<double>(e->dur_us);
      self += static_cast<double>(e->dur_us - std::min(covered, e->dur_us));
    }
    r.set(layer[1], total > 0 ? self / total : 0.0, "ratio");
  }
}

/// Every per-layer metric with its unit. A workload that does not exercise
/// a layer reports 0 for it (census has no sockets, serve no shard engine).
constexpr const char* kLayerMetrics[][2] = {
    {"net.overhead_us.p50", "us"},
    {"net.overhead_us.p99", "us"},
    {"net.codec_ns", "ns"},
    {"net.rejects.unknown_tenant", "count"},
    {"net.rejects.rate_limited", "count"},
    {"net.rejects.fair_share", "count"},
    {"net.rejects.queue_full", "count"},
    {"net.rejects.shutting_down", "count"},
    {"net.rejects.bad_request", "count"},
    {"serve.latency_us.p50", "us"},
    {"serve.latency_us.p99", "us"},
    {"serve.hit_ratio", "ratio"},
    {"serve.coalesced_ratio", "ratio"},
    {"serve.miss_latency_ms.p50", "ms"},
    {"serve.miss_latency_ms.p99", "ms"},
    {"serve.batch_wall_ms.p99", "ms"},
    {"serve.queue_wait_ms.p99", "ms"},
    {"serve.batches", "count"},
    {"serve.dup_batches", "count"},
    {"graph.snapshot_ms.p50", "ms"},
    {"graph.snapshot_ms.p99", "ms"},
    {"graph.version_calls_per_req", "ratio"},
    {"core.batch_ms.p50", "ms"},
    {"core.batch_ms.p99", "ms"},
    {"runtime.parallel_efficiency", "ratio"},
    {"walk.steps_per_cpu_s", "1/s"},
    {"walk.tour_steps.p50", "steps"},
    {"walk.tour_steps.p99", "steps"},
    {"walk.tour_steps.max", "steps"},
    {"shard.handoffs_per_tour", "count"},
    {"shard.rounds_per_batch", "count"},
    {"shard.stitched.handoffs_per_tour", "count"},
    {"shard.stitched.rounds_per_batch", "count"},
    {"shard.stitch_share", "ratio"},
    {"shard.max_mailbox_depth", "count"},
    {"model.steps_per_tour_ratio", "ratio"},
    {"model.walks_vs_prop2", "ratio"},
    {"model.pred_miss_ms", "ms"},
    {"model.pred_vs_measured", "ratio"},
};

int run(const Options& opts) {
  std::unique_ptr<Workload> w;
  if (opts.workload == "census") w = make_census(opts, false);
  else if (opts.workload == "shard_census") w = make_census(opts, true);
  else if (opts.workload == "serve_hot") w = make_serve(opts);
  else {
    std::cerr << "perfbench: unknown workload '" << opts.workload << "'\n";
    return 2;
  }

  Report r;
  const double setup_s = median_setup_seconds(5, [&] { w->setup(); });
  if (!opts.trace) {
    report_end_to_end(w->measure(opts.seconds), r);
  } else {
    Report untraced;
    report_end_to_end(w->measure(opts.seconds / 2), untraced);
    if (!untraced.correct) r.fail("untraced half failed its checks");
    r.attempted += untraced.attempted;
    r.failed += untraced.failed;

    overcount::TraceRecorder recorder(std::size_t{1} << 16);
    recorder.install();
    const Phase traced = w->measure(opts.seconds / 2);
    recorder.uninstall();
    report_end_to_end(traced, r);
    w->report_layers(r);
    for (const char* m : {"throughput_ops", "latency_p50_ms",
                          "latency_p99_ms", "walk_steps_per_s"}) {
      const double base = untraced.get(m);
      r.set(std::string("obs.trace_overhead.") + m,
            base > 0 ? r.get(m) / base : 0.0, "ratio");
    }
    report_self_time(recorder.events(), r);
    r.set("trace.dropped_events",
          static_cast<double>(recorder.dropped_events()), "count");
    std::filesystem::create_directories(opts.out_dir);
    const std::string path = opts.out_dir + "/trace_" + opts.workload + "_" +
                             std::to_string(opts.seed) + ".json";
    if (overcount::write_chrome_trace_file(path, recorder, "perfbench"))
      std::cerr << "perfbench: spans written to " << path << "\n";

    r.set("net.codec_ns", codec_ns(), "ns");
    r.set("obs.registry_inc_ns",
          registry_inc_ns(std::max(1u, std::thread::hardware_concurrency())),
          "ns");
    for (const auto& [name, unit] : kLayerMetrics)
      if (!r.has(name)) r.set(name, 0.0, unit);
  }
  r.set("setup_s", setup_s, "s");
  r.set("peak_rss_mb", peak_rss_mb(), "MiB");
  std::cout << r.to_json() << std::endl;
  return 0;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") o.workload = v;
    else if (key == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (key == "--seconds") o.seconds = std::strtod(v, nullptr);
    else if (key == "--trace") o.trace = std::strcmp(v, "0") != 0;
    else if (key == "--scale") o.scale = std::strtod(v, nullptr);
    else if (key == "--truth-skew") o.truth_skew = std::strtod(v, nullptr);
    else if (key == "--tenant-rate") o.tenant_rate = std::strtod(v, nullptr);
    else if (key == "--out-dir") o.out_dir = v;
    else return false;
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0 &&
         o.scale > 0 && o.truth_skew > 0 && o.tenant_rate >= 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opts;
  if (!perfbench::parse(argc, argv, opts)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s>"
                 " --trace <0|1> [--scale f] [--truth-skew f] [--tenant-rate r]"
                 " [--out-dir d]\n";
    return 2;
  }
  try {
    return perfbench::run(opts);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}

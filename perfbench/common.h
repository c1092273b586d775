// Shared pieces of the end-to-end benchmark: run options and results, the
// TPC-H candidate set, statistics, memory probes, and the layer recorder
// the traced runs attribute time with.

#ifndef CFEST_PERFBENCH_COMMON_H_
#define CFEST_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/trace.h"
#include "estimator/engine.h"
#include "estimator/service.h"

namespace perfbench {

using cfest::CandidateConfiguration;

/// Scale factor of every workload's TPC-H catalog.
inline constexpr double kScaleFactor = 0.1;
/// Times set-up is repeated per run; setup_s is the median.
inline constexpr int kSetupRepeats = 3;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// samplecf_cli binary (tpch_files only).
  std::string cli;
  /// Scratch directory for generated files, inside the checkout.
  std::string data_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome of one benchmark run. `metrics` go into the final JSON line;
/// `report` is the per-workload table printed above it by name.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// False once any output check failed.
  bool correct = true;
  std::vector<Metric> metrics;
  std::vector<Metric> report;
  std::vector<std::string> flags;

  /// Records a failed check (or failed op) with its reason on stderr.
  void Fail(const std::string& why);
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Report(const std::string& name, double value, const std::string& unit) {
    report.push_back({name, value, unit});
  }
};

RunResult RunTpchFiles(const Options& options);
RunResult RunTpchAdvise(const Options& options);
RunResult RunServeAppends(const Options& options);

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// The tables C's candidates are on.
inline constexpr const char* kCandidateTables[] = {"lineitem", "orders"};

/// The candidate set C: 14 key sets under 5 schemes each, with benefits
/// in [1, 10]. Every candidate of one key set shares one index name, so
/// the advisor's one-configuration-per-index rule makes the schemes
/// compete.
///
/// The benefits are one fixed draw, not the run's seed: the lazy advisor's
/// latency jumps between 0.7 s and 3 s from one benefit draw (or one
/// sample seed, for most draws) to the next, so seed-drawn benefits would
/// make each run measure its draw rather than the program. On this draw
/// it is about 1 s on every seed.
std::vector<CandidateConfiguration> BuildCandidates();

/// The same candidates as lines of an `advise --candidates` file.
std::string CandidateFile(const std::vector<CandidateConfiguration>& c);

/// The truth subset T: positions in C of the non-clustered candidates the
/// `exact` requests size (NS, dictionary and RLE on both tables).
std::vector<size_t> TruthSubset(const std::vector<CandidateConfiguration>& c);

std::string JoinKeys(const CandidateConfiguration& c);
std::string SchemeName(const CandidateConfiguration& c);

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

inline double Seconds(std::chrono::steady_clock::time_point start,
                      std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}
inline std::chrono::steady_clock::time_point Now() {
  return std::chrono::steady_clock::now();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Resets the process's peak RSS (VmHWM) so set-up allocations stay out of
/// the measured peak.
void ResetPeakRss();
/// VmHWM of this process, in MB.
double PeakRssMb();

/// Per-layer attribution for traced runs.
///
/// Benchmark-side spans (LayerSpan) record into the process trace ring
/// like any trace::Span and, independently of ring capacity, into this
/// recorder, keyed by the request that was current on the recording
/// thread. Counts add the same way. A layer's time is reported as the
/// total divided by the number of requests that entered the layer.
class LayerRecorder {
 public:
  static LayerRecorder& Global();

  /// Starts a new request on the calling thread.
  void BeginRequest();
  /// Adds seconds or a count to `layer` for the calling thread's request.
  void Add(const std::string& layer, double value);

  /// Mean per request that entered `layer` (0 when none did).
  double PerRequest(const std::string& layer) const;
  double Total(const std::string& layer) const;

 private:
  struct Entry {
    double total = 0.0;
    std::set<uint64_t> requests;
  };

  mutable cfest::Mutex mu_;
  std::map<std::string, Entry> entries_ GUARDED_BY(mu_);
};

/// A trace span named `name` (a string literal, e.g. "storage.parse")
/// whose duration also adds to the recorder under `<name>_s`.
class LayerSpan {
 public:
  explicit LayerSpan(const char* name) : name_(name), span_(name) {}
  ~LayerSpan() {
    LayerRecorder::Global().Add(std::string(name_) + "_s",
                                Seconds(start_, Now()));
  }
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  const char* name_;
  std::chrono::steady_clock::time_point start_ = Now();
  cfest::trace::Span span_;
};

/// Adds a fresh service's index counters to the calling thread's request:
/// index.builds, index.cache_hits, index.invalidations, and
/// index.extensions over the candidate tables' engines.
void RecordIndexStats(cfest::CatalogEstimationService& service);
/// index.cache_hit_ratio from the recorded builds and cache hits.
double RecordedCacheHitRatio();

/// Folds the program's own spans in the trace ring (engine.index_build,
/// engine.compress, engine.grow_sample, lazy.refine) into `extra` as
/// `<name>_s`: their summed durations over all threads, per request.
void FoldProgramSpans(double requests, std::map<std::string, double>* extra);

/// Every per-layer metric a traced run reports, with its unit, in table
/// order. Layers a workload does not enter report 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Fills `result.metrics` with every per-layer metric: the workload's own
/// value from `extra` where it has one, else the recorder's per-request
/// value (0 for a layer no request entered).
void EmitPerLayer(const std::map<std::string, double>& extra,
                  RunResult* result);

}  // namespace perfbench

#endif  // CFEST_PERFBENCH_COMMON_H_

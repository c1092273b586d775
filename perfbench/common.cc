#include "common.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/random.h"
#include "compression/compressor.h"

namespace perfbench {

void RunResult::Fail(const std::string& why) {
  ++failed;
  correct = false;
  std::fprintf(stderr, "check failed: %s\n", why.c_str());
}

namespace {

/// One key set of the candidate set: a table, its key columns, and whether
/// every key column is integer-typed (delta applies) or not
/// (dictionary_global takes delta's place).
struct KeySet {
  const char* table;
  const char* keys;
  bool integer;
};

/// The 14 key sets of C over lineitem and orders.
const std::vector<KeySet>& CandidateKeySets() {
  static const std::vector<KeySet> kKeySets = {
      {"lineitem", "l_orderkey", true},
      {"lineitem", "l_partkey", true},
      {"lineitem", "l_suppkey", true},
      {"lineitem", "l_shipdate", true},
      {"lineitem", "l_orderkey,l_linenumber", true},
      {"lineitem", "l_shipmode", false},
      {"lineitem", "l_returnflag,l_linestatus", false},
      {"lineitem", "l_shipinstruct,l_shipmode", false},
      {"orders", "o_orderkey", true},
      {"orders", "o_custkey", true},
      {"orders", "o_orderdate", true},
      {"orders", "o_custkey,o_orderdate", true},
      {"orders", "o_orderpriority", false},
      {"orders", "o_clerk", false},
  };
  return kKeySets;
}

/// The 5 schemes a key set is sized under.
std::vector<std::string> SchemesFor(const KeySet& key_set) {
  return {"null_suppression", "dictionary_page", "rle", "prefix",
          key_set.integer ? "delta" : "dictionary_global"};
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> parts;
  std::stringstream in(s);
  std::string part;
  while (std::getline(in, part, ',')) parts.push_back(part);
  return parts;
}

}  // namespace

std::vector<CandidateConfiguration> BuildCandidates() {
  cfest::Random rng(11);
  std::vector<CandidateConfiguration> candidates;
  for (const KeySet& key_set : CandidateKeySets()) {
    for (const std::string& scheme : SchemesFor(key_set)) {
      CandidateConfiguration c;
      c.table_name = key_set.table;
      c.index.name = std::string(key_set.table) + ".ix_" + key_set.keys;
      c.index.key_columns = SplitCommas(key_set.keys);
      c.index.clustered = false;
      c.scheme = cfest::CompressionScheme::Uniform(
          *cfest::CompressionTypeFromName(scheme));
      // Three decimals, so the candidate file carries the exact benefit.
      c.benefit = std::round((1.0 + 9.0 * rng.NextDouble()) * 1000.0) / 1000.0;
      candidates.push_back(std::move(c));
    }
  }
  return candidates;
}

std::string JoinKeys(const CandidateConfiguration& c) {
  std::string keys;
  for (const std::string& k : c.index.key_columns) {
    if (!keys.empty()) keys += ",";
    keys += k;
  }
  return keys;
}

std::string SchemeName(const CandidateConfiguration& c) {
  return c.scheme.ToString();
}

std::string CandidateFile(const std::vector<CandidateConfiguration>& c) {
  std::string out;
  char benefit[32];
  for (const CandidateConfiguration& candidate : c) {
    std::snprintf(benefit, sizeof(benefit), "%.3f", candidate.benefit);
    out += candidate.table_name + " " + JoinKeys(candidate) + " " +
           SchemeName(candidate) + " " + benefit + "\n";
  }
  return out;
}

std::vector<size_t> TruthSubset(const std::vector<CandidateConfiguration>& c) {
  static const std::vector<std::pair<std::string, std::string>> kTruth = {
      {"l_orderkey", "null_suppression"},
      {"l_partkey", "null_suppression"},
      {"l_shipmode", "dictionary_page"},
      {"l_returnflag,l_linestatus", "rle"},
      {"o_custkey", "null_suppression"},
      {"o_orderpriority", "dictionary_page"},
      {"o_orderdate", "rle"},
  };
  std::vector<size_t> subset;
  for (const auto& [keys, scheme] : kTruth) {
    for (size_t i = 0; i < c.size(); ++i) {
      if (JoinKeys(c[i]) == keys && SchemeName(c[i]) == scheme) {
        subset.push_back(i);
      }
    }
  }
  return subset;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

namespace {

std::atomic<uint64_t> g_next_request{1};
thread_local uint64_t t_request = 0;

}  // namespace

LayerRecorder& LayerRecorder::Global() {
  static LayerRecorder recorder;
  return recorder;
}

void LayerRecorder::BeginRequest() {
  t_request = g_next_request.fetch_add(1, std::memory_order_relaxed);
}

void LayerRecorder::Add(const std::string& layer, double value) {
  cfest::MutexLock lock(mu_);
  Entry& entry = entries_[layer];
  entry.total += value;
  entry.requests.insert(t_request);
}

double LayerRecorder::PerRequest(const std::string& layer) const {
  cfest::MutexLock lock(mu_);
  auto it = entries_.find(layer);
  if (it == entries_.end() || it->second.requests.empty()) return 0.0;
  return it->second.total / static_cast<double>(it->second.requests.size());
}

double LayerRecorder::Total(const std::string& layer) const {
  cfest::MutexLock lock(mu_);
  auto it = entries_.find(layer);
  return it == entries_.end() ? 0.0 : it->second.total;
}

void RecordIndexStats(cfest::CatalogEstimationService& service) {
  const cfest::CatalogEstimationService::Stats stats = service.stats();
  uint64_t extensions = 0;
  for (const char* table : kCandidateTables) {
    auto engine = service.Engine(table);
    if (engine.ok()) extensions += (*engine)->cache_stats().index_extensions;
  }
  LayerRecorder& recorder = LayerRecorder::Global();
  recorder.Add("index.builds", static_cast<double>(stats.index_builds));
  recorder.Add("index.cache_hits",
               static_cast<double>(stats.index_cache_hits));
  recorder.Add("index.invalidations", static_cast<double>(stats.invalidations));
  recorder.Add("index.extensions", static_cast<double>(extensions));
}

double RecordedCacheHitRatio() {
  const LayerRecorder& recorder = LayerRecorder::Global();
  const double builds = recorder.PerRequest("index.builds");
  const double hits = recorder.PerRequest("index.cache_hits");
  return builds + hits > 0 ? hits / (builds + hits) : 0.0;
}

void FoldProgramSpans(double requests, std::map<std::string, double>* extra) {
  std::map<std::string, uint64_t> ns = {{"engine.index_build", 0},
                                        {"engine.compress", 0},
                                        {"engine.grow_sample", 0},
                                        {"lazy.refine", 0}};
  for (const cfest::trace::SpanRecord& r : cfest::trace::CollectRecords()) {
    if (r.name == nullptr) continue;
    auto it = ns.find(r.name);
    if (it != ns.end()) it->second += r.duration_ns;
  }
  for (const auto& [name, total] : ns) {
    (*extra)[name + "_s"] =
        requests > 0 ? static_cast<double>(total) * 1e-9 / requests : 0.0;
  }
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"storage.read_s", "s"},
      {"storage.parse_s", "s"},
      {"storage.rows_parsed", "count"},
      {"storage.parsed_per_sampled_row", "ratio"},
      {"storage.append_s", "s"},
      {"tools.cli_bytes_read", "bytes"},
      {"tools.cli_rows_loaded", "count"},
      {"tools.cli_cpu_s", "s"},
      {"sampling.draw_s", "s"},
      {"sampling.rows_sampled", "count"},
      {"sampling.refresh_s", "s"},
      {"index.sample_build_s", "s"},
      {"index.builds", "count"},
      {"index.extensions", "count"},
      {"index.cache_hit_ratio", "ratio"},
      {"index.invalidations", "count"},
      {"index.full_build_s", "s"},
      {"compression.sample_compress_s", "s"},
      {"compression.rows_compressed", "count"},
      {"compression.full_compress_s", "s"},
      {"estimator.estimate_all_s", "s"},
      {"estimator.intervals_s", "s"},
      {"estimator.adaptive_s", "s"},
      {"estimator.adaptive_rounds", "count"},
      {"estimator.rows_sized", "count"},
      {"estimator.coalesce_merged_ratio", "ratio"},
      {"estimator.coalesce_wait_p50_ms", "ms"},
      {"advisor.select_s", "s"},
      {"advisor.lazy_s", "s"},
      {"advisor.refined_ratio", "ratio"},
      {"advisor.rows_sized", "count"},
      {"advisor.nodes_visited", "count"},
      {"engine.index_build_s", "s"},
      {"engine.compress_s", "s"},
      {"engine.grow_sample_s", "s"},
      {"lazy.refine_s", "s"},
      {"appender.late_p50_ms", "ms"},
      {"appender.late_max_ms", "ms"},
      {"trace.coverage", "ratio"},
      {"trace.overhead_ratio", "ratio"},
  };
  return kMetrics;
}

void EmitPerLayer(const std::map<std::string, double>& extra,
                  RunResult* result) {
  const LayerRecorder& recorder = LayerRecorder::Global();
  for (const auto& [name, unit] : PerLayerMetrics()) {
    auto it = extra.find(name);
    const double value =
        it != extra.end() ? it->second : recorder.PerRequest(name);
    result->Add(name, value, unit);
  }
}

}  // namespace perfbench

// tpch_files: files on disk -> answers through the samplecf_cli process.
//
// Set-up writes the seven SF-0.1 TPC-H tables as CSV. One closed-loop
// client then runs `advise --catalog ... --json` estimate requests and
// `exact` requests for the truth subset T, each a child process. Storage
// ingest dominates here and nowhere else, and it is reached through the CLI
// so an ingest change shows without editing the benchmark.
//
// Every request's output is checked against an in-process replay of the
// same request: the replay walks the CLI's steps one public call at a time
// (read, LoadCsv, PinEpoch, SampleIndexAt, CompressOnSampleAt, EstimateAll,
// EstimateCandidateIntervals; Index::Build + Index::Compress for exact),
// which is also what the traced run attributes time with.

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "datagen/tpch/tables.h"
#include "estimator/adaptive.h"
#include "estimator/compression_fraction.h"
#include "estimator/service.h"
#include "storage/csv.h"

extern char** environ;

namespace perfbench {
namespace {

using cfest::Status;

/// f and confidence of the estimate request.
constexpr double kFraction = 0.05;
constexpr double kConfidence = 0.95;
/// CLI estimate requests in a traced run (for the tools.* metrics).
constexpr int kTracedCliRequests = 2;
/// In-process replays per traced run, alternating untraced and traced.
constexpr int kTracedReplayPairs = 2;

std::string FormatG6(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", v);
  return buffer;
}

std::string Format4(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.4f", v);
  return buffer;
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  out.close();
  if (!out) return Status::InvalidArgument("cannot write " + path);
  return Status::OK();
}

cfest::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Set-up: the generator's catalog written as <table>.csv + <table>.schema.
Status WriteCatalog(uint64_t seed, const std::string& dir) {
  cfest::tpch::TpchOptions tpch;
  tpch.scale_factor = kScaleFactor;
  tpch.seed = seed;
  CFEST_ASSIGN_OR_RETURN(std::unique_ptr<cfest::Catalog> catalog,
                         cfest::tpch::GenerateCatalog(tpch));
  for (const std::string& name : catalog->TableNames()) {
    CFEST_ASSIGN_OR_RETURN(const cfest::Table* table,
                           catalog->GetTable(name));
    CFEST_RETURN_NOT_OK(
        WriteFile(dir + "/" + name + ".csv", cfest::WriteCsv(*table)));
    CFEST_RETURN_NOT_OK(WriteFile(dir + "/" + name + ".schema",
                                  cfest::SchemaToSpec(table->schema())));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Child processes
// ---------------------------------------------------------------------------

struct Child {
  bool ok = false;
  double seconds = 0.0;
  std::string output;
  /// /proc/<pid>/io rchar, read while the exited child is still unreaped.
  uint64_t rchar = 0;
  double maxrss_mb = 0.0;
  double cpu_s = 0.0;
};

uint64_t ReadRchar(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "rchar:") return value;
  }
  return 0;
}

/// Runs argv[0] with stdout and stderr captured, timing spawn to reap.
Child RunChild(const std::vector<std::string>& args) {
  Child child;
  std::vector<char*> argv;
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) return child;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 2);
  const auto start = Now();
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (spawned != 0) {
    close(fds[0]);
    return child;
  }
  char buffer[65536];
  ssize_t n = 0;
  while ((n = read(fds[0], buffer, sizeof(buffer))) != 0) {
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;
    child.output.append(buffer, static_cast<size_t>(n));
  }
  close(fds[0]);
  siginfo_t info{};
  while (waitid(P_PID, pid, &info, WEXITED | WNOWAIT) != 0 && errno == EINTR) {
  }
  child.rchar = ReadRchar(pid);
  int status = 0;
  struct rusage usage {};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  child.seconds = Seconds(start, Now());
  child.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  child.maxrss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  child.cpu_s =
      static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
      1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                 usage.ru_stime.tv_usec);
  return child;
}

/// The value of `"key":` in a flat JSON object line, unquoted.
std::string JsonField(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  size_t begin = at + needle.size();
  size_t end = begin;
  if (line[begin] == '"') {
    end = line.find('"', ++begin);
  } else {
    end = line.find_first_of(",}", begin);
  }
  return line.substr(begin, end == std::string::npos ? end : end - begin);
}

/// The per-candidate fields an estimate request prints, as printed.
struct EstimateLine {
  std::string index, cf, est_bytes, rows_sampled, ci_cf, ci_lower, ci_upper;
  bool operator==(const EstimateLine&) const = default;
};

std::vector<EstimateLine> ParseEstimateOutput(const std::string& output,
                                              uint64_t* rows_loaded) {
  std::vector<EstimateLine> lines;
  std::istringstream in(output);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("loaded ", 0) == 0) {
      std::istringstream words(line.substr(7));
      std::string table;
      uint64_t rows = 0;
      if (words >> table >> rows) *rows_loaded += rows;
    }
    if (line.rfind("JSON {", 0) != 0) continue;
    lines.push_back({JsonField(line, "index"), JsonField(line, "cf"),
                     JsonField(line, "est_bytes"),
                     JsonField(line, "rows_sampled"), JsonField(line, "ci_cf"),
                     JsonField(line, "ci_lower"), JsonField(line, "ci_upper")});
  }
  return lines;
}

/// "exact CF        0.4660 (...)" -> "0.4660".
std::string ParseExactOutput(const std::string& output) {
  const size_t at = output.find("exact CF");
  if (at == std::string::npos) return "";
  std::istringstream in(output.substr(at + 8));
  std::string value;
  in >> value;
  return value;
}

/// The candidate as the CLI names it ("table.ix_<keys>_<scheme>").
CandidateConfiguration CliNamed(CandidateConfiguration c) {
  c.index.name = c.table_name + ".ix_" + JoinKeys(c) + "_" + SchemeName(c);
  return c;
}

// ---------------------------------------------------------------------------
// In-process replay
// ---------------------------------------------------------------------------

/// Layer spans that partition a replay's wall time.
const std::vector<std::string>& ReplayLayers() {
  static const std::vector<std::string> kLayers = {
      "storage.read_s",          "storage.parse_s",
      "sampling.draw_s",         "index.sample_build_s",
      "compression.sample_compress_s", "estimator.estimate_all_s",
      "estimator.intervals_s",   "index.full_build_s",
      "compression.full_compress_s"};
  return kLayers;
}

double CoveredSeconds() {
  double total = 0.0;
  for (const std::string& layer : ReplayLayers()) {
    total += LayerRecorder::Global().Total(layer);
  }
  return total;
}

struct Replay {
  std::unique_ptr<cfest::Catalog> catalog;
  std::vector<EstimateLine> lines;
  /// Full-precision data-bytes CF' per candidate (the JSON ci_cf).
  std::vector<double> ci_cf;
  uint64_t rows_parsed = 0;
  uint64_t rows_sampled = 0;
};

/// Replays one estimate request stepwise, in the CLI's order.
cfest::Result<Replay> ReplayEstimate(
    const std::string& dir, const std::vector<CandidateConfiguration>& c,
    uint64_t seed) {
  LayerRecorder& recorder = LayerRecorder::Global();
  recorder.BeginRequest();
  Replay replay;
  replay.catalog = std::make_unique<cfest::Catalog>();
  std::vector<std::string> stems;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".schema") {
      stems.push_back(entry.path().stem().string());
    }
  }
  std::sort(stems.begin(), stems.end());
  for (const std::string& stem : stems) {
    std::string spec, content;
    {
      LayerSpan span("storage.read");
      CFEST_ASSIGN_OR_RETURN(spec, ReadFile(dir + "/" + stem + ".schema"));
      CFEST_ASSIGN_OR_RETURN(content, ReadFile(dir + "/" + stem + ".csv"));
    }
    std::unique_ptr<cfest::Table> table;
    {
      LayerSpan span("storage.parse");
      CFEST_ASSIGN_OR_RETURN(cfest::Schema schema,
                             cfest::ParseSchemaSpec(spec));
      CFEST_ASSIGN_OR_RETURN(table, cfest::LoadCsv(content, schema, true));
      std::string().swap(content);
    }
    replay.rows_parsed += table->num_rows();
    CFEST_RETURN_NOT_OK(replay.catalog->AddTable(stem, std::move(table)));
  }
  recorder.Add("storage.rows_parsed",
               static_cast<double>(replay.rows_parsed));

  cfest::CatalogEstimationServiceOptions options;
  options.base.fraction = kFraction;
  options.seed = seed;
  options.num_threads = cfest::ThreadPool::ResolveThreadCount(0);
  cfest::CatalogEstimationService service(*replay.catalog, options);

  std::vector<CandidateConfiguration> named;
  std::map<std::string, std::vector<size_t>> by_table;
  for (size_t i = 0; i < c.size(); ++i) {
    named.push_back(CliNamed(c[i]));
    by_table[c[i].table_name].push_back(i);
  }
  std::map<std::string, std::shared_ptr<const cfest::SampleEpoch>> epochs;
  for (const auto& [name, idxs] : by_table) {
    CFEST_ASSIGN_OR_RETURN(cfest::EstimationEngine * engine,
                           service.Engine(name));
    LayerSpan span("sampling.draw");
    CFEST_ASSIGN_OR_RETURN(epochs[name], engine->PinEpoch());
    replay.rows_sampled += epochs[name]->sample_rows();
  }
  recorder.Add("sampling.rows_sampled",
               static_cast<double>(replay.rows_sampled));
  uint64_t rows_compressed = 0;
  for (const auto& [name, idxs] : by_table) {
    CFEST_ASSIGN_OR_RETURN(cfest::EstimationEngine * engine,
                           service.Engine(name));
    const cfest::SampleEpoch& epoch = *epochs[name];
    for (size_t i : idxs) {
      LayerSpan span("index.sample_build");
      CFEST_RETURN_NOT_OK(
          engine->SampleIndexAt(epoch, named[i].index).status());
    }
    for (size_t i : idxs) {
      LayerSpan span("compression.sample_compress");
      CFEST_RETURN_NOT_OK(
          engine->CompressOnSampleAt(epoch, named[i].index, named[i].scheme)
              .status());
      rows_compressed += epoch.sample_rows();
    }
  }
  recorder.Add("compression.rows_compressed",
               static_cast<double>(rows_compressed));

  std::vector<cfest::SizedCandidate> sized;
  {
    LayerSpan span("estimator.estimate_all");
    CFEST_ASSIGN_OR_RETURN(sized, service.EstimateAll(named));
  }
  std::vector<cfest::CandidateIntervalResult> intervals(c.size());
  {
    LayerSpan span("estimator.intervals");
    CFEST_ASSIGN_OR_RETURN(const double z,
                           cfest::NumSigmasForConfidence(kConfidence));
    for (const auto& [name, idxs] : by_table) {
      CFEST_ASSIGN_OR_RETURN(cfest::EstimationEngine * engine,
                             service.Engine(name));
      std::vector<CandidateConfiguration> configs;
      for (size_t i : idxs) configs.push_back(sized[i].config);
      CFEST_ASSIGN_OR_RETURN(
          std::vector<cfest::CandidateIntervalResult> result,
          cfest::EstimateCandidateIntervals(
              *engine, configs, z, cfest::PrecisionTarget{}.interval_groups,
              service.shared_pool()));
      for (size_t k = 0; k < idxs.size(); ++k) {
        intervals[idxs[k]] = std::move(result[k]);
      }
    }
  }
  RecordIndexStats(service);
  for (size_t i = 0; i < c.size(); ++i) {
    replay.ci_cf.push_back(intervals[i].cf);
    replay.lines.push_back(
        {named[i].index.name, FormatG6(sized[i].estimated_cf),
         std::to_string(sized[i].estimated_bytes),
         std::to_string(sized[i].sample_rows), FormatG6(intervals[i].cf),
         FormatG6(intervals[i].interval.lower),
         FormatG6(intervals[i].interval.upper)});
  }
  return replay;
}

/// Replays one exact request: the full index's data-bytes CF.
cfest::Result<double> ReplayExact(const cfest::Catalog& catalog,
                                  const CandidateConfiguration& c) {
  LayerRecorder::Global().BeginRequest();
  CFEST_ASSIGN_OR_RETURN(const cfest::Table* table,
                         catalog.GetTable(c.table_name));
  const cfest::IndexBuildOptions build{cfest::kDefaultPageSize, false};
  const cfest::IndexDescriptor descriptor{"ix", c.index.key_columns, false};
  std::optional<cfest::Index> index;
  {
    LayerSpan span("index.full_build");
    CFEST_ASSIGN_OR_RETURN(index,
                           cfest::Index::Build(*table, descriptor, build));
  }
  LayerSpan span("compression.full_compress");
  CFEST_ASSIGN_OR_RETURN(cfest::CompressedIndex compressed,
                         index->Compress(c.scheme, build));
  return cfest::MeasureCF(index->stats(), compressed.stats(),
                          cfest::SizeMetric::kDataBytes)
      .value;
}

// ---------------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------------

struct Context {
  const Options& options;
  std::string dir;
  std::string candidates_path;
  std::vector<CandidateConfiguration> c;
  std::vector<size_t> truth;
  std::string threads;
};

std::vector<std::string> EstimateArgs(const Context& ctx) {
  return {ctx.options.cli,   "advise",
          "--catalog",       ctx.dir,
          "--candidates",    ctx.candidates_path,
          "--json",          "--threads",
          ctx.threads,       FormatG6(kFraction),
          std::to_string(ctx.options.seed)};
}

std::vector<std::string> ExactArgs(const Context& ctx,
                                   const CandidateConfiguration& c,
                                   const std::string& schema) {
  return {ctx.options.cli, "exact", ctx.dir + "/" + c.table_name + ".csv",
          schema, JoinKeys(c), SchemeName(c)};
}

/// Checks one estimate request's printed candidates against the replay.
void CheckEstimate(const std::vector<EstimateLine>& got,
                   const Replay& expected, RunResult* result) {
  if (got.size() != expected.lines.size()) {
    result->Fail("estimate printed " + std::to_string(got.size()) +
                 " candidates, expected " +
                 std::to_string(expected.lines.size()));
    return;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(got[i] == expected.lines[i])) {
      result->Fail("estimate of " + got[i].index + " (ci_cf " + got[i].ci_cf +
                   ") differs from the in-process replay (ci_cf " +
                   expected.lines[i].ci_cf + ")");
      return;
    }
  }
}

RunResult RunUntraced(Context& ctx, const std::vector<double>& setups) {
  RunResult result;
  std::map<size_t, std::string> schemas;
  for (size_t t : ctx.truth) {
    auto spec = ReadFile(ctx.dir + "/" + ctx.c[t].table_name + ".schema");
    schemas[t] = spec.ok() ? *spec : "";
  }
  std::vector<double> estimate_s, exact_s;
  std::vector<std::vector<EstimateLine>> estimate_out;
  std::map<size_t, std::string> exact_out;
  double peak_mb = 0.0;
  auto estimate = [&] {
    Child child = RunChild(EstimateArgs(ctx));
    ++result.attempted;
    peak_mb = std::max(peak_mb, child.maxrss_mb);
    if (!child.ok) {
      result.Fail("estimate request exited nonzero:\n" + child.output);
      return;
    }
    uint64_t rows = 0;
    estimate_out.push_back(ParseEstimateOutput(child.output, &rows));
    estimate_s.push_back(child.seconds);
  };
  // One closed-loop client: the exact requests of T interleaved with
  // estimate requests, then estimate requests for the rest of the window.
  const auto window = Now();
  for (size_t t : ctx.truth) {
    estimate();
    Child child = RunChild(ExactArgs(ctx, ctx.c[t], schemas[t]));
    ++result.attempted;
    peak_mb = std::max(peak_mb, child.maxrss_mb);
    if (!child.ok) {
      result.Fail("exact request exited nonzero:\n" + child.output);
      continue;
    }
    exact_out[t] = ParseExactOutput(child.output);
    exact_s.push_back(child.seconds);
  }
  while (Seconds(window, Now()) < ctx.options.seconds) estimate();

  // Verification: the in-process replay must print the same numbers.
  auto replay = ReplayEstimate(ctx.dir, ctx.c, ctx.options.seed);
  if (!replay.ok()) {
    result.Fail("replay: " + replay.status().ToString());
    return result;
  }
  for (const auto& lines : estimate_out) CheckEstimate(lines, *replay, &result);
  std::vector<double> ratios;
  for (size_t t : ctx.truth) {
    auto truth = ReplayExact(*replay->catalog, ctx.c[t]);
    if (!truth.ok()) {
      result.Fail("exact replay: " + truth.status().ToString());
      continue;
    }
    if (exact_out.count(t) && exact_out[t] != Format4(*truth)) {
      result.Fail("exact of " + JoinKeys(ctx.c[t]) + " " +
                  SchemeName(ctx.c[t]) + " printed " + exact_out[t] +
                  ", replay gives " + Format4(*truth));
    }
    const double est = replay->ci_cf[t];
    ratios.push_back(std::max(est / *truth, *truth / est));
  }
  double ratio_mean = 0.0;
  for (double r : ratios) ratio_mean += r / static_cast<double>(ratios.size());
  const double ratio_max =
      ratios.empty() ? 0.0 : *std::max_element(ratios.begin(), ratios.end());
  double estimate_busy = 0.0, exact_busy = 0.0;
  for (double s : estimate_s) estimate_busy += s;
  for (double s : exact_s) exact_busy += s;
  // T mixes lineitem (~4x slower) and orders requests, so its median is an
  // order statistic at the boundary between the two; the mean over the
  // fixed T pass is the steadier latency.
  const double exact_mean =
      exact_busy / static_cast<double>(std::max<size_t>(1, exact_s.size()));

  result.Report("estimate_s", Median(estimate_s), "s");
  result.Report("exact_s", exact_mean, "s");
  result.Report("ratio_error_mean", ratio_mean, "ratio");
  result.Report("ratio_error_max", ratio_max, "ratio");
  result.Report("estimate_requests", static_cast<double>(estimate_s.size()),
                "count");
  result.Report("exact_requests", static_cast<double>(exact_s.size()),
                "count");
  result.Add("setup_s", Median(setups), "s");
  result.Add("peak_rss_mb", peak_mb, "MB");
  result.Add("primary_ms", Median(estimate_s) * 1e3, "ms");
  result.Add("secondary_ms", exact_mean * 1e3, "ms");
  result.Add("primary_per_s",
             estimate_busy > 0
                 ? static_cast<double>(estimate_s.size()) / estimate_busy
                 : 0.0,
             "1/s");
  return result;
}

RunResult RunTraced(Context& ctx) {
  RunResult result;
  // The CLI's own view: bytes read, rows loaded, CPU per estimate request.
  std::vector<double> bytes, rows_loaded, cpu;
  std::vector<std::vector<EstimateLine>> cli_out;
  for (int i = 0; i < kTracedCliRequests; ++i) {
    Child child = RunChild(EstimateArgs(ctx));
    ++result.attempted;
    if (!child.ok) {
      result.Fail("estimate request exited nonzero:\n" + child.output);
      continue;
    }
    uint64_t rows = 0;
    cli_out.push_back(ParseEstimateOutput(child.output, &rows));
    bytes.push_back(static_cast<double>(child.rchar));
    rows_loaded.push_back(static_cast<double>(rows));
    cpu.push_back(child.cpu_s);
  }
  std::map<size_t, std::string> exact_out;
  for (size_t t : ctx.truth) {
    auto spec = ReadFile(ctx.dir + "/" + ctx.c[t].table_name + ".schema");
    Child child = RunChild(ExactArgs(ctx, ctx.c[t], spec.ok() ? *spec : ""));
    ++result.attempted;
    if (!child.ok) {
      result.Fail("exact request exited nonzero:\n" + child.output);
      continue;
    }
    exact_out[t] = ParseExactOutput(child.output);
  }

  // Replays, alternating untraced and traced, for the overhead ratio.
  std::vector<double> untraced_s, traced_s, coverage;
  std::unique_ptr<cfest::Catalog> catalog;
  std::vector<double> parsed_per_sampled;
  // One warm-up replay first, so neither side of the overhead ratio pays
  // for cold page cache and allocator state.
  auto warm = ReplayEstimate(ctx.dir, ctx.c, ctx.options.seed);
  if (!warm.ok()) {
    result.Fail("replay: " + warm.status().ToString());
    return result;
  }
  cfest::trace::Reset();
  for (int pair = 0; pair < kTracedReplayPairs; ++pair) {
    for (bool traced : {false, true}) {
      cfest::trace::SetEnabled(traced);
      const double covered_before = CoveredSeconds();
      const auto start = Now();
      auto replay = ReplayEstimate(ctx.dir, ctx.c, ctx.options.seed);
      ++result.attempted;
      if (!replay.ok()) {
        cfest::trace::SetEnabled(false);
        result.Fail("replay: " + replay.status().ToString());
        return result;
      }
      const double wall = Seconds(start, Now());
      (traced ? traced_s : untraced_s).push_back(wall);
      coverage.push_back((CoveredSeconds() - covered_before) / wall);
      parsed_per_sampled.push_back(static_cast<double>(replay->rows_parsed) /
                                   static_cast<double>(replay->rows_sampled));
      for (const auto& lines : cli_out) CheckEstimate(lines, *replay, &result);
      catalog = std::move(replay->catalog);
    }
  }
  // The exact replay, traced.
  for (size_t t : ctx.truth) {
    const double covered_before = CoveredSeconds();
    const auto start = Now();
    auto truth = ReplayExact(*catalog, ctx.c[t]);
    ++result.attempted;
    if (!truth.ok()) {
      result.Fail("exact replay: " + truth.status().ToString());
      continue;
    }
    coverage.push_back((CoveredSeconds() - covered_before) /
                       Seconds(start, Now()));
    if (exact_out.count(t) && exact_out[t] != Format4(*truth)) {
      result.Fail("exact of " + JoinKeys(ctx.c[t]) + " printed " +
                  exact_out[t] + ", replay gives " + Format4(*truth));
    }
  }
  cfest::trace::SetEnabled(false);
  const double min_coverage =
      *std::min_element(coverage.begin(), coverage.end());
  if (min_coverage < 0.9) {
    result.Fail("layer spans cover only " + FormatG6(min_coverage) +
                " of a replay's wall time (need 0.9)");
  }

  // Only the traced estimate replays enter the engine.
  const double traced_requests = kTracedReplayPairs;
  std::map<std::string, double> extra = {
      {"storage.parsed_per_sampled_row", Median(parsed_per_sampled)},
      {"tools.cli_bytes_read", Median(bytes)},
      {"tools.cli_rows_loaded", Median(rows_loaded)},
      {"tools.cli_cpu_s", Median(cpu)},
      {"index.cache_hit_ratio", RecordedCacheHitRatio()},
      {"trace.coverage", min_coverage},
      {"trace.overhead_ratio", Median(traced_s) / Median(untraced_s)},
  };
  FoldProgramSpans(traced_requests, &extra);
  EmitPerLayer(extra, &result);
  return result;
}

}  // namespace

RunResult RunTpchFiles(const Options& options) {
  Context ctx{options, options.data_dir + "/tpch", "", {}, {}, ""};
  ctx.candidates_path = options.data_dir + "/candidates.txt";
  ctx.c = BuildCandidates();
  ctx.truth = TruthSubset(ctx.c);
  ctx.threads = std::to_string(cfest::ThreadPool::ResolveThreadCount(0));
  std::error_code ec;
  std::filesystem::remove_all(ctx.dir, ec);
  std::filesystem::create_directories(ctx.dir, ec);

  std::vector<double> setups;
  for (int i = 0; i < (options.trace ? 1 : kSetupRepeats); ++i) {
    const auto start = Now();
    Status st = WriteCatalog(options.seed, ctx.dir);
    if (st.ok()) st = WriteFile(ctx.candidates_path, CandidateFile(ctx.c));
    if (!st.ok()) {
      RunResult failed;
      failed.Fail("set-up: " + st.ToString());
      return failed;
    }
    setups.push_back(Seconds(start, Now()));
  }
  return options.trace ? RunTraced(ctx) : RunUntraced(ctx, setups);
}

}  // namespace perfbench

// samplecf — command-line front end for the library.
//
// Subcommands:
//   estimate  <csv> <schema-spec> <key-cols> <scheme> [fraction] [seed]
//       SampleCF estimate of the compression fraction for an index on the
//       given comma-separated key columns.
//   exact     <csv> <schema-spec> <key-cols> <scheme>
//       Full build-and-compress ground truth (slow on big files).
//   recommend <csv> <schema-spec> <key-cols> [fraction] [seed]
//       Per-column best-scheme recommendation from one sample.
//   batch     <csv> <schema-spec> --candidates <file> [--threads N]
//             [--target-rel-error E] [--confidence C] [--json]
//             [fraction] [seed]
//       Sizes every (key-columns, scheme) pair in <file> through the
//       EstimationEngine in one invocation: one shared sample, one index
//       build per distinct key set, and a comparison table at the end.
//       Each line of <file> is "key-cols scheme [clustered]"; blank lines
//       and lines starting with '#' are skipped. With --target-rel-error
//       the sample grows adaptively (estimator/adaptive.h) until every
//       candidate's CF' interval is within E relative at confidence C
//       (default 0.95); [fraction] is then the starting fraction. --json
//       additionally emits one "JSON {...}" line per candidate with
//       rows_sampled and confidence-interval fields.
//   advise    --catalog <dir> --candidates <file> [--bound <bytes>]
//             [--strategy greedy|optimal|lazy] [--threads N]
//             [--target-rel-error E] [--confidence C] [--json]
//             [fraction] [seed]
//       Catalog-level what-if pass: loads every <name>.csv + <name>.schema
//       pair in <dir> into a catalog and sizes a mixed-table candidate
//       file in one CatalogEstimationService fan-out (one engine and one
//       sample per table, shared thread pool). Each candidate line is
//       "table key-cols scheme [clustered] [benefit]". With --bound, also
//       prints the advisor's recommendation under the storage bound:
//       greedy (default) is the benefit-density heuristic, optimal the
//       exact search (<= 24 candidates), and lazy the interval-driven
//       branch-and-bound (advisor/search.h) that sizes candidates only as
//       precisely as its decisions need — it requires --bound, has no
//       candidate cap, and honors --target-rel-error / --confidence as
//       the refinement precision. For greedy/optimal,
//       --target-rel-error / --confidence / --json work as in batch (each
//       table's sample grows independently toward the shared target).
//   analyze   <csv> <schema-spec>
//       Per-column profile: distinct counts, length stats, heavy hitters,
//       and closed-form NS / dictionary CF predictions.
//   gen-tpch  <scale-factor> <output-dir>
//       Writes the seven synthetic TPC-H tables as CSV plus .schema files.
//
// Every subcommand additionally accepts [--metrics-out <file>] (dump a
// metric-registry snapshot after the run: Prometheus text exposition for
// .prom/.txt paths, JSON otherwise), [--trace-out <file>] (record trace
// spans during the run and dump Chrome-trace JSON for chrome://tracing or
// ui.perfetto.dev), and [--telemetry-port <port>] (serve /metrics
// Prometheus text, /metrics.json, and /healthz over HTTP for the run's
// duration; port 0 picks an ephemeral port, printed to stderr). With
// [--telemetry-hold-ms <ms>] the endpoint stays up that long after the
// command finishes, so an external scraper (a CI step, a curl) can read
// the final counters from a live process.
//
// Scheme names: none, null_suppression, dictionary_page, dictionary_global,
// rle, prefix, delta, prefix_dictionary.
//
// Example:
//   samplecf_cli gen-tpch 0.01 /tmp/tpch
//   samplecf_cli estimate /tmp/tpch/lineitem.csv
//       "$(cat /tmp/tpch/lineitem.schema)" l_shipmode dictionary_page 0.01
//   (one shell line; wrap with a backslash continuation in practice)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/search.h"
#include "common/format.h"
#include "common/json_writer.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "datagen/tpch/tables.h"
#include "estimator/adaptive.h"
#include "estimator/column_profile.h"
#include "estimator/compression_fraction.h"
#include "estimator/engine.h"
#include "estimator/sample_cf.h"
#include "estimator/scheme_advisor.h"
#include "estimator/service.h"
#include "server/telemetry_http.h"
#include "storage/csv.h"

namespace cfest {
namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::InvalidArgument("cannot write " + path);
  out << content;
  return Status::OK();
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> parts;
  size_t pos = 0;
  while (pos <= s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    parts.push_back(s.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return parts;
}

Result<std::unique_ptr<Table>> LoadTable(const std::string& csv_path,
                                         const std::string& schema_spec) {
  CFEST_ASSIGN_OR_RETURN(Schema schema, ParseSchemaSpec(schema_spec));
  CFEST_ASSIGN_OR_RETURN(std::string content, ReadFile(csv_path));
  return LoadCsv(content, schema, /*has_header=*/true);
}

/// Strips "--flag <value>" from `args`; returns the value or `fallback`.
Result<std::string> StripFlag(std::vector<std::string>* args,
                              const std::string& flag,
                              const std::string& fallback) {
  for (size_t i = 0; i < args->size(); ++i) {
    if ((*args)[i] != flag) continue;
    if (i + 1 >= args->size()) {
      return Status::InvalidArgument(flag + " needs a value");
    }
    const std::string value = (*args)[i + 1];
    args->erase(args->begin() + static_cast<ptrdiff_t>(i),
                args->begin() + static_cast<ptrdiff_t>(i) + 2);
    return value;
  }
  return fallback;
}

/// Strips a value-less "--flag" from `args`; returns whether it was present.
bool StripBoolFlag(std::vector<std::string>* args, const std::string& flag) {
  for (size_t i = 0; i < args->size(); ++i) {
    if ((*args)[i] != flag) continue;
    args->erase(args->begin() + static_cast<ptrdiff_t>(i));
    return true;
  }
  return false;
}

/// Strict numeric argument parsing (common/format.h), naming the flag in
/// the failure: "--bound 10GB" must fail with a usage message, not
/// silently become 10 bytes the way bare strtoull would parse it.
Result<uint64_t> ParseUint64Arg(const std::string& text, const char* what) {
  Result<uint64_t> value = ParseUint64(text);
  if (!value.ok()) {
    return Status::InvalidArgument(std::string(what) + ": " +
                                   value.status().message());
  }
  return value;
}

Result<double> ParseDoubleArg(const std::string& text, const char* what) {
  Result<double> value = ParseDouble(text);
  if (!value.ok()) {
    return Status::InvalidArgument(std::string(what) + ": " +
                                   value.status().message());
  }
  return value;
}

/// `--threads`: 0 resolves to hardware concurrency (ThreadPool's rule,
/// applied when the pool is built). A count beyond any plausible
/// oversubscription budget — more than 8x the machine's cores — is almost
/// certainly a typo'd or hostile value; it is clamped to hardware
/// concurrency with a warning instead of silently spawning thousands of
/// threads.
Result<uint32_t> ParseThreadsArg(const std::string& text) {
  CFEST_ASSIGN_OR_RETURN(const uint64_t value,
                         ParseUint64Arg(text, "--threads"));
  const uint32_t hw = ThreadPool::ResolveThreadCount(0);
  const uint64_t cap = 8ull * hw;
  if (value > cap) {
    std::fprintf(stderr,
                 "warning: --threads %llu exceeds 8x hardware concurrency "
                 "(%u cores); clamping to %u\n",
                 static_cast<unsigned long long>(value), hw, hw);
    return hw;
  }
  return static_cast<uint32_t>(value);
}

/// Precision / reporting flags shared by batch and advise.
struct PrecisionCliOptions {
  bool adaptive = false;  // --target-rel-error given
  bool json = false;
  PrecisionTarget target;
};

Result<PrecisionCliOptions> StripPrecisionFlags(
    std::vector<std::string>* args) {
  PrecisionCliOptions out;
  CFEST_ASSIGN_OR_RETURN(std::string rel,
                         StripFlag(args, "--target-rel-error", ""));
  CFEST_ASSIGN_OR_RETURN(std::string confidence,
                         StripFlag(args, "--confidence", ""));
  out.json = StripBoolFlag(args, "--json");
  if (!rel.empty()) {
    out.adaptive = true;
    CFEST_ASSIGN_OR_RETURN(out.target.rel_error,
                           ParseDoubleArg(rel, "--target-rel-error"));
  }
  if (!confidence.empty()) {
    CFEST_ASSIGN_OR_RETURN(out.target.confidence,
                           ParseDoubleArg(confidence, "--confidence"));
  }
  return out;
}

std::string JoinKeys(const IndexDescriptor& index) {
  std::string keys;
  for (const std::string& k : index.key_columns) {
    if (!keys.empty()) keys += ",";
    keys += k;
  }
  return keys;
}

/// One "JSON {...}" line per candidate, so precision is scrapeable without
/// the bench harness. `adaptive` is null for fixed-fraction runs (the
/// interval then comes from EstimateCandidateInterval around `ci_cf`).
void PrintCandidateJson(const SizedCandidate& sized, double ci_cf,
                        const ConfidenceInterval& interval,
                        const std::string& method, SizeMetric ci_metric,
                        double confidence,
                        const AdaptiveCandidateResult* adaptive) {
  JsonWriter json;
  json.AddString("index", sized.config.index.name);
  if (!sized.config.table_name.empty()) {
    json.AddString("table", sized.config.table_name);
  }
  json.AddString("keys", JoinKeys(sized.config.index));
  json.AddString("scheme", sized.config.scheme.ToString());
  json.AddBool("clustered", sized.config.index.clustered);
  json.AddDouble("cf", sized.estimated_cf);
  json.AddInt("est_bytes", static_cast<int64_t>(sized.estimated_bytes));
  json.AddInt("uncompressed_bytes",
              static_cast<int64_t>(sized.uncompressed_bytes));
  json.AddInt("rows_sampled", static_cast<int64_t>(sized.sample_rows));
  json.AddDouble("ci_cf", ci_cf);
  json.AddDouble("ci_lower", interval.lower);
  json.AddDouble("ci_upper", interval.upper);
  json.AddString("ci_metric", SizeMetricName(ci_metric));
  json.AddString("ci_method", method);
  json.AddDouble("confidence", confidence);
  if (adaptive != nullptr) {
    json.AddBool("converged", adaptive->converged);
    json.AddInt("rounds", adaptive->rounds);
    json.AddDouble("target_half_width", adaptive->target_half_width);
    json.AddInt("cumulative_rows_sized",
                static_cast<int64_t>(adaptive->cumulative_rows_sized));
  }
  json.Print();
}

/// Fixed-fraction JSON path: batch-computes the base-metric CF' estimates
/// and their intervals (replicate index builds memoized on the pinned
/// epoch, shared per key set as in an adaptive round) and prints one line
/// per candidate.
Status PrintFixedCandidatesJson(EstimationEngine& engine,
                                const std::vector<SizedCandidate>& sized,
                                double confidence) {
  CFEST_ASSIGN_OR_RETURN(const double z, NumSigmasForConfidence(confidence));
  std::vector<CandidateConfiguration> configs;
  configs.reserve(sized.size());
  for (const SizedCandidate& s : sized) configs.push_back(s.config);
  ThreadPool* pool =
      engine.options().num_threads != 1 ? engine.shared_pool() : nullptr;
  CFEST_ASSIGN_OR_RETURN(
      std::vector<CandidateIntervalResult> intervals,
      EstimateCandidateIntervals(engine, configs, z,
                                 PrecisionTarget{}.interval_groups, pool));
  for (size_t i = 0; i < sized.size(); ++i) {
    PrintCandidateJson(sized[i], intervals[i].cf, intervals[i].interval,
                       intervals[i].method, engine.options().base.metric,
                       confidence, nullptr);
  }
  return Status::OK();
}

int CmdEstimate(const std::vector<std::string>& args) {
  if (args.size() < 4) {
    return Fail(
        "usage: estimate <csv> <schema-spec> <key-cols> <scheme> "
        "[fraction] [seed]");
  }
  auto table = LoadTable(args[0], args[1]);
  if (!table.ok()) return Fail(table.status().ToString());
  auto scheme_type = CompressionTypeFromName(args[3]);
  if (!scheme_type.ok()) return Fail(scheme_type.status().ToString());
  SampleCFOptions options;
  options.fraction = 0.01;
  uint64_t seed = 42;
  if (args.size() > 4) {
    auto fraction = ParseDoubleArg(args[4], "fraction");
    if (!fraction.ok()) return Fail(fraction.status().ToString());
    options.fraction = *fraction;
  }
  if (args.size() > 5) {
    auto parsed = ParseUint64Arg(args[5], "seed");
    if (!parsed.ok()) return Fail(parsed.status().ToString());
    seed = *parsed;
  }
  Random rng(seed);
  IndexDescriptor index{"ix", SplitCommas(args[2]), /*clustered=*/false};
  auto result = SampleCF(**table, index, CompressionScheme::Uniform(*scheme_type),
                         options, &rng);
  if (!result.ok()) return Fail(result.status().ToString());
  std::printf("rows            %llu\n",
              static_cast<unsigned long long>((*table)->num_rows()));
  std::printf("sample rows     %llu (f = %.4f)\n",
              static_cast<unsigned long long>(result->sample_rows),
              options.fraction);
  std::printf("estimated CF'   %.4f\n", result->cf.value);
  std::printf("sample size     %s compressed / %s uncompressed\n",
              HumanBytes(result->cf.compressed_bytes).c_str(),
              HumanBytes(result->cf.uncompressed_bytes).c_str());
  return 0;
}

int CmdExact(const std::vector<std::string>& args) {
  if (args.size() < 4) {
    return Fail("usage: exact <csv> <schema-spec> <key-cols> <scheme>");
  }
  auto table = LoadTable(args[0], args[1]);
  if (!table.ok()) return Fail(table.status().ToString());
  auto scheme_type = CompressionTypeFromName(args[3]);
  if (!scheme_type.ok()) return Fail(scheme_type.status().ToString());
  IndexDescriptor index{"ix", SplitCommas(args[2]), false};
  auto cf = ComputeTrueCF(**table, index,
                          CompressionScheme::Uniform(*scheme_type));
  if (!cf.ok()) return Fail(cf.status().ToString());
  std::printf("exact CF        %.4f (%s / %s)\n", cf->value,
              HumanBytes(cf->compressed_bytes).c_str(),
              HumanBytes(cf->uncompressed_bytes).c_str());
  return 0;
}

int CmdRecommend(const std::vector<std::string>& args) {
  if (args.size() < 3) {
    return Fail(
        "usage: recommend <csv> <schema-spec> <key-cols> [fraction] [seed]");
  }
  auto table = LoadTable(args[0], args[1]);
  if (!table.ok()) return Fail(table.status().ToString());
  SampleCFOptions options;
  options.fraction = 0.01;
  uint64_t seed = 42;
  if (args.size() > 3) {
    auto fraction = ParseDoubleArg(args[3], "fraction");
    if (!fraction.ok()) return Fail(fraction.status().ToString());
    options.fraction = *fraction;
  }
  if (args.size() > 4) {
    auto parsed = ParseUint64Arg(args[4], "seed");
    if (!parsed.ok()) return Fail(parsed.status().ToString());
    seed = *parsed;
  }
  Random rng(seed);
  IndexDescriptor index{"ix", SplitCommas(args[2]), /*clustered=*/true};
  auto rec = RecommendScheme(**table, index, {}, options, &rng);
  if (!rec.ok()) return Fail(rec.status().ToString());
  TablePrinter out({"column", "recommended", "est. column CF"});
  for (const ColumnRecommendation& col : rec->columns) {
    out.AddRow({col.column_name, CompressionTypeName(col.best),
                FormatDouble(col.estimated_cf)});
  }
  out.Print();
  std::printf("\nestimated whole-index CF under this scheme: %.4f (from %llu "
              "sampled rows)\n",
              rec->estimated_cf,
              static_cast<unsigned long long>(rec->sample_rows));
  return 0;
}

/// Parses one "key-cols scheme [clustered]" candidate line.
Result<CandidateConfiguration> ParseCandidateLine(const std::string& line,
                                                  size_t line_number) {
  std::istringstream in(line);
  std::string key_cols, scheme_name, clustered, extra;
  in >> key_cols >> scheme_name >> clustered >> extra;
  if (key_cols.empty() || scheme_name.empty()) {
    return Status::InvalidArgument(
        "candidates line " + std::to_string(line_number) +
        ": expected \"key-cols scheme [clustered]\", got \"" + line + "\"");
  }
  if (!extra.empty()) {
    return Status::InvalidArgument(
        "candidates line " + std::to_string(line_number) +
        ": unexpected trailing token \"" + extra + "\"");
  }
  CFEST_ASSIGN_OR_RETURN(CompressionType type,
                         CompressionTypeFromName(scheme_name));
  CandidateConfiguration c;
  c.index.name = "ix_" + key_cols + "_" + scheme_name;
  c.index.key_columns = SplitCommas(key_cols);
  c.index.clustered = clustered == "clustered";
  if (!clustered.empty() && !c.index.clustered) {
    return Status::InvalidArgument(
        "candidates line " + std::to_string(line_number) +
        ": trailing token must be \"clustered\", got \"" + clustered + "\"");
  }
  c.scheme = CompressionScheme::Uniform(type);
  return c;
}

int CmdBatch(std::vector<std::string> args) {
  // batch <csv> <schema-spec> --candidates <file> [--threads N]
  //       [--target-rel-error E] [--confidence C] [--json]
  //       [fraction] [seed]
  auto threads = StripFlag(&args, "--threads", "0");
  if (!threads.ok()) return Fail(threads.status().ToString());
  auto precision = StripPrecisionFlags(&args);
  if (!precision.ok()) return Fail(precision.status().ToString());
  if (args.size() < 4 || args[2] != "--candidates") {
    return Fail(
        "usage: batch <csv> <schema-spec> --candidates <file> "
        "[--threads N] [--target-rel-error E] [--confidence C] [--json] "
        "[fraction] [seed]");
  }
  auto table = LoadTable(args[0], args[1]);
  if (!table.ok()) return Fail(table.status().ToString());
  auto spec = ReadFile(args[3]);
  if (!spec.ok()) return Fail(spec.status().ToString());

  std::vector<CandidateConfiguration> candidates;
  std::istringstream lines(*spec);
  std::string line;
  size_t line_number = 0;
  while (std::getline(lines, line)) {
    ++line_number;
    const size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    auto candidate = ParseCandidateLine(line, line_number);
    if (!candidate.ok()) return Fail(candidate.status().ToString());
    candidates.push_back(std::move(*candidate));
  }
  if (candidates.empty()) return Fail("no candidates in " + args[3]);

  EstimationEngineOptions options;
  options.base.fraction = 0.01;
  options.seed = 42;
  if (args.size() > 4) {
    auto fraction = ParseDoubleArg(args[4], "fraction");
    if (!fraction.ok()) return Fail(fraction.status().ToString());
    options.base.fraction = *fraction;
  }
  if (args.size() > 5) {
    auto seed = ParseUint64Arg(args[5], "seed");
    if (!seed.ok()) return Fail(seed.status().ToString());
    options.seed = *seed;
  }
  auto num_threads = ParseThreadsArg(*threads);
  if (!num_threads.ok()) return Fail(num_threads.status().ToString());
  options.num_threads = *num_threads;
  EstimationEngine engine(**table, options);

  if (precision->adaptive) {
    auto estimator = AdaptiveEstimator::Make(
        engine, precision->target,
        options.num_threads == 1 ? nullptr : engine.shared_pool());
    if (!estimator.ok()) return Fail(estimator.status().ToString());
    auto adaptive = estimator->EstimateAll(candidates);
    if (!adaptive.ok()) return Fail(adaptive.status().ToString());
    TablePrinter out({"key columns", "scheme", "est. CF'", "est. size",
                      "rows", "CF' interval", "ok"});
    for (const AdaptiveCandidateResult& r : adaptive->candidates) {
      std::string keys = JoinKeys(r.sized.config.index);
      if (r.sized.config.index.clustered) keys += " (clustered)";
      out.AddRow({keys, r.sized.config.scheme.ToString(),
                  FormatDouble(r.sized.estimated_cf),
                  HumanBytes(r.sized.estimated_bytes),
                  std::to_string(r.rows_sampled),
                  "[" + FormatDouble(r.interval.lower) + ", " +
                      FormatDouble(r.interval.upper) + "]",
                  r.converged ? "yes" : "NO"});
    }
    out.Print();
    const AdaptiveTableReport& report = adaptive->tables[0];
    const std::string schedule = FormatGrowthSchedule(report.rows_per_round);
    const EstimationEngine::CacheStats stats = engine.cache_stats();
    std::printf(
        "\n%zu candidates; rel. error target %.3g at %.3g confidence; %u "
        "growth round(s): %s rows%s; %llu index extension(s), %llu cache "
        "hit(s)\n",
        adaptive->candidates.size(), precision->target.rel_error,
        precision->target.confidence, report.rounds, schedule.c_str(),
        report.budget_exhausted ? " (budget exhausted)" : "",
        static_cast<unsigned long long>(stats.index_extensions),
        static_cast<unsigned long long>(stats.index_cache_hits));
    if (precision->json) {
      for (const AdaptiveCandidateResult& r : adaptive->candidates) {
        PrintCandidateJson(r.sized, r.cf, r.interval, r.interval_method,
                           engine.options().base.metric,
                           precision->target.confidence, &r);
      }
    }
    return 0;
  }

  auto sized = engine.EstimateAll(candidates);
  if (!sized.ok()) return Fail(sized.status().ToString());

  TablePrinter out({"key columns", "scheme", "est. CF'", "est. size",
                    "uncompressed", "saved"});
  for (const SizedCandidate& s : *sized) {
    std::string keys;
    for (const std::string& k : s.config.index.key_columns) {
      if (!keys.empty()) keys += ",";
      keys += k;
    }
    if (s.config.index.clustered) keys += " (clustered)";
    // A scheme can inflate an index (CF' > 1); show that as a negative
    // saving instead of wrapping the unsigned subtraction.
    const std::string saved =
        s.estimated_bytes <= s.uncompressed_bytes
            ? HumanBytes(s.uncompressed_bytes - s.estimated_bytes)
            : "-" + HumanBytes(s.estimated_bytes - s.uncompressed_bytes);
    out.AddRow({keys, s.config.scheme.ToString(),
                FormatDouble(s.estimated_cf), HumanBytes(s.estimated_bytes),
                HumanBytes(s.uncompressed_bytes), saved});
  }
  out.Print();
  const EstimationEngine::CacheStats stats = engine.cache_stats();
  std::printf(
      "\n%zu candidates sized from %llu sample draw(s), %llu index "
      "build(s), %llu cache hit(s) (f = %.4f, seed %llu, %u thread(s))\n",
      sized->size(), static_cast<unsigned long long>(stats.samples_drawn),
      static_cast<unsigned long long>(stats.index_builds),
      static_cast<unsigned long long>(stats.index_cache_hits),
      options.base.fraction,
      static_cast<unsigned long long>(options.seed),
      ThreadPool::ResolveThreadCount(options.num_threads));
  if (precision->json) {
    Status st =
        PrintFixedCandidatesJson(engine, *sized, precision->target.confidence);
    if (!st.ok()) return Fail(st.ToString());
  }
  return 0;
}

/// Parses one "table key-cols scheme [clustered] [benefit]" line of an
/// advise candidate file.
Result<CandidateConfiguration> ParseCatalogCandidateLine(
    const std::string& line, size_t line_number) {
  std::istringstream in(line);
  std::string table, rest;
  in >> table;
  std::getline(in, rest);
  if (table.empty() || rest.empty()) {
    return Status::InvalidArgument(
        "candidates line " + std::to_string(line_number) +
        ": expected \"table key-cols scheme [clustered] [benefit]\", got \"" +
        line + "\"");
  }
  // The last token may be a numeric benefit weight.
  std::istringstream rest_in(rest);
  std::vector<std::string> tokens;
  std::string token;
  while (rest_in >> token) tokens.push_back(token);
  double benefit = 1.0;
  if (!tokens.empty()) {
    char* end = nullptr;
    const double parsed = std::strtod(tokens.back().c_str(), &end);
    if (end != nullptr && *end == '\0' && end != tokens.back().c_str()) {
      benefit = parsed;
      tokens.pop_back();
    }
  }
  std::string joined;
  for (const std::string& t : tokens) {
    if (!joined.empty()) joined += ' ';
    joined += t;
  }
  CFEST_ASSIGN_OR_RETURN(CandidateConfiguration c,
                         ParseCandidateLine(joined, line_number));
  c.table_name = table;
  c.index.name = table + "." + c.index.name;
  c.benefit = benefit;
  return c;
}

int CmdAdvise(std::vector<std::string> args) {
  // advise --catalog <dir> --candidates <file> [--bound <bytes>]
  //        [--strategy greedy|optimal|lazy] [--threads N]
  //        [--target-rel-error E] [--confidence C] [--json]
  //        [fraction] [seed]
  constexpr const char* kUsage =
      "usage: advise --catalog <dir> --candidates <file> "
      "[--bound <bytes>] [--strategy greedy|optimal|lazy] [--threads N] "
      "[--target-rel-error E] [--confidence C] [--json] [fraction] [seed]";
  auto threads = StripFlag(&args, "--threads", "0");
  if (!threads.ok()) return Fail(threads.status().ToString());
  auto catalog_dir = StripFlag(&args, "--catalog", "");
  if (!catalog_dir.ok()) return Fail(catalog_dir.status().ToString());
  auto candidates_path = StripFlag(&args, "--candidates", "");
  if (!candidates_path.ok()) return Fail(candidates_path.status().ToString());
  auto bound_text = StripFlag(&args, "--bound", "");
  if (!bound_text.ok()) return Fail(bound_text.status().ToString());
  auto strategy_text = StripFlag(&args, "--strategy", "greedy");
  if (!strategy_text.ok()) return Fail(strategy_text.status().ToString());
  auto precision = StripPrecisionFlags(&args);
  if (!precision.ok()) return Fail(precision.status().ToString());
  if (catalog_dir->empty() || candidates_path->empty()) {
    return Fail(kUsage);
  }
  AdvisorStrategy strategy = AdvisorStrategy::kGreedy;
  bool lazy = false;
  if (*strategy_text == "greedy") {
    strategy = AdvisorStrategy::kGreedy;
  } else if (*strategy_text == "optimal") {
    strategy = AdvisorStrategy::kOptimal;
  } else if (*strategy_text == "lazy") {
    lazy = true;
  } else {
    return Fail("--strategy must be greedy, optimal, or lazy (got \"" +
                *strategy_text + "\")\n" + kUsage);
  }
  uint64_t bound = 0;
  if (!bound_text->empty()) {
    auto parsed = ParseUint64Arg(*bound_text, "--bound");
    if (!parsed.ok()) {
      return Fail(parsed.status().ToString() + "\n" + kUsage);
    }
    bound = *parsed;
  } else if (lazy) {
    return Fail("--strategy lazy needs --bound (the search is driven by "
                "the storage bound)\n" +
                std::string(kUsage));
  }

  // Every <name>.schema + <name>.csv pair in the directory becomes a
  // catalog table (the layout gen-tpch writes).
  Catalog catalog;
  std::error_code ec;
  std::vector<std::string> stems;
  for (const auto& entry :
       std::filesystem::directory_iterator(*catalog_dir, ec)) {
    if (entry.path().extension() == ".schema") {
      stems.push_back(entry.path().stem().string());
    }
  }
  if (ec) return Fail("cannot list " + *catalog_dir + ": " + ec.message());
  if (stems.empty()) return Fail("no .schema files in " + *catalog_dir);
  std::sort(stems.begin(), stems.end());
  for (const std::string& stem : stems) {
    auto spec = ReadFile(*catalog_dir + "/" + stem + ".schema");
    if (!spec.ok()) return Fail(spec.status().ToString());
    auto table = LoadTable(*catalog_dir + "/" + stem + ".csv", *spec);
    if (!table.ok()) return Fail(table.status().ToString());
    std::printf("loaded %-12s %8llu rows\n", stem.c_str(),
                static_cast<unsigned long long>((*table)->num_rows()));
    Status st = catalog.AddTable(stem, std::move(*table));
    if (!st.ok()) return Fail(st.ToString());
  }

  auto spec = ReadFile(*candidates_path);
  if (!spec.ok()) return Fail(spec.status().ToString());
  std::vector<CandidateConfiguration> candidates;
  std::istringstream lines(*spec);
  std::string line;
  size_t line_number = 0;
  while (std::getline(lines, line)) {
    ++line_number;
    const size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    auto candidate = ParseCatalogCandidateLine(line, line_number);
    if (!candidate.ok()) return Fail(candidate.status().ToString());
    candidates.push_back(std::move(*candidate));
  }
  if (candidates.empty()) return Fail("no candidates in " + *candidates_path);

  CatalogEstimationServiceOptions options;
  options.base.fraction = 0.01;
  options.seed = 42;
  if (args.size() > 0) {
    auto fraction = ParseDoubleArg(args[0], "fraction");
    if (!fraction.ok()) return Fail(fraction.status().ToString());
    options.base.fraction = *fraction;
  }
  if (args.size() > 1) {
    auto seed = ParseUint64Arg(args[1], "seed");
    if (!seed.ok()) return Fail(seed.status().ToString());
    options.seed = *seed;
  }
  auto num_threads = ParseThreadsArg(*threads);
  if (!num_threads.ok()) return Fail(num_threads.status().ToString());
  options.num_threads = *num_threads;
  CatalogEstimationService service(catalog, options);

  if (lazy) {
    // Interval-driven branch-and-bound: candidates are sized only as
    // precisely as the search's take/skip decisions require, so there is
    // no per-candidate sizing table — most candidates never get a
    // converged estimate. No candidate cap (unlike --strategy optimal).
    LazyAdvisorStats stats;
    auto rec = AdviseConfigurationsLazy(service, candidates, bound,
                                        precision->target, &stats);
    if (!rec.ok()) return Fail(rec.status().ToString());
    std::printf("lazy recommendation under %s:\n", HumanBytes(bound).c_str());
    TablePrinter picks({"table", "index", "scheme", "est. size", "benefit"});
    for (const SizedCandidate& s : rec->selected) {
      picks.AddRow({s.config.table_name, s.config.index.name,
                    s.config.scheme.ToString(), HumanBytes(s.estimated_bytes),
                    FormatDouble(s.config.benefit)});
    }
    picks.Print();
    std::printf(
        "total %s of %s used, benefit %.2f\n"
        "%zu candidate(s): %zu refined (%llu growth round(s)), rest "
        "decided at coarse intervals; %llu rows sized (%llu coarse), "
        "%llu node(s), %llu pruned\n",
        HumanBytes(rec->total_bytes).c_str(), HumanBytes(bound).c_str(),
        rec->total_benefit, stats.candidates, stats.refined,
        static_cast<unsigned long long>(stats.refine_rounds),
        static_cast<unsigned long long>(stats.total_rows_sized),
        static_cast<unsigned long long>(stats.coarse_rows),
        static_cast<unsigned long long>(stats.nodes_visited),
        static_cast<unsigned long long>(stats.nodes_pruned));
    if (precision->json) {
      JsonWriter json;
      json.AddInt("candidates", static_cast<int64_t>(stats.candidates));
      json.AddInt("selected", static_cast<int64_t>(rec->selected.size()));
      json.AddDouble("total_benefit", rec->total_benefit);
      json.AddInt("total_bytes", static_cast<int64_t>(rec->total_bytes));
      json.AddInt("refined", static_cast<int64_t>(stats.refined));
      json.AddInt("refine_rounds",
                  static_cast<int64_t>(stats.refine_rounds));
      json.AddInt("total_rows_sized",
                  static_cast<int64_t>(stats.total_rows_sized));
      json.AddInt("coarse_rows", static_cast<int64_t>(stats.coarse_rows));
      json.AddInt("nodes_visited",
                  static_cast<int64_t>(stats.nodes_visited));
      json.AddInt("nodes_pruned", static_cast<int64_t>(stats.nodes_pruned));
      json.Print();
    }
    return 0;
  }

  std::vector<SizedCandidate> sized_candidates;
  if (precision->adaptive) {
    auto adaptive =
        EstimateAllAdaptive(service, candidates, precision->target);
    if (!adaptive.ok()) return Fail(adaptive.status().ToString());
    TablePrinter out({"table", "key columns", "scheme", "est. CF'",
                      "est. size", "rows", "CF' interval", "ok"});
    for (const AdaptiveCandidateResult& r : adaptive->candidates) {
      std::string keys = JoinKeys(r.sized.config.index);
      if (r.sized.config.index.clustered) keys += " (clustered)";
      out.AddRow({r.sized.config.table_name, keys,
                  r.sized.config.scheme.ToString(),
                  FormatDouble(r.sized.estimated_cf),
                  HumanBytes(r.sized.estimated_bytes),
                  std::to_string(r.rows_sampled),
                  "[" + FormatDouble(r.interval.lower) + ", " +
                      FormatDouble(r.interval.upper) + "]",
                  r.converged ? "yes" : "NO"});
      sized_candidates.push_back(r.sized);
    }
    out.Print();
    std::printf("\nrel. error target %.3g at %.3g confidence; per-table "
                "growth:\n",
                precision->target.rel_error, precision->target.confidence);
    for (const AdaptiveTableReport& report : adaptive->tables) {
      std::printf("  %-12s %u round(s): %s rows%s\n",
                  report.table_name.c_str(), report.rounds,
                  FormatGrowthSchedule(report.rows_per_round).c_str(),
                  report.budget_exhausted ? " (budget exhausted)" : "");
    }
    if (precision->json) {
      for (const AdaptiveCandidateResult& r : adaptive->candidates) {
        PrintCandidateJson(r.sized, r.cf, r.interval, r.interval_method,
                           options.base.metric,
                           precision->target.confidence, &r);
      }
    }
  } else {
    auto sized = service.EstimateAll(candidates);
    if (!sized.ok()) return Fail(sized.status().ToString());
    sized_candidates = std::move(*sized);

    TablePrinter out({"table", "key columns", "scheme", "est. CF'",
                      "est. size", "uncompressed"});
    for (const SizedCandidate& s : sized_candidates) {
      std::string keys = JoinKeys(s.config.index);
      if (s.config.index.clustered) keys += " (clustered)";
      out.AddRow({s.config.table_name, keys, s.config.scheme.ToString(),
                  FormatDouble(s.estimated_cf), HumanBytes(s.estimated_bytes),
                  HumanBytes(s.uncompressed_bytes)});
    }
    out.Print();

    const CatalogEstimationService::Stats stats = service.stats();
    std::printf(
        "\n%zu candidates across %llu table(s) sized from %llu sample "
        "draw(s), %llu index build(s), %llu cache hit(s) (f = %.4f, seed "
        "%llu, %u thread(s))\n",
        sized_candidates.size(),
        static_cast<unsigned long long>(stats.engines_created),
        static_cast<unsigned long long>(stats.samples_drawn),
        static_cast<unsigned long long>(stats.index_builds),
        static_cast<unsigned long long>(stats.index_cache_hits),
        options.base.fraction, static_cast<unsigned long long>(options.seed),
        ThreadPool::ResolveThreadCount(options.num_threads));
    if (precision->json) {
      // Per-table batches (each table's epoch shares its replicate builds
      // per key set), printed back in input order.
      auto z = NumSigmasForConfidence(precision->target.confidence);
      if (!z.ok()) return Fail(z.status().ToString());
      std::map<std::string, std::vector<size_t>> by_table;
      for (size_t i = 0; i < sized_candidates.size(); ++i) {
        by_table[sized_candidates[i].config.table_name].push_back(i);
      }
      std::vector<CandidateIntervalResult> all(sized_candidates.size());
      for (const auto& [name, idxs] : by_table) {
        auto engine = service.Engine(name);
        if (!engine.ok()) return Fail(engine.status().ToString());
        std::vector<CandidateConfiguration> configs;
        configs.reserve(idxs.size());
        for (size_t i : idxs) configs.push_back(sized_candidates[i].config);
        auto intervals = EstimateCandidateIntervals(
            **engine, configs, *z, PrecisionTarget{}.interval_groups,
            options.num_threads != 1 ? service.shared_pool() : nullptr);
        if (!intervals.ok()) return Fail(intervals.status().ToString());
        for (size_t k = 0; k < idxs.size(); ++k) {
          all[idxs[k]] = std::move((*intervals)[k]);
        }
      }
      for (size_t i = 0; i < sized_candidates.size(); ++i) {
        PrintCandidateJson(sized_candidates[i], all[i].cf, all[i].interval,
                           all[i].method, options.base.metric,
                           precision->target.confidence, nullptr);
      }
    }
  }

  if (!bound_text->empty()) {
    auto rec = SelectConfigurations(sized_candidates, bound, strategy);
    if (!rec.ok()) return Fail(rec.status().ToString());
    std::printf("\nrecommendation under %s:\n", HumanBytes(bound).c_str());
    TablePrinter picks({"table", "index", "scheme", "est. size", "benefit"});
    for (const SizedCandidate& s : rec->selected) {
      picks.AddRow({s.config.table_name, s.config.index.name,
                    s.config.scheme.ToString(),
                    HumanBytes(s.estimated_bytes),
                    FormatDouble(s.config.benefit)});
    }
    picks.Print();
    std::printf("total %s of %s used, benefit %.2f\n",
                HumanBytes(rec->total_bytes).c_str(),
                HumanBytes(bound).c_str(), rec->total_benefit);
  }
  return 0;
}

int CmdAnalyze(const std::vector<std::string>& args) {
  if (args.size() < 2) return Fail("usage: analyze <csv> <schema-spec>");
  auto table = LoadTable(args[0], args[1]);
  if (!table.ok()) return Fail(table.status().ToString());
  auto profiles = ProfileTable(**table);
  if (!profiles.ok()) return Fail(profiles.status().ToString());
  TablePrinter out({"column", "type", "distinct", "mean len", "len range",
                    "top value (count)", "NS CF pred", "dict CF pred"});
  for (const ColumnProfile& p : *profiles) {
    std::string top = "-";
    if (!p.top_values.empty()) {
      top = p.top_values[0].value + " (" +
            std::to_string(p.top_values[0].count) + ")";
      if (top.size() > 28) top = top.substr(0, 25) + "...";
    }
    out.AddRow({p.name, p.type.ToString(), std::to_string(p.stats.d),
                FormatDouble(p.lengths.mean_length, 1),
                std::to_string(p.lengths.min_length) + ".." +
                    std::to_string(p.lengths.max_length),
                top, FormatDouble(p.predicted_ns_cf),
                FormatDouble(p.predicted_dict_cf)});
  }
  out.Print();
  std::printf("\n%llu rows analyzed; predictions use the paper's closed "
              "forms (dictionary: p = 4 bytes).\n",
              static_cast<unsigned long long>((*table)->num_rows()));
  return 0;
}

int CmdGenTpch(const std::vector<std::string>& args) {
  if (args.size() < 2) return Fail("usage: gen-tpch <scale-factor> <outdir>");
  tpch::TpchOptions options;
  auto scale = ParseDoubleArg(args[0], "scale-factor");
  if (!scale.ok()) return Fail(scale.status().ToString());
  options.scale_factor = *scale;
  if (options.scale_factor <= 0) return Fail("scale factor must be positive");
  const std::string dir = args[1];
  auto catalog = tpch::GenerateCatalog(options);
  if (!catalog.ok()) return Fail(catalog.status().ToString());
  for (const std::string& name : (*catalog)->TableNames()) {
    const Table& table = *std::move((*catalog)->GetTable(name)).ValueOrDie();
    Status st = WriteFile(dir + "/" + name + ".csv", WriteCsv(table));
    if (!st.ok()) return Fail(st.ToString());
    st = WriteFile(dir + "/" + name + ".schema",
                   SchemaToSpec(table.schema()));
    if (!st.ok()) return Fail(st.ToString());
    std::printf("wrote %s/%s.csv (%llu rows)\n", dir.c_str(), name.c_str(),
                static_cast<unsigned long long>(table.num_rows()));
  }
  return 0;
}

int RunCommand(const std::string& command, std::vector<std::string> args) {
  if (command == "estimate") return CmdEstimate(args);
  if (command == "exact") return CmdExact(args);
  if (command == "recommend") return CmdRecommend(args);
  if (command == "batch") return CmdBatch(std::move(args));
  if (command == "advise") return CmdAdvise(std::move(args));
  if (command == "analyze") return CmdAnalyze(args);
  if (command == "gen-tpch") return CmdGenTpch(args);
  return Fail("unknown command: " + command);
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s "
                 "<estimate|exact|recommend|batch|advise|analyze|gen-tpch> "
                 "... [--metrics-out <file>] [--trace-out <file>] "
                 "[--telemetry-port <port>] [--telemetry-hold-ms <ms>]\n",
                 argv[0]);
    return 1;
  }
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  // Observability exports work on every subcommand: --metrics-out dumps a
  // registry snapshot after the run (Prometheus text exposition for .prom
  // and .txt paths, JSON otherwise), --trace-out enables span recording
  // for the run and dumps Chrome-trace JSON (load in chrome://tracing or
  // ui.perfetto.dev).
  auto metrics_out = StripFlag(&args, "--metrics-out", "");
  if (!metrics_out.ok()) return Fail(metrics_out.status().ToString());
  auto trace_out = StripFlag(&args, "--trace-out", "");
  if (!trace_out.ok()) return Fail(trace_out.status().ToString());
  auto telemetry_port_text = StripFlag(&args, "--telemetry-port", "");
  if (!telemetry_port_text.ok()) {
    return Fail(telemetry_port_text.status().ToString());
  }
  auto telemetry_hold_text = StripFlag(&args, "--telemetry-hold-ms", "0");
  if (!telemetry_hold_text.ok()) {
    return Fail(telemetry_hold_text.status().ToString());
  }
  uint64_t telemetry_hold_ms = 0;
  {
    auto parsed = ParseUint64Arg(*telemetry_hold_text, "--telemetry-hold-ms");
    if (!parsed.ok()) return Fail(parsed.status().ToString());
    telemetry_hold_ms = *parsed;
  }
  TelemetryHttpServer telemetry;
  if (!telemetry_port_text->empty()) {
    auto parsed = ParseUint64Arg(*telemetry_port_text, "--telemetry-port");
    if (!parsed.ok()) return Fail(parsed.status().ToString());
    if (*parsed > 65535) {
      return Fail("--telemetry-port must be 0..65535");
    }
    Status st = telemetry.Start(static_cast<uint16_t>(*parsed));
    if (!st.ok()) return Fail(st.ToString());
    // Machine-readable: a wrapper script parses the port (ephemeral when
    // --telemetry-port 0) from this line before scraping.
    std::fprintf(stderr, "telemetry serving on port %u\n",
                 static_cast<unsigned>(telemetry.port()));
  } else if (telemetry_hold_ms != 0) {
    return Fail("--telemetry-hold-ms needs --telemetry-port");
  }
  if (!trace_out->empty()) {
    trace::Reset();
    trace::SetEnabled(true);
  }
  const int rc = RunCommand(command, std::move(args));
  if (rc != 0) return rc;
  if (telemetry.running() && telemetry_hold_ms != 0) {
    // Keep the endpoint live past the command so an external scraper can
    // read the run's final counters from the process itself.
    std::fprintf(stderr, "telemetry holding for %llu ms\n",
                 static_cast<unsigned long long>(telemetry_hold_ms));
    std::this_thread::sleep_for(std::chrono::milliseconds(telemetry_hold_ms));
  }
  if (!metrics_out->empty()) {
    const metrics::MetricsSnapshot snapshot =
        metrics::MetricRegistry::Global().Snapshot();
    const bool prom = metrics_out->ends_with(".prom") ||
                      metrics_out->ends_with(".txt");
    Status st = WriteFile(
        *metrics_out, prom ? snapshot.ToPrometheusText() : snapshot.ToJson());
    if (!st.ok()) return Fail(st.ToString());
    std::fprintf(stderr, "metrics snapshot written to %s\n",
                 metrics_out->c_str());
  }
  if (!trace_out->empty()) {
    trace::SetEnabled(false);
    Status st = WriteFile(*trace_out, trace::ExportChromeTraceJson());
    if (!st.ok()) return Fail(st.ToString());
    std::fprintf(stderr, "chrome trace written to %s\n", trace_out->c_str());
  }
  return 0;
}

}  // namespace
}  // namespace cfest

int main(int argc, char** argv) { return cfest::Main(argc, argv); }

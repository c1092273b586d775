// E11 — workload impact of compression (the paper's second motivating
// question, §I): "While data compression does yield significant benefits in
// the form of reduced storage costs and reduced I/O there is a substantial
// CPU cost to be paid in decompressing the data. Thus the decision as to
// when to use compression needs to be taken judiciously."
//
// Sweeps query selectivity and the CPU/IO cost ratio and locates the
// crossover where a compressed index stops being the cheaper plan — the
// judgment call the estimator exists to inform. Sizes come from SampleCF
// estimates (1% sample), not full builds.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "advisor/cost_model.h"
#include "estimator/engine.h"
#include "common/format.h"
#include "datagen/table_gen.h"

namespace cfest {
namespace {

void Run() {
  bench::PrintHeader(
      "E11 / Workload impact — when is compressing the index worth it?",
      "Paper §I: compression saves I/O but costs decompression CPU; the call "
      "must be judicious.");

  const uint64_t n = 200000;
  auto table = bench::CheckResult(
      GenerateTable({ColumnSpec::Integer("k", 0),
                     ColumnSpec::String("payload", 40, 2000,
                                        FrequencySpec::Zipf(1.0),
                                        LengthSpec::Uniform(4, 30))},
                    n, 77),
      "generate");

  // Size both physical variants from one 1% sample (the uncompressed
  // variant is schema arithmetic and draws nothing).
  EstimationEngineOptions options;
  options.base.fraction = 0.01;
  options.seed = 5;
  EstimationEngine engine(*table, options);
  CandidateConfiguration uncompressed_config;
  uncompressed_config.table_name = "t";
  uncompressed_config.index = {"cx", {"k"}, /*clustered=*/true};
  uncompressed_config.scheme =
      CompressionScheme::Uniform(CompressionType::kNone);
  CandidateConfiguration compressed_config = uncompressed_config;
  compressed_config.scheme =
      CompressionScheme::Uniform(CompressionType::kPrefixDictionary);

  SizedCandidate uncompressed = bench::CheckResult(
      engine.EstimateExact(uncompressed_config), "size uncompressed");
  auto epoch = bench::CheckResult(engine.PinEpoch(), "draw sample");
  SizedCandidate compressed = bench::CheckResult(
      engine.EstimateAt(*epoch, compressed_config), "size compressed");
  std::printf("estimated sizes: uncompressed %s, compressed %s (CF' = %s)\n\n",
              HumanBytes(uncompressed.estimated_bytes).c_str(),
              HumanBytes(compressed.estimated_bytes).c_str(),
              FormatDouble(compressed.estimated_cf).c_str());

  PhysicalOption u{"t", "k", uncompressed.estimated_bytes, n, false};
  PhysicalOption c{"t", "k", compressed.estimated_bytes, n, true};

  TablePrinter table_out({"selectivity", "cpu/io ratio", "cost uncompressed",
                          "cost compressed", "winner"});
  for (double selectivity : {1.0, 0.25, 0.05, 0.01, 0.001}) {
    for (double cpu_ratio : {0.0001, 0.001, 0.01}) {
      CostModelParams params;
      params.row_cpu_cost = cpu_ratio;  // relative to page_read_cost = 1
      params.decompress_factor = 2.5;
      Query query{"t", "k", selectivity, 1.0};
      const double cost_u = QueryCost(query, u, params);
      const double cost_c = QueryCost(query, c, params);
      table_out.AddRow(
          {FormatDouble(selectivity, 3), FormatDouble(cpu_ratio, 4),
           FormatDouble(cost_u, 1), FormatDouble(cost_c, 1),
           cost_c < cost_u ? "compressed" : "uncompressed"});
    }
  }
  table_out.Print();
  std::printf(
      "\nShape: compression wins I/O-bound plans (low cpu/io ratio, low "
      "selectivity scans read\nfewer pages) and loses CPU-bound ones; the "
      "crossover moves with the CF' the estimator\nsupplies — an inaccurate "
      "CF would flip decisions near the boundary.\n");
}

}  // namespace
}  // namespace cfest

int main() {
  cfest::Run();
  return 0;
}

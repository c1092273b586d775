// Tests for the adaptive estimation stack: confidence-interval coverage of
// the analytic-model intervals (Theorem 1 and the empirical variant) across
// generated distributions, RNG-stream-resuming sample growth (prefix
// equality with a fresh draw, incremental index extension, reservoir
// replay), the AdaptiveEstimator round loop and per-candidate refinement
// (convergence, budget exhaustion, bit-equality with a fixed-fraction run at
// each candidate's final fraction, one growth schedule for both), and the
// replicate builds the sample epoch memoizes.

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "common/random.h"
#include "datagen/table_gen.h"
#include "estimator/adaptive.h"
#include "estimator/analytic_model.h"
#include "estimator/compression_fraction.h"
#include "estimator/engine.h"
#include "estimator/service.h"
#include "sampling/sampler.h"
#include "storage/catalog.h"
#include "storage/row_codec.h"

namespace cfest {
namespace {

std::unique_ptr<Table> WorkloadTable(uint64_t rows = 20000, uint64_t seed = 7) {
  auto table = GenerateTable(
      {ColumnSpec::String("status", 12, 6, FrequencySpec::Uniform(),
                          LengthSpec::Uniform(4, 10)),
       ColumnSpec::String("city", 24, 50, FrequencySpec::Zipf(1.0),
                          LengthSpec::Uniform(4, 20)),
       ColumnSpec::Integer("amount", 400)},
      rows, seed);
  EXPECT_TRUE(table.ok());
  return std::move(table).ValueOrDie();
}

/// Serial catalog-level options: the adaptive flow's single-table case
/// runs on a one-table catalog through the service.
CatalogEstimationServiceOptions SerialServiceOptions(double fraction,
                                                     uint64_t seed) {
  CatalogEstimationServiceOptions options;
  options.base.fraction = fraction;
  options.seed = seed;
  options.num_threads = 1;
  return options;
}

CandidateConfiguration Candidate(const char* col, CompressionType type,
                                 const char* table_name = "") {
  CandidateConfiguration c;
  c.table_name = table_name;
  c.index = {std::string("ix_") + col + "_" + CompressionTypeName(type),
             {col},
             /*clustered=*/false};
  c.scheme = CompressionScheme::Uniform(type);
  c.benefit = 1.0;
  return c;
}

// ---------------------------------------------------------------------------
// Confidence helpers
// ---------------------------------------------------------------------------

TEST(AdaptiveMathTest, NumSigmasForConfidenceMatchesNormalQuantiles) {
  auto z95 = NumSigmasForConfidence(0.95);
  ASSERT_TRUE(z95.ok());
  EXPECT_NEAR(*z95, 1.95996, 1e-4);
  auto z68 = NumSigmasForConfidence(0.6826894921);
  ASSERT_TRUE(z68.ok());
  EXPECT_NEAR(*z68, 1.0, 1e-4);
  auto z99 = NumSigmasForConfidence(0.99);
  ASSERT_TRUE(z99.ok());
  EXPECT_NEAR(*z99, 2.57583, 1e-4);
  EXPECT_FALSE(NumSigmasForConfidence(0.0).ok());
  EXPECT_FALSE(NumSigmasForConfidence(1.0).ok());
}

TEST(AdaptiveMathTest, EstimateNeededSampleRowsFollowsInverseSquareLaw) {
  // Halving the width needs 4x the rows.
  EXPECT_EQ(EstimateNeededSampleRows(0.10, 100, 0.05), 400u);
  // Target already met: stay put.
  EXPECT_EQ(EstimateNeededSampleRows(0.04, 100, 0.05), 100u);
  EXPECT_EQ(EstimateNeededSampleRows(0.05, 100, 0.05), 100u);
  // Degenerate inputs.
  EXPECT_EQ(EstimateNeededSampleRows(0.1, 0, 0.05), 0u);
  EXPECT_EQ(EstimateNeededSampleRows(0.1, 100, 0.0), 100u);
}

// ---------------------------------------------------------------------------
// Statistical coverage of the analytic-model intervals
// ---------------------------------------------------------------------------

struct ColumnNsQuantities {
  double truth = 0.0;  // population mean of (l_i + h) / k
};

/// Mean normalized null-suppressed size of `col` over `table` — the
/// quantity both interval functions are centered on.
double MeanNormalizedNsSize(const Table& table, size_t col) {
  const DataType& type = table.schema().column(col).type;
  const double k = static_cast<double>(type.FixedWidth());
  const double h = static_cast<double>(LengthHeaderBytes(type));
  double sum = 0.0;
  for (RowId id = 0; id < table.num_rows(); ++id) {
    sum += (static_cast<double>(
                NullSuppressedLength(table.cell(id, col), type)) +
            h) /
           k;
  }
  return sum / static_cast<double>(table.num_rows());
}

void RunCoverage(const Table& table, const char* what) {
  constexpr int kTrials = 40;
  constexpr double kFraction = 0.05;
  const double truth = MeanNormalizedNsSize(table, 0);
  auto sampler = MakeUniformWithReplacementSampler();
  int theorem1_covered = 0;
  int empirical_covered = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    Random rng(1000 + trial);
    auto sample = sampler->Sample(table, kFraction, &rng);
    ASSERT_TRUE(sample.ok()) << what;
    const double estimate = MeanNormalizedNsSize(**sample, 0);
    const ConfidenceInterval t1 =
        Theorem1ConfidenceInterval(estimate, (*sample)->num_rows(), 2.0);
    if (t1.lower <= truth && truth <= t1.upper) ++theorem1_covered;
    auto empirical = EmpiricalNsConfidenceInterval(**sample, 0, estimate, 2.0);
    ASSERT_TRUE(empirical.ok()) << what;
    if (empirical->lower <= truth && truth <= empirical->upper) {
      ++empirical_covered;
    }
    // The data-dependent interval must never be wider than the worst-case
    // Theorem 1 bound (its variance is capped by 1/4 for values in [0,1]).
    EXPECT_LE(empirical->upper - empirical->lower,
              t1.upper - t1.lower + 1e-12)
        << what;
  }
  // Nominal two-sigma coverage is >= 75% by Chebyshev and ~95% under
  // normality. The thresholds sit above nominal but leave slack against
  // binomial noise (bimodal lengths make Theorem 1's worst-case variance
  // nearly tight, pushing its effective coverage toward the nominal rate).
  EXPECT_GE(theorem1_covered, 36) << what;
  EXPECT_GE(empirical_covered, 32) << what;
}

TEST(IntervalCoverageTest, UniformLengthStrings) {
  auto table = GenerateTable(
      {ColumnSpec::String("v", 16, 200, FrequencySpec::Uniform(),
                          LengthSpec::Uniform(2, 14))},
      4000, 21);
  ASSERT_TRUE(table.ok());
  RunCoverage(**table, "uniform");
}

TEST(IntervalCoverageTest, ZipfStrings) {
  auto table = GenerateTable(
      {ColumnSpec::String("v", 16, 500, FrequencySpec::Zipf(1.0),
                          LengthSpec::Uniform(1, 15))},
      4000, 22);
  ASSERT_TRUE(table.ok());
  RunCoverage(**table, "zipf");
}

TEST(IntervalCoverageTest, BimodalStrings) {
  // Half-short / half-long lengths maximize the NS estimator's variance —
  // the case Theorem 1's worst-case 1/4 is tight for.
  auto table = GenerateTable(
      {ColumnSpec::String("v", 16, 300, FrequencySpec::Uniform(),
                          LengthSpec::Bimodal(1, 15))},
      4000, 23);
  ASSERT_TRUE(table.ok());
  RunCoverage(**table, "bimodal");
}

// ---------------------------------------------------------------------------
// Sample growth
// ---------------------------------------------------------------------------

TEST(GrowSampleTest, GrownSampleEqualsFreshDrawAtFinalFraction) {
  auto table = WorkloadTable();
  EstimationEngineOptions options;
  options.base.fraction = 0.01;
  options.seed = 17;

  EstimationEngine grown(*table, options);
  ASSERT_TRUE(grown.PinEpoch().ok());
  EXPECT_EQ(grown.sample_rows(), 200u);
  auto grown_epoch = grown.GrowSampleToEpoch(1500);
  ASSERT_TRUE(grown_epoch.ok());
  EXPECT_EQ((*grown_epoch)->sample_rows(), 1500u);

  EstimationEngineOptions fresh_options = options;
  fresh_options.base.fraction =
      1500.0 / static_cast<double>(table->num_rows());
  EstimationEngine fresh(*table, fresh_options);

  auto fresh_epoch = fresh.PinEpoch();
  ASSERT_TRUE(fresh_epoch.ok());
  const TableView& grown_sample = (*grown_epoch)->sample();
  const TableView& fresh_sample = (*fresh_epoch)->sample();
  ASSERT_EQ(grown_sample.num_rows(), fresh_sample.num_rows());
  for (RowId i = 0; i < grown_sample.num_rows(); ++i) {
    Slice a = grown_sample.row(i);
    Slice b = fresh_sample.row(i);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size())) << "row " << i;
  }

  // A target at or below the current size is a no-op; the cap is the table.
  EXPECT_EQ((*grown.GrowSampleToEpoch(100))->sample_rows(), 1500u);
  EXPECT_EQ((*grown.GrowSampleToEpoch(table->num_rows() * 10))->sample_rows(),
            table->num_rows());
}

TEST(GrowSampleTest, ExtendsCachedIndexesBitIdentically) {
  auto table = WorkloadTable();
  EstimationEngineOptions options;
  options.base.fraction = 0.02;
  options.seed = 5;

  EstimationEngine grown(*table, options);
  const IndexDescriptor desc{"ix", {"city"}, /*clustered=*/false};
  auto base_epoch = grown.PinEpoch();
  ASSERT_TRUE(base_epoch.ok());
  // Cache a build pre-growth.
  ASSERT_TRUE(grown.SampleIndexAt(**base_epoch, desc).ok());
  auto grown_epoch = grown.GrowSampleToEpoch(2000);
  ASSERT_TRUE(grown_epoch.ok());
  EXPECT_EQ(grown.cache_stats().index_extensions, 1u);
  EXPECT_EQ(grown.cache_stats().index_builds, 1u);

  EstimationEngineOptions fresh_options = options;
  fresh_options.base.fraction =
      2000.0 / static_cast<double>(table->num_rows());
  EstimationEngine fresh(*table, fresh_options);
  auto fresh_epoch = fresh.PinEpoch();
  ASSERT_TRUE(fresh_epoch.ok());

  auto extended = grown.SampleIndexAt(**grown_epoch, desc);
  auto rebuilt = fresh.SampleIndexAt(**fresh_epoch, desc);
  ASSERT_TRUE(extended.ok());
  ASSERT_TRUE(rebuilt.ok());
  ASSERT_EQ((*extended)->num_rows(), (*rebuilt)->num_rows());
  EXPECT_EQ((*extended)->stats().leaf_pages, (*rebuilt)->stats().leaf_pages);
  EXPECT_EQ((*extended)->stats().leaf_used_bytes,
            (*rebuilt)->stats().leaf_used_bytes);
  for (uint64_t i = 0; i < (*extended)->num_rows(); ++i) {
    Slice a = (*extended)->row(i);
    Slice b = (*rebuilt)->row(i);
    ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size())) << "row " << i;
  }

  // Estimates off the extended index equal the fresh engine's bitwise.
  const CompressionScheme scheme =
      CompressionScheme::Uniform(CompressionType::kDictionaryPage);
  auto grown_cf = grown.EstimateCFAt(**grown_epoch, desc, scheme);
  auto fresh_cf = fresh.EstimateCFAt(**fresh_epoch, desc, scheme);
  ASSERT_TRUE(grown_cf.ok());
  ASSERT_TRUE(fresh_cf.ok());
  EXPECT_EQ(grown_cf->cf.value, fresh_cf->cf.value);
}

TEST(GrowSampleTest, ReservoirGrowthEqualsFreshDrawAtNewCapacity) {
  auto table = WorkloadTable();
  EstimationEngineOptions options;
  options.base.fraction = 0.01;
  options.seed = 11;
  options.maintain_reservoir = true;
  options.reservoir_capacity = 150;

  EstimationEngine grown(*table, options);
  const IndexDescriptor desc{"ix", {"status"}, false};
  const CompressionScheme scheme =
      CompressionScheme::Uniform(CompressionType::kRle);
  auto base_epoch = grown.PinEpoch();
  ASSERT_TRUE(base_epoch.ok());
  ASSERT_TRUE(grown.EstimateCFAt(**base_epoch, desc, scheme).ok());
  auto grown_epoch = grown.GrowSampleToEpoch(600);
  ASSERT_TRUE(grown_epoch.ok());
  EXPECT_EQ((*grown_epoch)->sample_rows(), 600u);

  EstimationEngineOptions fresh_options = options;
  fresh_options.reservoir_capacity = 600;
  EstimationEngine fresh(*table, fresh_options);
  auto fresh_epoch = fresh.PinEpoch();
  ASSERT_TRUE(fresh_epoch.ok());

  auto grown_cf = grown.EstimateCFAt(**grown_epoch, desc, scheme);
  auto fresh_cf = fresh.EstimateCFAt(**fresh_epoch, desc, scheme);
  ASSERT_TRUE(grown_cf.ok());
  ASSERT_TRUE(fresh_cf.ok());
  EXPECT_EQ(grown_cf->cf.value, fresh_cf->cf.value);
  EXPECT_EQ(grown_cf->sample_rows, 600u);
}

TEST(GrowSampleTest, RejectsExternalRngAndCustomSamplers) {
  auto table = WorkloadTable();
  {
    Random rng(3);
    EstimationEngineOptions options;
    options.base.fraction = 0.01;
    options.rng = &rng;
    EstimationEngine engine(*table, options);
    EXPECT_FALSE(engine.GrowSampleToEpoch(500).ok());
  }
  {
    auto sampler = MakeBlockSampler();
    EstimationEngineOptions options;
    options.base.fraction = 0.01;
    options.base.sampler = sampler.get();
    EstimationEngine engine(*table, options);
    EXPECT_FALSE(engine.GrowSampleToEpoch(500).ok());
  }
}

// ---------------------------------------------------------------------------
// AdaptiveEstimator
// ---------------------------------------------------------------------------

/// Candidates on the one-table catalog's table "t".
std::vector<CandidateConfiguration> AdaptiveWorkload() {
  return {Candidate("status", CompressionType::kRle, "t"),
          Candidate("city", CompressionType::kDictionaryPage, "t"),
          Candidate("status", CompressionType::kNullSuppression, "t"),
          Candidate("city", CompressionType::kNone, "t")};
}

TEST(AdaptiveEstimatorTest, ConvergesWithinTargetAndBudget) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("t", WorkloadTable()).ok());
  CatalogEstimationService service(catalog, SerialServiceOptions(0.005, 42));

  PrecisionTarget target;
  target.rel_error = 0.10;
  target.confidence = 0.90;
  auto result = EstimateAllAdaptive(service, AdaptiveWorkload(), target);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->candidates.size(), 4u);
  EXPECT_FALSE(result->budget_exhausted);
  ASSERT_EQ(result->tables.size(), 1u);
  EXPECT_EQ(result->tables[0].final_sample_rows,
            (*service.Engine("t"))->sample_rows());

  for (const AdaptiveCandidateResult& r : result->candidates) {
    EXPECT_TRUE(r.converged) << r.sized.config.index.name;
    EXPECT_LE(r.interval.upper - r.cf, r.target_half_width + 1e-12)
        << r.sized.config.index.name;
  }
  // The uncompressed candidate is exact and untouched by sampling.
  const AdaptiveCandidateResult& none = result->candidates[3];
  EXPECT_EQ(none.interval_method, "exact");
  EXPECT_EQ(none.cf, 1.0);
  EXPECT_EQ(none.rows_sampled, 0u);
  // NS takes the narrower of Theorem 1's distribution-free bound and the
  // data-dependent replicate width — never wider than the worst case.
  const AdaptiveCandidateResult& ns = result->candidates[2];
  EXPECT_TRUE(ns.interval_method == "theorem1" ||
              ns.interval_method == "group_replicates")
      << ns.interval_method;
  EXPECT_LE((ns.interval.upper - ns.interval.lower) / 2.0,
            ns.interval.num_sigmas * Theorem1StdDevBound(ns.rows_sampled) +
                1e-12);
  // General schemes use the data-dependent replicate interval.
  EXPECT_EQ(result->candidates[0].interval_method, "group_replicates");

  // The growth schedule is monotone and matches the engine's final state.
  const auto& schedule = result->tables[0].rows_per_round;
  ASSERT_FALSE(schedule.empty());
  for (size_t i = 1; i < schedule.size(); ++i) {
    EXPECT_GT(schedule[i], schedule[i - 1]);
  }
  EXPECT_EQ(schedule.back(), result->tables[0].final_sample_rows);
}

TEST(AdaptiveEstimatorTest, ConvergedResultEqualsFixedFractionRun) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("t", WorkloadTable()).ok());
  CatalogEstimationService service(catalog, SerialServiceOptions(0.005, 42));
  const EstimationEngine& engine = **service.Engine("t");
  const Table& table = engine.table();

  PrecisionTarget target;
  target.rel_error = 0.08;
  target.confidence = 0.90;
  const std::vector<CandidateConfiguration> candidates = AdaptiveWorkload();
  auto result = EstimateAllAdaptive(service, candidates, target);
  ASSERT_TRUE(result.ok());

  for (size_t i = 0; i < candidates.size(); ++i) {
    const AdaptiveCandidateResult& r = result->candidates[i];
    if (r.rows_sampled == 0) continue;  // uncompressed: no sampling
    EstimationEngineOptions fixed_options = engine.options();
    fixed_options.base.fraction = static_cast<double>(r.rows_sampled) /
                                  static_cast<double>(table.num_rows());
    EstimationEngine fixed(table, fixed_options);
    auto epoch = fixed.PinEpoch();
    ASSERT_TRUE(epoch.ok());
    auto sized = fixed.EstimateAt(**epoch, candidates[i]);
    ASSERT_TRUE(sized.ok());
    EXPECT_EQ(sized->estimated_cf, r.sized.estimated_cf)
        << candidates[i].index.name;
    EXPECT_EQ(sized->estimated_bytes, r.sized.estimated_bytes)
        << candidates[i].index.name;
    EXPECT_EQ(sized->sample_rows, r.rows_sampled)
        << candidates[i].index.name;
    auto cf = fixed.EstimateCFAt(**epoch, candidates[i].index,
                                 candidates[i].scheme);
    ASSERT_TRUE(cf.ok());
    EXPECT_EQ(cf->cf.value, r.cf) << candidates[i].index.name;
  }
}

TEST(AdaptiveEstimatorTest, ReportsBudgetExhaustion) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("t", WorkloadTable()).ok());
  CatalogEstimationService service(catalog, SerialServiceOptions(0.005, 42));

  PrecisionTarget target;
  target.rel_error = 0.0005;  // unreachable within the budget
  target.row_budget = 500;
  auto result = EstimateAllAdaptive(service, AdaptiveWorkload(), target);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->budget_exhausted);
  EXPECT_LE(result->tables[0].final_sample_rows, 500u);
  bool any_unconverged = false;
  for (const AdaptiveCandidateResult& r : result->candidates) {
    if (!r.converged) {
      any_unconverged = true;
      // Unconverged candidates still report their best estimate and the
      // interval they got stuck at (convergence is on the upper half-width,
      // which the zero-clamped lower bound cannot understate).
      EXPECT_GT(r.rows_sampled, 0u);
      EXPECT_GT(r.interval.upper - r.cf, r.target_half_width);
    }
  }
  EXPECT_TRUE(any_unconverged);
  EXPECT_LE(result->rounds, target.max_rounds);
}

TEST(AdaptiveEstimatorTest, ServiceLevelGrowsEachTableIndependently) {
  auto orders = WorkloadTable(15000, 3);
  auto lineitem = WorkloadTable(25000, 9);
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("orders", std::move(orders)).ok());
  ASSERT_TRUE(catalog.AddTable("lineitem", std::move(lineitem)).ok());

  CatalogEstimationServiceOptions options;
  options.base.fraction = 0.005;
  options.seed = 42;
  options.num_threads = 2;
  CatalogEstimationService service(catalog, options);

  std::vector<CandidateConfiguration> candidates = {
      Candidate("city", CompressionType::kDictionaryPage, "orders"),
      Candidate("status", CompressionType::kRle, "lineitem"),
      Candidate("status", CompressionType::kNullSuppression, "orders"),
  };
  PrecisionTarget target;
  target.rel_error = 0.10;
  target.confidence = 0.90;
  auto result = EstimateAllAdaptive(service, candidates, target);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->candidates.size(), 3u);
  ASSERT_EQ(result->tables.size(), 2u);
  EXPECT_EQ(result->tables[0].table_name, "orders");
  EXPECT_EQ(result->tables[1].table_name, "lineitem");
  EXPECT_EQ(result->total_sample_rows,
            result->tables[0].final_sample_rows +
                result->tables[1].final_sample_rows);
  for (const AdaptiveCandidateResult& r : result->candidates) {
    EXPECT_TRUE(r.converged) << r.sized.config.index.name;
  }
  // Positional alignment: result i matches candidate i.
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(result->candidates[i].sized.config.index.name,
              candidates[i].index.name);
  }
}

TEST(AdaptiveEstimatorTest, PrecisionTargetedAdvisorSelectsUnderBound) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("t", WorkloadTable()).ok());
  CatalogEstimationService service(catalog, SerialServiceOptions(0.005, 42));

  PrecisionTarget target;
  target.rel_error = 0.10;
  target.confidence = 0.90;
  AdaptiveBatchResult adaptive;
  auto rec = AdviseConfigurations(service, AdaptiveWorkload(),
                                  /*storage_bound=*/1 << 20, target,
                                  AdvisorStrategy::kGreedy, &adaptive);
  ASSERT_TRUE(rec.ok());
  EXPECT_LE(rec->total_bytes, static_cast<uint64_t>(1) << 20);
  EXPECT_EQ(adaptive.candidates.size(), 4u);
  EXPECT_FALSE(adaptive.budget_exhausted);
}

// ---------------------------------------------------------------------------
// AdaptiveEstimator per candidate — the lazy advisor's entry point
// ---------------------------------------------------------------------------

TEST(AdaptiveEstimatorTest, RefineUntilConvergesAndMatchesFixedFraction) {
  auto table = WorkloadTable();
  EstimationEngineOptions options;
  options.base.fraction = 0.002;
  options.seed = 42;
  options.num_threads = 1;
  EstimationEngine engine(*table, options);

  PrecisionTarget target;
  target.rel_error = 0.05;
  auto estimator = AdaptiveEstimator::Make(engine, target);
  ASSERT_TRUE(estimator.ok());

  const CandidateConfiguration c =
      Candidate("status", CompressionType::kNullSuppression);
  auto refined = estimator->RefineUntil(c, nullptr);
  ASSERT_TRUE(refined.ok());
  EXPECT_TRUE(refined->converged);
  EXPECT_LE(refined->interval.upper - refined->cf,
            refined->target_half_width);
  EXPECT_EQ(refined->rows_sampled, engine.sample_rows());

  // Prefix property: the refined estimate equals a fixed-fraction engine
  // run at the final fraction under the same seed.
  EstimationEngineOptions fixed_options = options;
  fixed_options.base.fraction = static_cast<double>(refined->rows_sampled) /
                                static_cast<double>(table->num_rows());
  EstimationEngine fixed(*table, fixed_options);
  auto fixed_epoch = fixed.PinEpoch();
  ASSERT_TRUE(fixed_epoch.ok());
  auto fixed_estimate = fixed.EstimateCFAt(**fixed_epoch, c.index, c.scheme);
  ASSERT_TRUE(fixed_estimate.ok());
  EXPECT_EQ(fixed_estimate->cf.value, refined->cf);
  EXPECT_EQ(fixed_estimate->sample_rows, refined->rows_sampled);
}

TEST(AdaptiveEstimatorTest, RefineUntilDonePredicateStopsBeforeConvergence) {
  auto table = WorkloadTable();
  EstimationEngineOptions options;
  options.base.fraction = 0.002;
  options.seed = 42;
  options.num_threads = 1;
  EstimationEngine engine(*table, options);

  PrecisionTarget target;
  target.rel_error = 0.001;  // far beyond what the base sample gives
  auto estimator = AdaptiveEstimator::Make(engine, target);
  ASSERT_TRUE(estimator.ok());

  const CandidateConfiguration c =
      Candidate("city", CompressionType::kDictionaryPage);
  const uint64_t rows_before = [&] {
    auto current = estimator->EstimateAtCurrentSample(c);
    EXPECT_TRUE(current.ok());
    return current->rows_sampled;
  }();
  // A done-predicate that accepts immediately must not grow the sample.
  auto accepted = estimator->RefineUntil(
      c, [](const AdaptiveCandidateResult&) { return true; });
  ASSERT_TRUE(accepted.ok());
  EXPECT_FALSE(accepted->converged);
  EXPECT_EQ(accepted->rows_sampled, rows_before);
  EXPECT_EQ(estimator->growth_steps(), 0u);

  // Without it the estimator grows (until the tiny target exhausts the
  // budget), strictly past the coarse sample.
  auto refined = estimator->RefineUntil(c, nullptr);
  ASSERT_TRUE(refined.ok());
  EXPECT_GT(refined->rows_sampled, rows_before);
  EXPECT_GT(estimator->growth_steps(), 0u);
}

TEST(AdaptiveEstimatorTest, RefineUntilUncompressedCandidatesAreExact) {
  auto table = WorkloadTable();
  EstimationEngine engine(*table);
  auto estimator = AdaptiveEstimator::Make(engine, PrecisionTarget{});
  ASSERT_TRUE(estimator.ok());
  const CandidateConfiguration c =
      Candidate("status", CompressionType::kNone);
  auto result = estimator->RefineUntil(c, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_EQ(result->rows_sampled, 0u);
  EXPECT_DOUBLE_EQ(result->cf, 1.0);
  EXPECT_EQ(result->sized.estimated_bytes, result->sized.uncompressed_bytes);
  EXPECT_EQ(engine.sample_rows(), 0u);  // no draw needed
}

TEST(AdaptiveEstimatorTest, RefineUntilTakesTheRoundLoopSchedule) {
  // A base draw of 200 rows is already past min_rows, so the round loop's
  // first-round floor does not move it and both paths start from the
  // same sample.
  auto table = WorkloadTable();
  EstimationEngineOptions options;
  options.base.fraction = 0.01;
  options.seed = 42;
  options.num_threads = 1;
  PrecisionTarget target;
  ASSERT_GE(static_cast<uint64_t>(options.base.fraction *
                                  static_cast<double>(table->num_rows())),
            target.min_rows);
  const CandidateConfiguration c =
      Candidate("city", CompressionType::kDictionaryPage);

  EstimationEngine refine_engine(*table, options);
  auto refiner = AdaptiveEstimator::Make(refine_engine, target);
  ASSERT_TRUE(refiner.ok());
  auto refined = refiner->RefineUntil(c, nullptr);
  ASSERT_TRUE(refined.ok());

  EstimationEngine loop_engine(*table, options);
  auto looper = AdaptiveEstimator::Make(loop_engine, target);
  ASSERT_TRUE(looper.ok());
  auto batch = looper->EstimateAll(std::vector<CandidateConfiguration>{c});
  ASSERT_TRUE(batch.ok());
  const AdaptiveCandidateResult& looped = batch->candidates[0];

  EXPECT_TRUE(refined->converged);
  EXPECT_TRUE(looped.converged);
  EXPECT_GT(refined->rows_sampled, 200u);  // the schedule actually grew
  EXPECT_EQ(refined->rows_sampled, looped.rows_sampled);
  EXPECT_EQ(refined->cumulative_rows_sized, looped.cumulative_rows_sized);
  EXPECT_EQ(refined->cf, looped.cf);
  EXPECT_EQ(refined->interval.lower, looped.interval.lower);
  EXPECT_EQ(refined->interval.upper, looped.interval.upper);
  EXPECT_EQ(refined->interval_method, looped.interval_method);
  EXPECT_EQ(refiner->growth_steps(), looper->growth_steps());
}

// ---------------------------------------------------------------------------
// Replicate builds memoized on the sample epoch
// ---------------------------------------------------------------------------

TEST(ReplicateMemoTest, IntervalCallsAndSchemesShareOneReplicateSet) {
  auto table = WorkloadTable();
  EstimationEngineOptions options;
  options.base.fraction = 0.02;
  options.seed = 42;
  options.num_threads = 1;
  EstimationEngine engine(*table, options);
  auto epoch = engine.PinEpoch();
  ASSERT_TRUE(epoch.ok());
  const uint32_t groups = PrecisionTarget{}.interval_groups;
  const IndexBuildOptions& build = engine.options().base.build;

  // Two schemes on one key set (the index names differ; the key set does
  // not).
  const std::vector<CandidateConfiguration> candidates = {
      Candidate("status", CompressionType::kRle),
      Candidate("status", CompressionType::kNullSuppression)};
  auto first = EstimateCandidateIntervals(engine, candidates, 1.96, groups);
  ASSERT_TRUE(first.ok());
  auto rle_set = (*epoch)->ReplicateIndexes(candidates[0].index, groups,
                                            build);
  auto ns_set = (*epoch)->ReplicateIndexes(candidates[1].index, groups,
                                           build);
  ASSERT_TRUE(rle_set.ok());
  ASSERT_TRUE(ns_set.ok());
  EXPECT_EQ(rle_set->get(), ns_set->get());
  ASSERT_EQ((*rle_set)->size(), groups);
  uint64_t replicate_rows = 0;
  for (const Index& index : **rle_set) replicate_rows += index.num_rows();
  EXPECT_EQ(replicate_rows, (*epoch)->sample_rows());

  // A second batch on the same epoch reuses the set and reproduces the
  // intervals bit for bit.
  auto second = EstimateCandidateIntervals(engine, candidates, 1.96, groups);
  ASSERT_TRUE(second.ok());
  auto again = (*epoch)->ReplicateIndexes(candidates[0].index, groups,
                                          build);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), rle_set->get());
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ((*first)[i].cf, (*second)[i].cf);
    EXPECT_EQ((*first)[i].interval.lower, (*second)[i].interval.lower);
    EXPECT_EQ((*first)[i].interval.upper, (*second)[i].interval.upper);
    EXPECT_EQ((*first)[i].method, (*second)[i].method);
  }

  // A different group count is a different replicate set.
  auto halves = (*epoch)->ReplicateIndexes(candidates[0].index, 2, build);
  ASSERT_TRUE(halves.ok());
  EXPECT_NE(halves->get(), rle_set->get());
  EXPECT_EQ((*halves)->size(), 2u);
}

TEST(ReplicateMemoTest, ReplicateBuildsAreNotCountedAsIndexTraffic) {
  auto table = WorkloadTable();
  EstimationEngineOptions options;
  options.base.fraction = 0.02;
  options.seed = 42;
  options.num_threads = 1;
  EstimationEngine engine(*table, options);
  auto epoch = engine.PinEpoch();
  ASSERT_TRUE(epoch.ok());
  const EstimationEngine::CacheStats before = engine.cache_stats();

  const CandidateConfiguration c =
      Candidate("city", CompressionType::kDictionaryPage);
  for (int i = 0; i < 2; ++i) {  // one build, then one memo hit
    ASSERT_TRUE((*epoch)
                    ->ReplicateIndexes(c.index, 8,
                                       engine.options().base.build)
                    .ok());
  }
  const EstimationEngine::CacheStats after = engine.cache_stats();
  EXPECT_EQ(after.index_builds, before.index_builds);
  EXPECT_EQ(after.index_cache_hits, before.index_cache_hits);
  EXPECT_EQ(after.invalidations, before.invalidations);
}

TEST(ReplicateMemoTest, GrowthStartsAFreshReplicateSet) {
  auto table = WorkloadTable();
  EstimationEngineOptions options;
  options.base.fraction = 0.01;
  options.seed = 42;
  options.num_threads = 1;
  EstimationEngine engine(*table, options);
  auto epoch = engine.PinEpoch();
  ASSERT_TRUE(epoch.ok());
  const CandidateConfiguration c =
      Candidate("status", CompressionType::kRle);
  const IndexBuildOptions& build = engine.options().base.build;
  auto small = (*epoch)->ReplicateIndexes(c.index, 8, build);
  ASSERT_TRUE(small.ok());

  auto grown = engine.GrowSampleToEpoch(2 * (*epoch)->sample_rows());
  ASSERT_TRUE(grown.ok());
  ASSERT_GT((*grown)->sample_rows(), (*epoch)->sample_rows());
  auto large = (*grown)->ReplicateIndexes(c.index, 8, build);
  ASSERT_TRUE(large.ok());
  EXPECT_NE(large->get(), small->get());
  uint64_t replicate_rows = 0;
  for (const Index& index : **large) replicate_rows += index.num_rows();
  EXPECT_EQ(replicate_rows, (*grown)->sample_rows());
}

TEST(ReplicateMemoTest, RejectedAppendKeepsTheSetAndRefreshDropsIt) {
  auto table = WorkloadTable();
  EstimationEngineOptions options;
  options.seed = 11;
  options.maintain_reservoir = true;
  options.reservoir_capacity = 150;
  EstimationEngine engine(*table, options);
  const CandidateConfiguration c =
      Candidate("city", CompressionType::kDictionaryPage);
  const IndexBuildOptions& build = engine.options().base.build;

  // Append one row at a time: a 150-row reservoir over 20k rows rejects
  // most of them (the sample is unchanged), and eventually takes one.
  bool saw_rejected = false;
  bool saw_refresh = false;
  for (int i = 0; i < 200 && !(saw_rejected && saw_refresh); ++i) {
    auto before = engine.PinEpoch();
    ASSERT_TRUE(before.ok());
    auto set = (*before)->ReplicateIndexes(c.index, 8, build);
    ASSERT_TRUE(set.ok());
    auto decoded = table->DecodeRow(static_cast<RowId>(i));
    ASSERT_TRUE(decoded.ok());
    ASSERT_TRUE(table->AppendRow(*decoded).ok());
    const uint64_t end = table->num_rows();
    ASSERT_TRUE(engine.NotifyAppend({end - 1, end}).ok());
    auto after = engine.PinEpoch();
    ASSERT_TRUE(after.ok());
    ASSERT_NE(after->get(), before->get());  // a successor epoch either way
    auto next = (*after)->ReplicateIndexes(c.index, 8, build);
    ASSERT_TRUE(next.ok());
    if ((*after)->version() == (*before)->version()) {
      saw_rejected = true;
      EXPECT_EQ(next->get(), set->get());
    } else {
      saw_refresh = true;
      EXPECT_NE(next->get(), set->get());
    }
  }
  EXPECT_TRUE(saw_rejected);
  EXPECT_TRUE(saw_refresh);
}

TEST(EstimateAllTest, PopulatesSampleRows) {
  auto table = WorkloadTable();
  EstimationEngineOptions options;
  options.base.fraction = 0.01;
  options.seed = 42;
  options.num_threads = 1;
  EstimationEngine engine(*table, options);
  auto sized = engine.EstimateAll(AdaptiveWorkload());
  ASSERT_TRUE(sized.ok());
  EXPECT_EQ((*sized)[0].sample_rows, 200u);
  EXPECT_EQ((*sized)[3].sample_rows, 0u);  // uncompressed
}

}  // namespace
}  // namespace cfest

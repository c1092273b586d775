// Tests for the EstimationEngine stack: TableView zero-copy sampling,
// the descriptor-level sample-index cache, batch-vs-single-shot estimate
// equality, thread-pool determinism, and the engine-backed consumers.

#include <atomic>
#include <barrier>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "datagen/table_gen.h"
#include "estimator/engine.h"
#include "estimator/hybrid.h"
#include "estimator/sample_cf.h"
#include "estimator/scheme_advisor.h"
#include "sampling/sampler.h"
#include "storage/table_view.h"

namespace cfest {
namespace {

std::unique_ptr<Table> WorkloadTable() {
  auto table = GenerateTable(
      {ColumnSpec::String("status", 12, 6, FrequencySpec::Uniform(),
                          LengthSpec::Uniform(4, 10)),
       ColumnSpec::String("city", 24, 50, FrequencySpec::Zipf(1.0),
                          LengthSpec::Uniform(4, 20)),
       ColumnSpec::Integer("amount", 400)},
      20000, 7);
  EXPECT_TRUE(table.ok());
  return std::move(table).ValueOrDie();
}

std::vector<CandidateConfiguration> Candidates() {
  const std::vector<CompressionType> schemes = {
      CompressionType::kNullSuppression, CompressionType::kDictionaryPage,
      CompressionType::kRle, CompressionType::kPrefix};
  std::vector<CandidateConfiguration> candidates;
  for (const char* col : {"status", "city", "amount"}) {
    for (CompressionType type : schemes) {
      CandidateConfiguration c;
      c.table_name = "workload";
      c.index = {std::string("ix_") + col + "_" + CompressionTypeName(type),
                 {col},
                 /*clustered=*/false};
      c.scheme = CompressionScheme::Uniform(type);
      c.benefit = 1.0;
      candidates.push_back(std::move(c));
    }
  }
  // One uncompressed and one multi-column candidate for coverage.
  CandidateConfiguration none;
  none.table_name = "workload";
  none.index = {"ix_status_none", {"status"}, false};
  none.scheme = CompressionScheme::Uniform(CompressionType::kNone);
  candidates.push_back(std::move(none));
  CandidateConfiguration multi;
  multi.table_name = "workload";
  multi.index = {"ix_city_status", {"city", "status"}, false};
  multi.scheme = CompressionScheme::Uniform(CompressionType::kRle);
  multi.benefit = 2.0;
  candidates.push_back(std::move(multi));
  return candidates;
}

// ---------------------------------------------------------------------------
// TableView
// ---------------------------------------------------------------------------

TEST(TableViewTest, RoundTripsRowsByteIdenticallyVsMaterialize) {
  auto table = WorkloadTable();
  Random rng(11);
  auto sampler = MakeUniformWithReplacementSampler();
  auto ids = sampler->SampleIds(*table, 0.02, &rng);
  ASSERT_TRUE(ids.ok());

  auto materialized = MaterializeSample(*table, *ids);
  ASSERT_TRUE(materialized.ok());
  auto view = TableView::Make(*table, *ids);
  ASSERT_TRUE(view.ok());

  ASSERT_EQ((*view)->num_rows(), (*materialized)->num_rows());
  EXPECT_EQ((*view)->row_width(), (*materialized)->row_width());
  EXPECT_EQ((*view)->data_bytes(), (*materialized)->data_bytes());
  for (RowId i = 0; i < (*view)->num_rows(); ++i) {
    Slice a = (*view)->row(i);
    Slice b = (*materialized)->row(i);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size())) << "row " << i;
  }
}

TEST(TableViewTest, RejectsOutOfRangeIds) {
  auto table = WorkloadTable();
  auto view = TableView::Make(*table, {0, 1, table->num_rows()});
  EXPECT_FALSE(view.ok());
}

TEST(TableViewTest, SampleViewMatchesSampleIdsForSameSeed) {
  auto table = WorkloadTable();
  auto sampler = MakeUniformWithReplacementSampler();
  Random rng_ids(3), rng_view(3);
  auto ids = sampler->SampleIds(*table, 0.01, &rng_ids);
  auto view = sampler->SampleView(*table, 0.01, &rng_view);
  ASSERT_TRUE(ids.ok());
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(*ids, (*view)->row_ids());
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(4u, pool.num_threads());
  std::vector<std::atomic<int>> touched(1000);
  pool.ParallelFor(1000, [&](uint64_t i) { ++touched[i]; });
  for (const auto& t : touched) EXPECT_EQ(1, t.load());
}

TEST(ThreadPoolTest, SubmitAndWaitDrainsAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.Submit([&] { ++count; });
  pool.Wait();
  EXPECT_EQ(100, count.load());
}

// ---------------------------------------------------------------------------
// EstimationEngine: batch equals single-shot SampleCF
// ---------------------------------------------------------------------------

TEST(EngineTest, BatchMatchesPerCandidateSampleCF) {
  auto table = WorkloadTable();
  auto candidates = Candidates();
  constexpr uint64_t kSeed = 42;

  SampleCFOptions options;
  options.fraction = 0.02;
  options.metric = SizeMetric::kPageBytes;

  EstimationEngineOptions engine_options;
  engine_options.base = options;
  engine_options.seed = kSeed;
  EstimationEngine engine(*table, engine_options);
  auto sized = engine.EstimateAll(candidates);
  ASSERT_TRUE(sized.ok());
  ASSERT_EQ(candidates.size(), sized->size());

  for (size_t i = 0; i < candidates.size(); ++i) {
    const bool uncompressed =
        candidates[i].scheme.default_type == CompressionType::kNone;
    if (uncompressed) {
      EXPECT_EQ(1.0, (*sized)[i].estimated_cf);
      EXPECT_EQ((*sized)[i].uncompressed_bytes, (*sized)[i].estimated_bytes);
      continue;
    }
    Random rng(kSeed);
    auto single = SampleCF(*table, candidates[i].index, candidates[i].scheme,
                           options, &rng);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(single->cf.value, (*sized)[i].estimated_cf)
        << "candidate " << candidates[i].index.name;
  }
  EXPECT_EQ(1u, engine.cache_stats().samples_drawn);
}

TEST(EngineTest, EstimateCFMatchesSampleCFResultFields) {
  auto table = WorkloadTable();
  constexpr uint64_t kSeed = 9;
  IndexDescriptor desc{"ix", {"city"}, false};
  CompressionScheme scheme =
      CompressionScheme::Uniform(CompressionType::kDictionaryPage);

  EstimationEngineOptions engine_options;
  engine_options.base.fraction = 0.02;
  engine_options.seed = kSeed;
  EstimationEngine engine(*table, engine_options);
  auto epoch = engine.PinEpoch();
  ASSERT_TRUE(epoch.ok());
  auto batch = engine.EstimateCFAt(**epoch, desc, scheme);
  ASSERT_TRUE(batch.ok());

  Random rng(kSeed);
  SampleCFOptions options;
  options.fraction = 0.02;
  auto single = SampleCF(*table, desc, scheme, options, &rng);
  ASSERT_TRUE(single.ok());

  EXPECT_EQ(single->cf.value, batch->cf.value);
  EXPECT_EQ(single->sample_rows, batch->sample_rows);
  EXPECT_EQ(single->sample_dictionary_entries,
            batch->sample_dictionary_entries);
  EXPECT_EQ(single->sample_compressed.page_bytes(),
            batch->sample_compressed.page_bytes());
}

// ---------------------------------------------------------------------------
// EstimationEngine: caching
// ---------------------------------------------------------------------------

TEST(EngineTest, IndexBuildCacheIsHitAcrossSchemes) {
  auto table = WorkloadTable();
  auto candidates = Candidates();  // 4 key sets, 14 candidates
  EstimationEngineOptions engine_options;
  engine_options.base.fraction = 0.02;
  EstimationEngine engine(*table, engine_options);
  auto sized = engine.EstimateAll(candidates);
  ASSERT_TRUE(sized.ok());

  const EstimationEngine::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(1u, stats.samples_drawn);
  // 13 compressed candidates over 4 distinct key sets (the kNone candidate
  // never touches the sample).
  EXPECT_EQ(4u, stats.index_builds);
  EXPECT_EQ(9u, stats.index_cache_hits);

  // A second batch over the same candidates is served entirely from cache.
  auto again = engine.EstimateAll(candidates);
  ASSERT_TRUE(again.ok());
  const EstimationEngine::CacheStats stats2 = engine.cache_stats();
  EXPECT_EQ(1u, stats2.samples_drawn);
  EXPECT_EQ(4u, stats2.index_builds);
  EXPECT_EQ(22u, stats2.index_cache_hits);
  for (size_t i = 0; i < sized->size(); ++i) {
    EXPECT_EQ((*sized)[i].estimated_cf, (*again)[i].estimated_cf);
  }
}

TEST(EngineTest, DescriptorNameDoesNotDefeatTheCache) {
  auto table = WorkloadTable();
  EstimationEngineOptions engine_options;
  engine_options.base.fraction = 0.02;
  EstimationEngine engine(*table, engine_options);
  auto epoch = engine.PinEpoch();
  ASSERT_TRUE(epoch.ok());
  auto build = [&](const IndexDescriptor& descriptor) {
    return engine.SampleIndexAt(**epoch, descriptor).ok();
  };
  ASSERT_TRUE(build({"a", {"city"}, false}));
  ASSERT_TRUE(build({"b", {"city"}, false}));
  EXPECT_EQ(1u, engine.cache_stats().index_builds);
  EXPECT_EQ(1u, engine.cache_stats().index_cache_hits);

  // Clustered vs non-clustered and different key order are distinct builds.
  ASSERT_TRUE(build({"c", {"city"}, true}));
  ASSERT_TRUE(build({"d", {"status", "city"}, false}));
  ASSERT_TRUE(build({"e", {"city", "status"}, false}));
  EXPECT_EQ(4u, engine.cache_stats().index_builds);
}

// Eight threads asking one pinned epoch for the same key set at once share
// one build: the first registers it, the rest wait for it and hold the very
// same object. The replicate memo behind the adaptive interval does the same.
TEST(EngineTest, ConcurrentMissesOnOnePinnedEpochShareOneBuild) {
  auto table = WorkloadTable();
  EstimationEngineOptions engine_options;
  engine_options.base.fraction = 0.02;
  EstimationEngine engine(*table, engine_options);
  auto epoch = engine.PinEpoch();
  ASSERT_TRUE(epoch.ok());
  const IndexDescriptor descriptor{"ix", {"city", "status"}, false};
  constexpr int kThreads = 8;
  constexpr uint32_t kGroups = 4;
  std::vector<std::shared_ptr<const Index>> indexes(kThreads);
  std::vector<std::shared_ptr<const std::vector<Index>>> replicates(kThreads);
  std::barrier start(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      auto index = engine.SampleIndexAt(**epoch, descriptor);
      if (index.ok()) indexes[t] = *index;
      start.arrive_and_wait();
      auto groups = (*epoch)->ReplicateIndexes(descriptor, kGroups,
                                               engine.options().base.build);
      if (groups.ok()) replicates[t] = *groups;
    });
  }
  for (std::thread& thread : threads) thread.join();

  const EstimationEngine::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(1u, stats.index_builds);
  EXPECT_EQ(static_cast<uint64_t>(kThreads - 1), stats.index_cache_hits);
  ASSERT_NE(nullptr, indexes[0]);
  ASSERT_NE(nullptr, replicates[0]);
  EXPECT_EQ(kGroups, replicates[0]->size());
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(indexes[0], indexes[t]) << "thread " << t;
    EXPECT_EQ(replicates[0], replicates[t]) << "thread " << t;
  }
}

// ---------------------------------------------------------------------------
// EstimationEngine: thread-pool determinism
// ---------------------------------------------------------------------------

TEST(EngineTest, ParallelBatchIsDeterministicUnderFixedSeed) {
  auto table = WorkloadTable();
  auto candidates = Candidates();
  constexpr uint64_t kSeed = 123;

  auto run = [&](uint32_t threads) {
    EstimationEngineOptions engine_options;
    engine_options.base.fraction = 0.02;
    engine_options.seed = kSeed;
    engine_options.num_threads = threads;
    EstimationEngine engine(*table, engine_options);
    auto sized = engine.EstimateAll(candidates);
    EXPECT_TRUE(sized.ok());
    return std::move(sized).ValueOrDie();
  };

  const std::vector<SizedCandidate> serial = run(1);
  for (int attempt = 0; attempt < 3; ++attempt) {
    const std::vector<SizedCandidate> parallel = run(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].estimated_cf, parallel[i].estimated_cf);
      EXPECT_EQ(serial[i].estimated_bytes, parallel[i].estimated_bytes);
      EXPECT_EQ(serial[i].uncompressed_bytes, parallel[i].uncompressed_bytes);
    }
  }
}

// ---------------------------------------------------------------------------
// Re-routed consumers
// ---------------------------------------------------------------------------

TEST(EngineTest, ExternalRngEngineMatchesSeededEngine) {
  auto table = WorkloadTable();
  auto candidates = Candidates();
  constexpr uint64_t kSeed = 42;
  SampleCFOptions options;
  options.fraction = 0.02;

  EstimationEngineOptions engine_options;
  engine_options.base = options;
  engine_options.seed = kSeed;
  EstimationEngine engine(*table, engine_options);
  auto batch = engine.EstimateAll(candidates);
  ASSERT_TRUE(batch.ok());

  // A fresh engine per candidate drawing from a caller-owned stream seeded
  // like the batch engine's own: the draw, and so every estimate, matches.
  for (size_t i = 0; i < candidates.size(); ++i) {
    Random rng(kSeed);
    EstimationEngineOptions rng_options;
    rng_options.base = options;
    rng_options.rng = &rng;
    EstimationEngine single_engine(*table, rng_options);
    auto epoch = single_engine.PinEpoch();
    ASSERT_TRUE(epoch.ok());
    auto single = single_engine.EstimateAt(**epoch, candidates[i]);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(single->estimated_cf, (*batch)[i].estimated_cf);
    EXPECT_EQ(single->estimated_bytes, (*batch)[i].estimated_bytes);
    EXPECT_EQ(single->uncompressed_bytes, (*batch)[i].uncompressed_bytes);
  }
}

TEST(EngineTest, SelectionFromBatchStaysUnderBound) {
  auto table = WorkloadTable();
  auto candidates = Candidates();
  EstimationEngineOptions engine_options;
  engine_options.base.fraction = 0.02;
  EstimationEngine engine(*table, engine_options);

  auto sized = engine.EstimateAll(candidates);
  ASSERT_TRUE(sized.ok());
  uint64_t total = 0;
  for (const SizedCandidate& s : *sized) total += s.estimated_bytes;

  auto rec = SelectConfigurations(*sized, total / 2);
  ASSERT_TRUE(rec.ok());
  EXPECT_LE(rec->total_bytes, total / 2);
  EXPECT_FALSE(rec->selected.empty());
  // At most one configuration per index name.
  std::set<std::string> names;
  for (const SizedCandidate& s : rec->selected) {
    EXPECT_TRUE(names.insert(s.config.table_name + "." + s.config.index.name)
                    .second);
  }
}

TEST(EngineTest, EngineBackedRecommendSchemeMatchesSingleShot) {
  auto table = WorkloadTable();
  constexpr uint64_t kSeed = 5;
  IndexDescriptor desc{"ix", {"city", "status"}, true};
  SampleCFOptions options;
  options.fraction = 0.02;

  Random rng(kSeed);
  auto single = RecommendScheme(*table, desc, {}, options, &rng);
  ASSERT_TRUE(single.ok());

  EstimationEngineOptions engine_options;
  engine_options.base = options;
  engine_options.seed = kSeed;
  EstimationEngine engine(*table, engine_options);
  auto batch = RecommendScheme(engine, desc);
  ASSERT_TRUE(batch.ok());

  EXPECT_EQ(single->estimated_cf, batch->estimated_cf);
  EXPECT_EQ(single->sample_rows, batch->sample_rows);
  ASSERT_EQ(single->columns.size(), batch->columns.size());
  for (size_t c = 0; c < single->columns.size(); ++c) {
    EXPECT_EQ(single->columns[c].best, batch->columns[c].best);
    EXPECT_EQ(single->columns[c].estimated_cf, batch->columns[c].estimated_cf);
  }
  // All schemes were ranked off one sample index build.
  EXPECT_EQ(1u, engine.cache_stats().index_builds);
  EXPECT_GT(engine.cache_stats().index_cache_hits, 0u);
}

TEST(EngineTest, EngineBackedHybridMatchesSingleShot) {
  auto table = WorkloadTable();
  constexpr uint64_t kSeed = 17;
  IndexDescriptor desc{"ix", {"city"}, false};
  CompressionScheme scheme =
      CompressionScheme::Uniform(CompressionType::kDictionaryGlobal);

  HybridCFOptions options;
  options.base.fraction = 0.02;
  Random rng(kSeed);
  auto single = HybridDictionaryCF(*table, desc, scheme, options, &rng);
  ASSERT_TRUE(single.ok());

  EstimationEngineOptions engine_options;
  engine_options.base = options.base;
  engine_options.seed = kSeed;
  EstimationEngine engine(*table, engine_options);
  auto batch = HybridDictionaryCF(engine, desc, scheme);
  ASSERT_TRUE(batch.ok());

  EXPECT_EQ(single->estimate, batch->estimate);
  EXPECT_EQ(single->plain.cf.value, batch->plain.cf.value);
  EXPECT_EQ(single->column_dv_estimates, batch->column_dv_estimates);
}

}  // namespace
}  // namespace cfest
